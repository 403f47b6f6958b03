"""Critical points of the master functions and continuation in the nome.

Closed forms:

  * N=2, any l: the critical T multiset is the root set of the degree-l
    polynomial Sum_i (-1)^i sigma_i z^(l-i) with elementary symmetric values
    sigma_i = C(l,i) prod_{j=1..i} (-m1+1+l-j)/(-m1-j); the discriminant
    delta = prod (T_i-T_j)^2 and the Hessian determinant have product
    closed forms (functions ``delta_closed_form_n2``, ``hess_closed_form_n2``).
  * N=3, l=1: T_3 = (m1+m2-1)(m2-1)/((m1+m2+1)(m2+1)); (T_1, T_2) solve
    (m1+m2+1)(m1+1) X^2 + 2(-m1^2-m1m2+2) X + (m1+m2-1)(m1-1) = 0.
    The product identities T1T2 and (1-T1)(1-T2) match their displays
    exactly; the displayed prod (T_i-T_j)^2 is uniformly -8 x the direct
    product and the displayed Hessian is -1 x the direct determinant (both
    constant factors are exposed by ``n3_closed_form_displays`` and recorded
    by the tests).

The closed forms solve in T = exp(-2 pi i t); every root they give, and
every report, is a point in t at ``Nome(p=0)``, where the trigonometric
Bethe equations are the elliptic ones.  Gradient norms and Hessian
determinants are those of -log Phi in t (the T-convention displays above
relate to them by det H_t = Prod_k (-2 pi i T_k)^2 det H_T at a root).

Generic search: the capped Newton of ``master.newton_polish_tau`` at p = 0
from closed forms or randomized annulus seeds, accepting only points in
F_{N,l} with non-degenerate Hessian and non-vanishing symmetrized Bethe
vector.

Continuation: from a non-degenerate p = 0 point, the nome is
advanced along a geometric-then-linear schedule (first step 1e-6, x10 per
step until within a decade of the target, then ``steps`` linear steps),
Newton-correcting the elliptic Bethe root at every step and halving the
step on failure down to ``MIN_STEP``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Optional

import numpy as np

from .elliptic import Nome
from .errors import (ConvergenceError, DegeneracyError, DomainError,
                     MembershipError)
from .master import (CriticalReport, EllipticPoint, _polish,
                     eigenvalue_elliptic)
from .states import sym_omega_tri_nonvanishing
from .weights import (BetheIndexing, RootSystemData, Weight, admissible,
                      lambda_coords, permute_weight, root_system,
                      build_indexing)

NEWTON_TOL = 1e-12
P_MAX = 0.3
MIN_STEP = 1e-12
FIRST_STEP = 1e-6
HESS_DEGENERACY_TOL = 1e-9
SEARCH_MAX_ITER = 200


# ---------------------------------------------------------------------------
# N = 2 closed forms


def sigma_closed_form(m1: float, l: int) -> list:
    """Elementary symmetric values sigma_i of the N=2 critical T multiset,
    exact Fractions for integer m1."""
    if l < 1:
        raise DomainError(f"need l >= 1, got {l}")
    m1_int = isinstance(m1, (int, np.integer)) or (isinstance(m1, float) and m1 == int(m1))
    if m1_int and int(m1) != 0 and abs(int(m1)) <= l:
        raise DomainError(
            f"degenerate parameter m1={m1}: sigma numerators/denominators vanish "
            f"for |m1| in 1..l (l={l})")
    out = []
    if m1_int:
        m = Fraction(int(m1))
        for i in range(1, l + 1):
            val = Fraction(math.comb(l, i))
            for j in range(1, i + 1):
                val *= Fraction(-m + 1 + l - j, 1) / (-m - j)
            out.append(val)
    else:
        for i in range(1, l + 1):
            val = float(math.comb(l, i))
            for j in range(1, i + 1):
                denom = -m1 - j
                if denom == 0:
                    raise DomainError(f"degenerate parameter m1={m1}")
                val *= (-m1 + 1 + l - j) / denom
            out.append(val)
    return out


def delta_closed_form_n2(m1: float, l: int) -> float:
    """delta = prod_{i<j} (T_i - T_j)^2 at the N=2 critical point."""
    val = 1.0
    for j in range(l):
        num = (j + 1) ** (j + 1) * (-m1 + 1 + j) ** j * (-2 * l + j) ** j
        den = (-m1 - j - 1) ** (2 * l - j - 2)
        if den == 0:
            raise DomainError(f"degenerate parameter m1={m1}")
        val *= num / den
    return val


def hess_closed_form_n2(m1: float, l: int) -> float:
    """Determinant of the Hessian of -log Phi_tri in the T variables at the
    N=2 critical point."""
    val = float(math.factorial(l))
    for j in range(l):
        den = (-m1 + 1 + j) * (-2 * l + j)
        if den == 0:
            raise DomainError(f"degenerate parameter m1={m1}")
        val *= (-m1 - j - 1) ** 3 / den
    return val


def delta_direct(T: np.ndarray) -> complex:
    """prod_{i<j} (T_i - T_j)^2 evaluated directly."""
    arr = np.asarray(T, dtype=complex)
    val = 1.0 + 0j
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            val *= (arr[i] - arr[j]) ** 2
    return complex(val)


def _polish_at_p0(T: np.ndarray, xi: Weight, rs: RootSystemData,
                  idx: BetheIndexing) -> CriticalReport:
    """Map T coordinates to t = log T / (-2 pi i) (principal branch) and
    Newton-polish them at p = 0 to |grad| < NEWTON_TOL."""
    t0 = np.log(np.asarray(T, dtype=complex)) / (-2j * math.pi)
    return _polish(t0, xi, rs, idx, Nome(p=0.0), NEWTON_TOL, SEARCH_MAX_ITER)


def _degenerate(rep: CriticalReport) -> bool:
    """The non-degeneracy test of every accepted point: |det H| at most
    HESS_DEGENERACY_TOL times max(1, prod |diag H|), H the report's Hessian."""
    scale = max(1.0, float(np.abs(np.diag(rep.hessian)).prod()))
    return abs(rep.hessian_det) <= HESS_DEGENERACY_TOL * scale


def closed_form_n2(m1: float, l: int) -> tuple[EllipticPoint, CriticalReport]:
    """The unique N=2 critical point: companion-matrix roots of the sigma
    polynomial, mapped to t and Newton-polished at p = 0."""
    sigmas = [float(s) for s in sigma_closed_form(m1, l)]
    coeffs = [1.0] + [(-1.0) ** i * s for i, s in enumerate(sigmas, start=1)]
    roots = np.roots(coeffs)
    rs = root_system(2, l)
    idx = build_indexing(2, l)
    xi = Weight([m1 / 2.0, -m1 / 2.0]) if not float(m1).is_integer() \
        else Weight([Fraction(int(m1), 2), Fraction(-int(m1), 2)])
    report = _polish_at_p0(roots, xi, rs, idx)
    return report.point, report


def closed_form_n3_l1(m1: float, m2: float) -> list[tuple[EllipticPoint, CriticalReport]]:
    """The N=3, l=1 closed-form critical points, both orderings (T1,T2,T3)
    and (T2,T1,T3) — or one if the quadratic has a double root — as
    Newton-polished p = 0 points."""
    for name, v in (("m1", m1), ("m2", m2), ("m1+m2", m1 + m2)):
        if v in (0, 1, -1):
            raise DomainError(f"excluded parameter: {name} = {v} is in {{0, +1, -1}}")
    t3 = (m1 + m2 - 1) * (m2 - 1) / ((m1 + m2 + 1) * (m2 + 1))
    a = (m1 + m2 + 1) * (m1 + 1)
    b = 2.0 * (-m1 * m1 - m1 * m2 + 2.0)
    c = (m1 + m2 - 1) * (m1 - 1)
    disc = cmath.sqrt(complex(b * b - 4 * a * c))
    r1 = (-b + disc) / (2 * a)
    r2 = (-b - disc) / (2 * a)
    rs = root_system(3, 1)
    idx = build_indexing(3, 1)
    xi = Weight([2 * m1 / 3.0 + m2 / 3.0, -m1 / 3.0 + m2 / 3.0, -m1 / 3.0 - 2 * m2 / 3.0])
    orderings = [np.array([r1, r2, t3])]
    if abs(r1 - r2) > 1e-14:
        orderings.append(np.array([r2, r1, t3]))
    out = []
    for T in orderings:
        report = _polish_at_p0(T, xi, rs, idx)
        out.append((report.point, report))
    return out


def n3_closed_form_displays(m1: float, m2: float) -> dict:
    """The published N=3, l=1 product/Hessian values, with the constant
    factors relating them to the direct quantities:

        prod (T_i-T_j)^2  (direct) = prod_sq_factor   * prod_sq_display
        det Hess(-log Phi) (direct) = hessian_factor  * hessian_display
    """
    prod_sq_display = (2 * (m1 + m2 - 1) ** 2 * (2 * m1 * m1 + 2 * m1 * m2 - m2 * m2 - 3) ** 3
                       / ((m1 + 1) ** 4 * (m2 + 1) ** 4 * (m1 + m2 + 1) ** 6))
    hessian_display = ((m1 + 1) ** 3 * (m2 + 1) ** 3 * (m1 + m2 + 1) ** 5
                       / (6.0 * (m1 - 1) * (m2 - 1) * (m1 + m2 - 1) ** 3))
    return {
        "T1T2": (m1 + m2 - 1) * (m1 - 1) / ((m1 + m2 + 1) * (m1 + 1)),
        "one_minus_T1_one_minus_T2": 6.0 / ((m1 + m2 + 1) * (m1 + 1)),
        "prod_sq_display": prod_sq_display,
        "prod_sq_factor": -8.0,
        "hessian_display": hessian_display,
        "hessian_factor": -1.0,
    }


# ---------------------------------------------------------------------------
# search


def _search_permutations(N: int) -> list[tuple[int, ...]]:
    """Permutation search order: identity, full reversal, then lexicographic."""
    ident = tuple(range(N))
    rev = tuple(reversed(ident))
    rest = sorted(p for p in permutations(range(N)) if p not in (ident, rev))
    return [ident, rev] + rest


def find_admissible_critical_point(
        xi_dominant: Weight, rs: RootSystemData, idx: BetheIndexing,
        n_seeds: int = 200, seed: int = 1234,
) -> tuple[tuple[int, ...], CriticalReport]:
    """Search for a non-degenerate p = 0 critical point over Weyl images of xi.

    Permutations sigma of the epsilon-coordinates are tried in the order
    identity, reversal, lexicographic; for each, the closed forms when they
    apply (N = 2, or N = 3 with l = 1: they list every critical point),
    else Newton at p = 0 (``SEARCH_MAX_ITER`` capped steps) from randomized
    annulus seeds (0.05 < |T| < 5, away from 0 and 1, fixed RNG seed) mapped
    to t.  A point is accepted iff it lies in F_{N,l}, its Hessian
    determinant is non-degenerate, and the symmetrized Bethe vector does not
    vanish.  Exhaustion raises ConvergenceError (an inconclusive search, not
    a refutation) quoting the first failures, seed failures included.
    """
    if not admissible(xi_dominant, rs):
        raise DomainError(f"weight {xi_dominant!r} fails the admissibility gate")
    N, l = rs.N, rs.l
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    for sigma in _search_permutations(N):
        xi_s = permute_weight(xi_dominant, sigma)
        candidates: list[CriticalReport] = []
        ms = lambda_coords(xi_s)
        if N == 2 or (N == 3 and l == 1):
            # the closed forms list every critical point of this image
            try:
                if N == 2:
                    candidates.append(closed_form_n2(float(ms[0]), l)[1])
                else:
                    candidates += [rep for _, rep in
                                   closed_form_n3_l1(float(ms[0]), float(ms[1]))]
            except (DomainError, ConvergenceError, MembershipError,
                    DegeneracyError) as exc:
                failures.append(f"sigma={sigma} closed form: {exc}")
        else:
            seed_failures: list[str] = []
            for k in range(n_seeds):
                r = 0.05 * (5.0 / 0.05) ** rng.random(idx.m)
                if k % 2 == 0:
                    T0 = r * np.exp(2j * math.pi * rng.random(idx.m))
                else:
                    T0 = r * np.where(rng.random(idx.m) < 0.5, 1.0, -1.0) + 0j
                if np.any(np.abs(T0) < 0.05) or np.any(np.abs(T0 - 1.0) < 0.05):
                    continue
                try:
                    candidates.append(_polish_at_p0(T0, xi_s, rs, idx))
                    break
                except (ConvergenceError, MembershipError, DegeneracyError) as exc:
                    seed_failures.append(f"seed {k}: {exc}")
            if seed_failures:
                failures.append(
                    f"sigma={sigma}: {len(seed_failures)} seeds failed, first "
                    + "; ".join(seed_failures[:2]))
        for rep in candidates:
            if not rep.in_F:
                failures.append(f"sigma={sigma}: point left F")
                continue
            if _degenerate(rep):
                failures.append(f"sigma={sigma}: degenerate Hessian {rep.hessian_det}")
                continue
            if not sym_omega_tri_nonvanishing(rep.point, xi_s, rs, idx):
                failures.append(f"sigma={sigma}: Sym omega_tri vanishes")
                continue
            return sigma, rep
    raise ConvergenceError(
        "search exhausted without an accepted critical point (inconclusive; "
        "does not refute existence): " + "; ".join(failures[:6]))


# ---------------------------------------------------------------------------
# continuation in the nome


@dataclass
class PathStep:
    p: complex
    point: EllipticPoint
    report: CriticalReport
    eigenvalue: Optional[complex] = None


@dataclass
class ContinuationPath:
    """A continuation record: accepted (p_k, point, report) triples from the
    trigonometric seed (p=0) to the target nome."""

    steps: list[PathStep]
    target_p: complex

    @property
    def endpoint(self) -> PathStep:
        return self.steps[-1]

    def records(self) -> list[dict]:
        """One record per accepted step, {p, t, grad_norm, hess_det,
        eigenvalue?}, with complex values as complex numbers."""
        out = []
        for s in self.steps:
            rec = {"p": s.p, "t": list(s.point.t),
                   "grad_norm": s.report.grad_norm,
                   "hess_det": s.report.hessian_det}
            if s.eigenvalue is not None:
                rec["eigenvalue"] = s.eigenvalue
            out.append(rec)
        return out


def _schedule(target: complex, linear_steps: int) -> list[complex]:
    """Geometric magnitudes from FIRST_STEP by x10 until within one decade of
    |target|, then linear_steps equal steps to the target, along its ray."""
    mag = abs(target)
    if mag == 0:
        return []
    ray = target / mag
    mags: list[float] = []
    s = FIRST_STEP
    while s < (mag / 10.0) * (1 + 1e-9):
        mags.append(s)
        s *= 10.0
    last = mags[-1] if mags else 0.0
    for k in range(1, linear_steps + 1):
        mags.append(last + (mag - last) * k / linear_steps)
    return [m * ray for m in mags]


def continue_nome(trig: CriticalReport, xi: Weight, rs: RootSystemData,
                  idx: BetheIndexing, target_p: complex, steps: int = 10,
                  *, newton_tol: float = NEWTON_TOL,
                  eigenvalues: bool = False) -> ContinuationPath:
    """Continue a non-degenerate p = 0 critical point to target_p.

    The seed report (a point at ``Nome(p=0)``, as the search returns it) is
    the first path step.  Each advance Newton-corrects the elliptic Bethe
    root; on failure the step is halved down to MIN_STEP; a degenerate
    Hessian (the search's scaled test) raises DegeneracyError; every
    accepted point satisfies grad_norm < newton_tol and membership in F.
    With ``eigenvalues`` each step also carries ``eigenvalue_elliptic``.
    """
    if trig.point.nome.p != 0:
        raise DomainError("continuation starts from a p = 0 report")
    if steps < 1:
        raise DomainError(f"need steps >= 1, got {steps}")
    if abs(target_p) > P_MAX:
        raise DomainError(f"|target_p| = {abs(target_p)} exceeds p_max = {P_MAX}")
    if not trig.in_F:
        raise DomainError("trigonometric seed is outside F")
    if _degenerate(trig):
        raise DegeneracyError(
            f"trigonometric seed has degenerate Hessian: {trig.hessian_det}")
    if trig.grad_norm > newton_tol:
        raise DomainError(
            f"trigonometric seed is not a Bethe root: |grad| = {trig.grad_norm:.2e}")

    pt0 = trig.point
    ev0 = eigenvalue_elliptic(pt0, xi, rs, idx) if eigenvalues else None
    path = ContinuationPath(steps=[PathStep(0j, pt0, trig, ev0)],
                            target_p=complex(target_p))
    pending = _schedule(complex(target_p), steps)
    t_prev: Optional[np.ndarray] = None
    p_prev = 0j
    t_good = pt0.t
    p_good = 0j
    while pending:
        p_try = pending[0]
        if abs(p_try - p_good) < MIN_STEP:
            err = ConvergenceError(
                f"continuation stalled at p = {p_good} (step below "
                f"MIN_STEP = {MIN_STEP}); last good point retained in path")
            err.path = path
            raise err
        # linear predictor from the two previous accepted points
        if t_prev is not None and p_good != p_prev:
            t_seed = t_good + (t_good - t_prev) * ((p_try - p_good) / (p_good - p_prev))
        else:
            t_seed = t_good.copy()
        try:
            rep = _polish(t_seed, xi, rs, idx, Nome(p=p_try), newton_tol)
            if not rep.in_F:
                raise MembershipError("corrected point left F")
        except (ConvergenceError, MembershipError):
            pending.insert(0, p_good + (p_try - p_good) / 2.0)
            continue
        if _degenerate(rep):
            err = DegeneracyError(
                f"Hessian degenerated along the path at p = {p_try}: "
                f"det = {rep.hessian_det}")
            err.path = path
            raise err
        ev = eigenvalue_elliptic(rep.point, xi, rs, idx) if eigenvalues else None
        path.steps.append(PathStep(p_try, rep.point, rep, ev))
        t_prev, p_prev = t_good, p_good
        t_good, p_good = rep.point.t, p_try
        pending.pop(0)
    return path
