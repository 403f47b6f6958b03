"""Rayleigh-Schrodinger expansion of elliptic eigenvalues in powers of the
nome, cross-validated against the Bethe-Ansatz continuation.

The shifted elliptic Hamiltonian

    H(p) = -(1/2) Sum_i d^2/dx_i^2 + l(l+1) Sum_{i<j} wp_shifted(x_i - x_j; p)

reduces at p = 0 to the trigonometric model H_0 with the pi^2/sin^2
interaction, and expands as H(p) = H_0 + Sum_{k>=1} p^k V_k.  Differentiating
log theta_1 twice gives, per pair difference s and with u = p^n e^{2 pi i s},
v = p^n e^{-2 pi i s},

    wp_shifted(s; p) - pi^2/sin^2(pi s) = -4 pi^2 Sum_{n>=1} [u/(1-u)^2 + v/(1-v)^2],

and u/(1-u)^2 = Sum_m m u^m turns this into the Lambert series
-8 pi^2 Sum_k p^k Sum_{d|k} d cos(2 pi d s).  So V_k is exact and finite:

    V_k = -8 pi^2 l(l+1) Sum_{d|k} d Sum_{i<j} cos 2 pi d (x_i - x_j),

which ``potential_coeffs`` returns as a banded cosine table (harmonics
d <= k).  ``exact_interaction`` evaluates the same quantity by the
theta-quotient route and stays the independent oracle for it.

The unperturbed eigenstates psi_lam = Delta^{l+1} J_lam^{(1/(l+1))} are
finite Laurent polynomials in X_i = e^{2 pi i x_i} with rational
coefficients, and Sum_{i<j} cos 2 pi d (x_i - x_j) acts on them by the
exponent shifts +-d (e_i - e_j) with weight 1/2.  ``matrix_element`` and
``rs_series`` therefore compute <psi_mu, V_k psi_lam>/(|psi_mu| |psi_lam|)
as an exact integer pairing, rounded to float once: the states are integer
exponent matrices with Python-int coefficients (``laurent``) over one shared
row index, the torus inner product is the coefficient dot product, and each
shift is a key offset on that row index, keyed once.  All the states of one
level are built in one pass (``_states``): their Jack numerators on one
degree table, their products with Delta^{l+1} as one product.  Both read
their elements from one builder (``_elements``): per order k, the Lambert
sum of the pairings and one array expression for the normalization.  States
of different total degree are orthogonal, so their element is 0.0.
``rs_series`` runs the standard non-degenerate Rayleigh-Schrodinger recursion
to order K over the finite set of partitions reachable within the total band
(never an ad-hoc cutoff): a state mu can enter at order K only if it can be
reached from lambda and returned within total hop budget K, i.e.
(1/2) Sum |mu_i - lambda_i| <= K - 1.  That set is read off the partitions
of the degree table its states are solved on (``_band``).  N, l, K, k and
the budget are ints or numpy integers, never bools (``_integer``).

Unperturbed levels: H_0 psi_lam = (e0 + 2 pi^2 E_lam) psi_lam with
E_lam = Sum lam_i^2 + (l+1) Sum (N+1-2i) lam_i, which equals
2 pi^2 (xi, xi) for xi = lambda + (l+1) rho_bar -- the same number the Bethe
continuation starts from.  ``bethe_crosscheck`` continues the Bethe root to a
given p and reports the gap between the continued eigenvalue and the partial
sum; the gap shrinks like p^{K+1}.

Degenerate unperturbed levels inside the reachable set are refused with
DegeneracyError (degenerate perturbation theory is out of scope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .critical import continue_nome, find_admissible_critical_point
from .elliptic import Nome, wp_shifted
from .errors import DegeneracyError, DomainError
from .jack import (PartitionT, _jack_solve, _partitions, partition,
                   symmetric_times_delta)
from .laurent import _INT64_MAX, frame_of
from .master import eigenvalue_elliptic
from .weights import (Weight, build_indexing, e0, lambda_to_xi,
                      permute_weight, root_system)

TWO_PI = 2.0 * math.pi

#: Default guard on the expansion order.
K_MAX = 8
#: Unperturbed-level gaps below this (relative) are treated as degenerate.
DEGENERACY_TOL = 1e-8


# ---------------------------------------------------------------------------
# the potential series H(p) - H_0 = Sum p^k V_k


@dataclass(frozen=True)
class PotentialSeries:
    """Banded cosine representation of the interaction orders.

    ``coeffs[k-1][d]`` multiplies cos(2 pi d (x_i - x_j)) in V_k, summed over
    pairs i < j; the l(l+1) coupling is included.  The table is the closed
    form -8 pi^2 l(l+1) d for d | k and 0 otherwise (d = 0 included).
    """

    N: int
    l: int
    K: int
    coeffs: Tuple[Tuple[float, ...], ...]

    def _order(self, k: int) -> Tuple[float, ...]:
        if not 1 <= k <= self.K:
            raise DomainError(f"order k must be in 1..{self.K}, got {k}")
        return self.coeffs[k - 1]

    def pair_profile(self, k: int, s):
        """The per-pair profile v_k with V_k(x) = Sum_{i<j} v_k(x_i - x_j)."""
        c = self._order(k)
        sb = np.asarray(s, dtype=float)
        out = np.full(sb.shape, c[0])
        for d in range(1, len(c)):
            out = out + c[d] * np.cos(TWO_PI * d * sb)
        return float(out) if out.ndim == 0 else out

    def vk(self, k: int) -> Callable:
        """V_k as a callable on configuration points of shape (..., N)."""
        self._order(k)
        N = self.N

        def v(x):
            xb = np.atleast_2d(np.asarray(x, dtype=float))
            if xb.shape[-1] != N:
                raise DomainError(
                    f"expected {N} coordinates, got {xb.shape[-1]}")
            out = np.zeros(xb.shape[0])
            for i in range(N):
                for j in range(i + 1, N):
                    out += self.pair_profile(k, xb[:, i] - xb[:, j])
            return out

        return v

    def reconstruct(self, p: complex, x):
        """Sum_{k<=K} p^k V_k(x)."""
        xb = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(xb.shape[0], dtype=complex)
        for k in range(1, self.K + 1):
            out += (p ** k) * self.vk(k)(xb)
        return out.real if abs(complex(p).imag) == 0.0 else out


def exact_interaction(x, p: complex, l: int):
    """l(l+1) [ wp_shifted(s; p) - pi^2/sin^2(pi s) ] summed over pairs.

    ``x`` has shape (..., N); this is the quantity the series approximates.
    """
    xb = np.atleast_2d(np.asarray(x, dtype=float))
    nome = Nome(p=p)
    N = xb.shape[-1]
    out = np.zeros(xb.shape[0], dtype=complex)
    for i in range(N):
        for j in range(i + 1, N):
            s = xb[:, i] - xb[:, j]
            out += wp_shifted(s, nome) - (math.pi / np.sin(math.pi * s)) ** 2
    out *= l * (l + 1)
    return out.real if abs(complex(p).imag) == 0.0 else out


def _coupling(l: int) -> float:
    """-8 pi^2 l(l+1): the weight of d cos(2 pi d s) in every V_k with d | k."""
    return -8 * math.pi ** 2 * l * (l + 1)


def _divisors(k: int) -> List[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


def _integer(name: str, value, low: float = -math.inf,
             high: float = math.inf) -> int:
    """``value`` as an int: an int or a numpy integer, never a bool, in
    [low, high]; DomainError naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or not low <= value <= high:
        raise DomainError(f"{name} must be an integer in [{low}, {high}], "
                          f"got {value!r}")
    return int(value)


def potential_coeffs(N: int, l: int, K: int) -> PotentialSeries:
    """V_1..V_K in closed form: ``coeffs[k-1][d]`` is -8 pi^2 l(l+1) d when
    d divides k and 0 otherwise (the Lambert expansion of the shifted pair
    potential, see the module docstring)."""
    N, l, K = _integer("N", N, 2), _integer("l", l, 1), \
        _integer("K", K, 0, K_MAX)
    c = _coupling(l)
    coeffs = tuple(tuple(c * d if d in _divisors(k) else 0.0
                         for d in range(k + 1)) for k in range(1, K + 1))
    return PotentialSeries(N=N, l=l, K=K, coeffs=coeffs)


# ---------------------------------------------------------------------------
# matrix elements between unperturbed eigenstates


def band_distance(mu, lam) -> int:
    """Minimal total hop budget taking lambda to mu, (1/2) Sum |mu_i - lam_i|.

    Both arguments are partitions of equal length and equal sum whose
    entrywise differences are integers; each cosine harmonic d moves d boxes
    between a pair of slots, so this is the least Sum d over move sequences.
    """
    mu_t, lam_t = partition(mu), partition(lam)
    if len(mu_t) != len(lam_t):
        raise DomainError("partitions must have equal length")
    if sum(mu_t) != sum(lam_t):
        raise DomainError("partitions must have equal total")
    total = Fraction(0)
    for a, b in zip(mu_t, lam_t):
        d = a - b
        if d.denominator != 1:
            raise DomainError(
                f"entrywise differences must be integers, got {a} - {b}")
        total += abs(d)
    return int(total / 2)


@lru_cache(maxsize=256)
def _states(basis: Tuple[Tuple[int, ...], ...], l: int
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Integer multiples of psi_mu for every mu = shift + offsets in
    ``basis`` (integer offsets from one shift) over one shared row index:
    the distinct exponent rows, lowered by shift + lo, and the coefficient
    matrix with one column per state, Python ints; cached, read-only.

    Every label is raised by -lo, lo the lowest last offset, so that every
    Jack solve runs on one degree table: J_{mu + c(1,...,1)} = e_N^c J_mu
    with the same numerators, since the energy gaps of one degree do not
    move under the shift.  The states are multiplied by Delta^{l+1} in one
    product, on the orbits that table keeps.  The normalized pairings are
    invariant under the scales and the common shift."""
    lo = min(mu[-1] for mu in basis)
    inv_alpha = Fraction(l + 1)
    labels = [tuple(o - lo for o in mu) for mu in basis]
    rows, psi = symmetric_times_delta(
        [_jack_solve(mu, inv_alpha)[0] for mu in labels], l + 1)
    rows.setflags(write=False)
    psi.setflags(write=False)
    return rows, psi


def _pairings(rows: np.ndarray, psi: np.ndarray, ds: Iterable[int]
              ) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
    """The squared norms of integer Laurent polynomials, the columns of
    ``psi`` over the distinct exponent rows ``rows`` (as ``_states`` gives
    them, in lexicographic order), and for each d in ``ds`` the matrix of
    <psi_a, 2 Sum_{i<j} cos 2 pi d (x_i - x_j) psi_c>, the sum over the
    N(N-1) shifts d (e_i - e_j), i != j.  The states are all symmetric or
    all antisymmetric (Delta^{l+1} J at one l), so every shift pairs them
    alike: the pairings of one d are N(N-1) times one product over the
    shift d (e_1 - e_2).  The rows are keyed once in their least frame
    (``laurent.frame_of``), where they are in key order; the shift is a key
    offset and one ``searchsorted``, and a row the shift takes out of the
    frame is dropped before its key could alias another row's.  The
    products are summed in int64 when no sum can pass it (rows times the
    largest coefficient squared), in Python ints otherwise; either way the
    results are Python ints."""
    top = int(np.abs(psi).max(initial=0))
    if len(rows) * top * top <= _INT64_MAX:
        psi = psi.astype(np.int64)
    N = rows.shape[1]
    fr = frame_of(rows)
    keys = fr.encode(rows)
    pairings = {}
    for d in ds:
        inside = np.flatnonzero((rows[:, 0] - d >= fr.lo[0])
                                & (rows[:, 1] + d <= fr.hi[1]))
        target = keys[inside] - d * (fr.radix[0] - fr.radix[1])
        at = np.searchsorted(keys, target)
        found = at < len(keys)
        found[found] = keys[at[found]] == target[found]
        hit, at = inside[found], at[found]
        pairings[d] = N * (N - 1) * (psi[hit].T @ psi[at]).astype(object)
    return (psi * psi).sum(axis=0).astype(object), pairings


def _elements(basis: Tuple[Tuple[int, ...], ...], l: int,
              orders: Sequence[int]) -> Dict[int, np.ndarray]:
    """For each k in ``orders``, the matrix of normalized elements
    <psi_a, V_k psi_c>/(|psi_a| |psi_c|) over the states of ``basis`` (as
    ``_states`` takes it): the coupling times raw / (2 sqrt(norm_a norm_c))
    with raw = Sum_{d|k} d pairings[d], the Lambert weights of V_k (the 1/2
    undoes the doubled cosine of ``_pairings``), rounded once from the
    exact integers as copysign(sqrt(raw^2 / (4 norm_a norm_c)), raw)."""
    norms, pairings = _pairings(
        *_states(basis, l), sorted({d for k in orders for d in _divisors(k)}))
    scale = 4 * np.multiply.outer(norms, norms)
    elements = {}
    for k in orders:
        raw = sum(d * pairings[d] for d in _divisors(k))
        root = np.sqrt((raw * raw / scale).astype(float))
        elements[k] = _coupling(l) * np.where(raw < 0, -root, root)
    return elements


def matrix_element(mu, lam, k: int, l: int) -> float:
    """<psi_mu, V_k psi_lam>/(|psi_mu| |psi_lam|) for the unperturbed states
    psi = Delta^{l+1} J^{(1/(l+1))}, exactly.

    Both states are exact Laurent polynomials; V_k is the closed-form cosine
    sum of ``potential_coeffs``, so the element is an integer pairing divided
    by the root of the two integer norms, rounded to float once.  The norms
    are those ``jack.inner_product`` computes, up to a constant that cancels.
    Elements vanish whenever mu and lam differ beyond the V_k band or in
    total degree; the latter are 0.0 without a pairing.
    """
    mu_t, lam_t = partition(mu), partition(lam)
    if len(mu_t) != len(lam_t) or len(mu_t) < 2:
        raise DomainError("partitions must have one equal length N >= 2")
    k, l = _integer("k", k, 1), _integer("l", l, 1)
    for a, b in zip(mu_t, lam_t):
        if (a - b).denominator != 1:
            raise DomainError(
                "mu and lam lie in different periodicity classes "
                f"({a} - {b} is not an integer); the pairing is undefined")
    if sum(mu_t) != sum(lam_t):
        return 0.0
    shift = lam_t[-1]
    basis = (_offsets(mu_t, shift), _offsets(lam_t, shift))
    return float(_elements(basis, l, [k])[k][0, 1])


# ---------------------------------------------------------------------------
# Rayleigh-Schrodinger recursion


@dataclass(frozen=True)
class EnergySeries:
    """E(p) = Sum_{k<=K} coefficients[k] p^k for the level labeled lam.

    coefficients[0] is the trigonometric eigenvalue e0 + 2 pi^2 E_lam.
    """

    lam: PartitionT
    N: int
    l: int
    K: int
    coefficients: Tuple[float, ...]

    def partial_sum(self, p: float) -> float:
        total = 0.0
        for k in range(self.K, -1, -1):
            total = total * p + self.coefficients[k]
        return total

    def report(self, crosscheck: Optional[Dict] = None) -> Dict:
        """JSON-ready report {lambda, K, E, [crosscheck]}."""
        out = {"lambda": [float(a) for a in self.lam], "K": self.K,
               "E": [float(c) for c in self.coefficients]}
        if crosscheck is not None:
            out["crosscheck"] = dict(crosscheck)
        return out


def _offsets(mu: PartitionT, shift: Fraction) -> Tuple[int, ...]:
    """The integer offsets mu - shift (shift in mu's periodicity class)."""
    return tuple(int(a - shift) for a in mu)


def _levels(shift: Fraction, basis: Sequence[Tuple[int, ...]], l: int
            ) -> List[float]:
    """e0 + 2 pi^2 E_mu for each mu = shift + offsets in ``basis``, where
    E_mu = Sum mu_i^2 + (l+1) Sum (N+1-2i) mu_i is exact: an integer over
    the square of shift's denominator, rounded to float once."""
    n, d = shift.numerator, shift.denominator
    N = len(basis[0])
    weight = [(l + 1) * d * (N - 1 - 2 * i) for i in range(N)]
    head, two_pi2 = e0(N, l), 2.0 * math.pi ** 2
    out = []
    for offsets in basis:
        dmu = [n + d * o for o in offsets]
        exact = sum(m * m + w * m for m, w in zip(dmu, weight))
        out.append(head + two_pi2 * (exact / (d * d)))
    return out


def unperturbed_energy(lam, N: int, l: int) -> float:
    """e0 + 2 pi^2 E_lam^[1/(l+1)], the eigenvalue of H_0 on psi_lam."""
    lam_t = partition(lam)
    if len(lam_t) != N:
        raise DomainError(f"partition must have length N = {N}")
    return _levels(lam_t[-1], [_offsets(lam_t, lam_t[-1])], l)[0]


def _band(own: Tuple[int, ...], budget: int) -> List[Tuple[int, ...]]:
    """The integer offsets of ``reachable_partitions`` from and to one
    shift, in descending lexicographic order.  Every such mu has
    |mu_i - own_i| <= budget and own_N = 0, so mu + budget is a partition
    of the degree ``_states`` solves the basis on (the basis reaches the
    last offset -budget): the offsets are those partitions, lowered by
    budget, within Sum |mu_i - own_i| <= 2 budget."""
    N = len(own)
    parts = np.array(_partitions(N, sum(own) + N * budget),
                     dtype=np.int64) - budget
    near = np.abs(parts - own).sum(axis=1) <= 2 * budget
    return list(map(tuple, parts[near].tolist()))


def reachable_partitions(lam, budget: int) -> List[PartitionT]:
    """Partitions of equal total within band distance ``budget`` of lam.

    These are exactly the levels that can enter the RS recursion: a chain of
    cosine hops with total harmonic budget K must leave lam and return, so
    intermediate states satisfy band_distance <= K - 1 = budget.
    """
    lam_t = partition(lam)
    budget = _integer("budget", budget)
    if budget < 0:
        return []
    base = lam_t[-1]
    return [tuple(base + o for o in mu)
            for mu in _band(_offsets(lam_t, base), budget)]


def _plain(label) -> str:
    """A label as a tuple of plain numbers: (7, 1, -8), 1/2 for halves."""
    return f"({', '.join(map(str, label))})"


def rs_series(lam, N: int, l: int, K: int) -> EnergySeries:
    """Non-degenerate Rayleigh-Schrodinger expansion to order K.

    E^(0) = e0 + 2 pi^2 E_lam; higher orders use the exact matrix elements
    of the closed-form V_1..V_K over the band-reachable basis, all its
    states built in one pass.  A second unperturbed level within
    DEGENERACY_TOL * scale of E^(0) inside that basis raises
    DegeneracyError (degenerate RS is out of scope).  The basis is kept as
    integer offsets from lam_N.
    """
    lam_t = partition(lam)
    N, l, K = _integer("N", N, 2), _integer("l", l, 1), \
        _integer("K", K, 0, K_MAX)
    if len(lam_t) != N:
        raise DomainError(f"partition must have length N = {N}")
    shift = lam_t[-1]
    own = _offsets(lam_t, shift)
    if K == 0:
        return EnergySeries(lam_t, N, l, 0, tuple(_levels(shift, [own], l)))

    basis = _band(own, K - 1)
    i_lam = basis.index(own)
    energies = _levels(shift, basis, l)
    level0, levels = energies[i_lam], np.array(energies)
    scale = max(1.0, abs(level0))
    for a, mu in enumerate(basis):
        if a != i_lam and abs(levels[a] - level0) <= DEGENERACY_TOL * scale:
            raise DegeneracyError(
                f"unperturbed level of {_plain(shift + o for o in mu)} "
                f"coincides with that of {_plain(lam_t)} within "
                f"{DEGENERACY_TOL:.1e} (relative); "
                "degenerate perturbation theory is out of scope")

    elements = _elements(tuple(basis), l, range(1, K + 1))
    m = len(basis)
    coeffs = [level0]
    vectors = [np.eye(m)[i_lam]]
    gaps = level0 - levels
    for k in range(1, K + 1):
        driven = np.zeros(m)
        for j in range(1, k + 1):
            driven += elements[j] @ vectors[k - j]
        coeffs.append(float(driven[i_lam]))
        if k < K:
            rhs = driven.copy()
            for j in range(1, k):
                rhs -= coeffs[j] * vectors[k - j]
            new = np.zeros(m)
            mask = np.arange(m) != i_lam
            new[mask] = rhs[mask] / gaps[mask]
            vectors.append(new)
    return EnergySeries(lam_t, N, l, K, tuple(coeffs))


# ---------------------------------------------------------------------------
# cross-validation against the Bethe-Ansatz continuation


def bethe_crosscheck(series: EnergySeries, p: float, *,
                     steps: int = 1) -> Dict:
    """Continue the Bethe root for xi = lam + (l+1) rho_bar to the nome p and
    compare: returns {p, E_BA, partial_sum, gap}.

    The gap |E_BA(p) - Sum_{k<=K} p^k E^(k)| shrinks like p^{K+1} (regular
    convergence); the eigenvalue is evaluated once, at the endpoint of the
    continuation.  The Bethe weight is the traceless representative of
    lam + (l+1) rho_bar; the record restores the center-of-mass energy of a
    non-traceless lam (see _crosscheck_record).
    """
    rs = root_system(series.N, series.l)
    idx = build_indexing(series.N, series.l)
    lam_w = Weight(list(series.lam))
    xi = lambda_to_xi(lam_w, rs)
    sigma, rep = find_admissible_critical_point(xi, rs, idx)
    xi_s = permute_weight(xi, sigma)
    path = continue_nome(rep, xi_s, rs, idx, p, steps=steps)
    eigenvalue = eigenvalue_elliptic(path.endpoint.point, xi_s, rs, idx)
    return _crosscheck_record(series, p, eigenvalue)


def _crosscheck_record(series: EnergySeries, p: float,
                       eigenvalue: complex) -> Dict:
    """{p, E_BA, partial_sum, gap} for the Bethe eigenvalue continued to the
    real nome p.

    The continuation sees only the traceless part of the label; for a
    non-traceless lam the eigenvalue is shifted back by the exact
    center-of-mass energy 2 pi^2 s^2/N (s = |lam|), which the
    translation-invariant potentials preserve at every order.
    """
    s_total = float(sum(series.lam))
    e_ba = complex(eigenvalue).real \
        + 2.0 * math.pi ** 2 * s_total ** 2 / series.N
    partial = series.partial_sum(float(p))
    return {"p": float(p), "E_BA": float(e_ba),
            "partial_sum": float(partial), "gap": float(abs(e_ba - partial))}
