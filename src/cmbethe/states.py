"""Bethe eigenfunctions: assembly, symmetrization, and spectral verification.

The eigenfunction attached to a Bethe root is

    omega(t; x) = e^{2 pi i (xi, sum_i x_i eps_i)}
                  Sum_{w in W} Sum_{f in F_w} Prod_{i=1}^{N-1} Prod_{k in V_i}
                  sigma_{x_i - x_{w_i(k)+1}}(t_k - t_{f(k)})

with t_0 = 0 and f(k) = 0 for k in V_1, and its trigonometric limit

    omega_tri(T; X) = [Prod_i X_i^{xi_i} / Prod_{i<j}(X_i - X_j)^l]
                      Sum_{w, f} Prod_k (X_{c(k)} T_k - X_{w(k)+1} T_{f(k)})
                                        / (T_k - T_{f(k)}),

T_0 = 1, in the variables X_i = e^{2 pi i x_i} (all evaluators here take the
x-coordinates; exponentials such as X_i^{xi_i} are computed single-valuedly as
e^{2 pi i xi_i x_i}).  Fixed constant conventions of this module:

  * the i = 1 slots of omega_tri omit their denominators (T_k - 1), which are
    the same constant in every (w, f) term — the published N=2/N=3 closed-form
    displays likewise print the first-color slots without them;
  * public constructors return evaluators normalized to 1 at the fixed base
    point x* = (0.13, 0.37, 0.71, ...), making ratio and convergence tests
    deterministic; the proportionality test against Jack polynomials uses the
    raw (un-normalized) forms so its reported constant is convention-fixed.

Physical states are Sym^(l) omega: the plain sum over S_N for odd l, the
sign-weighted sum for even l.  There is one pointwise omega and one state
evaluator, the elliptic ones, at every nome; at p = 0 omega is omega_tri
times the constant (2 pi i)^m / Prod_{c(k)=1} (T_k - 1).  Every sigma factor
depends only on an ordered pair (x_a, x_b) and on one of the distinct
u = t_k - t_{f(k)}, so Sym^(l) omega is evaluated from one table of
sigma_{x_a - x_b}(u) per row block of points (a single ``sigma_lambda``
call): the sum over (w, f) terms is factored once into levels of shared
suffixes, each permutation relabels the pair columns of every level and
contributes its own prefactor, and no theta series runs per permutation or
per slot.
The numerator X^xi acc of omega_tri is a finite Laurent polynomial, expanded
once per p = 0 point; Delta^l is symmetric for even l and antisymmetric for
odd l, so Delta^l Sym^(l) omega_tri is its antisymmetrization Alt(X^xi acc)
over S_N.  The two p = 0 certificates, the non-vanishing test and the Jack
certificate (Alt(X^xi acc) = c J_lambda Delta^{2l+1}), read Alt coefficient
by coefficient and sample no points.

``residual_check`` applies the Hamiltonian

    H = -(1/2) Sum_i d^2/dx_i^2 + l(l+1) Sum_{i<j} (wp(x_i-x_j) + 2 eta)

by centered finite differences and returns the Rayleigh quotient and relative
residual; the same stencil at Nome(p=0), where the pair potential is
pi^2/sin^2, is the Calogero-Sutherland operator of ``jack.cs_apply``.
``l2_estimate`` gives midpoint-rule estimates of the squared norm over
[0,1]^N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, Optional, Sequence

import numpy as np

from .elliptic import Nome, PoleError, sigma_lambda, wp_shifted
from .errors import DomainError, MembershipError, ResourceError
from .master import EllipticPoint, eigenvalue_elliptic, membership_F
from .weights import (BetheIndexing, RootSystemData, Weight, admissible,
                      build_indexing, root_system)

TWO_PI_I = 2j * math.pi
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: Cap on the complex entries of one row block of the elliptic sigma table.
_BLOCK_ENTRIES = 1 << 12
#: Most uniform draws ``sample_torus_points`` makes before giving up, and
#: the draws it tests per block.
_SAMPLE_DRAWS = 200000
_SAMPLE_CHUNK = 4096
#: Least ratio of the largest coefficients of Alt(X^xi acc) and X^xi acc.
_NONVANISHING_TOL = 1e-8

Evaluator = Callable[[np.ndarray], complex]


def base_point(N: int) -> np.ndarray:
    """The fixed normalization base point x* = (0.13, 0.37, 0.71, ...).

    Entries beyond the third continue with golden-ratio steps mod 1, keeping
    the spacing irrational and the pairwise separations away from 0.
    """
    vals = [0.13, 0.37, 0.71]
    while len(vals) < N:
        vals.append((vals[-1] + _GOLDEN) % 1.0)
    return np.array(vals[:N])


def sample_torus_points(N: int, n: int, *, margin: float = 0.1, seed: int = 0,
                        traceless: bool = False) -> np.ndarray:
    """n deterministic points in [0,1)^N with pairwise periodic separation
    min_{i<j} dist(x_i - x_j, Z) > margin; optionally shifted to sum_i x_i = 0.

    Points are the first n accepted of at most ``_SAMPLE_DRAWS`` successive
    uniform draws from the seeded generator, tested in blocks.
    """
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(N, 1)
    accepted = [np.empty((0, N))]
    count = drawn = 0
    while count < n and drawn < _SAMPLE_DRAWS:
        chunk = min(_SAMPLE_DRAWS - drawn, _SAMPLE_CHUNK)
        x = rng.random((chunk, N))
        drawn += chunk
        d = x[:, iu] - x[:, ju]
        x = x[np.all(np.abs(d - np.round(d)) > margin, axis=1)][:n - count]
        accepted.append(x)
        count += x.shape[0]
    if count < n:
        raise ResourceError(
            f"could not draw {n} points with pairwise margin {margin} in [0,1)^{N}")
    out = np.concatenate(accepted)
    if traceless:
        out = out - out.mean(axis=1, keepdims=True)
    return out


def _as_batch(x, N: int) -> tuple[np.ndarray, bool]:
    """x as an (M, N) complex batch, and whether it was a single point."""
    arr = np.asarray(x, dtype=complex)
    if arr.shape[-1] != N:
        raise DomainError(f"expected {N} coordinates, got {arr.shape[-1]}")
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def _perm_sign(perm: Sequence[int]) -> int:
    inv = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                inv += 1
    return -1 if inv % 2 else 1


def _merge(keys: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the integer matrix ``keys`` and the summed
    coefficients of each."""
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)
    inv = inv.ravel()
    return uniq, (np.bincount(inv, coef.real, len(uniq))
                  + 1j * np.bincount(inv, coef.imag, len(uniq)))


class _TrigOmega:
    """omega_tri = X^xi Sum_r coef_r X^{rows_r} / Delta(X)^l, unnormalized.
    The (w, f) sum of Prod_k (X_{c(k)} T_k - X_{w(k)+1} T_{f(k)}) /
    (T_k - T_{f(k)}) is expanded deepest slot first: terms that share their
    first k slot choices share the expanded product of the slots after them."""

    def __init__(self, point: EllipticPoint, xi: Weight, rs: RootSystemData,
                 idx: BetheIndexing):
        if point.nome.p != 0:
            raise DomainError("omega_tri needs a p = 0 point")
        if not membership_F(point, xi, rs, idx):
            raise MembershipError("T is outside F (a factor of Phi_tri vanishes)")
        N, m = rs.N, idx.m
        self.N, self.xi, self.in_P = N, xi.coords, xi.in_P
        T = np.concatenate([[1.0 + 0j], point.to_T()])      # T[0] = T_0 = 1
        w, f = np.array([(w_flat, f_flat) for w_flat, f_tuple
                         in zip(idx.W_maps, idx.Fw_maps)
                         for f_flat in f_tuple]).reshape(-1, 2, m).transpose(1, 0, 2)
        den = np.where(np.asarray(idx.c) == 1, 1.0 + 0j, T[1:] - T[f])
        if np.any(np.abs(den) < 1e-13):
            raise PoleError("paired collision T_k = T_{f(k)}: zero denominator "
                            "in omega_tri")
        # first[k][t]: the first term with the same first k choices as term t
        first = [np.zeros(len(w), dtype=np.int64)]
        for kk in range(m):
            code = first[-1] * (N * (m + 1)) + w[:, kk] * (m + 1) + f[:, kk]
            _, head, inv = np.unique(code, return_index=True, return_inverse=True)
            first.append(head[inv])
        # rows: (representative term, exponent vector)
        keys = np.column_stack([first[m], np.zeros((len(w), N), dtype=np.int64)])
        coef = np.ones(len(w), dtype=complex)
        for kk in reversed(range(m)):
            term = keys[:, 0]
            scaled = coef / den[term, kk]
            own, other = keys.copy(), keys.copy()
            own[:, 0] = other[:, 0] = first[kk][term]
            own[:, idx.c[kk]] += 1
            other[np.arange(len(term)), 1 + w[term, kk]] += 1
            keys, coef = _merge(np.concatenate([own, other]),
                                np.concatenate([scaled * T[kk + 1],
                                                -scaled * T[f[term, kk]]]))
        self.rows, self.coef = keys[:, 1:], coef

    def alt(self) -> tuple[np.ndarray, np.ndarray]:
        """Alt(X^xi acc) = Delta^l Sym^(l) omega_tri, the antisymmetrization
        of the numerator over S_N, as (rows, coef) relative to X^xi."""
        if not self.in_P:
            raise DomainError("antisymmetrizing omega_tri needs xi in P")
        invs = [np.argsort(p) for p in permutations(range(self.N))]
        return _merge(
            np.concatenate([self.rows[:, q] + np.round(self.xi[q] - self.xi)
                            .astype(np.int64) for q in invs]),
            np.concatenate([_perm_sign(q) * self.coef for q in invs]))


def _suffix_levels(labels: np.ndarray) -> tuple[np.ndarray, list]:
    """Factor Sum_r Prod_k f(labels[r, k]) into levels, deepest first.

    Rows that share their first k labels share one node at depth k, and
    nodes with the same set of (labels, node below) edges are one node, so a
    node's value is the sum over its edges of the product of f over the
    edge's labels times the value below.  A level spans the slots from one
    at which some node has several edges to the next, so its edges carry
    several labels where no node branches.  Returns the leaf values (the
    multiplicity of each distinct row) and, per level, (edge labels
    (E, width), the node below each edge, the first edge of each node, the
    node count below)."""
    m, n_lab = labels.shape[1], labels.max() + 1
    group, first = [np.zeros(len(labels), dtype=np.int64)], []
    for kk in range(m):
        _, head, inv = np.unique(group[-1] * n_lab + labels[:, kk],
                                 return_index=True, return_inverse=True)
        group.append(inv.ravel())
        first.append(head)
    bounds = [0] + [kk for kk in range(1, m)
                    if len(first[kk]) > len(first[kk - 1])] + [m]
    leaf, node = np.unique(np.bincount(group[-1]), return_inverse=True)
    levels: list = []
    for k0, k1 in reversed(list(zip(bounds, bounds[1:]))):
        rep = first[k1 - 1]
        parent = group[k0][rep]
        edge = np.column_stack([labels[rep, k0:k1], node])
        starts = np.flatnonzero(np.diff(parent, prepend=-1))
        classes: dict = {}
        own = np.array([classes.setdefault(sig.tobytes(), len(classes))
                        for sig in np.split(edge, starts[1:])])
        # the first node of each class keeps its edges
        keep = (np.diff(np.maximum.accumulate(own), prepend=-1) > 0)[parent]
        levels.append((edge[keep, :-1], edge[keep, -1],
                       np.flatnonzero(np.diff(parent[keep], prepend=-1)),
                       node.max() + 1))
        node = own
    return leaf, levels


class _EllipticOmega:
    """The elliptic omega as a function of x, without base-point normalization.

    Each slot factor sigma_{x_a - x_b}(u) depends only on the ordered pair
    (a, b) = (c(k), w(k)+1) and on u = t_k - t_{f(k)}, so a (w, f) term is a
    word of m labels (pair, u).  Construction factors the sum of the words'
    products into levels (``_suffix_levels``): at N=4 l=2 the 4320 words of
    12 labels become 9 levels with 1374 labels in all.  Evaluation builds,
    per row block of x, the table of sigma over all N(N-1) ordered pair
    differences and all u in one ``sigma_lambda`` call; omega(x o pi) for any
    x-permutation pi relabels the pair of every label, all permutations walk
    the levels together, and each is weighted by its prefactor
    e^{2 pi i (xi, x o pi)}, with no further theta series.  Row blocks hold
    at most ``_BLOCK_ENTRIES`` table entries, so the table does not grow
    with the batch.
    """

    def __init__(self, point: EllipticPoint, xi: Weight, rs: RootSystemData,
                 idx: BetheIndexing):
        if not membership_F(point, xi, rs, idx):
            raise MembershipError("t is outside F^tau (a factor of Phi_tau vanishes)")
        t = np.asarray(point.t, dtype=complex)
        self.nome = point.nome
        self.N = N = rs.N
        self.xi = np.asarray(xi.coords, dtype=float)
        u_index: dict = {}
        slots = []
        for w_flat, f_tuple in zip(idx.W_maps, idx.Fw_maps):
            for f_flat in f_tuple:
                for kk in range(idx.m):
                    u_k = u_index.setdefault((kk, f_flat[kk]), len(u_index))
                    # 0-based x indices: c(k) and w(k)+1
                    slots.append((idx.c[kk] - 1, w_flat[kk], u_k))
        self.u = np.array([t[kk] - (0j if f == 0 else t[f - 1])
                           for kk, f in u_index], dtype=complex)
        self._pair_a, self._pair_b = np.nonzero(~np.eye(N, dtype=bool))
        self._pair_id = np.full((N, N), -1)
        self._pair_id[self._pair_a, self._pair_b] = np.arange(N * (N - 1))
        self._rows = max(1, _BLOCK_ENTRIES // (self._pair_a.size * self.u.size))
        a, b, u = np.moveaxis(np.array(slots).reshape(-1, idx.m, 3), -1, 0)
        self._leaf, levels = _suffix_levels(self._pair_id[a, b] * self.u.size + u)
        self._levels = [(self._pair_a[label // self.u.size],
                         self._pair_b[label // self.u.size],
                         label % self.u.size, child, starts, below)
                        for label, child, starts, below in levels]

    def __call__(self, x):
        return self.perm_sum(x, [(tuple(range(self.N)), 1)])

    def perm_sum(self, x, perms: Sequence[tuple[Sequence[int], int]]):
        """Sum of sign * omega(x o perm) over the (perm, sign) pairs."""
        xb, single = _as_batch(x, self.N)
        perm = np.array([p for p, _ in perms])
        sign = np.array([s for _, s in perms])
        # the permutations side by side: each level's columns, and its child
        # and first-edge indices shifted per permutation
        shift = np.arange(len(perms))[:, None]
        leaf = np.tile(self._leaf, len(perms)).astype(complex)[None, :]
        walk = []
        for a, b, u, child, starts, below in self._levels:
            cols = self._pair_id[perm[:, a], perm[:, b]] * self.u.size + u
            walk.append((cols.reshape(-1, a.shape[1]),
                         (child + below * shift).ravel(),
                         (starts + len(a) * shift).ravel()))
        acc = np.empty(xb.shape[0], dtype=complex)
        for start in range(0, xb.shape[0], self._rows):
            blk = xb[start:start + self._rows]
            diff = blk[:, self._pair_a] - blk[:, self._pair_b]
            table = sigma_lambda(diff[:, :, None], self.u,
                                 self.nome).reshape(blk.shape[0], -1)
            value = leaf
            for cols, child, starts in walk:
                value = np.add.reduceat(
                    table[:, cols].prod(axis=2) * value[:, child], starts,
                    axis=1)
            pref = np.exp(TWO_PI_I * (blk[:, perm] @ self.xi))
            acc[start:start + blk.shape[0]] = (sign * pref * value).sum(axis=1)
        return complex(acc[0]) if single else acc


def omega_elliptic(point: EllipticPoint, xi: Weight, rs: RootSystemData,
                   idx: BetheIndexing) -> Evaluator:
    """The elliptic Bethe vector omega, normalized to 1 at x*.

    Sum over (w, f) of products of sigma_{x_i - x_{w(k)+1}}(t_k - t_{f(k)})
    with the prefactor e^{2 pi i (xi, x)}; requires t in F^tau_{N,l};
    x_i = x_j (mod lattice) raises PoleError.  At p = 0 it is omega_tri
    times the constant (2 pi i)^m / Prod_{c(k)=1} (T_k - 1), so after
    normalization it is the same function.  The returned evaluator carries
    ``perm_sum(x, perms)`` for ``symmetrize``.
    """
    raw = _EllipticOmega(point, xi, rs, idx)
    ref = raw(base_point(rs.N))
    if ref == 0 or not np.isfinite(ref):
        raise DomainError(
            "evaluator vanishes (or is singular) at the normalization base "
            "point; cannot normalize")

    def evaluator(x):
        return raw(x) / ref

    evaluator.perm_sum = lambda x, perms: raw.perm_sum(x, perms) / ref
    return evaluator


def symmetrize(omega: Evaluator, N: int, l: int) -> Evaluator:
    """Sym^(l) of ``omega`` (as ``omega_elliptic`` returns it): the plain sum
    over S_N for odd l, the sign-weighted sum for even l, taken in one
    ``omega.perm_sum(x, perms)`` call."""
    perms = [(p, 1 if l % 2 == 1 else _perm_sign(p))
             for p in permutations(range(N))]

    def sym(x):
        return omega.perm_sum(x, perms)

    return sym


def sym_omega_tri_nonvanishing(point: EllipticPoint, xi: Weight,
                               rs: RootSystemData, idx: BetheIndexing) -> bool:
    """Whether Sym^(l) omega_tri is a non-zero function: the largest
    coefficient of Alt(X^xi acc) exceeds ``_NONVANISHING_TOL`` times that of
    X^xi acc (exact cancellation would leave ~1e-16)."""
    omega = _TrigOmega(point, xi, rs, idx)
    return bool(np.max(np.abs(omega.alt()[1]))
                > _NONVANISHING_TOL * np.max(np.abs(omega.coef)))


@dataclass
class BetheState:
    """A Bethe eigenstate: the weight, the Bethe root, and the symmetrized
    evaluator Sym^(l) omega (built from the x*-normalized omega)."""

    xi: Weight
    point: EllipticPoint
    evaluator: Evaluator
    eigenvalue: Optional[complex]


def bethe_state_elliptic(point: EllipticPoint, xi: Weight, rs: RootSystemData,
                         idx: BetheIndexing,
                         compute_eigenvalue: bool = True) -> BetheState:
    """The Bethe state at a point of any nome, p = 0 included: Sym^(l) of
    the sigma-table omega, normalized by the unsymmetrized omega at x*.
    The eigenvalue comes from the critical-value formula
    2 pi^2 (xi, xi) - 2 pi i dS/dtau (requires a polished root; at p = 0 it
    is 2 pi^2 (xi, xi))."""
    ev = symmetrize(omega_elliptic(point, xi, rs, idx), rs.N, rs.l)
    eigenvalue = eigenvalue_elliptic(point, xi, rs, idx) \
        if compute_eigenvalue else None
    return BetheState(xi=xi, point=point, evaluator=ev, eigenvalue=eigenvalue)


def jack_proportionality(point: EllipticPoint, xi: Weight, jack, l: int
                         ) -> tuple[complex, float]:
    """Certify Sym^(l) omega_tri = c * J_lambda^{(1/(l+1))}(X) Delta(X)^{l+1}
    at the p = 0 point.

    Times Delta^l this is Alt(X^xi acc) = c J_lambda Delta^{2l+1}, compared
    on the traceless torus (exponents modulo (1, ..., 1)).  Returns c and the
    relative coefficient residual |Alt - c target| / |c target| of the
    least-squares fit; a residual < 1e-9 certifies proportionality.  The raw
    omega_tri and jack_expand's normalization fix c: for N=2, l=1,
    xi = 3 Lambda_1 it equals 1/2 exactly.
    """
    N = len(xi.coords)
    rs, idx = root_system(N, l), build_indexing(N, l)
    if not admissible(xi, rs):
        raise DomainError(
            f"weight {xi!r} fails the admissibility gate; the "
            f"proportionality statement assumes it")
    dom = sorted(xi.exact or xi.coords, reverse=True)
    lam_expected = tuple(Fraction(d) - (l + 1) * r
                         for d, r in zip(dom, rs.rho_bar.exact))
    jack_lam = tuple(Fraction(v) for v in jack.lam)
    if jack_lam != lam_expected:
        raise DomainError(
            f"Jack expansion is for {jack_lam}, expected lambda = "
            f"xi' - (l+1) rho_bar = {lam_expected}")
    if Fraction(jack.alpha) != Fraction(1, l + 1):
        raise DomainError(
            f"Jack parameter alpha = {jack.alpha}, expected 1/(l+1) = "
            f"{Fraction(1, l + 1)}")

    # deferred: perturb imports jack, which imports this module
    from .perturb import _laurent_state

    # both sides keyed by their exponents' differences to the last one
    rows, coef = _TrigOmega(point, xi, rs, idx).alt()
    diffs = rows - rows[:, -1:] + np.round(
        xi.coords - xi.coords[-1]).astype(np.int64)
    alt = dict(zip(map(tuple, diffs[:, :-1].tolist()), coef))
    target = {tuple(u - e[-1] for u in e[:-1]): b for e, b in
              _laurent_state(jack.lam, l, jack.lam[-1], 2 * l + 1).items()}
    keys = target.keys() | alt.keys()
    t = np.array([float(target.get(k, 0)) for k in keys])
    a = np.array([alt.get(k, 0) for k in keys])
    c = complex(t @ a / (t @ t))
    fit = abs(c) * float(np.linalg.norm(t))
    residual = float(np.linalg.norm(a - c * t)) / fit if fit else math.inf
    scale = math.lcm(*(q.denominator for q in jack.coeffs.values()))
    return c * scale, residual


def _fd_hamiltonian(psi: Evaluator, pts: np.ndarray, nome: Nome, l: int,
                    fd_h: float) -> tuple[np.ndarray, np.ndarray]:
    """(psi, H psi) on the points ``pts`` for
    H = -(1/2) Sum d^2/dx_i^2 + l(l+1) Sum_{i<j} wp_shifted(x_i - x_j) at
    ``nome``, the Laplacian by centered differences of step fd_h.  At
    Nome(p=0) the pair potential is pi^2/sin^2(pi(x_i - x_j)).  An empty
    batch and a step that is not positive and finite raise DomainError."""
    M, N = pts.shape
    if M == 0:
        raise DomainError("empty point batch (a sample grid of 0 points): "
                          "nothing to apply H to")
    if not (math.isfinite(fd_h) and fd_h > 0):
        raise DomainError(f"finite-difference step fd_h = {fd_h!r} must be "
                          f"positive and finite")
    stencil = [pts]
    for i in range(N):
        e = np.zeros(N)
        e[i] = fd_h
        stencil += [pts + e, pts - e]
    vals = np.atleast_1d(psi(np.concatenate(stencil))).reshape(2 * N + 1, M)
    center = vals[0]
    lap = sum((vals[1 + 2 * i] - 2.0 * center + vals[2 + 2 * i]) / fd_h ** 2
              for i in range(N))
    pot = sum(wp_shifted(pts[:, i] - pts[:, j], nome)
              for i, j in combinations(range(N), 2))
    return center, -0.5 * lap + l * (l + 1) * pot * center


def _rayleigh(psi: np.ndarray, h_psi: np.ndarray) -> tuple[complex, float]:
    """The Rayleigh quotient <psi, H psi>/<psi, psi> on the sample points
    and the relative residual ||H psi - E psi|| / ||E psi||."""
    norm2 = float(np.vdot(psi, psi).real)
    if norm2 == 0:
        raise DomainError("psi vanishes identically on the sample points")
    e_rayleigh = complex(np.vdot(psi, h_psi) / norm2)
    res = h_psi - e_rayleigh * psi
    return e_rayleigh, float(np.linalg.norm(res)
                             / np.linalg.norm(e_rayleigh * psi))


def residual_check(state: BetheState, grid_n: int = 64, fd_h: float = 1e-3,
                   *, margin: float = 0.1, seed: int = 5
                   ) -> tuple[complex, float]:
    """Apply H = -(1/2) Sum d^2/dx_i^2 + l(l+1) Sum_{i<j} wp_shifted(x_i-x_j)
    at the state's nome to the state by centered finite differences on
    ``grid_n`` interior sample points (pairwise periodic separation > margin)
    and return the Rayleigh quotient and the relative residual
    ||H psi - E psi|| / ||E psi||.
    """
    pts = sample_torus_points(len(state.xi.coords), grid_n, margin=margin,
                              seed=seed)
    psi, h_psi = _fd_hamiltonian(state.evaluator, pts, state.point.nome,
                                 _infer_l(state), fd_h)
    if not np.all(np.isfinite(h_psi)):
        raise PoleError("non-finite H psi values on the verification grid "
                        "(inadmissible weight or continuation fault)")
    return _rayleigh(psi, h_psi)


def _infer_l(state: BetheState) -> int:
    """l from the Bethe-root length m = l N (N-1)/2."""
    N = len(state.xi.coords)
    m = state.point.m
    lval, rem = divmod(2 * m, N * (N - 1))
    if rem:
        raise DomainError(f"point length {m} is not l N(N-1)/2 for N = {N}")
    return lval


def l2_estimate(state: BetheState, levels: Sequence[int] = (16, 32, 64)
                ) -> list[float]:
    """Midpoint tensor-grid estimates of Integral |Sym omega|^2 over [0,1]^N
    at the given per-axis resolutions.  Requires xi in the weight lattice P
    (pairwise-integer coordinate differences): otherwise |Sym omega| is not
    1-periodic and the integral is not defined on the torus.

    Each axis carries a fixed sub-cell offset (golden-ratio spaced) so no
    grid point lands exactly on a diagonal x_i = x_j, where the individual
    permutation terms have poles (the symmetrized sum is bounded there).
    Offset rectangle rules retain spectral accuracy for periodic integrands.
    """
    if not state.xi.in_P:
        raise DomainError(
            f"weight {state.xi!r} is not in the weight lattice P: the "
            f"integrand is not 1-periodic, refusing the torus integral")
    N = len(state.xi.coords)
    out = []
    for n in levels:
        axes = [((np.arange(n) + 0.5 + (i * _GOLDEN) % 1.0) / n) % 1.0
                for i in range(N)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=-1)
        vals = np.atleast_1d(state.evaluator(pts))
        out.append(float(np.mean(np.abs(vals) ** 2)))
    return out
