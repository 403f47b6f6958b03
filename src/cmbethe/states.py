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
sigma_{x_a - x_b}(u) per block of points, the point index last: one real
matrix product of the harmonics (cos, sin)((2n-1) pi (x_a - x_b)) of the
unordered pairs against the state's per-u weights (``elliptic.SigmaTable``),
with no theta series per entry.  The sum over (w, f) terms is factored once
into levels of shared suffixes, each permutation relabels the pair rows of
every level and contributes its own prefactor, and no theta series runs per
permutation or per slot.  The wave function lives on the real torus: every evaluator
takes real points, and a point with a non-zero imaginary part raises
DomainError.
The numerator X^xi acc of omega_tri is a finite Laurent polynomial, expanded
on the same levels, each sigma factor replaced by its linear slot factor;
Delta^l is symmetric for even l and antisymmetric for odd l, so Delta^l
Sym^(l) omega_tri is Alt(X^xi acc), stored by its chamber (laurent.chamber).
The two p = 0 certificates, the non-vanishing test and the Jack certificate
(Alt(X^xi acc) = c J_lambda Delta^{2l+1}, the chamber of
X^(N-1, ..., 0) Delta^{2l} J_lambda), read chambers and sample no points.

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
from functools import lru_cache
from fractions import Fraction
from itertools import permutations
from typing import Callable, Optional, Sequence

import numpy as np

from .elliptic import Nome, PoleError, SigmaTable, wp_shifted
from .errors import DomainError, MembershipError, ResourceError
from .laurent import (Frame, Laurent, chamber, frame, merge_keys, parity,
                      stack)
from .master import EllipticPoint, eigenvalue_elliptic, membership_F
from .weights import (BetheIndexing, RootSystemData, Weight, admissible,
                      build_indexing, root_system)

TWO_PI_I = 2j * math.pi
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: Cap on the complex entries per array of the sigma-table kernel in one
#: block of points (64 KiB, under glibc's 128 KiB mmap threshold).
_BLOCK_ENTRIES = 1 << 12
#: Most uniform draws ``sample_torus_points`` makes before giving up, and
#: the draws it tests per block.
_SAMPLE_DRAWS = 200000
_SAMPLE_CHUNK = 4096
#: Least ratio of the largest coefficients of Alt(X^xi acc) and X^xi acc.
_NONVANISHING_TOL = 1e-8
#: Step of the centered finite-difference Laplacian.
_FD_STEP = 1e-3
#: Most points of one ``l2_estimate`` grid.
_L2_POINTS = 1 << 20
#: The last p = 0 expansion of ``_omega_tri``, keyed by the bytes of its
#: root and weight and by (N, l).
_TRI_MEMO: dict = {}

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


def sample_torus_points(N: int, n: int, *, margin: float = 0.1, seed: int = 0
                        ) -> np.ndarray:
    """n deterministic points in [0,1)^N with pairwise periodic separation
    min_{i<j} dist(x_i - x_j, Z) > margin.

    Points are the first n accepted of at most ``_SAMPLE_DRAWS`` successive
    uniform draws from the seeded generator, tested in blocks of about
    twice the points still missing (at most ``_SAMPLE_CHUNK``); the stream
    is sequential, so the block sizes do not change the points.
    """
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(N, 1)
    accepted = [np.empty((0, N))]
    count = drawn = 0
    while count < n and drawn < _SAMPLE_DRAWS:
        chunk = min(_SAMPLE_DRAWS - drawn, _SAMPLE_CHUNK,
                    2 * (n - count) + 16)
        x = rng.random((chunk, N))
        drawn += chunk
        d = x[:, iu] - x[:, ju]
        x = x[np.all(np.abs(d - np.round(d)) > margin, axis=1)][:n - count]
        accepted.append(x)
        count += x.shape[0]
    if count < n:
        raise ResourceError(
            f"could not draw {n} points with pairwise margin {margin} in [0,1)^{N}")
    return np.concatenate(accepted)


def _as_batch(x, N: int) -> tuple[np.ndarray, bool]:
    """x as an (M, N) float batch, and whether it was a single point.  The
    wave function lives on the real torus: a point with a non-zero
    imaginary part raises DomainError."""
    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        if np.any(arr.imag != 0):
            raise DomainError("points must be real: the wave function is "
                              "evaluated on the real torus")
        arr = arr.real
    arr = np.asarray(arr, dtype=float)
    if arr.shape[-1] != N:
        raise DomainError(f"expected {N} coordinates, got {arr.shape[-1]}")
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


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


@dataclass(frozen=True)
class _OmegaIndex:
    """The index-only structure of omega at (N, l), as read-only arrays: the
    distinct slots (k, f(k)) in order of first appearance, the ordered x
    pairs side by side ((a, b) is 2j and (b, a) is 2j + 1 for the j-th
    unordered pair a < b, the order of the sigma table's output), and the
    suffix levels of the (w, f) words, each label split into its pair
    (a, b) and its slot; and the key frame of the p = 0 expansion's
    (node, exponents) terms: a node digit below the largest node count of
    a level, and per x-column a digit below one more than the number of
    slots whose factor can raise that column."""

    k: np.ndarray
    f: np.ndarray
    unordered: tuple[np.ndarray, np.ndarray]
    pair_a: np.ndarray
    pair_b: np.ndarray
    pair_id: np.ndarray
    leaf: np.ndarray
    levels: tuple
    frame: Frame


@lru_cache(maxsize=16)
def _omega_index(N: int, l: int) -> _OmegaIndex:
    """The ``_OmegaIndex`` of (N, l), built from ``build_indexing``'s words;
    the cache holds no word-sized array."""
    idx = build_indexing(N, l)
    w, f = idx.words.transpose(1, 0, 2)
    # the distinct (k, f(k)), numbered in order of first appearance
    code, first, u = np.unique(np.arange(idx.m) * (idx.m + 1) + f,
                               return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))
    k, f_k = np.divmod(code[np.argsort(first)], idx.m + 1)
    unordered = np.triu_indices(N, 1)
    pair_a = np.column_stack(unordered).ravel()
    pair_b = np.column_stack(unordered[::-1]).ravel()
    pair_id = np.full((N, N), -1)
    pair_id[pair_a, pair_b] = np.arange(N * (N - 1))
    # slot k pairs the 0-based x indices c(k) - 1 and w(k)
    pair = pair_id[np.asarray(idx.c) - 1, w]
    leaf, levels = _suffix_levels(pair * k.size + rank[u.reshape(f.shape)])
    levels = tuple((pair_a[label // k.size], pair_b[label // k.size],
                    label % k.size, child, starts, below)
                   for label, child, starts, below in levels)
    nodes, raised = len(leaf), np.zeros(N, dtype=np.int64)
    for a, b, _, child, _, _ in levels:
        nodes = max(nodes, len(child))
        touched = np.zeros((a.shape[1], N), dtype=bool)
        slot = np.arange(a.shape[1])
        touched[slot, a] = touched[slot, b] = True
        raised += touched.sum(axis=0)
    for a in (k, f_k, *unordered, pair_a, pair_b, pair_id, leaf,
              *(arr for level in levels for arr in level[:-1])):
        a.setflags(write=False)
    return _OmegaIndex(k, f_k, unordered, pair_a, pair_b, pair_id, leaf,
                       levels, frame(np.zeros(N + 1), [nodes - 1, *raised]))


def omega_labels(N: int, l: int) -> int:
    """The labels on the suffix levels of omega at (N, l): the sigma factors
    one evaluation of omega multiplies per point (6 at N=3 l=1, 2737 at
    N=6 l=1)."""
    return sum(level[0].size for level in _omega_index(N, l).levels)


class _EllipticOmega:
    """The elliptic omega as a function of x, without base-point normalization.

    Each slot factor sigma_{x_a - x_b}(u) depends only on the ordered pair
    (a, b) = (c(k), w(k)+1) and on u = t_k - t_{f(k)}, so a (w, f) term is a
    word of m labels (pair, u).  The sum of the words' products is factored
    into levels (``_suffix_levels``), once per (N, l) (``_omega_index``): at
    N=4 l=2 the 4320 words of 12 labels become 9 levels with 1374 labels in
    all.  Evaluation builds, per block of real points x, the table of
    sigma over all N(N-1) ordered pair differences and all u by one
    harmonic matrix product (``SigmaTable``, built with the state), the
    point index last: the ordered pairs are numbered so that (a, b) and
    (b, a) sit side by side, so the kernel's (unordered pairs, 2, u) rows
    are the table's rows as they stand.  omega(x o pi) for any
    x-permutation pi relabels the pair of every label, and all permutations
    walk the levels together: a level gathers its labels' table rows, takes
    each edge's product over the middle axis and sums each node's edges,
    each step on whole rows of points.  The prefactors e^{2 pi i
    (xi, x o pi)} of all permutations are one (perms x N)(N x points)
    product and one exp; they start the leaves, with each permutation's
    sign, so the top level's sum is the sum over permutations.  No theta
    series runs per permutation.  A block holds at most ``_BLOCK_ENTRIES``
    entries of the kernel's harmonics and of its product rows, whichever
    is larger, so no array of the kernel grows with the batch.
    """

    def __init__(self, point: EllipticPoint, xi: Weight, rs: RootSystemData,
                 idx: BetheIndexing):
        if not membership_F(point, xi, rs, idx):
            raise MembershipError("t is outside F^tau (a factor of Phi_tau vanishes)")
        self.nome = point.nome
        self.N = rs.N
        self.xi = np.asarray(xi.coords, dtype=float)
        index = _omega_index(idx.N, idx.l)
        self._k, self._f = index.k, index.f
        self._t = np.concatenate([[0j], point.t])       # t_0 = 0
        self.u = self._t[self._k + 1] - self._t[self._f]
        self._unordered = index.unordered
        self._pair_a, self._pair_b = index.pair_a, index.pair_b
        self._pair_id = index.pair_id
        self._leaf, self._levels = index.leaf, index.levels
        self._frame = index.frame
        self._sigma = SigmaTable(self.u, self.nome)
        # the unordered pair differences as one product per block, each
        # entry x_a - x_b rounded once, as a subtraction rounds it
        pairs = np.arange(self._unordered[0].size)
        self._diff = np.zeros((pairs.size, self.N))
        self._diff[pairs, self._unordered[0]] = 1.0
        self._diff[pairs, self._unordered[1]] = -1.0
        # complex entries per point of the kernel's harmonics and product
        self._width = self._unordered[0].size * max(
            self._sigma.terms, 2 * self.u.size + 1)

    def __call__(self, x):
        return self.perm_sum(x, [(tuple(range(self.N)), 1)])

    def tri_expansion(self) -> tuple[np.ndarray, np.ndarray]:
        """acc of omega_tri = X^xi acc / Delta^l as (rows, coef), walked over
        the sigma table's levels: label (pair (a, b), u = t_k - t_{f(k)}) is
        the factor (T_k X_a - T_{f(k)} X_b) / (T_k - T_{f(k)}), T_0 = 1, with
        no denominator where f(k) = 0.  Each term is one key of (node,
        exponents) in the index's frame, node the leading digit: each child
        polynomial is copied onto every edge to it, a slot factor adds the
        radix of X_a or of X_b, and terms merge after every factor."""
        T = np.exp(-TWO_PI_I * self._t)
        T_k, T_f = T[self._k + 1], T[self._f]
        den = np.where(self._f == 0, 1.0 + 0j, T_k - T_f)
        if np.any(np.abs(den) < 1e-13):
            raise PoleError("paired collision T_k = T_{f(k)}: zero "
                            "denominator in omega_tri")
        own, other = T_k / den, -T_f / den
        node = self._frame.radix[0]
        radix = self._frame.radix[1:]
        keys = np.arange(len(self._leaf)) * node
        coef = self._leaf.astype(complex)
        for a, b, u, child, starts, _ in self._levels:
            held = keys // node
            lo = np.searchsorted(held, child)
            count = np.searchsorted(held, child, side="right") - lo
            take = np.repeat(lo - np.cumsum(count) + count, count) \
                + np.arange(count.sum())
            keys = keys[take] % node \
                + np.repeat(np.arange(len(child)) * node, count)
            coef = coef[take]
            for j in reversed(range(a.shape[1])):
                edge = keys // node
                keys, coef = merge_keys(
                    np.concatenate([keys + radix[a[edge, j]],
                                    keys + radix[b[edge, j]]]),
                    np.concatenate([coef * own[u[edge, j]],
                                    coef * other[u[edge, j]]]))
            keys = keys % node + node * (np.searchsorted(
                starts, keys // node, side="right") - 1)
            keys, coef = merge_keys(keys, coef)
        return self._frame.decode(keys)[:, 1:], coef

    def perm_sum(self, x, perms: Sequence[tuple[Sequence[int], int]]):
        """Sum of sign * omega(x o perm) over the (perm, sign) pairs."""
        xb, single = _as_batch(x, self.N)
        perm = np.array([p for p, _ in perms])
        sign = np.array([s for _, s in perms])
        count = len(perms)
        # the permutations stacked on the first axis: each level's table
        # rows, and its child and first-edge indices shifted per permutation
        shift = np.arange(count)[:, None]
        walk = []
        for a, b, u, child, starts, below in self._levels:
            cols = self._pair_id[perm[:, a], perm[:, b]] * self.u.size + u
            walk.append((cols.reshape(-1, a.shape[1]),
                         (child + below * shift).ravel(),
                         (starts + len(a) * shift).ravel()))
        *inner, (top, top_child, _) = walk
        # 2 pi (xi, x o perm) = Sum_i 2 pi xi_(perm^-1(i)) x_i, so the
        # prefactors of all permutations are one product; each leaf starts
        # as its permutation's prefactor times sign and multiplicity, so the
        # top level's sum is the sum over permutations
        phase = np.zeros((count, self.N))
        phase[shift, perm] = 2 * math.pi * self.xi
        leaf_perm = np.repeat(np.arange(count), len(self._leaf))
        leaf = np.outer(sign, self._leaf).reshape(-1, 1)
        rows = max(1, _BLOCK_ENTRIES // self._width)
        acc = np.empty(xb.shape[0], dtype=complex)
        for start in range(0, xb.shape[0], rows):
            blk = xb[start:start + rows].T
            table = self._sigma(self._diff @ blk).reshape(-1, blk.shape[1])
            value = np.exp(1j * (phase @ blk))[leaf_perm] * leaf
            for cols, child, starts in inner:
                value = np.add.reduceat(
                    table[cols].prod(axis=1) * value[child], starts, axis=0)
            (table[top].prod(axis=1) * value[top_child]).sum(
                axis=0, out=acc[start:start + blk.shape[1]])
        return complex(acc[0]) if single else acc


def omega_elliptic(point: EllipticPoint, xi: Weight, rs: RootSystemData,
                   idx: BetheIndexing) -> Evaluator:
    """The elliptic Bethe vector omega, normalized to 1 at x*.

    Sum over (w, f) of products of sigma_{x_i - x_{w(k)+1}}(t_k - t_{f(k)})
    with the prefactor e^{2 pi i (xi, x)}; requires t in F^tau_{N,l}.  The
    evaluator takes real points x (one, or an (M, N) batch): x_i = x_j
    (mod 1) raises PoleError, a non-zero imaginary part DomainError.  At p = 0 it is omega_tri
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
    """Sym^(l) of ``omega`` (as ``omega_elliptic`` returns it): the sum over
    S_N weighted by sgn^(l+1), plain for odd l and sign-weighted for even l,
    taken in one ``omega.perm_sum(x, perms)`` call."""
    perms = list(permutations(range(N)))
    perms = list(zip(perms, parity(np.array(perms)) ** (l + 1)))

    def sym(x):
        return omega.perm_sum(x, perms)

    return sym


def _omega_tri(point: EllipticPoint, xi: Weight, rs: RootSystemData,
               idx: BetheIndexing) -> tuple[Laurent, Laurent]:
    """At a p = 0 point, acc (``_EllipticOmega.tri_expansion``) and
    Alt(X^xi acc) = Delta^l Sym^(l) omega_tri by its chamber, the rows
    those of X^{xi - xi_N} acc (integers for xi in P), as read-only arrays.
    The last result is kept (``_TRI_MEMO``): the search's non-vanishing
    test and the Jack certificate of ``cm verify`` read the same root."""
    if point.nome.p != 0:
        raise DomainError("omega_tri needs a p = 0 point")
    key = (point.t.tobytes(), xi.coords.tobytes(), xi.in_P, idx.N, idx.l)
    if key not in _TRI_MEMO:
        rows, coef = _EllipticOmega(point, xi, rs, idx).tri_expansion()
        if not xi.in_P:
            raise DomainError("antisymmetrizing omega_tri needs xi in P")
        shift = np.round(xi.coords - xi.coords[-1]).astype(np.int64)
        out = (rows, coef), chamber(rows + shift, coef)
        for a in (*out[0], *out[1]):
            a.setflags(write=False)
        _TRI_MEMO.clear()
        _TRI_MEMO[key] = out
    return _TRI_MEMO[key]


def sym_omega_tri_nonvanishing(point: EllipticPoint, xi: Weight,
                               rs: RootSystemData, idx: BetheIndexing) -> bool:
    """Whether Sym^(l) omega_tri is a non-zero function: the largest
    coefficient of Alt(X^xi acc) exceeds ``_NONVANISHING_TOL`` times that of
    X^xi acc (exact cancellation would leave ~1e-16)."""
    (_, coef), (_, alt) = _omega_tri(point, xi, rs, idx)
    return bool(np.max(np.abs(alt), initial=0.0)
                > _NONVANISHING_TOL * np.max(np.abs(coef)))


@dataclass
class BetheState:
    """A Bethe eigenstate: the weight, the Bethe root, and the symmetrized
    evaluator Sym^(l) omega (built from the x*-normalized omega), which
    takes real points only."""

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

    # J Delta^{2l+1} = Alt(X^delta Delta^{2l} J), delta = (N-1, ..., 0);
    # both chambers keyed by their exponents' differences to the last one
    rows, coef = jack.times_delta(2 * l)
    sides = [_omega_tri(point, xi, rs, idx)[1],
             chamber(rows + np.arange(N - 1, -1, -1), coef)]
    _, both = stack([(r - r[:, -1:], c) for r, c in sides])
    a, t = both[:, 0].astype(complex), both[:, 1].astype(float)
    c = complex(t @ a / (t @ t))
    fit = abs(c) * float(np.linalg.norm(t))
    residual = float(np.linalg.norm(a - c * t)) / fit if fit else math.inf
    return c * jack.denominator, residual


def _fd_hamiltonian(psi: Evaluator, pts: np.ndarray, nome: Nome, l: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(psi, H psi) on the points ``pts`` for
    H = -(1/2) Sum d^2/dx_i^2 + l(l+1) Sum_{i<j} wp_shifted(x_i - x_j) at
    ``nome``, the Laplacian by centered differences of step ``_FD_STEP``.
    At Nome(p=0) the pair potential is pi^2/sin^2(pi(x_i - x_j)).  An empty
    batch raises DomainError."""
    M, N = pts.shape
    if M == 0:
        raise DomainError("empty point batch (a sample grid of 0 points): "
                          "nothing to apply H to")
    stencil = [pts]
    for i in range(N):
        e = np.zeros(N)
        e[i] = _FD_STEP
        stencil += [pts + e, pts - e]
    vals = np.atleast_1d(psi(np.concatenate(stencil))).reshape(2 * N + 1, M)
    center = vals[0]
    lap = sum((vals[1 + 2 * i] - 2.0 * center + vals[2 + 2 * i])
              / _FD_STEP ** 2 for i in range(N))
    i, j = np.triu_indices(N, 1)
    pot = sum(wp_shifted(pts[:, i] - pts[:, j], nome).T)   # pairs in order
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


def residual_check(state: BetheState, grid_n: int = 64, *,
                   margin: float = 0.1, seed: int = 5
                   ) -> tuple[complex, float]:
    """Apply H = -(1/2) Sum d^2/dx_i^2 + l(l+1) Sum_{i<j} wp_shifted(x_i-x_j)
    at the state's nome to the state by centered finite differences of step
    ``_FD_STEP`` on ``grid_n`` interior sample points (pairwise periodic
    separation > margin) and return the Rayleigh quotient and the relative
    residual ||H psi - E psi|| / ||E psi||.  The sample points and the
    stencil are real: the state is a function on the real torus.
    """
    pts = sample_torus_points(len(state.xi.coords), grid_n, margin=margin,
                              seed=seed)
    psi, h_psi = _fd_hamiltonian(state.evaluator, pts, state.point.nome,
                                 _infer_l(state))
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
    The grid is real, as every point the state evaluator accepts.
    A level whose n^N grid points exceed ``_L2_POINTS`` raises
    ResourceError before any grid is allocated.
    """
    if not state.xi.in_P:
        raise DomainError(
            f"weight {state.xi!r} is not in the weight lattice P: the "
            f"integrand is not 1-periodic, refusing the torus integral")
    N = len(state.xi.coords)
    for n in levels:
        if n ** N > _L2_POINTS:
            raise ResourceError(f"the {n}^{N} = {n ** N} points of the L2 "
                                f"grid exceed the cap {_L2_POINTS}")
    out = []
    for n in levels:
        axes = [((np.arange(n) + 0.5 + (i * _GOLDEN) % 1.0) / n) % 1.0
                for i in range(N)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=-1)
        vals = np.atleast_1d(state.evaluator(pts))
        out.append(float(np.mean(np.abs(vals) ** 2)))
    return out
