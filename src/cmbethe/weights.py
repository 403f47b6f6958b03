"""A_{N-1} root and weight bookkeeping, and the Bethe-vector index sets.

Weights live in the traceless subspace of R^N (coordinates sum to zero).
Simple roots are alpha_i = eps_i - eps_{i+1}; fundamental weights Lambda_i
satisfy (Lambda_i, alpha_j) = delta_ij; rho_bar is the traceless half-sum of
positive roots with components (N+1-2i)/2.

Weights constructed from integer or rational data carry exact Fraction
coordinates alongside the float representation, so lattice membership (the
admissibility gate) is decided exactly whenever possible.

The index sets entering the Bethe vector, for m = l*N*(N-1)/2 variables:

    c : {1..m} -> {1..N-1}, non-decreasing, with #c^-1(i) = (N-i)*l,
        realized by the blocks V_i = {p_{i-1}+1, ..., p_i},
        p_i = i*(2N-i-1)*l/2;
    W : tuples w = (w_1,...,w_{N-1}), w_i : V_i -> {i..N-1}, each fiber of
        size exactly l;
    F_w : tuples f = (f_1,...,f_{N-2}), f_i : V_{i+1} -> V_i injective with
        w_{i+1}(x) = w_i(f_i(x)).

The (w, f) words are enumerated once, by array operations, into one
read-only int64 array of shape (words, 2, m), guarded by their number
|W| (l!)^{(N-1)(N-2)/2} <= 10^6.  Row 0 of a word is w flat
(w[k-1] = w_i(k) for k in V_i); row 1 is f flat, f[k-1] = f_{i-1}(k) for
k in V_i, i >= 2, and f[k-1] = 0 for k in V_1, folding in the convention
t_0 = 0 (T_0 = 1) for the first block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Sequence

import numpy as np

from .errors import DomainError, ResourceError
from .laurent import orbit

_INT_TOL = 1e-9
_WORD_GUARD = 10 ** 6


def _to_fraction(x) -> Fraction | None:
    """Exact Fraction for int/Fraction/integral-float inputs, else None."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, float) and math.isfinite(x) and x == int(x):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    return None


def _finite(x) -> bool:
    """Whether a number is finite (exact numbers and rational strings
    always are)."""
    return isinstance(x, (int, np.integer, Fraction, str)) or math.isfinite(x)


class Weight:
    """A traceless weight of A_{N-1}.

    ``coords`` is the float representation; ``exact`` is a tuple of Fractions
    when the weight was built from exact data, else None.  Construction
    canonicalizes to the traceless representative (subtracts the mean).
    """

    __slots__ = ("coords", "exact")

    def __init__(self, coords: Sequence, exact: Sequence[Fraction] | None = None):
        if exact is None:
            fracs = [_to_fraction(c) for c in coords]
            if all(f is not None for f in fracs):
                exact = fracs
        if exact is not None:
            mean = sum(exact, Fraction(0)) / len(exact)
            exact = tuple(f - mean for f in exact)
            self.exact: tuple[Fraction, ...] | None = exact
            self.coords = np.array([float(f) for f in exact])
        else:
            arr = np.asarray(coords, dtype=float)
            if not np.isfinite(arr).all():
                raise DomainError(f"weight coordinates must be finite, got "
                                  f"{tuple(arr)}")
            arr = arr - arr.mean()
            self.exact = None
            self.coords = arr
        self.coords.setflags(write=False)

    @property
    def N(self) -> int:
        return len(self.coords)

    @property
    def in_P(self) -> bool:
        """True iff all pairings with roots are integers (lattice membership)."""
        if self.exact is not None:
            return all((a - b).denominator == 1
                       for a, b in zip(self.exact, self.exact[1:]))
        d = np.diff(self.coords)
        return bool(np.all(np.abs(d - np.round(d)) < _INT_TOL))

    @property
    def in_P_plus(self) -> bool:
        """True iff in P with nonnegative simple-root pairings (dominant)."""
        return self.in_P and bool(np.all(np.diff(self.coords) <= _INT_TOL))

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"Weight(({', '.join(str(f) for f in self.exact)}))"
        return f"Weight({tuple(self.coords)})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Weight) and np.array_equal(self.coords, other.coords)

    def __hash__(self) -> int:
        return hash(tuple(self.coords))


@dataclass(frozen=True)
class RootSystemData:
    """Root data of A_{N-1} at coupling l: simple roots, fundamental weights,
    rho_bar, and the Bethe variable count m = l*N*(N-1)/2."""

    N: int
    l: int
    m: int
    simple_roots: np.ndarray        # (N-1, N)
    fundamental_weights: np.ndarray  # (N-1, N), traceless representatives
    rho_bar: Weight

    @property
    def positive_roots(self) -> list[np.ndarray]:
        out = []
        for i in range(self.N - 1):
            for j in range(i + 1, self.N):
                v = np.zeros(self.N)
                v[i], v[j] = 1.0, -1.0
                out.append(v)
        return out


@lru_cache(maxsize=16)
def root_system(N: int, l: int) -> RootSystemData:
    """Build RootSystemData for A_{N-1} with coupling integer l >= 1;
    cached, its arrays read-only."""
    if N < 2 or l < 1:
        raise DomainError(f"need N >= 2 and l >= 1, got N={N}, l={l}")
    alphas = np.zeros((N - 1, N))
    for i in range(N - 1):
        alphas[i, i], alphas[i, i + 1] = 1.0, -1.0
    lambdas = np.zeros((N - 1, N))
    for i in range(1, N):
        lambdas[i - 1, :i] = 1.0
        lambdas[i - 1] -= i / N
    rho = Weight([Fraction(N + 1 - 2 * i, 2) for i in range(1, N + 1)])
    alphas.setflags(write=False)
    lambdas.setflags(write=False)
    return RootSystemData(N=N, l=l, m=l * N * (N - 1) // 2,
                          simple_roots=alphas, fundamental_weights=lambdas,
                          rho_bar=rho)


def weight_from_lambda_coords(ms: Sequence, N: int) -> Weight:
    """The weight sum_i ms[i]*Lambda_i from its N-1 fundamental coordinates."""
    if len(ms) != N - 1:
        raise DomainError(f"expected {N - 1} Lambda-coordinates, got {len(ms)}")
    fracs = [_to_fraction(m) for m in ms]
    if all(f is not None for f in fracs):
        coords = [Fraction(0)] * N
        for i, f in enumerate(fracs, start=1):
            for j in range(i):
                coords[j] += f
        # traceless canonicalization happens in Weight.__init__
        return Weight(coords)
    coords = np.zeros(N)
    for i, mval in enumerate(ms, start=1):
        coords[:i] += float(mval)
    return Weight(coords)


def permute_weight(xi: Weight, sigma: Sequence[int]) -> Weight:
    """The weight with coordinates (xi_{sigma(1)}, ..., xi_{sigma(N)}),
    exact when xi is."""
    if xi.exact is not None:
        return Weight([xi.exact[i] for i in sigma])
    return Weight(xi.coords[list(sigma)])


def lambda_coords(xi: Weight) -> np.ndarray:
    """Fundamental (Lambda) coordinates m_i = (xi, alpha_i) of a weight."""
    return -np.diff(xi.coords)


def pairing(a, b) -> float:
    """Euclidean pairing of weights/vectors (Weight or array-like)."""
    av = a.coords if isinstance(a, Weight) else np.asarray(a, dtype=float)
    bv = b.coords if isinstance(b, Weight) else np.asarray(b, dtype=float)
    if av.shape != bv.shape:
        raise DomainError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    return float(av @ bv)


def admissible(xi: Weight, rs: RootSystemData) -> bool:
    """The square-integrability gate: xi in P and |(xi, alpha)| not in
    {0, 1, ..., l} for every root alpha (i.e. every coordinate difference
    stays more than l away from 0 in absolute value)."""
    if xi.N != rs.N:
        raise DomainError(f"weight has N={xi.N}, root system has N={rs.N}")
    if not xi.in_P:
        return False
    c = xi.coords
    for i in range(rs.N - 1):
        for j in range(i + 1, rs.N):
            if abs(c[i] - c[j]) < rs.l + 0.5:  # integer pairing: <= l
                return False
    return True


def lambda_to_xi(lam: Weight, rs: RootSystemData) -> Weight:
    """xi = lambda + (l+1)*rho_bar for dominant lambda."""
    if not lam.in_P_plus:
        raise DomainError(f"lambda must be a dominant weight, got {lam!r}")
    shift = rs.l + 1
    if lam.exact is not None:
        return Weight([a + shift * b for a, b in zip(lam.exact, rs.rho_bar.exact)])
    return Weight(lam.coords + shift * rs.rho_bar.coords)


def jack_energy(lam: Weight | Sequence, alpha, N: int | None = None):
    """E_lambda^[alpha] = sum lam_i^2 + sum (N+1-2i)/alpha * lam_i.

    Exact (Fraction) when both lam and alpha are exact; equals
    (lam + rho_bar/alpha, lam + rho_bar/alpha) - (rho_bar, rho_bar)/alpha^2
    for traceless lam.
    """
    if isinstance(lam, Weight):
        parts = lam.exact if lam.exact is not None else lam.coords
    else:
        parts = list(lam)
    n = len(parts)
    if N is not None and N != n:
        raise DomainError(f"lambda has {n} parts, expected {N}")
    alpha_f = _to_fraction(alpha) if not isinstance(alpha, float) else None
    a = alpha_f if alpha_f is not None else alpha
    if not all(_finite(v) for v in parts) or not _finite(a) or a == 0:
        raise DomainError(f"jack_energy needs finite parts and a finite "
                          f"non-zero alpha, got {list(parts)}, {alpha!r}")
    if alpha_f is not None and not isinstance(parts, np.ndarray) \
            and all(_to_fraction(p) is not None for p in parts):
        tot = Fraction(0)
        for i, pv in enumerate(parts, start=1):
            pf = _to_fraction(pv)
            tot += pf * pf + Fraction(n + 1 - 2 * i, 1) / alpha_f * pf
        return tot
    a = float(a)
    tot = 0.0
    for i, pv in enumerate(parts, start=1):
        pf = float(pv)
        tot += pf * pf + (n + 1 - 2 * i) / a * pf
    return tot


def e0(N: int, l: int) -> float:
    """Ground-state energy e0 = (1/6) pi^2 (l+1)^2 N (N^2-1)."""
    return math.pi ** 2 * (l + 1) ** 2 * N * (N * N - 1) / 6.0


def target_eigenvalue(lam: Weight, N: int, l: int) -> float:
    """The p -> 0 eigenvalue limit of the state labeled by dominant lambda,

        2 pi^2 E_lambda^[1/(l+1)] + e0  ( = 2 pi^2 (xi, xi) ).

    A published variant adds the constant (pi^2/6) N(N-1) l(l+1); the
    spectral residual tests arbitrate, and the continuation limit matches
    the value returned here under this package's conventions.
    """
    if lam.N != N:
        raise DomainError(f"lambda has N={lam.N}, expected {N}")
    if not lam.in_P_plus:
        raise DomainError(f"lambda must be dominant, got {lam!r}")
    return 2 * math.pi ** 2 * float(jack_energy(lam, Fraction(1, l + 1))) + e0(N, l)


# ---------------------------------------------------------------------------
# Bethe index sets


@dataclass(frozen=True)
class BetheIndexing:
    """The index combinatorics for the Bethe vector at (N, l).

    ``c`` is 1-based color values as a length-m tuple; ``p_bounds`` the block
    boundaries (p_0=0, ..., p_{N-1}=m); ``V`` the blocks as ranges;
    ``words`` the read-only (words, 2, m) int64 array of flat (w, f), w
    slowest (f[k-1] = 0 marks the t_0 = 0 convention).  ``words`` is shared
    by every caller of the cached ``build_indexing`` and takes no part in
    equality.
    """

    N: int
    l: int
    m: int
    c: tuple[int, ...]
    p_bounds: tuple[int, ...]
    V: tuple[range, ...]
    words: np.ndarray = field(repr=False, compare=False)

    @property
    def pair_coupling(self) -> np.ndarray:
        """Read-only matrix (alpha_c(i), alpha_c(j)): 2 on the diagonal
        blocks, -1 for adjacent colors, 0 otherwise; built once per
        colouring (``coupling_matrix``)."""
        return coupling_matrix(self.c)


@lru_cache(maxsize=16)
def coupling_matrix(c: tuple[int, ...]) -> np.ndarray:
    """The read-only coupling matrix (alpha_c(i), alpha_c(j)) of the
    colouring c; cached by c alone, so no cache holds the word array."""
    c = np.array(c)
    diff = np.abs(c[:, None] - c[None, :])
    out = np.zeros((len(c), len(c)))
    out[diff == 0] = 2.0
    out[diff == 1] = -1.0
    out.setflags(write=False)
    return out


def w_count(N: int, l: int) -> int:
    """|W| = prod_i ((N-i)l)! / (l!)^(N-i)."""
    total = 1
    for i in range(1, N):
        total *= math.factorial((N - i) * l) // math.factorial(l) ** (N - i)
    return total


def word_count(N: int, l: int) -> int:
    """The number of (w, f) words, |W| (l!)^{(N-1)(N-2)/2}: l! bijections
    per label of V_{i+1} (N-1-i of them) for each f_i, i = 1..N-2."""
    return w_count(N, l) * math.factorial(l) ** ((N - 1) * (N - 2) // 2)


@lru_cache(maxsize=4)
def build_indexing(N: int, l: int) -> BetheIndexing:
    """Enumerate c, V_i and the (w, f) words for (N, l), refused before
    anything is allocated unless the words are at most 10^6; cached.  w is
    the Cartesian product of the blocks' ``orbit``s, first block slowest;
    a stable argsort of each block of w gives its fibres; each (i, label)
    block of f permutes a fibre of V_i by a row of one l! permutation
    table, the rows counted first block slowest."""
    if N < 2 or l < 1:
        raise DomainError(f"need N >= 2 and l >= 1, got N={N}, l={l}")
    count = word_count(N, l)
    if count > _WORD_GUARD:
        raise ResourceError(f"the {count} (w, f) words of N={N}, l={l} "
                            f"exceed the enumeration guard {_WORD_GUARD}")
    m = l * N * (N - 1) // 2
    p_bounds = tuple(i * (2 * N - i - 1) * l // 2 for i in range(N))
    V = tuple(range(p_bounds[i - 1] + 1, p_bounds[i] + 1) for i in range(1, N))
    c = tuple(i for i in range(1, N) for _ in V[i - 1])

    w = np.zeros((1, 0), dtype=np.int64)
    for i in range(1, N):
        blk = orbit(np.repeat(np.arange(i, N), l))
        w = np.column_stack([np.repeat(w, len(blk), axis=0),
                             np.tile(blk, (len(w), 1))])
    # fibres[i-1][r, j]: the positions k in V_i with w_i(k) = i + j
    fibres = [np.argsort(w[:, p_bounds[i - 1]:p_bounds[i]], axis=1,
                         kind="stable").reshape(len(w), N - i, l)
              + p_bounds[i - 1] + 1 for i in range(1, N)]
    f = np.zeros((len(w), count // len(w), m), dtype=np.int64)
    if N >= 3:
        perms = np.array(list(permutations(range(l))))
        blocks = [(i, j) for i in range(1, N - 1) for j in range(N - 1 - i)]
        choice = np.unravel_index(np.arange(f.shape[1]),
                                  (len(perms),) * len(blocks))
        for (i, j), digit in zip(blocks, choice):
            # label i + 1 + j: its fibre in V_{i+1} onto its fibre in V_i
            np.put_along_axis(f, fibres[i][:, None, j] - 1,
                              fibres[i - 1][:, j + 1][:, perms[digit]], axis=2)
    words = np.stack([np.broadcast_to(w[:, None], f.shape), f],
                     axis=2).reshape(-1, 2, m)
    words.setflags(write=False)
    return BetheIndexing(N=N, l=l, m=m, c=c, p_bounds=p_bounds, V=V,
                         words=words)
