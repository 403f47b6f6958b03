"""Jack polynomials in the monomial basis, dominance order, torus inner
product, and the Calogero-Sutherland spectral identity.

Labels live in the shifted-partition set M_N: N non-increasing rationals with
integer pairwise differences.  A shifted label is (Prod X_i)^{lam_N} times an
ordinary integer partition, and the monomial symmetric function m_lam is the
sum over distinct permutations of the exponent vector; evaluators take
x-coordinates and compute X_i^a single-valuedly as e^{2 pi i a x_i}.

J_lam^{(alpha)} = m_lam + Sum_{mu < lam} c_mu m_mu is constructed by exact
linear algebra over the integers: the conjugated CS operator

    D(alpha) = Sum_i (X_i d/dX_i)^2
             + (1/alpha) Sum_{i<j} (X_i+X_j)/(X_i-X_j) (X_i d_i - X_j d_j)

acts triangularly in dominance order on monomial symmetric functions with
diagonal E_mu = Sum mu_i^2 + (1/alpha) Sum_i (N+1-2i) mu_i, so fixing
coeff(lam) = 1 determines the rest by back-substitution down one table per
(N, degree): the degree's partitions in descending lexicographic order of
prefix sums (each mu < lam comes after lam), the two integer parts of E_mu,
and the integer pair columns P of D(alpha) = diag + (1/alpha) P, all built
once and shared by every expansion of that degree and every alpha.  With
1/alpha = a/q the solve runs on the integer table q E and q D = a P off
the diagonal, fraction-free (after Bareiss, Math. Comp. 22, 1968): the
coefficients are numerators n_mu over one common denominator L, the
right-hand sides Sum a P n are integers, and n_mu = rhs_mu / (q E_lam -
q E_mu); when a gap does not divide its right-hand side, L and every
numerator and pending right-hand side are rescaled by the missing factor.
At the end the numerators are divided by their gcd with L, so L is the lcm
of the coefficients' denominators and n_mu = c_mu L.  That integer form
(``JackExpansion.numerators``, ``denominator``) is what the Laurent states
read; the Fraction coefficients are built from it once.  The solve commutes
with the shift lam -> lam + c(1, ..., 1): J_{lam + c} = e_N^c J_lam, the
degree's energy gaps do not move, and the numerators come out the same,
every key raised by c.  The perturbation states use that to run all the
solves of one level on one table.  A label that lam
does not dominate lies below no label with a coefficient, so its
right-hand side is exactly zero: it is skipped, and no dominance ideal is
filtered out first.  On a symmetric Laurent polynomial the pair terms act
finitely: for a monomial X^a with d = a_i - a_j > 0,

    (X_i+X_j)/(X_i-X_j)(X_i d_i - X_j d_j) [X^a + X^(swap_ij a)]
        = d [X^a + 2 Sum_{q=1}^{d-1} X^(a - q e_i + q e_j) + X^(swap_ij a)].

The pair columns of a whole degree are built from these rows over the
orbits of all its partitions, each term one int64 key of (partition,
monomial) in one ``laurent`` frame, merged on the keys, and read at the
non-increasing monomials.  The table keeps the orbits, and the product
with Delta^w (``symmetric_times_delta``, several numerator sets of one
degree at once; ``JackExpansion.times_delta`` for one) gathers from them,
so only this module reads them.  The degree's partition list
(``_partitions``) is cached on its own: the perturbation basis is read
from it without building the pair columns.

The spectral identity: with beta = l+1 = 1/alpha, the eigenfunctions of
H_CS = -(1/2) Sum d^2/dx_i^2 + l(l+1) pi^2 Sum_{i<j} 1/sin^2(pi(x_i-x_j))
are Delta(X)^{l+1} J_lam with eigenvalues e0 + 2 pi^2 E_lam^{[1/(l+1)]}.
H_CS is the elliptic Hamiltonian at p = 0 (wp_shifted is pi^2/sin^2 there),
so ``cs_apply`` and ``cs_quotient`` are the finite-difference stencil of
``states.residual_check`` at Nome(p=0), applied to Delta_s^{l+1} f, and
``cs_quotient`` verifies the identity with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Callable, Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from .elliptic import Nome
from .errors import DegeneracyError, DomainError
from .laurent import _INT64_MAX, frame, merge_keys, orbit, orbits
from .states import _fd_hamiltonian, _rayleigh, sample_torus_points

TWO_PI_I = 2j * math.pi

PartitionT = Tuple[Fraction, ...]


def partition(parts: Sequence) -> PartitionT:
    """Validate and normalize a (possibly shifted) partition: non-increasing
    rationals with integer pairwise differences."""
    try:
        tup = tuple(Fraction(p) for p in parts)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"partition entries must be rationals: {exc}") from exc
    if not tup:
        raise DomainError("empty partition")
    for a, b in zip(tup, tup[1:]):
        if a < b:
            raise DomainError(f"partition parts must be non-increasing: {tup}")
        if (a - b).denominator != 1:
            raise DomainError(
                f"partition parts must have integer differences: {tup}")
    return tup


def dominance_leq(mu: Sequence, lam: Sequence) -> bool:
    """mu <= lam in dominance: equal size and prefix sums of lam dominate.
    Partitions of different sizes are incomparable (False)."""
    mu_t, lam_t = partition(mu), partition(lam)
    if len(mu_t) != len(lam_t):
        raise DomainError("dominance compares partitions of the same length")
    if sum(mu_t) != sum(lam_t):
        return False
    acc_m = acc_l = Fraction(0)
    for a, b in zip(mu_t, lam_t):
        acc_m += a
        acc_l += b
        if acc_m > acc_l:
            return False
    return True


def _integer_partitions(total: int, max_parts: int, max_first: int | None = None):
    """All integer partitions of ``total`` into at most ``max_parts`` parts."""
    if max_first is None:
        max_first = total
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, max_first), 0, -1):
        for rest in _integer_partitions(total - first, max_parts - 1, first):
            yield (first,) + rest


def _pad(nu: Tuple[int, ...], N: int) -> Tuple[int, ...]:
    return nu + (0,) * (N - len(nu))


def _pair_columns(parts: Sequence[Tuple[int, ...]]
                  ) -> Tuple[List[tuple], np.ndarray, np.ndarray]:
    """The pair part P of D(alpha) = diag + (1/alpha) P on every m_nu of one
    degree, in one pass over all the orbits: each pair i < j and monomial
    X^a of m_nu with d = a_i - a_j > 0 gives d X^(a - q e) + d X^(a - (q+1) e),
    e = e_i - e_j, for q = 0..d-1 (the pair terms of the module docstring).
    The non-increasing ones are merged on one (nu, monomial) key and looked
    up among the partitions' keys.  Per nu, in the order of ``parts``: the
    table positions of the non-increasing monomials strictly below nu and
    their integer weights, as two lists (the weight at nu itself is part of
    E_nu); and the orbits they were built on: the stacked orbit rows of
    ``parts`` (``laurent.orbits``) and each partition's number of rows."""
    N, total = len(parts[0]), sum(parts[0])
    a, owner = orbits(parts)
    fr = frame([0] * (N + 1), [len(parts) - 1] + [total] * N)
    # every (orbit row, pair i < j) with d = a_i - a_j > 0, once per q
    i, j = np.triu_indices(N, 1)
    row, pair = np.nonzero(a[:, i] > a[:, j])
    i, j = i[pair], j[pair]
    d = a[row, i] - a[row, j]
    rep = np.repeat(np.arange(len(row)), d)
    q = np.arange(len(rep)) - (np.cumsum(d) - d)[rep]     # 0..d-1 per row
    row, i, j, d, at = row[rep], i[rep], j[rep], d[rep], np.arange(len(rep))
    s = a[row]
    s[at, i] -= q
    s[at, j] += q
    t = s.copy()
    t[at, i] -= 1
    t[at, j] += 1
    s = np.concatenate([s, t])
    ordered = np.all(s[:, :-1] >= s[:, 1:], axis=1)
    keys = (np.tile(owner[row] * fr.radix[0], 2) + s @ fr.radix[1:])[ordered]
    keys, weight = merge_keys(keys, np.tile(d, 2)[ordered])
    nu, row = np.divmod(keys, fr.radix[0])
    part_keys = np.array(parts, dtype=np.int64) @ fr.radix[1:]
    sorter = np.argsort(part_keys)
    at = sorter[np.searchsorted(part_keys, row, sorter=sorter)]
    below = at != nu
    nu, at, weight = nu[below], at[below].tolist(), weight[below].tolist()
    bounds = np.searchsorted(nu, np.arange(len(parts) + 1)).tolist()
    return [(at[s:e], weight[s:e]) for s, e in zip(bounds, bounds[1:])], \
        a, np.bincount(owner, minlength=len(parts))


@dataclass(frozen=True)
class JackExpansion:
    """J_lam^{(alpha)} = Sum coeffs[mu] * m_mu with coeffs[lead] = 1; support
    only on mu <= lead in dominance (shifted-partition keys).  It is held in
    integer form: coeffs[lead_N + nu] = numerators[nu] / denominator, keyed
    by the integer offsets nu = mu - lead_N, the denominator the lcm of the
    coefficients' denominators; ``coeffs`` is built from it on first use."""

    alpha: Fraction
    lead: PartitionT
    numerators: Dict[Tuple[int, ...], int]
    denominator: int

    @cached_property
    def coeffs(self) -> Dict[PartitionT, Fraction]:
        shift = self.lead[-1]
        return {tuple(p + shift for p in nu): Fraction(n, self.denominator)
                for nu, n in self.numerators.items()}

    @property
    def lam(self) -> PartitionT:
        return self.lead

    def times_delta(self, power: int) -> Tuple[np.ndarray, np.ndarray]:
        """Delta^power Sum_nu numerators[nu] m_nu: its distinct exponent
        rows and their integer coefficients (``symmetric_times_delta`` of
        the one set)."""
        rows, mat = symmetric_times_delta([self.numerators], power)
        return rows, mat[:, 0]

    def evaluate(self, x) -> complex:
        """Sum_mu coeffs[mu] m_mu(X) at X_i = e^{2 pi i x_i}; x may be a
        single point (N,) or a batch (M, N)."""
        xb = np.asarray(x, dtype=float)
        single = xb.ndim == 1
        xb = np.atleast_2d(xb)
        if xb.shape[-1] != len(self.lead):
            raise DomainError(
                f"expected {len(self.lead)} coordinates, got {xb.shape[-1]}")
        shift = self.lead[-1]
        acc = np.zeros(xb.shape[0], dtype=complex)
        for mu, coef in self.coeffs.items():
            expo = orbit([int(p - shift) for p in mu]) + float(shift)
            acc += float(coef) * sum(np.exp(TWO_PI_I * (xb @ e)) for e in expo)
        return complex(acc[0]) if single else acc


def _alpha(alpha) -> Fraction:
    """alpha as a positive exact rational, or DomainError."""
    try:
        alpha_f = Fraction(alpha)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"alpha must be a rational, got {alpha!r}") from exc
    if alpha_f <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    return alpha_f


def jack_expand(lam: Sequence, alpha) -> JackExpansion:
    """Expand J_lam^{(alpha)} in monomial symmetric functions by the
    triangular solve described in the module docstring.

    Works for shifted partitions: the integer part is expanded and every key
    is shifted back by lam_N.  The triangular system is never singular here:
    for alpha > 0, E_mu < E_lam strictly for every mu < lam (Sum mu_i^2
    falls strictly down the dominance order and Sum (N+1-2i) mu_i does not
    rise), and alpha <= 0 is refused with DomainError.  The collision branch
    of ``_jack_solve`` (DegeneracyError) only guards the private calls with
    a negative alpha in ``TestFractionOracle::test_same_refusals``.
    """
    lam_t = partition(lam)
    alpha_f = _alpha(alpha)
    N = len(lam_t)
    shift = lam_t[-1]
    mu_int = tuple(int(p - shift) for p in lam_t)
    total = sum(mu_int)
    return _jack_expand_cached(mu_int, shift, alpha_f, N, total)


@lru_cache(maxsize=256)
def _partitions(N: int, total: int) -> Tuple[Tuple[int, ...], ...]:
    """The partitions of ``total`` into at most N parts, padded to N, in
    descending lexicographic order, which on vectors of one total is that
    of their prefix sums: the labels of the degree table."""
    return tuple(sorted((_pad(nu, N) for nu in _integer_partitions(total, N)),
                        reverse=True))


class _Degree(NamedTuple):
    """The degree table of the module docstring for one (N, total)."""

    parts: Tuple[Tuple[int, ...], ...]      # ``_partitions``
    position: Dict[Tuple[int, ...], int]    # of each partition in parts
    square: List[int]                       # Sum nu_i^2
    linear: List[int]                       # Sum (N + 1 - 2i) nu_i
    columns: List[tuple]                    # ``_pair_columns``
    rows: np.ndarray                        # the stacked orbits of parts
    first: np.ndarray                       # each partition's first row
    size: np.ndarray                        # and its number of rows


@lru_cache(maxsize=256)
def _degree_table(N: int, total: int) -> _Degree:
    """The degree table of (N, total), built once."""
    parts = _partitions(N, total)
    columns, rows, size = _pair_columns(parts)
    return _Degree(parts, {nu: k for k, nu in enumerate(parts)},
                   [sum(p * p for p in nu) for nu in parts],
                   [sum((N - 1 - 2 * i) * p for i, p in enumerate(nu))
                    for nu in parts],
                   columns, rows, np.cumsum(size) - size, size)


def symmetric_times_delta(numerators: Sequence[Mapping[Tuple[int, ...], int]],
                          power: int) -> Tuple[np.ndarray, np.ndarray]:
    """Delta^power Sum_nu numerators[s][nu] m_nu for every coefficient set
    s of integer numerators keyed by partitions nu of one degree (as
    ``JackExpansion.numerators``), their orbits gathered from that degree's
    table.  The orbit rows of all the sets are one stack of ``laurent``
    keys, tagged by their set in a last digit, multiplied by Delta^power
    once, one binomial factor (X_i - X_j)^power, i < j, at a time, each an
    outer sum of keys; the frame spans the orbit rows plus power (N - 1) in
    every column, which holds every partial product.  Returned as
    ``laurent.stack`` returns polynomials: the distinct exponent rows (the
    merged keys are in lexicographic order, so no second sort is needed)
    and the coefficient matrix whose column s holds product s, Python
    ints.  It runs in int64 when the largest l1 norm of a set times
    2^power per binomial factor, which bounds every coefficient and
    partial sum, fits there."""
    key = next(iter(numerators[0]))
    N, table = len(key), _degree_table(len(key), sum(key))
    sizes = table.size.tolist()
    norm = max(sum(abs(n) * sizes[table.position[nu]]
                   for nu, n in nums.items()) for nums in numerators)
    exact = norm << (power * N * (N - 1) // 2) <= _INT64_MAX
    which = np.array([table.position[nu] for nums in numerators
                      for nu in nums], dtype=np.int64)
    count = table.size[which]
    pick = np.arange(count.sum()) + np.repeat(
        table.first[which] - (np.cumsum(count) - count), count)
    tag = np.repeat(np.arange(len(numerators)),
                    [len(nums) for nums in numerators])
    rows = table.rows[pick]
    lo, hi = rows.min(axis=0), rows.max(axis=0)
    fr = frame(np.append(lo, 0),
               np.append(hi + power * (N - 1), len(numerators) - 1))
    keys = (rows - lo) @ fr.radix[:N] + np.repeat(tag, count)
    coef = np.repeat(np.array([n for nums in numerators
                               for n in nums.values()],
                              dtype=np.int64 if exact else object), count)
    q = np.arange(power + 1)
    binomial = np.array([(-1) ** (power - k) * math.comb(power, k)
                         for k in range(power + 1)], dtype=coef.dtype)
    for i, j in combinations(range(N), 2):
        step = q * fr.radix[i] + (power - q) * fr.radix[j]
        keys, coef = merge_keys((keys[:, None] + step).ravel(),
                                np.multiply.outer(coef, binomial).ravel())
    row, tag = np.divmod(keys, len(numerators))
    new = np.ones(len(row), dtype=bool)
    new[1:] = row[1:] != row[:-1]
    mat = np.zeros((np.count_nonzero(new), len(numerators)), dtype=object)
    mat[np.cumsum(new) - 1, tag] = coef
    return fr.decode(keys[new])[:, :-1], mat


def _jack_solve(mu_int: Tuple[int, ...], inv_alpha: Fraction
                ) -> Tuple[Dict[Tuple[int, ...], int], int]:
    """The fraction-free back-substitution of the module docstring:
    ({nu: n_nu}, L) with c_nu = n_nu / L, gcd(L, every n_nu) = 1, in the
    table's order."""
    a, q = inv_alpha.numerator, inv_alpha.denominator
    parts, index, square, linear, columns, *_ = _degree_table(len(mu_int),
                                                              sum(mu_int))
    start = index[mu_int]
    top = q * square[start] + a * linear[start]
    rhs = [0] * len(parts)
    labels, nums, scale = [], [], 1
    for k in range(start, len(parts)):
        if k == start:
            n = 1
        elif not rhs[k]:
            continue        # nu outside the ideal of mu, or an exact zero
        else:
            gap = top - q * square[k] - a * linear[k]
            if gap == 0:
                raise DegeneracyError(
                    f"eigenvalue collision E_{parts[k]} = E_{mu_int} at "
                    f"alpha = {1 / inv_alpha}: triangular system is singular")
            n, rest = divmod(rhs[k], gap)
            if rest:
                h = abs(gap) // math.gcd(rhs[k], gap)
                scale *= h
                nums = [v * h for v in nums]
                rhs[k:] = [v * h for v in rhs[k:]]
                n = rhs[k] // gap
        labels.append(parts[k])
        nums.append(n)
        an = a * n
        below, weight = columns[k]
        for i, w in zip(below, weight):
            rhs[i] += w * an
    g = math.gcd(scale, *nums)
    return dict(zip(labels, (v // g for v in nums))), scale // g


@lru_cache(maxsize=256)
def _jack_expand_cached(mu_int: Tuple[int, ...], shift: Fraction,
                        alpha_f: Fraction, N: int, total: int) -> JackExpansion:
    numerators, denominator = _jack_solve(mu_int, 1 / alpha_f)
    return JackExpansion(alpha=alpha_f,
                         lead=tuple(p + shift for p in mu_int),
                         numerators=numerators, denominator=denominator)


def inner_product(f: Callable, g: Callable, alpha, N: int, quad_n: int) -> complex:
    """<f, g> = (1/N!) Integral conj(Delta^{1/alpha} f) Delta^{1/alpha} g
    over the torus, by the uniform product rule with quad_n points per axis
    (exact once quad_n exceeds the per-axis degree span).  Requires 1/alpha
    to be a positive integer so the weight is single-valued.
    """
    inv_alpha = 1 / _alpha(alpha)
    if inv_alpha.denominator != 1:
        raise DomainError(
            f"inner product weight needs 1/alpha a positive integer, got "
            f"alpha = {alpha}")
    w = int(inv_alpha)
    axes = [np.arange(quad_n) / quad_n] * N
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([gr.ravel() for gr in mesh], axis=-1)
    X = np.exp(TWO_PI_I * pts)
    delta = np.ones(pts.shape[0], dtype=complex)
    for i in range(N):
        for j in range(i + 1, N):
            delta *= X[:, i] - X[:, j]
    wf = delta ** w * np.atleast_1d(f(pts))
    wg = delta ** w * np.atleast_1d(g(pts))
    return complex(np.vdot(wf, wg) / pts.shape[0] / math.factorial(N))


def cs_apply(f: Callable, l: int, N: int) -> Callable:
    """The evaluator x -> (H_CS psi)(x) with psi = f * Delta_s^{l+1}, where
    H_CS = -(1/2) Sum_i d^2/dx_i^2 + l(l+1) pi^2 Sum_{i<j} 1/sin^2(pi(x_i-x_j))
    is the elliptic Hamiltonian at Nome(p=0), applied by the finite-difference
    stencil of ``states.residual_check``.  ``.psi`` evaluates psi.

    Delta_s = Prod_{i<j} sin(pi(x_i - x_j)) is the translation-invariant form
    of the Vandermonde: Prod_{i<j}(X_i - X_j) equals (2i)^{N(N-1)/2} Delta_s
    times (Prod X_i)^{(N-1)/2}, and on the configuration hyperplane
    Sum_i x_i = 0 the two coincide up to the constant.  The invariant form is
    required off the hyperplane: the (Prod X_i) factor carries pure
    center-of-mass momentum, which would shift the quotient by 2 pi^2 s^2/N
    (s the total degree) away from e0 + 2 pi^2 E_lam.  Linear in f; sample
    away from the diagonals x_i = x_j.
    """
    def psi(x):
        xb = np.atleast_2d(np.asarray(x, dtype=float))
        delta = np.ones(xb.shape[0], dtype=complex)
        for i in range(N):
            for j in range(i + 1, N):
                delta *= np.sin(math.pi * (xb[:, i] - xb[:, j]))
        return np.atleast_1d(f(xb)) * delta ** (l + 1)

    def h_psi(x):
        xb = np.asarray(x, dtype=float)
        out = _fd_hamiltonian(psi, np.atleast_2d(xb), Nome(p=0.0), l)[1]
        return complex(out[0]) if xb.ndim == 1 else out

    h_psi.psi = psi
    return h_psi


def cs_quotient(f: Callable, l: int, N: int, *, grid_n: int = 48,
                margin: float = 0.1, seed: int = 23) -> complex:
    """Rayleigh quotient <psi, H_CS psi>/<psi, psi> with psi = f Delta^{l+1},
    over interior sample points with pairwise margin; equals
    e0 + 2 pi^2 E_lam^{[1/(l+1)]} (to FD accuracy) when f = J_lam^{(1/(l+1))}.
    """
    pts = sample_torus_points(N, grid_n, margin=margin, seed=seed)
    return _rayleigh(*_fd_hamiltonian(cs_apply(f, l, N).psi, pts,
                                      Nome(p=0.0), l))[0]
