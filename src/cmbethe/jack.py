"""Jack polynomials in the monomial basis, dominance order, torus inner
product, and the Calogero-Sutherland spectral identity.

Labels live in the shifted-partition set M_N: N non-increasing rationals with
integer pairwise differences.  A shifted label is (Prod X_i)^{lam_N} times an
ordinary integer partition, and the monomial symmetric function m_lam is the
sum over distinct permutations of the exponent vector; evaluators take
x-coordinates and compute X_i^a single-valuedly as e^{2 pi i a x_i}.

J_lam^{(alpha)} = m_lam + Sum_{mu < lam} c_mu m_mu is constructed by exact
rational linear algebra: the conjugated CS operator

    D(alpha) = Sum_i (X_i d/dX_i)^2
             + (1/alpha) Sum_{i<j} (X_i+X_j)/(X_i-X_j) (X_i d_i - X_j d_j)

acts triangularly in dominance order on monomial symmetric functions with
diagonal E_mu = Sum mu_i^2 + (1/alpha) Sum_i (N+1-2i) mu_i, so fixing
coeff(lam) = 1 determines the rest by back-substitution down one table per
(N, degree, alpha): the degree's partitions in descending lexicographic
order of prefix sums (each mu < lam comes after lam), their E_mu, and the
D(alpha) columns, each built once and shared by every expansion of that
degree.  A label that lam does not dominate lies below no label with a
coefficient, so its right-hand side is exactly zero: it is skipped, and no
dominance ideal is filtered out first.  On a symmetric Laurent polynomial
the pair terms act finitely: for a monomial X^a with d = a_i - a_j > 0,

    (X_i+X_j)/(X_i-X_j)(X_i d_i - X_j d_j) [X^a + X^(swap_ij a)]
        = d [X^a + 2 Sum_{q=1}^{d-1} X^(a - q e_i + q e_j) + X^(swap_ij a)].

The column of D on m_nu is built from these rows over the orbit of nu as one
integer exponent matrix (``laurent``), merged, and read at the
non-increasing monomials.

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
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .elliptic import Nome
from .errors import DegeneracyError, DomainError
from .laurent import merge, orbit
from .states import _fd_hamiltonian, _rayleigh, sample_torus_points
from .weights import jack_energy

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


def _d_column(nu: Tuple[int, ...], inv_alpha: Fraction
              ) -> Dict[Tuple[int, ...], Fraction]:
    """The column of D(alpha) on m_nu in the m-basis, {kappa: coefficient
    of X^kappa in D(alpha) m_nu}: each pair i < j and monomial X^a of m_nu
    with d = a_i - a_j > 0 gives d X^(a - q e) + d X^(a - (q+1) e),
    e = e_i - e_j, for q = 0..d-1 (the pair terms of the module docstring),
    scaled by 1/alpha; Sum nu_i^2 is the diagonal."""
    a, eye = orbit(nu), np.eye(len(nu), dtype=np.int64)
    rows, weights = [eye[:0]], [np.zeros(0, dtype=np.int64)]
    for i, j in combinations(range(len(nu)), 2):
        pos = a[a[:, i] > a[:, j]]
        d = pos[:, i] - pos[:, j]
        rep = np.repeat(np.arange(len(pos)), d)
        q = np.arange(len(rep)) - (np.cumsum(d) - d)[rep]     # 0..d-1 per row
        r = pos[rep] - np.outer(q, eye[i] - eye[j])
        rows += [r, r - eye[i] + eye[j]]
        weights += [d[rep]] * 2
    rows, weight = merge(np.concatenate(rows), np.concatenate(weights))
    ordered = np.all(rows[:, :-1] >= rows[:, 1:], axis=1)
    col = {tuple(r): inv_alpha * w for r, w in
           zip(rows[ordered].tolist(), weight[ordered].tolist())}
    col[nu] = col.get(nu, Fraction(0)) + sum(p * p for p in nu)
    return col


@dataclass(frozen=True)
class JackExpansion:
    """J_lam^{(alpha)} = Sum coeffs[mu] * m_mu with coeffs[lead] = 1; support
    only on mu <= lead in dominance (shifted-partition keys)."""

    alpha: Fraction
    lead: PartitionT
    coeffs: Dict[PartitionT, Fraction]

    @property
    def lam(self) -> PartitionT:
        return self.lead

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
    is shifted back by lam_N.  Raises DegeneracyError if an eigenvalue
    collision E_mu = E_lam (mu < lam) makes the triangular system singular.
    """
    lam_t = partition(lam)
    alpha_f = _alpha(alpha)
    N = len(lam_t)
    shift = lam_t[-1]
    mu_int = tuple(int(p - shift) for p in lam_t)
    total = sum(mu_int)
    return _jack_expand_cached(mu_int, shift, alpha_f, N, total)


@lru_cache(maxsize=64)
def _degree_table(N: int, total: int, inv_alpha: Fraction):
    """The degree table of the module docstring; columns fill on first use."""
    parts = sorted((_pad(nu, N) for nu in _integer_partitions(total, N)),
                   key=lambda nu: tuple(accumulate(nu)), reverse=True)
    return parts, [jack_energy(nu, 1 / inv_alpha, N) for nu in parts], {}


@lru_cache(maxsize=256)
def _jack_expand_cached(mu_int: Tuple[int, ...], shift: Fraction,
                        alpha_f: Fraction, N: int, total: int) -> JackExpansion:
    inv_alpha = 1 / alpha_f
    parts, energies, columns = _degree_table(N, total, inv_alpha)
    start = parts.index(mu_int)
    coeffs, rhs = {}, {}
    for nu, energy in zip(parts[start:], energies[start:]):
        if nu == mu_int:
            c = Fraction(1)
        elif not rhs.get(nu):
            continue        # nu outside the ideal of mu, or an exact zero
        elif energy == energies[start]:
            raise DegeneracyError(
                f"eigenvalue collision E_{nu} = E_{mu_int} at alpha = "
                f"{alpha_f}: triangular system is singular")
        else:
            c = rhs[nu] / (energies[start] - energy)
        coeffs[nu] = c
        if nu not in columns:
            columns[nu] = _d_column(nu, inv_alpha)
        for kappa, d in columns[nu].items():
            rhs[kappa] = rhs.get(kappa, 0) + d * c

    shifted = {tuple(Fraction(p) + shift for p in nu): c
               for nu, c in coeffs.items()}
    lead = tuple(Fraction(p) + shift for p in mu_int)
    return JackExpansion(alpha=alpha_f, lead=lead, coeffs=shifted)


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
