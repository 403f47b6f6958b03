"""Rayleigh-Schrodinger expansion of elliptic eigenvalues in powers of the
nome, cross-validated against the Bethe-Ansatz continuation.

The shifted elliptic Hamiltonian

    H(p) = -(1/2) Sum_i d^2/dx_i^2 + l(l+1) Sum_{i<j} wp_shifted(x_i - x_j; p)

reduces at p = 0 to the trigonometric model H_0 with the pi^2/sin^2
interaction, and expands as H(p) = H_0 + Sum_{k>=1} p^k V_k.  Every V_k is a
finite cosine sum in the pair differences with harmonics d <= k (the band
structure that makes the matrix elements Pieri-like).  ``potential_coeffs``
extracts the cosine coefficients numerically: sample the interaction
difference on a circle |p| = r, discrete-Fourier-transform in p (Cauchy
coefficient extraction) and then in the pair difference, and certify the
banded representation by the residual against the sampled orders.

``matrix_element`` computes <psi_mu, V_k psi_lam>/(|psi_mu| |psi_lam|) for
the unperturbed eigenstates psi_lam = Delta^{l+1} J_lam^{(1/(l+1))} by torus
product quadrature, exact once the per-axis grid exceeds the Laurent span of
the integrand.  ``rs_series`` runs the standard non-degenerate
Rayleigh-Schrodinger recursion to order K over the finite set of partitions
reachable within the total band (never an ad-hoc cutoff): a state mu can
enter at order K only if it can be reached from lambda and returned within
total hop budget K, i.e. (1/2) Sum |mu_i - lambda_i| <= K - 1.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .critical import continue_nome, find_admissible_critical_point
from .elliptic import Nome, wp_shifted
from .errors import (AccuracyError, DegeneracyError, DomainError,
                     ResourceError)
from .jack import PartitionT, jack_expand, partition
from .master import eigenvalue_elliptic
from .weights import (Weight, build_indexing, e0, jack_energy, lambda_to_xi,
                      root_system)

TWO_PI = 2.0 * math.pi
TWO_PI_I = 2j * math.pi

#: Default guard on the expansion order.
K_MAX = 8
#: Default radius of the p-sampling circle for coefficient extraction.
EXTRACTION_RADIUS = 0.1
#: Extracted orders must match their banded cosine form this well.
EXTRACTION_TOL = 1e-9
#: Grid-doubling disagreement above this flags quadrature under-resolution.
QUADRATURE_TOL = 1e-8
#: Unperturbed-level gaps below this (relative) are treated as degenerate.
DEGENERACY_TOL = 1e-8
#: Cap on torus quadrature grids (points = n^N).
_MAX_GRID_POINTS = 8_000_000


# ---------------------------------------------------------------------------
# the potential series H(p) - H_0 = Sum p^k V_k


@dataclass(frozen=True)
class PotentialSeries:
    """Banded cosine representation of the interaction orders.

    ``coeffs[k-1][d]`` multiplies cos(2 pi d (x_i - x_j)) in V_k, summed over
    pairs i < j; the l(l+1) coupling is included.  ``extraction_residual`` is
    the largest deviation of any sampled p-order from its banded cosine
    reconstruction (out-of-band, odd and imaginary content all count).
    """

    N: int
    l: int
    K: int
    coeffs: Tuple[Tuple[float, ...], ...]
    extraction_residual: float
    radius: float
    n_p_samples: int

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
        """V_k as a callable on configuration points of shape (..., N).

        The returned function carries its harmonic bound as attribute
        ``band`` (used for quadrature sizing and reachable-set logic).
        """
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

        v.band = k
        return v

    def reconstruct(self, p: complex, x):
        """Sum_{k<=K} p^k V_k(x)."""
        xb = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(xb.shape[0], dtype=complex)
        for k in range(1, self.K + 1):
            out += (p ** k) * self.vk(k)(xb)
        return out.real if abs(complex(p).imag) == 0.0 else out


def _interaction_profile(s, p: complex) -> np.ndarray:
    """wp_shifted(s; p) - pi^2/sin^2(pi s) for one pair, cancellation-free.

    Differentiating log theta_1(s) = log sin(pi s)
    + Sum_n [log(1 - p^n E) + log(1 - p^n / E)] + const(p) twice
    (E = e^{2 pi i s}) gives

        wp_shifted(s) - pi^2/sin^2(pi s)
          = -4 pi^2 Sum_{n>=1} [u/(1-u)^2 + v/(1-v)^2],  u = p^n E, v = p^n/E,

    with the weighted eta shift absorbing the p-independent constant.  The
    direct difference of the two ~1/s^2 terms loses ~1e-12 absolute near the
    pole, which the r^{-k} Cauchy amplification would magnify past the
    extraction tolerance; this form is exact to round-off of the small
    result itself (`exact_interaction` keeps the direct theta-quotient route
    so reconstruction tests validate the two against each other).
    """
    sb = np.asarray(s, dtype=float)
    ex = np.exp(TWO_PI_I * sb)
    out = np.zeros(sb.shape, dtype=complex)
    p = complex(p)
    p_n = 1.0 + 0j
    floor = (1.0 - abs(p)) ** 2
    for _ in range(1, 300):
        p_n *= p
        if abs(p_n) / floor < 1e-20:
            break
        u = p_n * ex
        v = p_n / ex
        out += u / (1.0 - u) ** 2 + v / (1.0 - v) ** 2
    return -4.0 * math.pi ** 2 * out


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


def potential_coeffs(N: int, l: int, K: int, *,
                     radius: float = EXTRACTION_RADIUS,
                     n_p_samples: Optional[int] = None,
                     grid_n: int = 64,
                     residual_tol: float = EXTRACTION_TOL) -> PotentialSeries:
    """Extract V_1..V_K by Cauchy coefficient extraction on |p| = radius.

    The interaction difference is sampled at n_p_samples >= max(4K, 16)
    points on the circle and at grid_n midpoints of the pair difference; a
    DFT in p isolates each order, a cosine analysis in the difference yields
    the banded coefficients.  Raises AccuracyError when any sampled order
    deviates from its banded cosine form by more than residual_tol
    (remedy: increase n_p_samples or shrink radius).
    """
    if not (isinstance(N, int) and N >= 2):
        raise DomainError(f"need integer N >= 2, got {N}")
    if not (isinstance(l, int) and l >= 1):
        raise DomainError(f"need integer l >= 1, got {l}")
    if not (isinstance(K, int) and 0 <= K <= K_MAX):
        raise DomainError(f"order K must satisfy 0 <= K <= {K_MAX}, got {K}")
    if not 0.0 < radius < 0.3:
        raise DomainError(f"sampling radius must lie in (0, 0.3), got {radius}")
    m_p = max(4 * K, 16) if n_p_samples is None else int(n_p_samples)
    if m_p < max(4 * K, 8):
        raise DomainError(
            f"need n_p_samples >= max(4K, 8) = {max(4 * K, 8)}, got {m_p}")
    if grid_n < 4 * K + 8:
        raise DomainError(f"need grid_n >= {4 * K + 8}, got {grid_n}")

    s = (np.arange(grid_n) + 0.5) / grid_n
    coupling = l * (l + 1)
    samples = np.empty((m_p, grid_n), dtype=complex)
    for j in range(m_p):
        p_j = radius * np.exp(TWO_PI_I * j / m_p)
        samples[j] = coupling * _interaction_profile(s, p_j)
    # orders[k] = (1/M) Sum_j samples[j] e^{-2 pi i jk/M} / r^k
    orders = np.fft.fft(samples, axis=0) / m_p

    coeffs: List[Tuple[float, ...]] = []
    residual = 0.0
    for k in range(1, K + 1):
        g_k = orders[k] / radius ** k
        c = np.empty(k + 1)
        c[0] = float(g_k.real.mean())
        recon = np.full(grid_n, c[0])
        for d in range(1, k + 1):
            basis = np.cos(TWO_PI * d * s)
            c[d] = float(2.0 * (g_k.real * basis).mean())
            recon += c[d] * basis
        residual = max(residual, float(np.max(np.abs(g_k - recon))))
        coeffs.append(tuple(c))
    if residual > residual_tol:
        raise AccuracyError(
            f"potential extraction residual {residual:.3e} exceeds "
            f"{residual_tol:.1e}; adjust the sampling circle (a larger "
            "radius tames the r^-k round-off amplification, a smaller one "
            "the aliasing) or increase n_p_samples")
    return PotentialSeries(N=N, l=l, K=K, coeffs=tuple(coeffs),
                           extraction_residual=residual, radius=radius,
                           n_p_samples=m_p)


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


def _quad_points(n: int, N: int) -> np.ndarray:
    if n ** N > _MAX_GRID_POINTS:
        raise ResourceError(
            f"quadrature grid {n}^{N} exceeds {_MAX_GRID_POINTS} points")
    axes = [np.arange(n) / n] * N
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def _vandermonde_power(pts: np.ndarray, w: int) -> np.ndarray:
    X = np.exp(TWO_PI_I * pts)
    delta = np.ones(pts.shape[0], dtype=complex)
    N = pts.shape[-1]
    for i in range(N):
        for j in range(i + 1, N):
            delta *= X[:, i] - X[:, j]
    return delta ** w


def _span(mu: PartitionT) -> int:
    return int(mu[0] - mu[-1])


def _weight_int(alpha) -> int:
    inv_alpha = Fraction(1) / Fraction(alpha)
    if inv_alpha.denominator != 1 or inv_alpha <= 0:
        raise DomainError(
            f"states need 1/alpha a positive integer, got alpha = {alpha}")
    return int(inv_alpha)


def _element_on_grid(mu: PartitionT, lam: PartitionT, v: Callable,
                     alpha, N: int, n: int) -> complex:
    """<psi_mu, V psi_lam>/(|psi_mu| |psi_lam|) with psi = Delta^{1/alpha} J,
    all three integrals on the same n-per-axis product grid."""
    w = _weight_int(alpha)
    pts = _quad_points(n, N)
    dw = _vandermonde_power(pts, w)
    psi_mu = dw * np.atleast_1d(jack_expand(mu, alpha).evaluate(pts))
    psi_lam = psi_mu if mu == lam else \
        dw * np.atleast_1d(jack_expand(lam, alpha).evaluate(pts))
    b = pts.shape[0]
    norm_mu = math.sqrt(float(np.vdot(psi_mu, psi_mu).real) / b)
    norm_lam = norm_mu if mu == lam else \
        math.sqrt(float(np.vdot(psi_lam, psi_lam).real) / b)
    if norm_mu == 0.0 or norm_lam == 0.0:
        raise DegeneracyError("state norm vanished on the quadrature grid")
    raw = complex(np.vdot(psi_mu, np.atleast_1d(v(pts)) * psi_lam)) / b
    return raw / (norm_mu * norm_lam)


def matrix_element(mu, lam, V_k: Callable, alpha, N: int, *,
                   quad_n: Optional[int] = None) -> float:
    """<psi_mu, V_k psi_lam>/(|psi_mu| |psi_lam|) by torus quadrature.

    States are psi = Delta^{1/alpha} J normalized by the same inner product
    ``jack.inner_product`` computes; the common measure constant cancels in
    the ratio.  With quad_n omitted the grid is sized to the exact Laurent
    span of the integrand (the result is quadrature-exact); a supplied
    quad_n is validated by grid doubling and the refined value returned
    (AccuracyError beyond QUADRATURE_TOL).  Elements vanish whenever mu and
    lam differ beyond the V_k band or in total degree.
    """
    mu_t, lam_t = partition(mu), partition(lam)
    if len(mu_t) != N or len(lam_t) != N:
        raise DomainError(f"partitions must have length N = {N}")
    w = _weight_int(alpha)
    for a, b in zip(mu_t, lam_t):
        if (a - b).denominator != 1:
            raise DomainError(
                "mu and lam lie in different periodicity classes "
                f"({a} - {b} is not an integer); the pairing is undefined")
    band = int(getattr(V_k, "band", K_MAX))
    n_exact = _span(mu_t) + _span(lam_t) + 2 * w * (N - 1) + 2 * band + 2
    n_exact = max(n_exact, 2 * _span(mu_t) + 2 * w * (N - 1) + 2)
    n_exact = max(n_exact, 2 * _span(lam_t) + 2 * w * (N - 1) + 2)

    if quad_n is None:
        value = _element_on_grid(mu_t, lam_t, V_k, alpha, N, n_exact)
    else:
        if quad_n < 2:
            raise DomainError(f"need quad_n >= 2, got {quad_n}")
        coarse = _element_on_grid(mu_t, lam_t, V_k, alpha, N, int(quad_n))
        value = _element_on_grid(mu_t, lam_t, V_k, alpha, N, 2 * int(quad_n))
        if abs(coarse - value) > QUADRATURE_TOL * max(1.0, abs(value)):
            raise AccuracyError(
                f"quadrature under-resolved: grid doubling moved the element "
                f"by {abs(coarse - value):.3e} (quad_n = {quad_n})")
    if abs(value.imag) > QUADRATURE_TOL * max(1.0, abs(value)):
        raise AccuracyError(
            f"matrix element has spurious imaginary part {value.imag:.3e}")
    return float(value.real)


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


def unperturbed_energy(lam, N: int, l: int) -> float:
    """e0 + 2 pi^2 E_lam^[1/(l+1)], the eigenvalue of H_0 on psi_lam."""
    lam_t = partition(lam)
    if len(lam_t) != N:
        raise DomainError(f"partition must have length N = {N}")
    return e0(N, l) + 2.0 * math.pi ** 2 * float(
        jack_energy(lam_t, Fraction(1, l + 1)))


def reachable_partitions(lam, budget: int) -> List[PartitionT]:
    """Partitions of equal total within band distance ``budget`` of lam.

    These are exactly the levels that can enter the RS recursion: a chain of
    cosine hops with total harmonic budget K must leave lam and return, so
    intermediate states satisfy band_distance <= K - 1 = budget.
    """
    lam_t = partition(lam)
    if budget < 0:
        return []
    n = len(lam_t)
    base = lam_t[-1]
    offsets = [int(a - base) for a in lam_t]
    total = sum(offsets)
    lo, hi = -budget, offsets[0] + budget
    found: List[PartitionT] = []

    def rec(i: int, prev: int, acc: List[int], left: int):
        if i == n:
            if left == 0:
                cand = tuple(base + o for o in acc)
                if band_distance(cand, lam_t) <= budget:
                    found.append(partition(cand))
            return
        rem = n - i - 1
        top = min(prev, left - rem * lo)
        bot = max(lo, left - rem * prev)
        for o in range(top, bot - 1, -1):
            rec(i + 1, o, acc + [o], left - o)

    rec(0, hi, [], total)
    return found


def rs_series(lam, N: int, l: int, K: int, *,
              series: Optional[PotentialSeries] = None,
              degeneracy_tol: float = DEGENERACY_TOL) -> EnergySeries:
    """Non-degenerate Rayleigh-Schrodinger expansion to order K.

    E^(0) = e0 + 2 pi^2 E_lam; higher orders use matrix elements of the
    extracted V_1..V_K over the band-reachable basis.  A second unperturbed
    level within degeneracy_tol * scale of E^(0) inside that basis raises
    DegeneracyError (degenerate RS is out of scope).
    """
    lam_t = partition(lam)
    if len(lam_t) != N:
        raise DomainError(f"partition must have length N = {N}")
    if not (isinstance(K, int) and 0 <= K <= K_MAX):
        raise DomainError(f"order K must satisfy 0 <= K <= {K_MAX}, got {K}")
    if not (isinstance(l, int) and l >= 1):
        raise DomainError(f"need integer l >= 1, got {l}")
    alpha = Fraction(1, l + 1)
    w = l + 1
    level0 = unperturbed_energy(lam_t, N, l)
    if K == 0:
        return EnergySeries(lam_t, N, l, 0, (level0,))
    if series is None:
        series = potential_coeffs(N, l, K)
    if series.N != N or series.l != l or series.K < K:
        raise DomainError(
            f"potential series was extracted for (N={series.N}, l={series.l},"
            f" K={series.K}); need (N={N}, l={l}, K>={K})")

    basis = reachable_partitions(lam_t, K - 1)
    i_lam = basis.index(lam_t)
    levels = np.array([unperturbed_energy(mu, N, l) for mu in basis])
    scale = max(1.0, abs(level0))
    for a, mu in enumerate(basis):
        if a != i_lam and abs(levels[a] - level0) <= degeneracy_tol * scale:
            raise DegeneracyError(
                f"unperturbed level of {mu} coincides with that of "
                f"{lam_t} within {degeneracy_tol:.1e} (relative); "
                "degenerate perturbation theory is out of scope")

    # One common grid, exact for every pairing and every V_k band.
    max_span = max(_span(mu) for mu in basis)
    n = 2 * max_span + 2 * w * (N - 1) + 2 * K + 2
    pts = _quad_points(n, N)
    b = pts.shape[0]
    dw = _vandermonde_power(pts, w)
    psi = [dw * np.atleast_1d(jack_expand(mu, alpha).evaluate(pts))
           for mu in basis]
    norms = [math.sqrt(float(np.vdot(f, f).real) / b) for f in psi]
    m = len(basis)
    elements = {}
    for k in range(1, K + 1):
        v_vals = np.atleast_1d(series.vk(k)(pts))
        mat = np.empty((m, m))
        for a in range(m):
            for c in range(a, m):
                raw = complex(np.vdot(psi[a], v_vals * psi[c])) / b
                val = raw.real / (norms[a] * norms[c])
                mat[a, c] = val
                mat[c, a] = val
        elements[k] = mat

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


def bethe_crosscheck(series: EnergySeries, p: float, *, steps: int = 10,
                     mode: str = "partial") -> Dict:
    """Continue the Bethe root for xi = lam + (l+1) rho_bar to the nome p and
    compare: returns {p, E_BA, partial_sum, gap}.

    The gap |E_BA(p) - Sum_{k<=K} p^k E^(k)| shrinks like p^{K+1} (regular
    convergence); ``mode`` selects the eigenvalue derivative mode, evaluated
    once at the endpoint of the continuation.  The Bethe weight is the
    traceless representative of lam + (l+1) rho_bar; the record restores the
    center-of-mass energy of a non-traceless lam (see _crosscheck_record).
    """
    rs = root_system(series.N, series.l)
    idx = build_indexing(series.N, series.l)
    lam_w = Weight(list(series.lam))
    xi = lambda_to_xi(lam_w, rs)
    sigma, rep = find_admissible_critical_point(xi, rs, idx)
    if xi.exact is not None:
        xi_s = Weight([xi.exact[i] for i in sigma])
    else:
        xi_s = Weight([float(xi.coords[i]) for i in sigma])
    path = continue_nome(rep, xi_s, rs, idx, p, steps=steps)
    eigenvalue = eigenvalue_elliptic(path.endpoint.point, xi_s, rs, idx,
                                     mode=mode)
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
