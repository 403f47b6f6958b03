"""Jacobi theta and Weierstrass elliptic functions from convergent q-series.

Conventions, fixed once here and used by the whole package:

    theta1(x) = 2 Sum_{n>=1} (-1)^(n-1) exp(tau*pi*i*(n-1/2)^2) sin((2n-1)*pi*x)
    theta(x)  = theta1(x) / theta1'(0)        ->  sin(pi*x)/pi    as p -> 0
    sigma_lam(x) = theta'(0) theta(x-lam) / (theta(x) theta(lam))
    eta       = -(1/6) theta1'''(0)/theta1'(0)        (lattice quasi-period)
              = pi^2 (1/6 - 4 Sum_{n>=1} n p^n/(1-p^n))
    wp(x)     = -(log theta1)''(x) - 2 eta

where p = exp(2*pi*i*tau) is the nome, |p| < 1. The constant in wp makes the
Laurent expansion constant-free, wp(x) = 1/x^2 + O(x^2), so the p -> 0 limit
is pi^2/sin^2(pi*x) - pi^2/3.  The pair potential of the Hamiltonian is
wp(x) + 2*eta = -(log theta)''(x) (theta and theta1 differ by a constant
factor), which tends to pi^2/sin^2(pi*x) exactly; this is the eta the
spectral residual tests certify (the unweighted series Sum p^n/(1-p^n),
which agrees with it at O(p) only, lives on as test evidence).  eta is read
from the cached theta derivatives at 0, and wp_shifted is the third output
of ``log_theta_jet``, so neither has a series of its own.

Internally every theta quantity is computed from the reduced series

    theta_hat(x) = Sum_{n>=1} (-1)^(n-1) g^(n(n-1)) sin((2n-1)*pi*x),

with g = exp(pi*i*tau) (g^2 = p), so that the overall factor 2*g^(1/4) of
theta1 cancels in all normalized ratios; at p = 0 it is exactly sin(pi*x).
The term count is fixed before any array work, on a rigorous per-term bound
(Gaussian decay of g^(n(n-1)) against the growth of sin on complex
arguments; relative tolerance _SERIES_TOL = 1e-16): the bounds are
log-concave in n, so the series stops before the first negligible term,
which bounds the whole tail.  The term weights of a nome, and the derivatives
at 0 that normalize theta, are computed once per nome.  The kept terms are
summed by Clenshaw's recurrence in y = 2 cos(2*pi*x), as sin(pi*x) times a
polynomial in y, from one sin and one cos per point (``_theta_hat``).

The sigma table of a Bethe state, sigma_(+-lam)(u) for many real lam
against the state's few fixed u, has its own kernel (``SigmaTable``), with
the point index last: the sine addition formula applied term by term splits
theta_hat(u -+ lam) into harmonics of lam, e^((2n-1) pi i lam) by K - 1
contiguous row products, and per-u weights c_n sin((2n-1) pi u),
c_n cos((2n-1) pi u), built once per table with the per-u scale folded in.
One real matrix product then gives every theta_hat(u -+ lam) and
theta_hat(lam), and theta_hat(u) is summed once per table, not once per
entry.  ``sigma_lambda`` stays the pointwise form and the table's oracle.

All functions are pure; x arguments may be complex scalars or numpy arrays
(the lam of a ``SigmaTable`` call is real).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import AccuracyError, DomainError, PoleError

ArrayLike = Union[complex, float, np.ndarray]

_TWO_PI_I = 2j * math.pi
_MAX_TERMS = 200
#: Relative truncation threshold of every theta series.
_SERIES_TOL = 1e-16
_LATTICE_TOL = 1e-12
#: Largest exponent whose exp is a finite float.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class Nome:
    """The elliptic modulus, stored as the pair (p, tau) with p = exp(2*pi*i*tau).

    Construct with either ``p`` (|p| < 1; p = 0 is the trigonometric limit) or
    ``tau`` (Im tau > 0). The other representation is derived with principal
    branches.
    """

    __slots__ = ("p", "tau", "g")

    def __init__(self, p: complex | None = None, tau: complex | None = None):
        if (p is None) == (tau is None):
            raise DomainError("specify exactly one of p or tau")
        if tau is not None:
            tau = complex(tau)
            if not cmath.isfinite(tau):
                raise DomainError(f"tau must be finite, got {tau}")
            if tau.imag <= 0:
                raise DomainError(f"Im tau must be positive, got {tau}")
            p = cmath.exp(_TWO_PI_I * tau)
        else:
            p = complex(p)
            if not cmath.isfinite(p):
                raise DomainError(f"p must be finite, got {p}")
            if abs(p) >= 1:
                raise DomainError(f"|p| must be < 1 for convergence, got |p|={abs(p)}")
            tau = cmath.log(p) / _TWO_PI_I if p != 0 else None
        self.p = p
        self.tau = tau
        # Half-period nome g = exp(pi*i*tau), the principal square root of p.
        self.g = cmath.exp(1j * math.pi * tau) if tau is not None else 0j

    def __repr__(self) -> str:
        return f"Nome(p={self.p!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Nome) and self.p == other.p

    def __hash__(self) -> int:
        return hash(self.p)


@dataclass(frozen=True)
class ThetaValue:
    """A theta evaluation: the value, its x-derivative, and its tau-derivative."""

    value: ArrayLike
    d_x: ArrayLike
    d_tau: ArrayLike


def _as_nome(nome: Nome | complex) -> Nome:
    """Accept a Nome or a bare nome value p."""
    return nome if isinstance(nome, Nome) else Nome(p=nome)


#: Names of the reduced-series outputs of ``_theta_hat``, in kernel order;
#: the even positions are sine series, the odd ones cosine series.
_SERIES = ("s0", "s1", "s2", "s3", "st", "st1")
_N = np.arange(1, _MAX_TERMS + 1)
_K, _DT = (2 * _N - 1) * math.pi, 1j * math.pi * _N * (_N - 1)
#: Row n-1: the factor of c_n in each of _SERIES (k = (2n-1) pi).
_FACTORS = np.stack([_K ** 0, _K, -_K ** 2, -_K ** 3, _DT, _DT * _K], axis=1)


@lru_cache(maxsize=64)
def _nome_weights(nome: Nome) -> tuple[tuple[complex, ...], tuple[float, ...]]:
    """The term weights c_n = (-1)^(n-1) g^(n(n-1)) of a nome (g^(n(n-1)) by
    cumulative product), for n = 1 up to ``_MAX_TERMS`` or up to the last
    term before g^(n(n-1)) underflows to 0, and the x-free factors
    |c_n| (1 + k^3) of their truncation bounds (k = (2n-1) pi)."""
    coefs, scales = [], []
    q_n = 1.0 + 0j
    for n in range(1, _MAX_TERMS + 1):
        coefs.append(q_n if n % 2 == 1 else -q_n)
        scales.append(abs(q_n) * (1.0 + ((2 * n - 1) * math.pi) ** 3))
        q_n *= nome.g ** (2 * n)
        if q_n == 0:
            break
    return tuple(coefs), tuple(scales)


def _term_count(nome: Nome, im_max: float) -> int:
    """The number K of kept terms at max |Im x| = im_max.  Term n is bounded
    by |c_n| (1 + k^3) exp(k im_max), a log-concave sequence in n, so the
    first term whose bound is at most ``_SERIES_TOL`` times the largest so
    far bounds the whole tail: it is the first term left out."""
    coefs, scales = _nome_weights(nome)
    bound_max = 0.0
    for n, scale in enumerate(scales, start=1):
        growth = (2 * n - 1) * math.pi * im_max
        if growth > _LOG_FLOAT_MAX:
            raise AccuracyError(
                f"theta series term {n} overflows the float range at "
                f"max |Im x| = {im_max} (|g|={abs(nome.g)})")
        bound = scale * math.exp(growth)
        bound_max = max(bound_max, bound)
        if bound <= _SERIES_TOL * bound_max:
            return n - 1
    if len(coefs) == _MAX_TERMS:
        raise AccuracyError(
            f"theta series not converged in {_MAX_TERMS} terms "
            f"(|g|={abs(nome.g)}, max |Im x|={im_max})")
    return len(coefs)


@lru_cache(maxsize=None)
def _columns(series: tuple[str, ...]
             ) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """The ``_SERIES`` positions of the requested series, and which of them
    are sine series."""
    cols = tuple(_SERIES.index(name) for name in series)
    return cols, tuple(col % 2 == 0 for col in cols)


@lru_cache(maxsize=64)
def _clenshaw_weights(nome: Nome, K: int,
                      series: tuple[str, ...]) -> np.ndarray:
    """The read-only (K, len(series)) array of the kept terms' a_n: c_n times
    each requested series' factor."""
    cols, _ = _columns(series)
    coefs = np.array(_nome_weights(nome)[0][:K])
    a = _FACTORS[:K].take(cols, axis=1) * coefs[:, None]
    a.setflags(write=False)
    return a


def _theta_hat(x: np.ndarray, nome: Nome,
               series: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """Reduced theta series and derivatives at complex points x.

    Returns the requested ``series``, in the requested order, from s0, s1,
    s2, s3 (the series and its x-derivatives up to third order), st (the
    tau-derivative) and st1 (the tau-derivative of s1).  Term n has weight
    c_n = (-1)^(n-1) g^(n(n-1)), times pi*i*n(n-1) in st and st1 (the rest of
    the tau-derivative lives in the prefactor 2*g^(1/4) of theta1).  The term
    count K (``_term_count``) depends on g, the tolerance and max |Im x|
    alone, so no series depends on the others asked for; the weights are
    built once per nome (``_nome_weights``, ``_clenshaw_weights``).  With
    y = 2 cos(2 pi x), the ratios sin((2n-1) pi x)/sin(pi x) and
    cos((2n-1) pi x)/cos(pi x) both obey phi_(n+1) = y phi_n - phi_(n-1),
    phi_1 = 1.  So Clenshaw's recurrence b_n = a_n + y b_(n+1) - b_(n+2)
    sums a sine series as sin(pi x) (b_1 + b_2) and a cosine one as
    cos(pi x) (b_1 - b_2); the outside factors keep the relative accuracy
    near their zeros.  At p = 0 (K = 1) s0 is sin(pi x).
    """
    K = _term_count(nome, float(np.abs(x.imag).max()) if x.size else 0.0)
    cols, sine = _columns(series)
    sin = np.sin(math.pi * x)
    cos = np.cos(math.pi * x) if not all(sine) else None
    if K == 1:
        return tuple((sin if o else cos) * _FACTORS[0, col] if col else sin
                     for col, o in zip(cols, sine))

    a = _clenshaw_weights(nome, K, series).reshape(
        (K, len(cols)) + (1,) * x.ndim)
    b2 = np.zeros((len(cols),) + x.shape, dtype=complex)
    # Complex products only of equal shapes, never in place: numpy rounds a
    # broadcast or in-place one differently for one point than for many.
    y = b2 + (2.0 - 4.0 * sin * sin)
    b1, free = a[-1] + b2, np.empty_like(b2)
    for a_n in a[-2::-1]:
        np.multiply(y, b1, out=free)
        free -= b2
        free += a_n
        b1, b2, free = free, b1, b2
    return tuple(sin * (b1[r] + b2[r]) if o else cos * (b1[r] - b2[r])
                 for r, o in enumerate(sine))


@lru_cache(maxsize=64)
def _zero_data(nome: Nome) -> tuple[complex, complex, complex]:
    """(theta_hat'(0), theta_hat'''(0), d_tau theta_hat'(0)) for a given nome:
    at x = 0 each term of these cosine series is c_n times its factor."""
    K = _term_count(nome, 0.0)
    coefs = np.array(_nome_weights(nome)[0][:K])
    s1, s3, st1 = coefs @ _FACTORS[:K, 1::2]
    return complex(s1), complex(s3), complex(st1)


def _distance_to_lattice(x: ArrayLike, nome: Nome) -> np.ndarray:
    """|x - nearest point of Z + tau*Z| (of Z when p = 0), as an array."""
    x_arr = np.asarray(x, dtype=complex)
    if nome.tau is None:
        red = x_arr - np.rint(x_arr.real)
    else:
        tau = nome.tau
        b = np.rint(x_arr.imag / tau.imag)
        red = x_arr - b * tau
        red = red - np.rint(red.real)
    return np.abs(red)


def lattice_distance(x: ArrayLike, nome: Nome | complex) -> ArrayLike:
    """Distance from x to the period lattice Z + tau*Z (to Z when p = 0)."""
    d = _distance_to_lattice(x, _as_nome(nome))
    return d if np.ndim(x) else float(d)


def _check_off_lattice(x: np.ndarray, nome: Nome, what: str) -> None:
    if (_distance_to_lattice(x, nome) < _LATTICE_TOL).any():
        raise PoleError(f"{what} lies on the theta zero lattice (distance < {_LATTICE_TOL})")


def _points(x: ArrayLike, nome: Nome | complex
            ) -> tuple[np.ndarray, Nome, bool]:
    """x as an at least 1-d complex array, the Nome, and whether x is a
    scalar."""
    x_arr = np.asarray(x, dtype=complex)
    return np.atleast_1d(x_arr), _as_nome(nome), x_arr.ndim == 0


def _maybe_scalar(scalar: bool, *values: np.ndarray) -> tuple[ArrayLike, ...]:
    return tuple(v.item() for v in values) if scalar else values


def theta1(x: ArrayLike, nome: Nome | complex) -> ThetaValue:
    """The odd Jacobi theta function theta1 and its x- and tau-derivatives.

    theta1(x) = 2 Sum (-1)^(n-1) exp(tau*pi*i*(n-1/2)^2) sin((2n-1)*pi*x);
    d_tau multiplies term n by pi*i*(n-1/2)^2.  At p = 0 the function (and
    its derivatives) vanish identically because of the exp(tau*pi*i/4)
    prefactor; use ``theta`` for the normalized ratio with a finite limit.
    """
    x_arr, nome, scalar = _points(x, nome)
    s0, s1, st = _theta_hat(x_arr, nome, ("s0", "s1", "st"))
    if nome.tau is None:
        pref = 0j
    else:
        pref = 2 * cmath.exp(1j * math.pi * nome.tau / 4)
    value, d_x = pref * s0, pref * s1
    d_tau = pref * (0.25j * math.pi * s0 + st)
    return ThetaValue(*_maybe_scalar(scalar, value, d_x, d_tau))


def theta(x: ArrayLike, nome: Nome | complex) -> ThetaValue:
    """The normalized theta function theta(x) = theta1(x)/theta1'(0).

    Computed from the reduced series so the limit p -> 0 is exactly
    sin(pi*x)/pi.  d_tau is the tau-derivative of the normalized ratio.
    """
    x_arr, nome, scalar = _points(x, nome)
    s0, s1, st = _theta_hat(x_arr, nome, ("s0", "s1", "st"))
    d1_0, _, st1_0 = _zero_data(nome)
    value = s0 / d1_0
    d_x = s1 / d1_0
    # The pi*i/4 prefactor contributions cancel between numerator and
    # denominator of the ratio.
    d_tau = (st * d1_0 - s0 * st1_0) / d1_0 ** 2
    return ThetaValue(*_maybe_scalar(scalar, value, d_x, d_tau))


def log_theta_jet(x: ArrayLike, nome: Nome | complex
                  ) -> tuple[ArrayLike, ArrayLike, ArrayLike]:
    """(theta(x), theta'/theta, (log theta)'') from one lattice check and one
    series evaluation; the first entry is bit-identical to ``theta(x).value``."""
    x_arr, nome, scalar = _points(x, nome)
    _check_off_lattice(x_arr, nome, "x")
    s0, s1, s2 = _theta_hat(x_arr, nome, ("s0", "s1", "s2"))
    d1_0, _, _ = _zero_data(nome)
    r1 = s1 / s0
    return _maybe_scalar(scalar, s0 / d1_0, r1, s2 / s0 - r1 * r1)


def log_theta_d1(x: ArrayLike, nome: Nome | complex) -> ArrayLike:
    """theta'(x)/theta(x), the logarithmic x-derivative of theta."""
    return log_theta_jet(x, nome)[1]


def log_theta_d2(x: ArrayLike, nome: Nome | complex) -> ArrayLike:
    """(log theta)''(x) = theta''/theta - (theta'/theta)^2."""
    return log_theta_jet(x, nome)[2]


def log_theta_d1_dtau(x: ArrayLike, nome: Nome | complex
                      ) -> tuple[ArrayLike, ArrayLike]:
    """(theta'/theta, d/dtau log theta at fixed x) from one lattice check and
    one series evaluation; d_tau log theta vanishes identically at p = 0."""
    x_arr, nome, scalar = _points(x, nome)
    _check_off_lattice(x_arr, nome, "x")
    s0, s1, st = _theta_hat(x_arr, nome, ("s0", "s1", "st"))
    d1_0, _, st1_0 = _zero_data(nome)
    return _maybe_scalar(scalar, s1 / s0, st / s0 - st1_0 / d1_0)


def log_theta_dtau(x: ArrayLike, nome: Nome | complex) -> ArrayLike:
    """d/dtau log theta(x) at fixed x (zero identically at p = 0)."""
    return log_theta_d1_dtau(x, nome)[1]


def sigma_lambda(lam: ArrayLike, x: ArrayLike, nome: Nome | complex) -> ArrayLike:
    """sigma_lam(x) = theta'(0) theta(x-lam) / (theta(x) theta(lam)).

    Simple poles at x on the lattice, zeros at x = lam (mod lattice).  In the
    fixed normalization theta'(0) = 1; the factor is kept for clarity.
    lam and x broadcast against each other: theta(x) and theta(lam) are
    evaluated (and checked against the lattice) on their own shapes, and
    only theta(x - lam) and the quotient take the broadcast shape.
    """
    lam_arr, nome, lam_scalar = _points(lam, nome)
    x_arr, _, x_scalar = _points(x, nome)
    _check_off_lattice(x_arr, nome, "x")
    _check_off_lattice(lam_arr, nome, "lambda")
    s0_num, = _theta_hat(x_arr - lam_arr, nome, ("s0",))
    s0_x, = _theta_hat(x_arr, nome, ("s0",))
    s0_l, = _theta_hat(lam_arr, nome, ("s0",))
    d1_0, _, _ = _zero_data(nome)
    # theta'(0)*theta(u)/(theta(x)theta(lam)) in reduced-series form:
    # the 2 g^(1/4) prefactors cancel between the single numerator theta and
    # one denominator theta; theta'(0) = 1 contributes d1_0 to restore scale.
    value = d1_0 * s0_num / (s0_x * s0_l)
    return _maybe_scalar(lam_scalar and x_scalar, value)[0]


class SigmaTable:
    """sigma_lam(u) and sigma_(-lam)(u) for real lam against fixed points u.

    Built once per set of u (a Bethe state's distinct t_k - t_(f(k))); a call
    on a real (pairs, M) array lam, the point index last, returns the complex
    (pairs, 2, U, M) array of sigma_lam(u) and sigma_(-lam)(u) for the U
    points u: each row (pair, orientation, u) is contiguous over the M
    points.  With k_n = (2n-1) pi, the sine addition formula applied term by
    term gives

        theta_hat(u -+ lam) = Sum_n c_n [sin(k_n u) cos(k_n lam)
                                         -+ cos(k_n u) sin(k_n lam)],

    so one real matrix product of per-u weights against the harmonic rows
    (cos k_n lam, sin k_n lam) gives the real and the imaginary parts of
    every theta_hat(u -+ lam), and of theta_hat(lam) (c_n on the sine rows
    alone, so nothing cancels near its zero lam = 0).  The weights carry the
    per-u scale d1_0/theta_hat(u) and the sign of sigma_(-lam)(u) =
    -d1_0 theta_hat(u+lam) / (theta_hat(u) theta_hat(lam)), so theta_hat(u)
    and theta'(0) enter once per table, and theta_hat(lam) enters as one
    reciprocal per lam.  The harmonics are e^(i pi lam) times K - 1
    contiguous row products by e^(2 pi i lam), read as (cos, sin) rows.
    sigma is 1-periodic in u and in lam, so both enter reduced to
    |Re| <= 1/2, which keeps the phases k_n u and k_n lam small.  The term
    count K (``terms``) is ``_term_count`` at max |Im u|, as
    ``sigma_lambda`` takes it for the same arguments (Im lam = 0).  The
    weights are built, and u checked against the lattice, at the first
    call; lam (whose lattice distance is |lam - rint(lam)|) is checked at
    every call.
    """

    def __init__(self, u: ArrayLike, nome: Nome | complex):
        self.u = np.array(u, dtype=complex).ravel()
        self.u.setflags(write=False)
        self.nome = _as_nome(nome)
        self.terms = _term_count(self.nome, float(np.abs(self.u.imag).max())
                                 if self.u.size else 0.0)
        self._weights = None

    def _build(self) -> None:
        """The read-only (2R, 2K) float weights, R = 2U + 1: columns
        (cos, sin) per term, rows the real parts, then the imaginary parts,
        of sigma_lam(u) and sigma_(-lam)(u) times theta_hat(lam) per u, and
        of theta_hat(lam)."""
        _check_off_lattice(self.u, self.nome, "u")
        K, U = self.terms, self.u.size
        u = self.u - np.rint(self.u.real)
        c = np.array(_nome_weights(self.nome)[0][:K])
        s0_u, = _theta_hat(u, self.nome, ("s0",))
        scale = _zero_data(self.nome)[0] / s0_u * c[:, None]
        ku = _K[:K, None] * u
        s, co = scale * np.sin(ku), scale * np.cos(ku)
        w = np.zeros((2 * U + 1, K, 2), dtype=complex)
        w[:U, :, 0], w[:U, :, 1] = s.T, -co.T
        w[U:-1, :, 0], w[U:-1, :, 1] = -s.T, -co.T
        w[-1, :, 1] = c
        self._weights = np.concatenate([w.real, w.imag]).reshape(
            2 * w.shape[0], 2 * K)
        self._weights.setflags(write=False)

    def __call__(self, lam: ArrayLike) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        lam = lam - np.rint(lam)
        if (np.abs(lam) < _LATTICE_TOL).any():
            raise PoleError(f"lambda lies on the theta zero lattice "
                            f"(distance < {_LATTICE_TOL})")
        if self._weights is None:
            self._build()
        K, U = self.terms, self.u.size
        pairs, M = lam.shape
        h = np.empty((K, pairs, M), dtype=complex)
        np.exp(lam * (1j * math.pi), out=h[0])
        step = h[0] * h[0]
        for n in range(1, K):
            np.multiply(h[n - 1], step, out=h[n])
        harmonics = np.empty((K, 2, pairs * M))
        harmonics[:, 0], harmonics[:, 1] = \
            h.real.reshape(K, -1), h.imag.reshape(K, -1)
        z = (self._weights @ harmonics.reshape(2 * K, -1)).reshape(
            2, 2 * U + 1, pairs, M).transpose(0, 2, 1, 3)
        table = np.empty(z.shape[1:], dtype=complex)
        table.real, table.imag = z
        return (table[:, :-1] * (1.0 / table[:, -1:])).reshape(
            pairs, 2, U, M)


def wp(x: ArrayLike, nome: Nome | complex) -> ArrayLike:
    """Weierstrass wp with periods (1, tau), constant-free Laurent expansion.

    wp(x) = wp_shifted(x) - 2 eta
          = -(log theta1)''(x) + (1/3) theta1'''(0)/theta1'(0)
          = 1/x^2 + O(x^2) near 0;  p = 0 limit: pi^2/sin^2(pi*x) - pi^2/3.
    """
    nome = _as_nome(nome)
    return wp_shifted(x, nome) - 2.0 * eta_const(nome)


def eta_const(nome: Nome | complex) -> complex:
    """The eta constant -(1/6) theta1'''(0)/theta1'(0), from the cached
    derivatives of theta at 0 (``_zero_data``).

    The first-period quasi-period of the (1, tau) lattice, equal to
    pi^2 (1/6 - 4 Sum n p^n/(1-p^n)); the shifted potential is wp + 2 eta
    (see ``wp_shifted``).  Real for real p in [0, 1).
    """
    nome = _as_nome(nome)
    d1_0, d3_0, _ = _zero_data(nome)
    value = -d3_0 / d1_0 / 6.0
    if nome.p.imag == 0 and nome.p.real >= 0:
        return value.real
    return value


def wp_shifted(x: ArrayLike, nome: Nome | complex) -> ArrayLike:
    """wp(x) + 2*eta = -(log theta)''(x), from one ``log_theta_jet`` call.

    With the quasi-period eta the p -> 0 limit is exactly pi^2/sin^2(pi*x)
    and the Bethe eigenvalue formula is an exact eigenvalue of the shifted
    Hamiltonian (the spectral residual tests certify this choice).
    """
    return -log_theta_jet(x, nome)[2]
