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
theta1 cancels in all normalized ratios; at p = 0 the reduced series is
exactly sin(pi*x).  Truncation is adaptive on a rigorous per-term bound
(Gaussian decay of g^(n(n-1)) against the exponential growth of sin on
complex arguments); the default relative tolerance is 1e-16.

All functions are pure; x arguments may be complex scalars or numpy arrays.
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
_LATTICE_TOL = 1e-12
#: Largest exponent whose exp is a finite float.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class Nome:
    """The elliptic modulus, stored as the pair (p, tau) with p = exp(2*pi*i*tau).

    Construct with either ``p`` (|p| < 1; p = 0 is the trigonometric limit) or
    ``tau`` (Im tau > 0). The other representation is derived with principal
    branches. ``series_tolerance`` is the relative truncation threshold used
    by all series evaluations.
    """

    __slots__ = ("p", "tau", "g", "series_tolerance")

    def __init__(self, p: complex | None = None, tau: complex | None = None,
                 series_tolerance: float = 1e-16):
        if series_tolerance <= 0:
            raise DomainError("series_tolerance must be positive")
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
        self.series_tolerance = float(series_tolerance)

    def __repr__(self) -> str:
        return f"Nome(p={self.p!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Nome) and self.p == other.p \
            and self.series_tolerance == other.series_tolerance

    def __hash__(self) -> int:
        return hash((self.p, self.series_tolerance))


@dataclass(frozen=True)
class ThetaValue:
    """A theta evaluation: the value, its x-derivative, and its tau-derivative."""

    value: ArrayLike
    d_x: ArrayLike
    d_tau: ArrayLike


def _as_nome(nome: Nome | complex) -> Nome:
    """Accept a Nome or a bare nome value p."""
    return nome if isinstance(nome, Nome) else Nome(p=nome)


#: Names of the reduced-series outputs of ``_theta_hat``, in kernel order.
_SERIES = ("s0", "s1", "s2", "s3", "st", "st1")


def _theta_hat(x: np.ndarray, nome: Nome,
               series: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """Reduced theta series and derivatives at complex points x.

    Returns the requested ``series``, in the requested order, from
    s0, s1, s2, s3 (the series value and its x-derivatives up to third
    order), st (the tau-derivative) and st1 (the tau-derivative of the first
    x-derivative); only those are accumulated.  Term n carries g^(n(n-1));
    its tau-derivative multiplies it by pi*i*n(n-1) (the remaining pi*i/4 of
    the full theta1 exponent lives in the prefactor 2*g^(1/4), handled by
    the callers).  Truncation and the overflow guard do not depend on the
    request, so each series is the same whichever others are asked for.
    """
    g = nome.g
    tol = nome.series_tolerance
    im_max = float(np.max(np.abs(x.imag))) if x.size else 0.0

    acc = {name: np.zeros_like(x) for name in series}
    s0, s1, s2, s3, st, st1 = (acc.get(name) for name in _SERIES)
    want_sin = s0 is not None or s2 is not None or st is not None
    want_cos = s1 is not None or s3 is not None or st1 is not None
    ang = np.empty_like(x)
    s = np.empty_like(x) if want_sin else None
    c = np.empty_like(x) if want_cos else None
    tmp = np.empty_like(x)

    q_n = 1.0 + 0j       # g^(n(n-1)) by cumulative product
    bound_max = 0.0
    small_count = 0
    for n in range(1, _MAX_TERMS + 1):
        k = (2 * n - 1) * math.pi
        growth = k * im_max
        if growth > _LOG_FLOAT_MAX:
            raise AccuracyError(
                f"theta series term {n} overflows the float range at "
                f"max |Im x| = {im_max} (|g|={abs(g)})")
        sign = 1.0 if n % 2 == 1 else -1.0
        coef = sign * q_n
        np.multiply(k, x, out=ang)
        if want_sin:
            np.sin(ang, out=s)
        if want_cos:
            np.cos(ang, out=c)
        if s0 is not None:
            s0 += np.multiply(coef, s, out=tmp)
        if s1 is not None:
            s1 += np.multiply(coef * k, c, out=tmp)
        if s2 is not None:
            s2 -= np.multiply(coef * k * k, s, out=tmp)
        if s3 is not None:
            s3 -= np.multiply(coef * k ** 3, c, out=tmp)
        dt = 1j * math.pi * n * (n - 1)
        if st is not None:
            st += np.multiply(coef * dt, s, out=tmp)
        if st1 is not None:
            st1 += np.multiply(coef * dt * k, c, out=tmp)

        bound = abs(q_n) * (1.0 + k ** 3) * math.exp(growth)
        bound_max = max(bound_max, bound)
        if bound <= tol * bound_max:
            small_count += 1
            if small_count >= 2:
                break
        else:
            small_count = 0
        q_n *= g ** (2 * n)
        if q_n == 0:
            break
    else:
        raise AccuracyError(
            f"theta series not converged in {_MAX_TERMS} terms (|g|={abs(g)}, "
            f"max |Im x|={im_max})")
    return tuple(acc[name] for name in series)


@lru_cache(maxsize=64)
def _zero_data(nome: Nome) -> tuple[complex, complex, complex]:
    """(theta_hat'(0), theta_hat'''(0), d_tau theta_hat'(0)) for a given nome."""
    s1, s3, st1 = _theta_hat(np.zeros(1, dtype=complex), nome,
                             ("s1", "s3", "st1"))
    return complex(s1[0]), complex(s3[0]), complex(st1[0])


def _distance_to_lattice(x: ArrayLike, nome: Nome) -> np.ndarray:
    """|x - nearest point of Z + tau*Z| (of Z when p = 0), as an array."""
    x_arr = np.asarray(x, dtype=complex)
    if nome.tau is None:
        red = x_arr - np.round(x_arr.real)
    else:
        tau = nome.tau
        b = np.round(x_arr.imag / tau.imag)
        red = x_arr - b * tau
        red = red - np.round(red.real)
    return np.abs(red)


def lattice_distance(x: ArrayLike, nome: Nome | complex) -> ArrayLike:
    """Distance from x to the period lattice Z + tau*Z (to Z when p = 0)."""
    d = _distance_to_lattice(x, _as_nome(nome))
    return d if np.ndim(x) else float(d)


def _check_off_lattice(x: np.ndarray, nome: Nome, what: str) -> None:
    if np.any(_distance_to_lattice(x, nome) < _LATTICE_TOL):
        raise PoleError(f"{what} lies on the theta zero lattice (distance < {_LATTICE_TOL})")


def _maybe_scalar(value: np.ndarray, scalar: bool) -> ArrayLike:
    return value.item() if scalar else value


def theta1(x: ArrayLike, nome: Nome | complex) -> ThetaValue:
    """The odd Jacobi theta function theta1 and its x- and tau-derivatives.

    theta1(x) = 2 Sum (-1)^(n-1) exp(tau*pi*i*(n-1/2)^2) sin((2n-1)*pi*x);
    d_tau multiplies term n by pi*i*(n-1/2)^2.  At p = 0 the function (and
    its derivatives) vanish identically because of the exp(tau*pi*i/4)
    prefactor; use ``theta`` for the normalized ratio with a finite limit.
    """
    nome = _as_nome(nome)
    x_arr = np.asarray(x, dtype=complex)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    s0, s1, st = _theta_hat(x_arr, nome, ("s0", "s1", "st"))
    if nome.tau is None:
        pref = 0j
    else:
        pref = 2 * cmath.exp(1j * math.pi * nome.tau / 4)
    value = pref * s0
    d_x = pref * s1
    d_tau = pref * (0.25j * math.pi * s0 + st)
    return ThetaValue(_maybe_scalar(value, scalar), _maybe_scalar(d_x, scalar),
                      _maybe_scalar(d_tau, scalar))


def theta(x: ArrayLike, nome: Nome | complex) -> ThetaValue:
    """The normalized theta function theta(x) = theta1(x)/theta1'(0).

    Computed from the reduced series so the limit p -> 0 is exactly
    sin(pi*x)/pi.  d_tau is the tau-derivative of the normalized ratio.
    """
    nome = _as_nome(nome)
    x_arr = np.asarray(x, dtype=complex)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    s0, s1, st = _theta_hat(x_arr, nome, ("s0", "s1", "st"))
    d1_0, _, st1_0 = _zero_data(nome)
    value = s0 / d1_0
    d_x = s1 / d1_0
    # The pi*i/4 prefactor contributions cancel between numerator and
    # denominator of the ratio.
    d_tau = (st * d1_0 - s0 * st1_0) / d1_0 ** 2
    return ThetaValue(_maybe_scalar(value, scalar), _maybe_scalar(d_x, scalar),
                      _maybe_scalar(d_tau, scalar))


def log_theta_jet(x: ArrayLike, nome: Nome | complex
                  ) -> tuple[ArrayLike, ArrayLike, ArrayLike]:
    """(theta(x), theta'/theta, (log theta)'') from one lattice check and one
    series evaluation; the first entry is bit-identical to ``theta(x).value``."""
    nome = _as_nome(nome)
    x_arr = np.asarray(x, dtype=complex)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    _check_off_lattice(x_arr, nome, "x")
    s0, s1, s2 = _theta_hat(x_arr, nome, ("s0", "s1", "s2"))
    d1_0, _, _ = _zero_data(nome)
    r1 = s1 / s0
    return (_maybe_scalar(s0 / d1_0, scalar), _maybe_scalar(r1, scalar),
            _maybe_scalar(s2 / s0 - r1 * r1, scalar))


def log_theta_d1(x: ArrayLike, nome: Nome | complex) -> ArrayLike:
    """theta'(x)/theta(x), the logarithmic x-derivative of theta."""
    return log_theta_jet(x, nome)[1]


def log_theta_d2(x: ArrayLike, nome: Nome | complex) -> ArrayLike:
    """(log theta)''(x) = theta''/theta - (theta'/theta)^2."""
    return log_theta_jet(x, nome)[2]


def log_theta_dtau(x: ArrayLike, nome: Nome | complex) -> ArrayLike:
    """d/dtau log theta(x) at fixed x (zero identically at p = 0)."""
    nome = _as_nome(nome)
    x_arr = np.asarray(x, dtype=complex)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    _check_off_lattice(x_arr, nome, "x")
    s0, st = _theta_hat(x_arr, nome, ("s0", "st"))
    d1_0, _, st1_0 = _zero_data(nome)
    return _maybe_scalar(st / s0 - st1_0 / d1_0, scalar)


def sigma_lambda(lam: ArrayLike, x: ArrayLike, nome: Nome | complex) -> ArrayLike:
    """sigma_lam(x) = theta'(0) theta(x-lam) / (theta(x) theta(lam)).

    Simple poles at x on the lattice, zeros at x = lam (mod lattice).  In the
    fixed normalization theta'(0) = 1; the factor is kept for clarity.
    lam and x broadcast against each other: theta(x) and theta(lam) are
    evaluated (and checked against the lattice) on their own shapes, and
    only theta(x - lam) and the quotient take the broadcast shape.
    """
    nome = _as_nome(nome)
    lam_arr = np.asarray(lam, dtype=complex)
    x_arr = np.asarray(x, dtype=complex)
    scalar = lam_arr.ndim == 0 and x_arr.ndim == 0
    lam_arr, x_arr = np.atleast_1d(lam_arr), np.atleast_1d(x_arr)
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
    return _maybe_scalar(value, scalar)


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
