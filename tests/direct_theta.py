"""The per-term theta loop, kept as test evidence.

``cmbethe.elliptic._theta_hat`` sums the reduced series by Clenshaw's
recurrence from one sin(pi x) and one cos(pi x).  This is the direct sum it
replaced: one complex sin and cos of (2n-1) pi x per kept term, with the
same overflow guard and non-convergence error.  It keeps the kernel's
terms and two more (it stops after two negligible terms, where the kernel
stops before the first), so it is the more complete sum.  Tests compare
the two series by series.
"""

import math

import numpy as np

from cmbethe.elliptic import (_LOG_FLOAT_MAX, _MAX_TERMS, _SERIES,
                              _SERIES_TOL, Nome)
from cmbethe.errors import AccuracyError


def theta_hat_direct(x: np.ndarray, nome: Nome,
                     series: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """The requested reduced series (names of ``_SERIES``) at x, term by
    term."""
    g = nome.g
    im_max = float(np.max(np.abs(x.imag))) if x.size else 0.0

    acc = {name: np.zeros_like(x) for name in series}
    s0, s1, s2, s3, st, st1 = (acc.get(name) for name in _SERIES)
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
        coef = (1.0 if n % 2 == 1 else -1.0) * q_n
        s, c = np.sin(k * x), np.cos(k * x)
        dt = 1j * math.pi * n * (n - 1)
        if s0 is not None:
            s0 += coef * s
        if s1 is not None:
            s1 += coef * k * c
        if s2 is not None:
            s2 -= coef * k * k * s
        if s3 is not None:
            s3 -= coef * k ** 3 * c
        if st is not None:
            st += coef * dt * s
        if st1 is not None:
            st1 += coef * dt * k * c

        bound = abs(q_n) * (1.0 + k ** 3) * math.exp(growth)
        bound_max = max(bound_max, bound)
        if bound <= _SERIES_TOL * bound_max:
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
