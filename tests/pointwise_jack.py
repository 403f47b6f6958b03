"""The rejected pointwise p = 0 evaluation and Jack certificate, kept as test
evidence.

The library evaluates the p = 0 state as Sym^(l) of the sigma-table omega,
as at every nome, and certifies Sym^(l) omega_tri = c J_lambda Delta^{l+1}
in coefficient space (``cmbethe.states.jack_proportionality``).  The rejected
variant evaluates the unsymmetrized omega_tri = X^xi Sum_r coef_r X^{rows_r}
/ Delta^l of the expansion point by point, sums it over S_N by a plain loop
over x-permutations, and samples the ratio Sym^(l) omega_tri /
(J_lambda Delta^{l+1}) at deterministic traceless torus points, reporting
the mean ratio and its relative spread.  The permutation terms are of size
~|Delta|^{-l} and cancel in the sum, so at N=2 and l >= 12 the spread
exceeds 1e-9 from rounding alone.
"""

import math
from itertools import combinations, permutations

import numpy as np

from cmbethe.errors import ResourceError
from cmbethe.states import _perm_sign, _TrigOmega, sample_torus_points
from cmbethe.weights import build_indexing, root_system

TWO_PI_I = 2j * math.pi


def omega_tri_values(raw, x, l):
    """The unnormalized omega_tri of the expansion ``raw`` (a ``_TrigOmega``)
    on the (M, N) batch x."""
    xb = np.asarray(x, dtype=complex)
    X = np.exp(TWO_PI_I * xb)
    delta = np.prod([X[:, i] - X[:, j]
                     for i, j in combinations(range(raw.N), 2)], axis=0)
    acc = np.exp(TWO_PI_I * (xb @ raw.rows.T)) @ raw.coef
    return np.exp(TWO_PI_I * (xb @ raw.xi)) * acc / delta ** l


def sym_pointwise(f, N, l):
    """Sym^(l) f by the plain loop over x-permutations: the plain sum for
    odd l, the sign-weighted sum for even l.  ``f`` takes an (M, N) batch."""
    perms = [(p, 1 if l % 2 == 1 else _perm_sign(p))
             for p in permutations(range(N))]

    def sym(x):
        xb = np.asarray(x, dtype=complex)
        single = xb.ndim == 1
        xb = np.atleast_2d(xb)
        acc = np.zeros(xb.shape[0], dtype=complex)
        for perm, sign in perms:
            acc = acc + sign * np.atleast_1d(f(xb[:, list(perm)]))
        return complex(acc[0]) if single else acc

    return sym


def pointwise_jack_ratio(state, jack, l, n_samples=10, seed=11):
    """(mean ratio, relative spread) over ``n_samples`` traceless points,
    resampling any point where J_lambda Delta^{l+1} is near zero."""
    N = len(state.xi.coords)
    raw = _TrigOmega(state.point, state.xi, root_system(N, l),
                     build_indexing(N, l))
    sym = sym_pointwise(lambda x: omega_tri_values(raw, x, l), N, l)
    ratios = []
    attempt = 0
    while len(ratios) < n_samples and attempt < 50 * n_samples:
        xs = sample_torus_points(N, n_samples, margin=0.1,
                                 seed=seed + attempt, traceless=True)
        for x in xs:
            X = np.exp(2j * math.pi * x)
            delta = 1.0 + 0j
            for i in range(N):
                for j in range(i + 1, N):
                    delta *= X[i] - X[j]
            den = complex(jack.evaluate(x)) * delta ** (l + 1)
            if abs(den) < 1e-8:
                continue
            ratios.append(complex(sym(x)) / den)
            if len(ratios) == n_samples:
                break
        attempt += 1
    if len(ratios) < n_samples:
        raise ResourceError("could not collect enough sample points away "
                            "from denominator zeros")
    arr = np.array(ratios)
    mean = complex(arr.mean())
    spread = float(np.max(np.abs(arr - mean)) / max(abs(mean), 1e-300))
    return mean, spread
