"""The rejected Jack certificate, kept as test evidence.

The library certifies Sym^(l) omega_tri = c J_lambda Delta^{l+1} in
coefficient space (``cmbethe.states.jack_proportionality``).  The rejected
variant samples the ratio Sym^(l) omega_tri / (J_lambda Delta^{l+1}) at
deterministic traceless torus points, summing the unsymmetrized omega_tri
over S_N point by point, and reports the mean ratio and its relative spread.
The permutation terms are of size ~|Delta|^{-l} and cancel in the sum, so at
N=2 and l >= 12 the spread exceeds 1e-9 from rounding alone.
"""

import math

import numpy as np

from cmbethe.errors import ResourceError
from cmbethe.states import _TrigOmega, sample_torus_points, symmetrize
from cmbethe.weights import build_indexing, root_system


def pointwise_jack_ratio(state, jack, l, n_samples=10, seed=11):
    """(mean ratio, relative spread) over ``n_samples`` traceless points,
    resampling any point where J_lambda Delta^{l+1} is near zero."""
    N = len(state.xi.coords)
    raw = _TrigOmega(state.point, state.xi, root_system(N, l),
                     build_indexing(N, l))
    sym = symmetrize(raw, N, l)
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
