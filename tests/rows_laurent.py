"""The rows-based Laurent arithmetic, kept as the test oracle.

The library merges, multiplies and looks up exact Laurent polynomials on
one int64 key per monomial over a frame chosen once per computation
(``cmbethe.laurent``).  This is the form it replaced: every merge groups
the (n, N) exponent rows themselves, here by an N-key lexsort, Delta^power
is a loop of row products, one binomial factor at a time, and the p = 0
expansion of omega_tri walks its levels on (node, exponents) rows.  The
tests compare each keyed path with its reference, bit for bit.
"""

from itertools import combinations
import math

import numpy as np

from cmbethe.elliptic import PoleError
from cmbethe.laurent import orbits
from cmbethe.states import TWO_PI_I


def lexsort_groups(rows):
    """The stable lexicographic order of the rows, the sorted position of
    each distinct row's first copy, and each row's number among them."""
    order = np.lexsort(rows.T[::-1])
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(np.diff(rows[order], axis=0) != 0, axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order, np.flatnonzero(new), inverse


def merge_rows(rows, coef):
    """The distinct rows, each with the sum of its coefficients."""
    order, starts, _ = lexsort_groups(rows)
    total = np.add.reduceat(coef[order], starts)
    keep = total != 0
    return rows[order[starts[keep]]], total[keep]


def mul(a, b):
    """The product of two (rows, coef) Laurent polynomials."""
    rows = (a[0][:, None] + b[0][None]).reshape(-1, a[0].shape[1])
    return merge_rows(rows, np.multiply.outer(a[1], b[1]).ravel())


def symmetric_times_delta(numerators, power):
    """``jack.symmetric_times_delta`` on tagged rows: the orbit rows of
    every set with their set in a last column, times one binomial factor
    (X_i - X_j)^power at a time by ``mul``."""
    keys = list(dict.fromkeys(nu for nums in numerators for nu in nums))
    rows, owner = orbits(keys)
    N = rows.shape[1]
    norm = max(sum(abs(n) * len(orbits([nu])[0]) for nu, n in nums.items())
               for nums in numerators)
    exact = norm << (power * N * (N - 1) // 2) <= np.iinfo(np.int64).max
    tagged, coef = [], []
    for s, nums in enumerate(numerators):
        for nu, n in nums.items():
            mine = rows[owner == keys.index(nu)]
            tagged.append(np.column_stack([mine, np.full(len(mine), s)]))
            coef.append(np.full(len(mine), n,
                                dtype=np.int64 if exact else object))
    poly = np.concatenate(tagged), np.concatenate(coef)
    q = np.arange(power + 1)
    binomial = np.array([(-1) ** (power - k) * math.comb(power, k)
                         for k in range(power + 1)], dtype=poly[1].dtype)
    for i, j in combinations(range(N), 2):
        factor = np.zeros((power + 1, N + 1), dtype=np.int64)
        factor[:, i], factor[:, j] = q, power - q
        poly = mul(poly, (factor, binomial))
    tagged, coef = poly
    new = np.ones(len(tagged), dtype=bool)
    new[1:] = np.any(tagged[1:, :-1] != tagged[:-1, :-1], axis=1)
    mat = np.zeros((np.count_nonzero(new), len(numerators)), dtype=object)
    mat[np.cumsum(new) - 1, tagged[:, -1]] = coef
    return tagged[new, :-1], mat


def tri_expansion(omega):
    """``states._EllipticOmega.tri_expansion`` of ``omega`` on
    (node, exponents) rows, merged after every slot factor."""
    T = np.exp(-TWO_PI_I * omega._t)
    T_k, T_f = T[omega._k + 1], T[omega._f]
    den = np.where(omega._f == 0, 1.0 + 0j, T_k - T_f)
    if np.any(np.abs(den) < 1e-13):
        raise PoleError("paired collision T_k = T_{f(k)}")
    own, other = T_k / den, -T_f / den
    keys = np.column_stack([np.arange(len(omega._leaf)), np.zeros(
        (len(omega._leaf), omega.N), dtype=np.int64)])
    coef = omega._leaf.astype(complex)
    for a, b, u, child, starts, _ in omega._levels:
        lo = np.searchsorted(keys[:, 0], child)
        count = np.searchsorted(keys[:, 0], child, side="right") - lo
        take = np.repeat(lo - np.cumsum(count) + count, count) \
            + np.arange(count.sum())
        keys, coef = keys[take], coef[take]
        keys[:, 0] = np.repeat(np.arange(len(child)), count)
        for j in reversed(range(a.shape[1])):
            edge, at = keys[:, 0], np.arange(len(keys))
            mine, theirs = keys.copy(), keys.copy()
            mine[at, 1 + a[edge, j]] += 1
            theirs[at, 1 + b[edge, j]] += 1
            keys, coef = merge_rows(np.concatenate([mine, theirs]),
                                    np.concatenate([coef * own[u[edge, j]],
                                                    coef * other[u[edge, j]]]))
        keys[:, 0] = np.searchsorted(starts, keys[:, 0], side="right") - 1
        keys, coef = merge_rows(keys, coef)
    return keys[:, 1:], coef
