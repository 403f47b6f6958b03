"""Exact Laurent polynomials in X_1, ..., X_N as exponent matrices.

A Laurent polynomial Sum_r coef_r X^{rows_r} is an (n, N) int64 matrix of
exponent rows with a coefficient vector: Python ints in an object array
where the arithmetic is exact (Jack products outgrow int64: the N=2, l=32
certificate's coefficients sum to 3.7e19), complex128 where it is floating
point.  Every function returns merged form: distinct rows in lexicographic
order, no zero coefficient.  An antisymmetric polynomial is stored by its
chamber, its strictly decreasing rows: the coefficient of
Alt(f) = Sum_pi sgn(pi) pi f at such a row s is the signed sum of f's
coefficients over the rows that sort to s (Macdonald, Symmetric Functions
and Hall Polynomials, ch. I.3).  Alt(X^delta) with delta = (N-1, ..., 0) is
Delta = Prod_{i<j} (X_i - X_j), so for symmetric g the chamber of
X^delta g is that of g Delta.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .errors import ResourceError

#: (rows, coef): an (n, N) int64 exponent matrix and its coefficients.
Laurent = tuple[np.ndarray, np.ndarray]

#: The largest int64: the bound on row keys (``_groups``) and on the
#: coefficient sums that may run in int64 instead of Python ints.
_INT64_MAX = int(np.iinfo(np.int64).max)


def _groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable lexicographic order of the rows, the sorted position of
    each distinct row's first copy, and each row's number among them.

    The rows are sorted by one int64 mixed-radix key: each column's offset
    from its minimum is a digit below the column's span, the last column
    fastest, so the key order is the lexicographic order.  Rows whose
    column spans multiply past int64 raise ResourceError."""
    n, N = rows.shape
    lo = rows.min(axis=0) if n else np.zeros(N, dtype=np.int64)
    span = (rows.max(axis=0) - lo + 1).tolist() if n else [1] * N
    if math.prod(span) > _INT64_MAX:
        raise ResourceError(
            f"exponent rows with column spans {span} need a row key of "
            f"{math.prod(span)} values, past int64")
    key = np.zeros(n, dtype=np.int64)
    for k in range(N):
        key = key * span[k] + (rows[:, k] - lo[k])
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    new = np.ones(n, dtype=bool)
    new[1:] = sorted_key[1:] != sorted_key[:-1]
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order, np.flatnonzero(new), inverse


def merge(rows: np.ndarray, coef: np.ndarray) -> Laurent:
    """The distinct rows, each with the sum of its coefficients."""
    order, starts, _ = _groups(rows)
    total = np.add.reduceat(coef[order], starts)
    keep = total != 0
    return rows[order[starts[keep]]], total[keep]


def mul(a: Laurent, b: Laurent) -> Laurent:
    """The product of two Laurent polynomials."""
    rows = (a[0][:, None] + b[0][None]).reshape(-1, a[0].shape[1])
    return merge(rows, np.multiply.outer(a[1], b[1]).ravel())


def orbit(nu: Sequence[int]) -> np.ndarray:
    """The distinct permutations of the integer vector nu, in lexicographic
    order: each row grows by every value it has left, smallest first.
    Cached per vector; the array is read-only."""
    return _orbit(tuple(map(int, nu)))


@lru_cache(maxsize=1024)
def _orbit(nu: tuple[int, ...]) -> np.ndarray:
    values, counts = np.unique(np.array(nu, dtype=np.int64),
                               return_counts=True)
    rows, left = np.zeros((1, 0), dtype=np.int64), counts[None, :]
    for _ in range(len(nu)):
        r, v = np.nonzero(left)
        rows, left = np.column_stack([rows[r], values[v]]), left[r]
        left[np.arange(len(r)), v] -= 1
    rows.setflags(write=False)
    return rows


def parity(rows: np.ndarray) -> np.ndarray:
    """(-1)^(number of inversions) of each row; for the rows of
    permutations of 0..N-1, the sign of each permutation."""
    iu, ju = np.triu_indices(rows.shape[1], 1)
    return 1 - 2 * (np.count_nonzero(rows[:, iu] > rows[:, ju], axis=1) % 2)


def chamber(rows: np.ndarray, coef: np.ndarray) -> Laurent:
    """Alt(f) by its chamber: each row sorted in decreasing order, weighted
    by the sign of the sort, rows with a repeated entry dropped."""
    iu, ju = np.triu_indices(rows.shape[1], 1)
    keep = np.all(rows[:, iu] != rows[:, ju], axis=1)
    rows, coef = rows[keep], coef[keep]
    return merge(-np.sort(-rows, axis=1), coef * parity(-rows))


def times_delta(poly: Laurent, w: int) -> Laurent:
    """poly Delta^w, one binomial factor (X_i - X_j)^w, i < j, at a time: no
    product outgrows the result by more than the factor's w + 1 terms.  The
    coefficients keep poly's dtype."""
    q, N = np.arange(w + 1), poly[0].shape[1]
    binomial = np.array([(-1) ** (w - k) * math.comb(w, k)
                         for k in range(w + 1)], dtype=poly[1].dtype)
    for i, j in combinations(range(N), 2):
        rows = np.zeros((w + 1, N), dtype=np.int64)
        rows[:, i], rows[:, j] = q, w - q
        poly = mul(poly, (rows, binomial))
    return poly


def symmetric_times_delta(numerators: Mapping[Sequence[int], int],
                          power: int) -> Laurent:
    """Delta^power Sum_nu numerators[nu] m_nu, the monomial symmetric
    functions of the integer exponent vectors nu (keyed as
    ``jack.JackExpansion.numerators``) with integer coefficients, Python
    ints.  The product runs in int64 when the bound on its l1 norm fits
    there: the input's l1 norm times 2^power per binomial factor bounds
    every coefficient and partial sum."""
    orbits = [orbit(nu) for nu in numerators]
    sizes = [len(o) for o in orbits]
    N = orbits[0].shape[1]
    norm = sum(abs(n) * k for n, k in zip(numerators.values(), sizes))
    exact = norm << (power * N * (N - 1) // 2) <= _INT64_MAX
    coef = np.repeat(np.array(list(numerators.values()),
                              dtype=np.int64 if exact else object), sizes)
    rows, coef = times_delta((np.concatenate(orbits), coef), power)
    return rows, coef.astype(object)


def stack(polys: Sequence[Laurent]) -> tuple[np.ndarray, np.ndarray]:
    """Merged polynomials over one row index: the distinct rows of all of
    them, and the coefficient matrix whose column k holds polys[k]."""
    rows = np.concatenate([r for r, _ in polys])
    order, starts, inverse = _groups(rows)
    column = np.repeat(np.arange(len(polys)), [len(r) for r, _ in polys])
    mat = np.zeros((len(starts), len(polys)), dtype=object)
    mat[inverse, column] = np.concatenate([c for _, c in polys])
    return rows[order[starts]], mat


def find(index: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The position of each row in ``index`` (distinct rows), or -1."""
    _, _, inverse = _groups(np.concatenate([index, rows]))
    at = np.full(len(index) + len(rows), -1, dtype=np.int64)
    at[inverse[:len(index)]] = np.arange(len(index))
    return at[inverse[len(index):]]
