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


def orbits(parts) -> tuple[np.ndarray, np.ndarray]:
    """The distinct permutations of every row of the integer matrix
    ``parts`` in one pass: each partial row grows by every value its row has
    left, smallest first.  Returns the permutations, stacked in the order of
    ``parts`` and each row's in lexicographic order, and the row of
    ``parts`` each one belongs to."""
    parts = np.asarray(parts, dtype=np.int64)
    n, N = parts.shape
    values, at = np.unique(parts, return_inverse=True)
    left = np.bincount(np.repeat(np.arange(n) * len(values), N) + at.ravel(),
                       minlength=n * len(values)).reshape(n, len(values))
    rows, owner = np.zeros((n, 0), dtype=np.int64), np.arange(n)
    for _ in range(N):
        r, v = np.nonzero(left)
        rows, left, owner = np.column_stack([rows[r], values[v]]), left[r], \
            owner[r]
        left[np.arange(len(r)), v] -= 1
    return rows, owner


def orbit(nu: Sequence[int]) -> np.ndarray:
    """The distinct permutations of the integer vector nu, in lexicographic
    order (``orbits`` of one row).  Cached per vector; the array is
    read-only."""
    return _orbit(tuple(map(int, nu)))


@lru_cache(maxsize=1024)
def _orbit(nu: tuple[int, ...]) -> np.ndarray:
    rows = orbits([nu])[0]
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


def symmetric_times_delta(numerators: Sequence[Mapping[Sequence[int], int]],
                          power: int) -> tuple[np.ndarray, np.ndarray]:
    """Delta^power Sum_nu numerators[s][nu] m_nu for every coefficient set
    s: the monomial symmetric functions of the integer exponent vectors nu
    (keyed as ``jack.JackExpansion.numerators``) with integer coefficients.

    The orbit rows of all the sets go into one stack, tagged by their set in
    a last column, which is multiplied by Delta^power once, one binomial
    factor (X_i - X_j)^power, i < j, at a time: no product outgrows the
    result by more than the factor's power + 1 terms.  Returned as ``stack``
    returns polynomials: the distinct exponent rows of all the products and
    the coefficient matrix whose column s holds product s, Python ints.  The
    merged rows are in lexicographic order, so the copies of one exponent
    row in several products are adjacent and no second sort is needed.  The
    product runs in int64 when the bound on its l1 norm fits there: the
    largest l1 norm of a set times 2^power per binomial factor bounds every
    coefficient and partial sum."""
    keys = list(dict.fromkeys(nu for nums in numerators for nu in nums))
    position = {nu: k for k, nu in enumerate(keys)}
    rows, owner = orbits(keys)
    size = np.bincount(owner, minlength=len(keys))
    sizes = size.tolist()
    N = rows.shape[1]
    norm = max(sum(abs(n) * sizes[position[nu]] for nu, n in nums.items())
               for nums in numerators)
    exact = norm << (power * N * (N - 1) // 2) <= _INT64_MAX
    which = np.array([position[nu] for nums in numerators for nu in nums],
                     dtype=np.int64)
    count = size[which]
    first = np.cumsum(size) - size
    pick = np.arange(count.sum()) + np.repeat(
        first[which] - (np.cumsum(count) - count), count)
    tag = np.repeat(np.arange(len(numerators)),
                    [len(nums) for nums in numerators])
    poly = (np.column_stack([rows[pick], np.repeat(tag, count)]),
            np.repeat(np.array([n for nums in numerators
                                for n in nums.values()],
                               dtype=np.int64 if exact else object), count))
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
