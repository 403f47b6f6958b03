"""Exact Laurent polynomials in X_1, ..., X_N as exponent keys.

A Laurent polynomial Sum_r coef_r X^{rows_r} is an (n, N) int64 matrix of
exponent rows with a coefficient vector: Python ints in an object array
where the arithmetic is exact (Jack products outgrow int64: the N=2, l=32
certificate's coefficients sum to 3.7e19), complex128 where it is floating
point.  Inside a computation each row is one int64 key over a fixed
``Frame``: per column an offset and a span, chosen once and large enough
for every row the computation makes, the columns as the digits of a
mixed-radix number, the last column fastest, so the key order is the
lexicographic order of the rows.  A product by a monomial adds one constant
to the keys, a product by a polynomial is an outer sum of keys, and like
terms are merged on the keys alone (``merge_keys``); the rows are decoded
once, at the end.  The J Delta^w product (``jack.symmetric_times_delta``)
and the Jack degree table's pair columns run on these keys.  ``frame`` holds the one overflow guard.  Every function
returns merged form: distinct rows (keys) in lexicographic order, no zero
coefficient.  An antisymmetric polynomial is stored by its chamber, its
strictly decreasing rows: the coefficient of Alt(f) = Sum_pi sgn(pi) pi f
at such a row s is the signed sum of f's coefficients over the rows that
sort to s (Macdonald, Symmetric Functions and Hall Polynomials, ch. I.3).
Alt(X^delta) with delta = (N-1, ..., 0) is Delta = Prod_{i<j} (X_i - X_j),
so for symmetric g the chamber of X^delta g is that of g Delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ResourceError

#: (rows, coef): an (n, N) int64 exponent matrix and its coefficients.
Laurent = tuple[np.ndarray, np.ndarray]

#: The largest int64: the bound on row keys (``frame``) and on the
#: coefficient sums that may run in int64 instead of Python ints.
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class Frame:
    """The mixed-radix key of exponent rows: column k is the digit
    rows[:, k] - lo[k] below its span hi[k] - lo[k] + 1, worth radix[k];
    the last column is fastest.  Rows outside lo..hi have no key."""

    lo: np.ndarray
    hi: np.ndarray
    radix: np.ndarray

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """The key of every row (rows inside the frame)."""
        return (rows - self.lo) @ self.radix

    def decode(self, keys: np.ndarray) -> np.ndarray:
        """The rows of the keys."""
        rows = np.empty((len(keys), len(self.lo)), dtype=np.int64)
        for k in range(len(self.lo) - 1, 0, -1):
            keys, rows[:, k] = np.divmod(keys, self.hi[k] - self.lo[k] + 1)
        rows[:, 0] = keys
        return rows + self.lo


def frame(lo, hi) -> Frame:
    """The frame of the rows with lo <= row <= hi columnwise; ResourceError
    when its keys pass int64."""
    lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    span = (hi - lo + 1).tolist()
    if math.prod(span) > _INT64_MAX:
        raise ResourceError(
            f"exponent rows with column spans {span} need a row key of "
            f"{math.prod(span)} values, past int64")
    radix = np.array([math.prod(span[k + 1:]) for k in range(len(span))],
                     dtype=np.int64)
    return Frame(lo, hi, radix)


def frame_of(rows: np.ndarray) -> Frame:
    """The least frame holding the rows."""
    if not len(rows):
        return frame(np.zeros(rows.shape[1]), np.zeros(rows.shape[1]))
    return frame(rows.min(axis=0), rows.max(axis=0))


def merge_keys(keys: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray,
                                                           np.ndarray]:
    """The distinct keys in increasing order, each with the sum of its
    coefficients, zero sums dropped.  The sort is stable, so each sum runs
    in the order the terms were given."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new)
    total = np.add.reduceat(coef[order], starts)
    keep = total != 0
    return keys[starts[keep]], total[keep]


def merge(rows: np.ndarray, coef: np.ndarray) -> Laurent:
    """The distinct rows, each with the sum of its coefficients."""
    fr = frame_of(rows)
    keys, total = merge_keys(fr.encode(rows), coef)
    return fr.decode(keys), total


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


def stack(polys: Sequence[Laurent]) -> tuple[np.ndarray, np.ndarray]:
    """Merged polynomials over one row index: the distinct rows of all of
    them, and the coefficient matrix whose column k holds polys[k]."""
    rows = np.concatenate([r for r, _ in polys])
    fr = frame_of(rows)
    keys, inverse = np.unique(fr.encode(rows), return_inverse=True)
    column = np.repeat(np.arange(len(polys)), [len(r) for r, _ in polys])
    mat = np.zeros((len(keys), len(polys)), dtype=object)
    mat[inverse, column] = np.concatenate([c for _, c in polys])
    return fr.decode(keys), mat
