"""Tests for the exact Laurent kernel's row grouping: one int64 mixed-radix
key per row against the N-column lexicographic sort it replaced, its
overflow guard, and the margin of the largest objects the package's guards
admit."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cmbethe import laurent, perturb, states
from cmbethe.critical import closed_form_n2
from cmbethe.elliptic import Nome
from cmbethe.errors import ResourceError
from cmbethe.jack import jack_expand
from cmbethe.master import EllipticPoint
from cmbethe.weights import (Weight, build_indexing, lambda_to_xi,
                             root_system, weight_from_lambda_coords)
from test_states import searched_root


def lexsort_groups(rows):
    """The rejected grouping: an N-key lexsort of the rows."""
    order = np.lexsort(rows.T[::-1])
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(np.diff(rows[order], axis=0) != 0, axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order, np.flatnonzero(new), inverse


def key_spans(monkeypatch):
    """The list that collects the product of the column spans of every
    grouping while it is in use."""
    seen = []
    groups = laurent._groups

    def recorded(rows):
        if len(rows):
            seen.append(math.prod((rows.max(axis=0) - rows.min(axis=0)
                                   + 1).tolist()))
        return groups(rows)

    monkeypatch.setattr(laurent, "_groups", recorded)
    return seen


class TestGroups:
    """``laurent._groups`` orders and groups rows as the lexsort did."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_matches_lexsort(self, N):
        """Random int rows with negative entries and duplicates: the same
        order, group starts and group numbers."""
        rng = np.random.default_rng(N)
        for n, width in ((0, 3), (1, 3), (7, 2), (200, 3), (500, 40)):
            rows = rng.integers(-width, width, size=(n, N))
            rows = np.concatenate([rows, rows[: n // 3]])
            for got, want in zip(laurent._groups(rows), lexsort_groups(rows)):
                assert np.array_equal(got, want), (N, n, width)

    @pytest.mark.parametrize("N,l,lam", [(3, 2, (1, 0, -1)),
                                         (4, 1, (1, 0, 0, -1))])
    def test_tri_expansion_bit_identical(self, monkeypatch, N, l, lam):
        """The p = 0 expansion merges complex coefficients: the same group
        order and within-group order give the same bits as the lexsort."""
        point, xi, rs, idx = searched_root(N, l, lam)
        rows, coef = states._EllipticOmega(point, xi, rs, idx).tri_expansion()
        monkeypatch.setattr(laurent, "_groups", lexsort_groups)
        ref_rows, ref_coef = states._EllipticOmega(point, xi, rs,
                                                   idx).tri_expansion()
        assert np.array_equal(rows, ref_rows)
        assert coef.tobytes() == ref_coef.tobytes()

    def test_overflow_refused_with_spans(self):
        """Rows whose span product passes int64 raise ResourceError naming
        the spans."""
        rows = np.array([[2 ** 21] * 3, [-2 ** 21] * 3], dtype=np.int64)
        span = 2 ** 22 + 1
        with pytest.raises(ResourceError, match=str([span] * 3)):
            laurent.merge(rows, np.ones(2, dtype=np.int64))

    def test_no_second_sort_path(self, monkeypatch):
        """Overflowing rows are refused, not handed to a lexsort."""
        def refused(*args, **kwargs):
            raise AssertionError("lexsort called")

        monkeypatch.setattr(np, "lexsort", refused)
        rows = np.array([[2 ** 21] * 3, [-2 ** 21] * 3], dtype=np.int64)
        with pytest.raises(ResourceError):
            laurent.merge(rows, np.ones(2, dtype=np.int64))
        merged, total = laurent.merge(np.array([[1, 2], [0, 5], [1, 2]]),
                                      np.array([1, 1, 1]))
        assert merged.tolist() == [[0, 5], [1, 2]] and total.tolist() == [1, 2]


class TestKeyMargin:
    """The largest objects the package's guards admit use row keys far
    below int64 (2^63)."""

    MARGIN = 2 ** 40

    def test_n2_l32_certificate(self, monkeypatch):
        seen = key_spans(monkeypatch)
        l, jack = 32, jack_expand((1, -1), Fraction(1, 33))
        point, _ = closed_form_n2(35, l)
        states._TRI_MEMO.clear()
        states.jack_proportionality(point, weight_from_lambda_coords([35], 2),
                                    jack, l)
        assert seen and max(seen) < self.MARGIN, max(seen)

    def test_n6_l1_tri_expansion(self, monkeypatch):
        seen = key_spans(monkeypatch)
        rs, idx = root_system(6, 1), build_indexing(6, 1)
        xi = lambda_to_xi(Weight([0] * 6), rs)
        rng = np.random.default_rng(1)
        t = rng.random(idx.m) * 0.3 + 0.1j * rng.random(idx.m)
        states._EllipticOmega(EllipticPoint(t, Nome(p=0.0)), xi, rs,
                              idx).tri_expansion()
        assert seen and max(seen) < self.MARGIN, max(seen)

    def test_rs_series_k_max_n4(self, monkeypatch):
        seen = key_spans(monkeypatch)
        perturb._states.cache_clear()
        perturb.rs_series((0, 0, 0, 0), 4, 1, perturb.K_MAX)
        assert seen and max(seen) < self.MARGIN, max(seen)
