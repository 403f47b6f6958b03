"""Tests for the exact Laurent kernel's keys: one int64 mixed-radix key per
monomial over a fixed frame, against the N-column lexicographic sort and
the rows-based arithmetic it replaced (``rows_laurent``) and the dict idiom
(``laurent_dicts``); its overflow guard; the shift look-up of the
pairings; and the margin of the largest objects the package's guards
admit."""

import math
from fractions import Fraction

import numpy as np
import pytest

import cmbethe
from cmbethe import jack, laurent, perturb, states
from cmbethe.critical import closed_form_n2
from cmbethe.elliptic import Nome
from cmbethe.errors import ResourceError
from cmbethe.jack import _integer_partitions, _pad, jack_expand
from cmbethe.master import EllipticPoint
from cmbethe.weights import (Weight, build_indexing, lambda_to_xi,
                             root_system, weight_from_lambda_coords)
from laurent_dicts import delta_power, distinct_perms
import rows_laurent
from rows_laurent import lexsort_groups
from recursive_reachable import reachable_offsets
from test_states import searched_root


def key_groups(rows):
    """The grouping of ``lexsort_groups`` from the rows' keys in their
    least frame."""
    keys = laurent.frame_of(rows).encode(rows)
    order = np.argsort(keys, kind="stable")
    new = np.ones(len(rows), dtype=bool)
    new[1:] = keys[order][1:] != keys[order][:-1]
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order, np.flatnonzero(new), inverse


def key_spans(monkeypatch):
    """The list that collects the number of keys (the product of the
    column spans) of every frame built while it is in use, in every module
    that builds frames."""
    seen = []
    build = laurent.frame

    def recorded(lo, hi):
        fr = build(lo, hi)
        seen.append(math.prod((fr.hi - fr.lo + 1).tolist()))
        return fr

    for module in vars(cmbethe).values():
        if getattr(module, "frame", None) is build:
            monkeypatch.setattr(module, "frame", recorded)
    jack._degree_table.cache_clear()
    states._omega_index.cache_clear()
    return seen


def as_dict(rows, coef):
    return {tuple(r): c for r, c in zip(rows.tolist(), coef) if c}


def dict_product(numerators, power):
    """Delta^power Sum_nu numerators[nu] m_nu by the dict idiom."""
    N = len(next(iter(numerators)))
    out = {}
    for nu, n in numerators.items():
        for perm in distinct_perms(nu):
            for e, c in delta_power(N, power).items():
                key = tuple(a + b for a, b in zip(perm, e))
                out[key] = out.get(key, 0) + n * c
    return {e: c for e, c in out.items() if c}


class TestGroups:
    """Rows keyed in a frame order and group as the lexsort did."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_matches_lexsort(self, N):
        """Random int rows with negative entries and duplicates: the same
        order, group starts and group numbers."""
        rng = np.random.default_rng(N)
        for n, width in ((0, 3), (1, 3), (7, 2), (200, 3), (500, 40)):
            rows = rng.integers(-width, width, size=(n, N))
            rows = np.concatenate([rows, rows[: n // 3]])
            for got, want in zip(key_groups(rows), lexsort_groups(rows)):
                assert np.array_equal(got, want), (N, n, width)
            fr = laurent.frame_of(rows)
            assert np.array_equal(fr.decode(fr.encode(rows)), rows)

    @pytest.mark.parametrize("N,l,lam", [(3, 2, (1, 0, -1)),
                                         (4, 1, (1, 0, 0, -1)),
                                         (2, 3, (0, 0)), (2, 16, (1, -1)),
                                         (3, 1, (1, 0, -1)),
                                         (4, 1, (0, 0, 0, 0)),
                                         (4, 2, (0, 0, 0, 0))])
    def test_tri_expansion_bit_identical(self, N, l, lam):
        """The p = 0 expansion merges complex coefficients: the keyed walk
        sums each monomial in the order of the rows walk, so the bits are
        the same."""
        point, xi, rs, idx = searched_root(N, l, lam)
        omega = states._EllipticOmega(point, xi, rs, idx)
        rows, coef = omega.tri_expansion()
        ref_rows, ref_coef = rows_laurent.tri_expansion(omega)
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


class TestFrame:
    """The frame builder holds the one overflow guard."""

    def test_frame_overflow(self):
        span = [2 ** 16] * 4
        with pytest.raises(ResourceError, match=str(span)):
            laurent.frame([0] * 4, [2 ** 16 - 1] * 4)
        fr = laurent.frame([0] * 4, [2 ** 15 - 1] * 4)
        assert fr.radix.tolist() == [2 ** 45, 2 ** 30, 2 ** 15, 1]

    def test_product_overflow(self):
        """A Delta power whose frame passes int64 is refused before any
        product is formed."""
        power = 2 ** 15
        span = 3 * power + 1
        with pytest.raises(ResourceError, match=str([span] * 4 + [1])):
            jack.symmetric_times_delta([{(0, 0, 0, 0): 1}], power)


class TestSymmetricTimesDelta:
    """The keyed Delta^power product against the per-factor row products
    and the dict idiom, exactly, on the int64 path and on the Python-int
    path."""

    @staticmethod
    def _sets(N, total, l):
        """The numerators of up to three Jack polynomials of one degree
        table: labels of ``total`` boxes whose last part is 0."""
        labels = [_pad(nu, N) for nu in _integer_partitions(total, N - 1)]
        return [jack_expand(lam, Fraction(1, l + 1)).numerators
                for lam in labels[:3]]

    @pytest.mark.parametrize("N,total,l", [(2, 3, 1), (3, 4, 1), (3, 3, 2),
                                           (4, 3, 1)])
    def test_int64_path(self, N, total, l):
        sets = self._sets(N, total, l)
        power = l + 1
        norm = max(sum(abs(n) * len(distinct_perms(nu))
                       for nu, n in nums.items()) for nums in sets)
        assert norm << (power * N * (N - 1) // 2) <= laurent._INT64_MAX
        rows, mat = jack.symmetric_times_delta(sets, power)
        ref_rows, ref_mat = rows_laurent.symmetric_times_delta(sets, power)
        assert np.array_equal(rows, ref_rows)
        assert mat.tolist() == ref_mat.tolist()
        for s, nums in enumerate(sets):
            assert as_dict(rows, mat[:, s]) == dict_product(nums, power)

    def test_python_int_path(self):
        """The N=2 l=32 certificate's J Delta^64: past int64."""
        l, jack = 32, jack_expand((1, -1), Fraction(1, 33))
        nums = jack.numerators
        rows, coef = jack.times_delta(2 * l)
        assert sum(abs(c) for c in coef) > 2 ** 63
        assert as_dict(rows, coef) == dict_product(nums, 2 * l)
        ref_rows, ref_mat = rows_laurent.symmetric_times_delta([nums], 2 * l)
        assert np.array_equal(rows, ref_rows)
        assert coef.tolist() == ref_mat[:, 0].tolist()


class TestShiftLookup:
    """The pairings' shift d (e_1 - e_2) as a key offset."""

    def test_out_of_frame_not_aliased(self):
        """(2, 2) shifted by d = 1 is (1, 3), outside the frame of the
        rows (column 2 spans 0..2); its key offset lands on the key of
        (2, 0), which must not be paired."""
        rows = np.array([[1, 1], [2, 0], [2, 2]], dtype=np.int64)
        psi = np.array([[1], [2], [3]], dtype=object)
        fr = laurent.frame_of(rows)
        step = fr.radix[0] - fr.radix[1]
        assert fr.encode(rows[2:])[0] - step == fr.encode(rows[1:2])[0]
        norms, pairings = perturb._pairings(rows, psi, [1, 2])
        values = {tuple(r): c for r, c in zip(rows.tolist(), psi[:, 0])}
        for d in (1, 2):
            want = sum(c * values.get((r[0] - d, r[1] + d), 0)
                       for r, c in values.items())
            assert pairings[d][0, 0] == 2 * want
        assert pairings[1][0, 0] == 2 * 2 * 1
        assert norms.tolist() == [14]

    @pytest.mark.parametrize("N,l,lam,K", [(3, 1, (1, 0, -1), 3),
                                           (4, 1, (1, 0, 0, -1), 2)])
    def test_matches_row_lookup(self, N, l, lam, K):
        """Every shift d (e_1 - e_2) of a level's shared rows finds what a
        dict of the rows finds."""
        basis = reachable_offsets(lam, K - 1)
        rows, psi = perturb._states(tuple(basis), l)
        _, pairings = perturb._pairings(rows, psi, range(1, K + 1))
        where = {tuple(r): k for k, r in enumerate(rows.tolist())}
        for d in range(1, K + 1):
            want = np.zeros((len(basis), len(basis)), dtype=object)
            for r, k in where.items():
                at = where.get((r[0] - d, r[1] + d, *r[2:]))
                if at is not None:
                    want += np.outer(psi[k], psi[at])
            assert (pairings[d] == N * (N - 1) * want).all()


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
