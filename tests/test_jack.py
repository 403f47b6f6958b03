"""Tests for Jack polynomials, dominance order, the torus inner product, and
the trigonometric (Calogero-Sutherland) spectral identity.

Coefficients are exact rationals, so the hand-derivable 2/(1+alpha) family
and the shift-covariance identity are asserted exactly; orthogonality and
the eigen-relation are verified numerically over exhaustive small sweeps.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cmbethe import jack, perturb
from cmbethe.errors import DegeneracyError, DomainError
from cmbethe.jack import (
    JackExpansion,
    cs_apply,
    cs_quotient,
    dominance_leq,
    inner_product,
    jack_expand,
    partition,
)
from cmbethe.laurent import orbit
from cmbethe.perturb import rs_series
from cmbethe.states import _FD_STEP, sample_torus_points
from cmbethe.weights import e0, jack_energy
from fraction_jack import fraction_coefficients
from laurent_dicts import jack_coefficients

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def partitions_of(total, N):
    """All integer partitions of ``total`` into at most N non-negative parts,
    padded to length N."""
    out = {tuple(sorted(p, reverse=True))
           for p in itertools.product(range(total + 1), repeat=N)
           if sum(p) == total}
    return sorted(out, reverse=True)


class TestPartition:
    """Shifted-partition validation."""

    def test_accepts_integer_partition(self):
        assert partition((2, 1, 0)) == (2, 1, 0)

    def test_accepts_shifted_partition(self):
        assert partition((HALF, -HALF)) == (HALF, -HALF)

    def test_rejects_increasing(self):
        with pytest.raises(DomainError):
            partition((1, 2))

    def test_rejects_non_integer_differences(self):
        with pytest.raises(DomainError):
            partition((HALF, 0))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            partition(())

    @pytest.mark.parametrize("parts", [(math.inf, 0), (0, -math.inf),
                                       (math.nan, 0)])
    def test_rejects_non_finite(self, parts):
        with pytest.raises(DomainError):
            partition(parts)


class TestDominance:
    """The partial order by partial sums at equal total."""

    def test_square_dominates_column(self):
        assert dominance_leq((1, 1), (2, 0))
        assert not dominance_leq((2, 0), (1, 1))

    def test_different_totals_incomparable(self):
        assert not dominance_leq((2, 0), (1, 0))
        assert not dominance_leq((1, 0), (2, 0))

    def test_reflexive(self):
        assert dominance_leq((2, 1, 0), (2, 1, 0))
        assert dominance_leq((HALF, -HALF), (HALF, -HALF))


class TestJackExpand:
    """Triangular expansion in monomial symmetric functions."""

    def test_all_ones_is_single_monomial(self):
        jk = jack_expand((1, 1, 1), HALF)
        assert jk.coeffs == {(1, 1, 1): 1}

    def test_row_two_coefficients(self):
        for alpha in (HALF, THIRD, Fraction(2), Fraction(1)):
            jk = jack_expand((2, 0), alpha)
            assert jk.coeffs[(2, 0)] == 1
            assert jk.coeffs[(1, 1)] == 2 / (1 + alpha), (
                f"alpha={alpha}: {jk.coeffs}")
            assert len(jk.coeffs) == 2

    def test_shifted_half_integer_label(self):
        # J_{(1/2,-1/2)} = (X1 X2)^{-1/2} (X1 + X2): a single shifted monomial
        jk = jack_expand((HALF, -HALF), HALF)
        assert jk.coeffs == {(HALF, -HALF): 1}
        x = np.array([0.21, 0.57])
        ref = (np.exp(-1j * math.pi * (x[0] + x[1]))
               * (np.exp(2j * math.pi * x[0]) + np.exp(2j * math.pi * x[1])))
        assert abs(complex(jk.evaluate(x)) - complex(ref)) < 1e-14

    def test_shift_covariance(self):
        base = jack_expand((2, 0), HALF)
        for a in (1, -1):
            shifted = jack_expand((2 + a, a), HALF)
            expect = {tuple(p + a for p in mu): c
                      for mu, c in base.coeffs.items()}
            assert shifted.coeffs == expect, f"shift {a}: {shifted.coeffs}"

    def test_triangularity_exhaustive(self):
        """Labels that lam does not dominate read zero: the solve runs down
        every partition of the degree, not only lam's dominance ideal."""
        for N in (2, 3, 4):
            for alpha in (HALF, THIRD):
                for total in range(0, 9):
                    for lam in partitions_of(total, N):
                        jk = jack_expand(lam, alpha)
                        assert jk.coeffs[lam] == 1
                        for mu in jk.coeffs:
                            mu_i = tuple(int(v) for v in mu)
                            assert sum(mu_i) == total
                            assert dominance_leq(mu_i, lam), (
                                f"{mu_i} not below {lam} in J_{lam}")

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_matches_dict_columns(self, N):
        """The D(alpha) columns built as integer exponent matrices give the
        same exact coefficients as the rejected dict action on every
        monomial of the orbit, for every partition of at most 8 boxes."""
        for alpha in (HALF, Fraction(2, 3), Fraction(1, 5)):
            for total in range(0, 9):
                for lam in partitions_of(total, N):
                    assert jack_expand(lam, alpha).coeffs == \
                        jack_coefficients(lam, alpha), f"{lam} at {alpha}"

    def test_nonpositive_alpha_refused(self):
        with pytest.raises(DomainError):
            jack_expand((2, 0), 0)
        with pytest.raises(DomainError):
            jack_expand((2, 0), Fraction(-1, 2))

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan, None,
                                       "x", "1/0"])
    def test_unparseable_alpha_refused(self, alpha):
        with pytest.raises(DomainError):
            jack_expand((2, 0), alpha)
        with pytest.raises(DomainError):
            inner_product(np.ones_like, np.ones_like, alpha, 2, 4)


#: The alphas of the Fraction-oracle comparison.
ORACLE_ALPHAS = (THIRD, HALF, Fraction(2, 3), Fraction(1), Fraction(2))


def shifted_labels(N, max_degree=8):
    """Every partition of at most ``max_degree`` boxes into N parts, as is
    and shifted by -1/2 and 5/2."""
    for total in range(max_degree + 1):
        for lam in partitions_of(total, N):
            for shift in (0, -HALF, Fraction(5, 2)):
                yield tuple(p + shift for p in lam)


def outcome(solve):
    """The solve's result, or "DegeneracyError" if it raised one."""
    try:
        return solve()
    except DegeneracyError:
        return "DegeneracyError"


class TestFractionOracle:
    """The fraction-free integer solve against the rejected Fraction
    back-substitution it replaced (``fraction_jack``)."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_same_coefficients(self, N):
        """The same Fractions for every label of at most 8 boxes, shifted
        labels included, and the integer form is c * lcm over the lcm of
        the denominators."""
        for alpha in ORACLE_ALPHAS:
            for lam in shifted_labels(N):
                jk, want = jack_expand(lam, alpha), fraction_coefficients(
                    lam, alpha)
                assert jk.coeffs == want, f"{lam} at {alpha}"
                scale = math.lcm(*(c.denominator for c in want.values()))
                assert jk.denominator == scale
                assert jk.numerators == {
                    tuple(int(p - lam[-1]) for p in mu): int(c * scale)
                    for mu, c in want.items()}

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_same_refusals(self, N):
        """Both solves raise DegeneracyError at the same labels.  A positive
        alpha never collides (E_mu falls strictly down the dominance order),
        so the solve is driven with negative alphas, past jack_expand's
        guard, where collisions occur."""
        refused = 0
        for alpha in (-THIRD, -HALF, Fraction(-2, 3), Fraction(-1),
                      Fraction(-2)):
            for total in range(9):
                for lam in partitions_of(total, N):
                    got = outcome(lambda: jack._jack_solve(lam, 1 / alpha))
                    want = outcome(lambda: fraction_coefficients(lam, alpha))
                    if want == "DegeneracyError":
                        refused += 1
                        assert got == want, f"{lam} at {alpha}"
                        continue
                    nums, scale = got
                    assert {nu: Fraction(n, scale) for nu, n in nums.items()} \
                        == want, f"{lam} at {alpha}"
        assert refused, "no label reached a collision"


class TestDegreeTable:
    """Expansions of one degree share one table: its pair columns are built
    in one pass, once per (N, degree), for every alpha."""

    @staticmethod
    def _count_tables(monkeypatch):
        jack._jack_expand_cached.cache_clear()
        jack._degree_table.cache_clear()
        perturb._states.cache_clear()
        calls, built = Counter(), {}
        build = jack._pair_columns

        def counted(parts):
            key = len(parts[0]), sum(parts[0])
            calls[key] += 1
            built[key] = list(parts)
            return build(parts)

        monkeypatch.setattr(jack, "_pair_columns", counted)
        return calls, built

    def test_each_column_once_per_degree(self, monkeypatch):
        calls, built = self._count_tables(monkeypatch)
        degree = partitions_of(8, 4)
        for alpha in (HALF, THIRD):
            for lam in degree:
                if lam[-1] == 0:  # a positive last part shifts to a lower degree
                    jack_expand(lam, alpha)
        assert calls == Counter({(4, 8): 1})
        assert set(built[4, 8]) == set(degree)

    def test_rs_series_computes_each_column_once(self, monkeypatch):
        """One rs_series level builds one table: every basis label is raised
        by the lowest last part of the level, into one degree (the
        rs-series benchmark items)."""
        calls, _ = self._count_tables(monkeypatch)
        for lam, N, l, K in (((1, 0, -1), 3, 1, 5), ((1, 0, -1), 3, 2, 4),
                             ((0, 0, 0, 0), 4, 1, 2),
                             ((1, 0, 0, -1), 4, 1, 2)):
            calls.clear()
            jack._degree_table.cache_clear()
            rs_series(lam, N, l, K)
            assert sum(calls.values()) == 1, (lam, N, l, K, calls)


class TestShiftIdentity:
    """J_{mu + c(1,...,1)} = e_N^c J_mu with the same numerators: the solve
    on the shifted label returns mu's numerators, every key raised by c,
    over the same denominator, in the same order."""

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_shifted_solve(self, N):
        for inv_alpha in (Fraction(2), Fraction(3), Fraction(3, 2)):
            for total in range(7):
                for mu in partitions_of(total, N):
                    nums, scale = jack._jack_solve(mu, inv_alpha)
                    for c in (1, 2, 3):
                        raised = tuple(p + c for p in mu)
                        got, got_scale = jack._jack_solve(raised, inv_alpha)
                        assert got_scale == scale, (mu, c, inv_alpha)
                        assert list(got.items()) == [
                            (tuple(p + c for p in nu), n)
                            for nu, n in nums.items()], (mu, c, inv_alpha)


class TestOrbit:
    """The cached distinct permutations of an exponent vector."""

    def test_read_only(self):
        rows = orbit((2, 1, 1))
        with pytest.raises(ValueError):
            rows[0, 0] = 5

    def test_repeated_calls_equal(self):
        first = orbit([3, 1, 1, 0]).copy()
        for nu in ((3, 1, 1, 0), np.array([3, 1, 1, 0]), [3, 1, 1, 0]):
            assert np.array_equal(orbit(nu), first)
        assert len(first) == 12
        assert np.array_equal(first, np.unique(first, axis=0))


class TestInnerProduct:
    """Torus inner product with the |Delta|^{2/alpha} weight."""

    def test_different_degrees_orthogonal(self):
        f = jack_expand((1, 0), HALF).evaluate
        g = jack_expand((2, 0), HALF).evaluate
        assert abs(inner_product(f, g, HALF, 2, 16)) < 1e-12

    def test_equal_degree_orthogonal(self):
        f = jack_expand((2, 0), HALF).evaluate
        g = jack_expand((1, 1), HALF).evaluate
        norm = math.sqrt(
            inner_product(f, f, HALF, 2, 16).real
            * inner_product(g, g, HALF, 2, 16).real)
        assert abs(inner_product(f, g, HALF, 2, 16)) < 1e-12 * norm

    def test_norm_positive(self):
        for lam in [(1, 0), (2, 0), (2, 1), (1, 1)]:
            f = jack_expand(lam, HALF).evaluate
            val = inner_product(f, f, HALF, 2, 16)
            assert val.real > 0 and abs(val.imag) < 1e-12 * val.real

    def test_gram_diagonal_exhaustive(self):
        # all |mu| <= 5, N <= 3, alpha in {1/2, 1/3}: off-diagonal < 1e-9 rel
        worst = 0.0
        for N in (2, 3):
            for alpha in (HALF, THIRD):
                for total in range(1, 6):
                    jks = [jack_expand(lam, alpha)
                           for lam in partitions_of(total, N)]
                    norms = [inner_product(j.evaluate, j.evaluate, alpha, N,
                                           32).real for j in jks]
                    for i in range(len(jks)):
                        for j in range(i + 1, len(jks)):
                            v = abs(inner_product(jks[i].evaluate,
                                                  jks[j].evaluate,
                                                  alpha, N, 32))
                            worst = max(worst,
                                        v / math.sqrt(norms[i] * norms[j]))
        assert worst < 1e-9, f"worst off-diagonal: {worst}"

    def test_non_integer_inverse_alpha_refused(self):
        f = jack_expand((1, 0), HALF).evaluate
        with pytest.raises(DomainError):
            inner_product(f, f, Fraction(2, 3), 2, 16)


class TestCsApply:
    """H_CS applied to f * Delta_s^{l+1} by finite differences."""

    def test_ground_state_quotient(self):
        def one(x):
            return np.ones(np.atleast_2d(x).shape[0], dtype=complex)

        for N, l in [(2, 1), (3, 1), (2, 2)]:
            q = cs_quotient(one, l, N)
            assert abs(q.real - e0(N, l)) < 1e-4 * e0(N, l), (
                f"N={N} l={l}: {q} vs {e0(N, l)}")

    def test_half_integer_label_quotient(self):
        jk = jack_expand((HALF, -HALF), HALF)
        q = cs_quotient(jk.evaluate, 1, 2)
        target = 9 * math.pi ** 2
        assert abs(q.real - target) < 1e-4 * target, f"{q} vs {target}"

    def test_linearity_pointwise(self):
        f = jack_expand((1, 0), HALF).evaluate
        g = jack_expand((1, 1), HALF).evaluate

        def combo(x):
            return 2.0 * np.atleast_1d(f(x)) - 3.0 * np.atleast_1d(g(x))

        pts = np.array([[0.2, 0.55], [0.8, 0.31], [0.45, 0.9]])
        lhs = np.atleast_1d(cs_apply(combo, 1, 2)(pts))
        rhs = (2.0 * np.atleast_1d(cs_apply(f, 1, 2)(pts))
               - 3.0 * np.atleast_1d(cs_apply(g, 1, 2)(pts)))
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs)), (
            f"linearity violated: {lhs} vs {rhs}")

    def test_matches_sine_stencil(self):
        """cs_apply is the elliptic stencil at p = 0; a stencil written with
        pi^2/sin^2 directly gives the same H psi to rounding."""
        N, l, h = 3, 2, _FD_STEP
        f = jack_expand((2, 1, 0), Fraction(1, 3)).evaluate
        op = cs_apply(f, l, N)
        pts = sample_torus_points(N, 16, seed=3)
        center = op.psi(pts)
        ref = l * (l + 1) * math.pi ** 2 * center * sum(
            1.0 / np.sin(math.pi * (pts[:, i] - pts[:, j])) ** 2
            for i in range(N) for j in range(i + 1, N))
        for i in range(N):
            e = np.zeros(N)
            e[i] = h
            ref -= 0.5 * (op.psi(pts + e) - 2 * center
                          + op.psi(pts - e)) / h ** 2
        hv = op(pts)
        assert np.max(np.abs(hv - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert abs(op(pts[0]) - hv[0]) <= 1e-12 * abs(hv[0])
        q = complex(np.vdot(center, ref) / np.vdot(center, center).real)
        assert abs(cs_quotient(f, l, N, grid_n=16, seed=3) - q) <= 1e-12 * abs(q)

    def test_eigen_relation_exhaustive(self):
        # quotient = e0 + 2 pi^2 E_lam for all |lam| <= 4, N <= 3, l <= 2
        worst = 0.0
        for N in (2, 3):
            for l in (1, 2):
                alpha = Fraction(1, l + 1)
                for total in range(0, 5):
                    for lam in partitions_of(total, N):
                        jk = jack_expand(lam, alpha)
                        q = cs_quotient(jk.evaluate, l, N)
                        target = e0(N, l) + 2 * math.pi ** 2 * float(
                            jack_energy([Fraction(v) for v in lam], alpha, N))
                        worst = max(worst, abs(q.real - target) / abs(target))
        assert worst < 1e-4, f"worst eigen-relation error: {worst}"


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
