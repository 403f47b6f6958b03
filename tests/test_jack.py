"""Tests for Jack polynomials, dominance order, the torus inner product, and
the trigonometric (Calogero-Sutherland) spectral identity.

Coefficients are exact rationals, so the hand-derivable 2/(1+alpha) family
and the shift-covariance identity are asserted exactly; orthogonality and
the eigen-relation are verified numerically over exhaustive small sweeps.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cmbethe.errors import DomainError
from cmbethe.jack import (
    JackExpansion,
    cs_apply,
    cs_quotient,
    dominance_leq,
    inner_product,
    jack_expand,
    partition,
)
from cmbethe.states import sample_torus_points
from cmbethe.weights import e0, jack_energy

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
        for N in (2, 3):
            for alpha in (HALF, THIRD):
                for total in range(0, 6):
                    for lam in partitions_of(total, N):
                        jk = jack_expand(lam, alpha)
                        assert jk.coeffs[lam] == 1
                        for mu in jk.coeffs:
                            mu_i = tuple(int(v) for v in mu)
                            assert sum(mu_i) == total
                            assert dominance_leq(mu_i, lam), (
                                f"{mu_i} not below {lam} in J_{lam}")

    def test_nonpositive_alpha_refused(self):
        with pytest.raises(DomainError):
            jack_expand((2, 0), 0)
        with pytest.raises(DomainError):
            jack_expand((2, 0), Fraction(-1, 2))


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
        N, l, h = 3, 2, 1e-3
        f = jack_expand((2, 1, 0), Fraction(1, 3)).evaluate
        op = cs_apply(f, l, N, fd_h=h)
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
