"""Tests for the theta / Weierstrass layer.

Covers the series conventions (trig limits at p = 0, quasi-periodicity),
x- and tau-derivatives against finite differences, the constant-free Laurent
normalization of wp, an independent lattice-sum oracle for wp, and the two
eta constants against independent divisor-sum series.  The Clenshaw
kernel is checked series by series against the direct per-term sum it
replaced (``direct_theta``).
"""

import cmath
import math

import numpy as np
import pytest

from cmbethe.elliptic import (
    _SERIES,
    Nome,
    SigmaTable,
    _theta_hat,
    ThetaValue,
    eta_const,
    lattice_distance,
    log_theta_d1,
    log_theta_d2,
    log_theta_dtau,
    log_theta_jet,
    sigma_lambda,
    theta,
    theta1,
    wp,
    wp_shifted,
)
from cmbethe import elliptic
from cmbethe.errors import AccuracyError, DomainError, PoleError
from direct_theta import theta_hat_direct


class TestNome:
    """Construction and validation of the elliptic modulus."""

    def test_requires_exactly_one_of_p_or_tau(self):
        with pytest.raises(DomainError):
            Nome()
        with pytest.raises(DomainError):
            Nome(p=0.1, tau=0.5j)

    def test_p_magnitude_must_be_less_than_one(self):
        with pytest.raises(DomainError):
            Nome(p=1.0)
        with pytest.raises(DomainError):
            Nome(p=-1.2)

    def test_tau_must_have_positive_imaginary_part(self):
        with pytest.raises(DomainError):
            Nome(tau=0.3)
        with pytest.raises(DomainError):
            Nome(tau=0.3 - 0.2j)

    def test_non_finite_nome_refused(self):
        nan, inf = float("nan"), float("inf")
        for p in (nan, complex(0.01, nan), complex(nan, 0.0)):
            with pytest.raises(DomainError):
                Nome(p=p)
        for tau in (complex(0.0, nan), complex(nan, 0.5), complex(0.1, inf)):
            with pytest.raises(DomainError):
                Nome(tau=tau)

    def test_p_tau_roundtrip(self):
        nm = Nome(tau=0.37j)
        expected = cmath.exp(2j * math.pi * 0.37j)
        assert abs(nm.p - expected) < 1e-15, f"p from tau: {nm.p} vs {expected}"
        nm2 = Nome(p=nm.p)
        assert abs(nm2.tau - 0.37j) < 1e-14, f"tau roundtrip: {nm2.tau}"

    def test_trigonometric_limit_has_no_tau(self):
        nm = Nome(p=0.0)
        assert nm.tau is None
        assert nm.g == 0

    def test_bare_nome_values_are_accepted_by_evaluators(self):
        direct = wp(0.3, Nome(p=0.05))
        bare = wp(0.3, 0.05)
        assert abs(direct - bare) < 1e-15


class TestThetaBasics:
    """Values, zeros and periodicity of theta1 and the normalized theta."""

    def test_theta1_vanishes_at_zero(self):
        for p in (0.0, 0.01, 0.1, 0.3):
            val = theta1(0.0, Nome(p=p)).value
            assert abs(val) == 0.0, f"theta1(0; p={p}) = {val}"

    def test_theta_is_odd(self):
        nm = Nome(p=0.1)
        for x in (0.17, 0.42 + 0.1j, -0.9):
            s = theta(x, nm).value + theta(-x, nm).value
            assert abs(s) < 1e-15, f"theta odd at {x}: {s}"

    def test_theta_normalization_slope_is_one(self):
        for p in (0.0, 0.02, 0.1, 0.25):
            tv = theta(0.0, Nome(p=p))
            assert abs(tv.value) == 0.0
            assert abs(tv.d_x - 1.0) < 1e-14, f"theta'(0; p={p}) = {tv.d_x}"

    def test_trig_limit_at_half_period(self):
        val = theta(0.5, Nome(p=0.0)).value
        assert abs(val - 1.0 / math.pi) < 1e-15, f"theta(1/2; p=0) = {val}"

    def test_trig_limit_generic_point(self):
        nm = Nome(p=0.0)
        for x in (0.1, 0.3, 0.77, 1.4):
            val = theta(x, nm).value
            expected = math.sin(math.pi * x) / math.pi
            assert abs(val - expected) < 1e-15, f"theta({x}; p=0) = {val} vs {expected}"

    def test_small_nome_is_order_p_from_trig(self):
        p = 1e-2
        val = theta(0.3, Nome(p=p)).value
        trig = math.sin(0.3 * math.pi) / math.pi
        assert abs(val - trig) < 2 * p, f"|theta - trig| = {abs(val - trig)}"
        # and the agreement sharpens linearly with p
        val2 = theta(0.3, Nome(p=p / 10)).value
        assert abs(val2 - trig) < 0.2 * p

    def test_antiperiodicity_in_first_period(self):
        nm = Nome(p=0.1)
        for x in (0.23, -0.4 + 0.2j):
            lhs = theta1(x + 1.0, nm).value
            rhs = -theta1(x, nm).value
            assert abs(lhs - rhs) < 1e-14 * max(1.0, abs(rhs)), \
                f"theta1(x+1) != -theta1(x) at {x}"

    def test_quasi_periodicity_in_tau(self):
        nm = Nome(p=0.1)
        tau = nm.tau
        for x in (0.23 + 0.11j, 0.6, -0.31 + 0.05j):
            lhs = theta1(x + tau, nm).value
            rhs = -cmath.exp(-1j * math.pi * tau - 2j * math.pi * x) * theta1(x, nm).value
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs)), \
                f"theta1 quasi-periodicity fails at {x}: {lhs} vs {rhs}"

    def test_normalized_theta_inherits_both_periodicities(self):
        nm = Nome(p=0.07)
        tau = nm.tau
        x = 0.37 + 0.02j
        base = theta(x, nm).value
        assert abs(theta(x + 1, nm).value + base) < 1e-14
        factor = -cmath.exp(-1j * math.pi * tau - 2j * math.pi * x)
        assert abs(theta(x + tau, nm).value - factor * base) < 1e-13

    def test_vectorized_evaluation_matches_scalar(self):
        nm = Nome(p=0.1)
        xs = np.array([0.11, 0.52 + 0.1j, -0.73, 1.9])
        vec = theta(xs, nm)
        for i, x in enumerate(xs):
            sc = theta(complex(x), nm)
            assert abs(vec.value[i] - sc.value) < 1e-15
            assert abs(vec.d_x[i] - sc.d_x) < 1e-14
            assert abs(vec.d_tau[i] - sc.d_tau) < 1e-14


class TestTauDerivatives:
    """Series tau-derivatives against central finite differences in tau."""

    @staticmethod
    def _fd_tau(fn, x, tau0, delta=1e-5):
        hi = fn(x, Nome(tau=tau0 + delta)).value
        lo = fn(x, Nome(tau=tau0 - delta)).value
        return (hi - lo) / (2 * delta)

    def test_theta1_d_tau_matches_finite_difference(self):
        tau0 = 0.35j
        for x in (0.27, 0.61 + 0.08j):
            series = theta1(x, Nome(tau=tau0)).d_tau
            fd = self._fd_tau(theta1, x, tau0)
            assert abs(series - fd) < 1e-7 * max(1.0, abs(series)), \
                f"theta1 d_tau at {x}: {series} vs FD {fd}"

    def test_theta_d_tau_matches_finite_difference(self):
        tau0 = 0.35j
        for x in (0.27, 0.61 + 0.08j):
            series = theta(x, Nome(tau=tau0)).d_tau
            fd = self._fd_tau(theta, x, tau0)
            assert abs(series - fd) < 1e-7 * max(1.0, abs(series)), \
                f"theta d_tau at {x}: {series} vs FD {fd}"

    def test_log_theta_dtau_matches_finite_difference(self):
        tau0 = 0.3j
        x = 0.41
        delta = 1e-5
        hi = cmath.log(theta(x, Nome(tau=tau0 + delta)).value)
        lo = cmath.log(theta(x, Nome(tau=tau0 - delta)).value)
        fd = (hi - lo) / (2 * delta)
        series = log_theta_dtau(x, Nome(tau=tau0))
        assert abs(series - fd) < 1e-7, f"log-theta d_tau: {series} vs FD {fd}"

    def test_log_theta_dtau_vanishes_in_trig_limit(self):
        val = log_theta_dtau(0.3, Nome(p=0.0))
        assert abs(val) == 0.0, f"d_tau log theta at p=0: {val}"

    def test_heat_equation(self):
        """theta1 satisfies d^2/dx^2 theta1 = 4 pi i d/dtau theta1."""
        nm = Nome(p=0.13)
        h = 1e-5
        for x in (0.33, 0.71 + 0.04j):
            d_xx = (theta1(x + h, nm).d_x - theta1(x - h, nm).d_x) / (2 * h)
            rhs = 4j * math.pi * theta1(x, nm).d_tau
            assert abs(d_xx - rhs) < 1e-6 * max(1.0, abs(rhs)), \
                f"heat equation at {x}: {d_xx} vs {rhs}"


class TestLogDerivatives:
    """The logarithmic x-derivatives used by the master function layer."""

    def test_log_theta_d1_trig_limit_is_pi_cot(self):
        nm = Nome(p=0.0)
        for x in (0.13, 0.77):
            val = log_theta_d1(x, nm)
            expected = math.pi / math.tan(math.pi * x)
            assert abs(val - expected) < 1e-12, f"zeta_theta({x}) = {val} vs {expected}"

    def test_log_theta_d2_trig_limit(self):
        nm = Nome(p=0.0)
        for x in (0.13, 0.77):
            val = log_theta_d2(x, nm)
            expected = -math.pi ** 2 / math.sin(math.pi * x) ** 2
            assert abs(val - expected) < 1e-10, f"(log theta)''({x}) = {val}"

    def test_jet_value_is_normalized_theta(self):
        x = np.array([0.13, 0.31 - 0.2j, 0.77 + 0.4j])
        for p in (0.0, 0.1, 0.2 + 0.1j):
            nm = Nome(p=p)
            value, d1, d2 = log_theta_jet(x, nm)
            assert np.array_equal(value, theta(x, nm).value)
            assert np.allclose(d1, theta(x, nm).d_x / theta(x, nm).value,
                               rtol=1e-13, atol=0)
        with pytest.raises(PoleError):
            log_theta_jet(np.array([0.3, 1.0]), Nome(p=0.1))

    def test_log_theta_d1_is_odd_and_periodic(self):
        nm = Nome(p=0.1)
        x = 0.29
        assert abs(log_theta_d1(-x, nm) + log_theta_d1(x, nm)) < 1e-13
        assert abs(log_theta_d1(x + 1, nm) - log_theta_d1(x, nm)) < 1e-12

    def test_log_theta_d2_consistent_with_d1_finite_difference(self):
        nm = Nome(p=0.17)
        h = 1e-5
        for x in (0.31, 0.58):
            fd = (log_theta_d1(x + h, nm) - log_theta_d1(x - h, nm)) / (2 * h)
            val = log_theta_d2(x, nm)
            assert abs(val - fd) < 1e-5 * max(1.0, abs(val)), \
                f"(log theta)'' vs FD at {x}: {val} vs {fd}"


class TestSigma:
    """The two-variable sigma kernel entering the Bethe vector."""

    def test_trig_limit_closed_form(self):
        nm = Nome(p=0.0)
        for lam, x in ((0.21, 0.55), (0.83, 0.15), (0.4, 1.3)):
            val = sigma_lambda(lam, x, nm)
            expected = math.pi * math.sin(math.pi * (x - lam)) / (
                math.sin(math.pi * x) * math.sin(math.pi * lam))
            assert abs(val - expected) < 1e-11, \
                f"sigma_{lam}({x}) at p=0: {val} vs {expected}"

    def test_periodic_in_x_by_one(self):
        nm = Nome(p=0.1)
        val0 = sigma_lambda(0.3, 0.45, nm)
        val1 = sigma_lambda(0.3, 1.45, nm)
        assert abs(val0 - val1) < 1e-12, f"sigma not 1-periodic: {val0} vs {val1}"

    def test_tau_quasi_periodicity_factor(self):
        """sigma_lam(x + tau) = exp(2 pi i lam) sigma_lam(x)."""
        nm = Nome(p=0.1)
        tau = nm.tau
        lam, x = 0.3, 0.45 + 0.07j
        lhs = sigma_lambda(lam, x + tau, nm)
        rhs = cmath.exp(2j * math.pi * lam) * sigma_lambda(lam, x, nm)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs), f"{lhs} vs {rhs}"

    def test_zero_at_x_equal_lambda(self):
        nm = Nome(p=0.1)
        assert abs(sigma_lambda(0.37, 0.37, nm)) == 0.0

    def test_pole_guard_on_both_arguments(self):
        nm = Nome(p=0.1)
        with pytest.raises(PoleError):
            sigma_lambda(0.3, 1.0, nm)
        with pytest.raises(PoleError):
            sigma_lambda(0.0, 0.3, nm)


    def test_broadcast_table_on_unbroadcast_kernels(self, monkeypatch):
        """lam (M, P, 1) against x (U,): each entry equals the scalar call,
        and theta(x), theta(lam) run on their own shapes, not the table's."""
        from cmbethe import elliptic
        nm = Nome(p=0.3)
        rng = np.random.default_rng(4)
        lam = (rng.uniform(0.1, 0.9, size=(5, 6)) + 0j)[:, :, None]
        x = np.array([0.21 + 0.05j, 0.47 - 0.11j, 0.68 + 0.02j, 0.83 + 0.13j])
        sigma_lambda(0.3, 0.45, nm)          # caches theta'(0) for this nome
        sizes = []
        kernel = elliptic._theta_hat

        def counting(arg, *rest):
            sizes.append(arg.size)
            return kernel(arg, *rest)

        monkeypatch.setattr(elliptic, "_theta_hat", counting)
        table = sigma_lambda(lam, x, nm)
        assert sorted(sizes) == [4, 30, 120]
        monkeypatch.undo()
        assert table.shape == (5, 6, 4)
        for (i, j, k), val in np.ndenumerate(table):
            ref = sigma_lambda(complex(lam[i, j, 0]), complex(x[k]), nm)
            assert abs(val - ref) <= 1e-14 * abs(ref), (i, j, k, val, ref)


class TestSigmaTable:
    """sigma_(+-lam)(u) for real (pairs, M) lam by one harmonic matrix
    product, rows (pair, orientation, u) over the M points, against its
    oracle ``sigma_lambda``, entry by entry."""

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.2 + 0.1j])
    def test_matches_sigma_lambda(self, p):
        nm = Nome(p=p)
        rng = np.random.default_rng(11)
        u = rng.uniform(-1.0, 2.0, 7) + 1j * rng.uniform(-0.3, 0.3, 7)
        near = [1e-6, -1e-6, 1e-3, 0.5, 0.5 + 1e-9, 0.5 - 1e-9, -0.5, 1.5]
        lam = np.concatenate([rng.uniform(-1.5, 1.5, 40), near]).reshape(6, 8)
        table = SigmaTable(u, nm)(lam)
        assert table.shape == (6, 2, 7, 8)
        assert table.flags.c_contiguous
        for order, sign in enumerate((1.0, -1.0)):
            ref = sigma_lambda(sign * lam[:, None, :], u[:, None], nm)
            rel = np.abs(table[:, order] - ref) / np.abs(ref)
            assert float(rel.max()) <= 1e-13, (order, float(rel.max()))

    def test_theta_of_u_once_per_table(self, monkeypatch):
        """theta_hat(u) and the weights are built at the first call only, as
        read-only arrays; K is the rigorous count at max |Im u|."""
        nm = Nome(p=0.3)
        u = np.array([0.21 + 0.05j, 0.47 - 0.11j, 0.68 + 0.02j])
        tab = SigmaTable(u, nm)
        assert tab.terms == elliptic._term_count(nm, 0.11)
        sizes = []
        kernel = elliptic._theta_hat

        def counting(arg, *rest):
            sizes.append(arg.size)
            return kernel(arg, *rest)

        monkeypatch.setattr(elliptic, "_theta_hat", counting)
        tab(np.array([[0.1, 0.3]]))
        tab(np.array([[0.2], [0.6]]))
        assert sizes == [3]
        assert not tab._weights.flags.writeable
        assert not tab.u.flags.writeable

    def test_pole_guards(self):
        """An integer lam raises at every call; a u on the lattice raises at
        the first call, not at construction."""
        nm = Nome(p=0.1)
        tab = SigmaTable([0.3 + 0.1j], nm)
        with pytest.raises(PoleError):
            tab(np.array([[0.2, 1.0]]))
        on_lattice = SigmaTable([0.3, 1.0 + nm.tau], nm)
        with pytest.raises(PoleError):
            on_lattice(np.array([[0.2]]))


class TestWp:
    """The Weierstrass function in the constant-free Laurent normalization."""

    def test_laurent_expansion_has_no_constant(self):
        nm = Nome(p=0.1)
        for x, tol in ((1e-3, 1e-8), (1e-4, 1e-11)):
            val = x * x * wp(x, nm)
            assert abs(val - 1.0) < tol, f"x^2 wp(x) at x={x}: {val}"

    def test_trig_limit_value(self):
        val = wp(0.3, Nome(p=0.0))
        expected = math.pi ** 2 / math.sin(0.3 * math.pi) ** 2 - math.pi ** 2 / 3.0
        assert abs(val - expected) < 1e-12, f"wp(0.3; p=0) = {val} vs {expected}"
        assert abs(val - 11.789545569105885) < 1e-12

    def test_periodic_in_both_periods(self):
        nm = Nome(p=0.1)
        tau = nm.tau
        x = 0.31 + 0.04j
        base = wp(x, nm)
        assert abs(wp(x + 1, nm) - base) < 1e-11 * max(1.0, abs(base))
        assert abs(wp(x + tau, nm) - base) < 1e-11 * max(1.0, abs(base))

    def test_even(self):
        nm = Nome(p=0.2)
        x = 0.27
        assert abs(wp(-x, nm) - wp(x, nm)) < 1e-12

    def test_against_lattice_sum_oracle(self):
        """wp from the theta series must match the row-resummed lattice sum

            pi^2/sin^2(pi z) - pi^2/3
              + pi^2 Sum_{n>=1} [ 1/sin^2(pi(z+n tau)) + 1/sin^2(pi(z-n tau))
                                  - 2/sin^2(pi n tau) ],

        an independent classical representation (each bracket vanishes at
        z = 0, so this normalization is also constant-free)."""
        nm = Nome(p=0.1)
        tau = nm.tau

        def oracle(z, rows=60):
            total = 1.0 / np.sin(math.pi * z) ** 2 - 1.0 / 3.0
            for n in range(1, rows + 1):
                total += (1.0 / np.sin(math.pi * (z + n * tau)) ** 2
                          + 1.0 / np.sin(math.pi * (z - n * tau)) ** 2
                          - 2.0 / np.sin(math.pi * n * tau) ** 2)
            return math.pi ** 2 * total

        rng = np.random.default_rng(7)
        for _ in range(10):
            z = complex(0.05 + 0.9 * rng.random(), 0.25 * (rng.random() - 0.5))
            diff = abs(wp(z, nm) - oracle(z))
            assert diff < 1e-6, f"wp vs lattice sum at {z}: diff={diff}"

    def test_pole_guard(self):
        nm = Nome(p=0.1)
        for bad in (0.0, 1.0, -2.0, nm.tau, 1 + nm.tau):
            with pytest.raises(PoleError):
                wp(bad, nm)


def _eta_unweighted(p):
    """The rejected eta convention pi^2 (1/6 - 4 Sum p^n/(1-p^n)), kept as
    test evidence: it agrees with the library's quasi-period eta at O(p)
    only (the library's wp_shifted once offered it as an option)."""
    total, p_n = 0.0, 1.0
    for _ in range(1, 100000):
        p_n *= p
        if p_n == 0:
            break
        term = p_n / (1.0 - p_n)
        total += term
        if abs(term) <= 1e-16 * max(1.0, abs(total)):
            break
    return math.pi ** 2 * (1.0 / 6.0 - 4.0 * total)


class TestEtaConstants:
    """The library's (weighted, quasi-period) eta series and the rejected
    unweighted one."""

    def test_trig_limit_is_pi_squared_over_six(self):
        for val in (_eta_unweighted(0.0), eta_const(Nome(p=0.0))):
            assert abs(val - math.pi ** 2 / 6.0) < 1e-15, f"eta(p=0) = {val}"

    def test_real_for_real_nome(self):
        val = eta_const(Nome(p=0.1))
        assert isinstance(val, float), f"eta should be real for real p, got {val!r}"

    @staticmethod
    def _divisor_sum_series(p, weighted, terms=220):
        """Independent oracle: Sum_n n^w p^n/(1-p^n) = Sum_m sigma_w(m) p^m,
        with sigma_0 the divisor count and sigma_1 the divisor sum."""
        total = 0.0
        for m in range(1, terms + 1):
            divisors = [d for d in range(1, m + 1) if m % d == 0]
            coeff = sum(divisors) if weighted else len(divisors)
            total += coeff * p ** m
        return math.pi ** 2 * (1.0 / 6.0 - 4.0 * total)

    def test_unweighted_against_divisor_count_series(self):
        for p in (0.05, 0.1, 0.2):
            val = _eta_unweighted(p)
            oracle = self._divisor_sum_series(p, weighted=False)
            assert abs(val - oracle) < 1e-13, f"eta(p={p}): {val} vs {oracle}"

    def test_weighted_against_divisor_sum_series(self):
        for p in (0.05, 0.1, 0.2):
            val = eta_const(Nome(p=p))
            oracle = self._divisor_sum_series(p, weighted=True)
            assert abs(val - oracle) < 1e-13, f"eta_w(p={p}): {val} vs {oracle}"

    def test_frozen_value_at_p_one_tenth(self):
        # the inner sum Sum p^n/(1-p^n) at p = 0.1 is 0.12232404557909517...
        val = _eta_unweighted(0.1)
        assert abs(val - (-3.1842334982701304)) < 1e-12, f"eta(0.1) = {val}"

    def test_weighted_equals_theta_third_derivative_ratio(self):
        """eta_w = -(1/6) theta1'''(0)/theta1'(0), via finite differences."""
        nm = Nome(p=0.13)
        h = 1e-4
        d1 = theta1(0.0, nm).d_x
        d3 = (theta1(h, nm).d_x - 2 * d1 + theta1(-h, nm).d_x) / h ** 2
        fd_eta = -d3 / d1 / 6.0
        val = eta_const(nm)
        assert abs(val - fd_eta) < 1e-5, f"eta_w {val} vs FD {fd_eta}"


class TestWpShifted:
    """wp + 2 eta, the potential entering the shifted Hamiltonian."""

    def test_weighted_trig_limit_is_exact(self):
        nm = Nome(p=0.0)
        for x in (0.17, 0.44, 0.81):
            val = wp_shifted(x, nm)
            expected = math.pi ** 2 / math.sin(math.pi * x) ** 2
            assert abs(val - expected) < 1e-11, \
                f"wp_shifted({x}; p=0) = {val} vs {expected}"

    def test_default_uses_weighted_eta(self):
        nm = Nome(p=0.1)
        x = 0.3
        assert wp_shifted(x, nm) == wp(x, nm) + 2 * eta_const(nm)
        # the rejected unweighted eta shifts the potential by a constant
        gap = wp_shifted(x, nm) - (wp(x, nm) + 2 * _eta_unweighted(0.1))
        assert abs(gap - 2 * (eta_const(nm) - _eta_unweighted(0.1))) < 1e-12

    def test_fourier_cosine_expansion(self):
        """With the weighted eta, for real s:

            wp(s) + 2 eta_w = pi^2/sin^2(pi s)
                              - 8 pi^2 Sum_{m>=1} p^m Sum_{k | m} k cos(2 pi k s),

        the expansion that feeds the perturbation series."""
        p = 0.1
        nm = Nome(p=p)
        for s in (0.21, 0.48, 0.77):
            series = math.pi ** 2 / math.sin(math.pi * s) ** 2
            for m in range(1, 160):
                inner = sum(k * math.cos(2 * math.pi * k * s)
                            for k in range(1, m + 1) if m % k == 0)
                series -= 8 * math.pi ** 2 * p ** m * inner
            val = wp_shifted(s, nm)
            assert abs(val - series) < 1e-11, f"Fourier oracle at s={s}: {val} vs {series}"


class TestLatticeDistance:
    """The helper deciding pole proximity."""

    def test_distances(self):
        nm = Nome(p=0.1)
        assert abs(lattice_distance(0.5, nm) - 0.5) < 1e-15
        assert lattice_distance(1.0 + nm.tau, nm) < 1e-14
        assert abs(lattice_distance(3.0 + 1e-13, nm)) < 1e-12

    def test_trig_limit_measures_distance_to_integers(self):
        nm = Nome(p=0.0)
        assert abs(lattice_distance(2.3, nm) - 0.3) < 1e-15
        assert abs(lattice_distance(-0.4, nm) - 0.4) < 1e-15


class TestClenshawKernel:
    """``_theta_hat`` (one sin and one cos per point, Clenshaw's recurrence
    over the terms) against the direct per-term sum, all six series."""

    @staticmethod
    def _points(seed):
        rng = np.random.default_rng(seed)
        near = rng.uniform(-1e-3, 1e-3, size=12)
        return np.concatenate([
            rng.uniform(-1.0, 1.0, size=40) + 1j * rng.uniform(-0.6, 0.6, size=40),
            near[:6] + 0j, 0.5 + near[6:] + 0j])

    @staticmethod
    def _max_gap(p, x):
        nm = Nome(p=p)
        fast = _theta_hat(x, nm, _SERIES)
        direct = theta_hat_direct(x, nm, _SERIES)
        return {name: float(np.max(np.abs(f - d) / np.abs(d)))
                for name, f, d in zip(_SERIES, fast, direct)}

    @pytest.mark.parametrize("p", [0.01, 0.05, 0.3, -0.25, 0.2 + 0.1j])
    def test_matches_direct_sum(self, p):
        gaps = self._max_gap(p, self._points(11))
        assert max(gaps.values()) <= 1e-11, gaps

    def test_matches_direct_sum_at_large_nome(self):
        # at p = 0.6 the direct sum is the less accurate of the two
        gaps = self._max_gap(0.6, self._points(12))
        assert max(gaps.values()) <= 1e-10, gaps

    def test_series_do_not_depend_on_the_request(self):
        x, nm = self._points(13), Nome(p=0.3)
        every = _theta_hat(x, nm, _SERIES)
        for i, name in enumerate(_SERIES):
            alone, = _theta_hat(x, nm, (name,))
            assert np.array_equal(alone, every[i]), name

    def test_trig_limit_is_sin_bit_for_bit(self):
        x = np.concatenate([self._points(14), [0j, -0.0 + 0j, 0.5 + 0j]])
        s0, = _theta_hat(x, Nome(p=0.0), ("s0",))
        assert s0.tobytes() == np.sin(np.pi * x).tobytes()


class TestTruncation:
    """The term count stops at the first negligible term: the per-term
    bounds |c_n| (1 + k^3) exp(k |Im x|) are log-concave in n, so that term
    bounds the whole tail."""

    @staticmethod
    def _bounds(p, im_max, count):
        g = Nome(p=p).g
        return [abs(g ** (n * (n - 1))) * (1 + ((2 * n - 1) * math.pi) ** 3)
                * math.exp((2 * n - 1) * math.pi * im_max)
                for n in range(1, count + 1)]

    def test_five_terms_at_p_001(self):
        """At p = 0.01 and |Im x| <= 0.3 terms 1..5 are kept; term 6 is the
        first whose bound is below 1e-16 of the largest, term 5 is not."""
        assert elliptic._term_count(Nome(p=0.01), 0.3) == 5
        bounds = self._bounds(0.01, 0.3, 6)
        assert bounds[5] <= elliptic._SERIES_TOL * max(bounds)
        assert bounds[4] > elliptic._SERIES_TOL * max(bounds)

    def test_kernel_sums_the_counted_terms(self, monkeypatch):
        """A Newton-sized call at p = 0.01 runs Clenshaw over 5 weights."""
        x = np.array([0.2 + 0.3j, -0.4 - 0.1j, 0.35 + 0.05j])
        nm = Nome(p=0.01)
        sizes = []
        weights = elliptic._clenshaw_weights

        def counted(nome, K, series):
            sizes.append(K)
            return weights(nome, K, series)

        monkeypatch.setattr(elliptic, "_clenshaw_weights", counted)
        s0, = _theta_hat(x, nm, ("s0",))
        assert sizes == [5]
        direct, = theta_hat_direct(x, nm, ("s0",))
        assert float(np.max(np.abs(s0 - direct) / np.abs(direct))) <= 1e-15

    def test_trig_limit_keeps_one_term(self):
        assert elliptic._term_count(Nome(p=0.0), 0.3) == 1
        assert elliptic._term_count(Nome(p=0.0), 100.0) == 1


class TestSeriesConvergenceGuard:
    def test_nome_too_close_to_one_raises(self):
        nm = Nome(p=0.999999)
        with pytest.raises(AccuracyError):
            theta(0.3, nm)

    @pytest.mark.parametrize("p,x,message", [
        (0.999999, [0.3], "theta series not converged in 200 terms"),
        (0.05, [80j], "theta series term 2 overflows the float range at "
                      "max |Im x| = 80.0"),
        (0.0, [0.3, 0.2 + 300j], "theta series term 1 overflows the float "
                                 "range at max |Im x| = 300.0")])
    def test_errors_match_direct_sum(self, p, x, message):
        """The kernel raises where the direct sum raises, with its message."""
        x, nm = np.array(x, dtype=complex), Nome(p=p)
        with pytest.raises(AccuracyError) as fast:
            _theta_hat(x, nm, _SERIES)
        with pytest.raises(AccuracyError) as direct:
            theta_hat_direct(x, nm, _SERIES)
        assert str(fast.value) == str(direct.value)
        assert str(fast.value).startswith(message)

    def test_large_imaginary_part_is_accuracy_error(self):
        # far from the real axis the truncation bound exp((2n-1) pi |Im x|)
        # leaves the float range; that is an accuracy failure, not a raw
        # OverflowError
        with pytest.raises(AccuracyError, match=r"\|Im x\|"):
            theta(80j, 0.05)
        with pytest.raises(AccuracyError):
            theta(np.array([0.3, 0.2 + 300j]), Nome(p=0.0))


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
