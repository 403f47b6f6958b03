"""Tests for Bethe-vector assembly, symmetrization, and state verification.

The N=2 and N=3 (l=1) closed-form displays anchor the assembly conventions
(slot pairing, denominators, exponential prefactor) via ratio-constancy
tests; the trigonometric limit, the Jack proportionality constants, direct
application of the Hamiltonian, and the square-integrability estimates
validate the state end to end.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from cmbethe.critical import (
    closed_form_n2,
    closed_form_n3_l1,
    continue_nome,
    find_admissible_critical_point,
)
from cmbethe.elliptic import Nome, theta
from cmbethe.errors import DomainError, MembershipError, PoleError, ResourceError
from cmbethe.jack import jack_expand
from cmbethe import states
from cmbethe.master import EllipticPoint
from cmbethe.states import (
    BetheState,
    base_point,
    bethe_state_elliptic,
    jack_proportionality,
    l2_estimate,
    omega_elliptic,
    residual_check,
    sample_torus_points,
    sym_omega_tri_nonvanishing,
)
from cmbethe.weights import (Weight, build_indexing, lambda_to_xi,
                             root_system, weight_from_lambda_coords)
from pointwise_jack import omega_tri_values, pointwise_jack_ratio, sym_pointwise
from total_convention import eigenvalue_total

RS21 = root_system(2, 1)
IDX21 = build_indexing(2, 1)
XI_3L1 = weight_from_lambda_coords([3], 2)

RS31 = root_system(3, 1)
IDX31 = build_indexing(3, 1)
XI_33 = weight_from_lambda_coords([3, 3], 3)

P0 = Nome(p=0.0)


def trig_point(T):
    """The p = 0 point with trigonometric coordinates T."""
    return EllipticPoint(np.log(np.asarray(T, dtype=complex)) / (-2j * math.pi), P0)


TRIG_SEED = find_admissible_critical_point(XI_3L1, RS21, IDX21)[1]
TRI_STATE = bethe_state_elliptic(TRIG_SEED.point, XI_3L1, RS21, IDX21)


def theta_val(u, nome):
    """Scalar theta value."""
    return complex(np.atleast_1d(theta(np.array([u], dtype=complex),
                                       nome).value)[0])


def elliptic_point(p, steps=8):
    """The continued N=2, m1=3 Bethe root at nome p."""
    return continue_nome(TRIG_SEED, XI_3L1, RS21, IDX21, p,
                         steps=steps).endpoint.point


def searched_root(N, l, lam):
    """(point, xi, rs, idx) of the p = 0 root the search seeds for lambda."""
    rs, idx = root_system(N, l), build_indexing(N, l)
    xi = lambda_to_xi(Weight(list(lam)), rs)
    sigma, report = find_admissible_critical_point(xi, rs, idx)
    return report.point, Weight([xi.exact[i] for i in sigma]), rs, idx


def searched_state(N, l, lam):
    """The trigonometric state at the root the search seeds for lambda, and
    the Jack expansion J_lambda^{(1/(l+1))}."""
    return (bethe_state_elliptic(*searched_root(N, l, lam)),
            jack_expand(lam, Fraction(1, l + 1)))


#: One (N, l, lambda) per level the p = 0 evaluator tests cover.
P0_LEVELS = [(2, 1, (1, -1)), (2, 2, (1, -1)), (2, 3, (1, -1)),
             (3, 1, (1, 0, -1)), (3, 2, (1, 0, -1)), (4, 1, (1, 0, 0, -1))]


def ratio_spread(ratios):
    arr = np.asarray(ratios, dtype=complex)
    mean = arr.mean()
    return float(np.max(np.abs(arr - mean)) / abs(mean))


class TestOmegaTri:
    """The Bethe vector at p = 0 against the trigonometric closed-form
    displays."""

    def test_n2_display_ratio_constant(self):
        # const * X1^{3/2} X2^{-3/2} (X1 T - X2)/(X1 - X2), T = 1/2
        ev = omega_elliptic(trig_point([0.5]), XI_3L1, RS21, IDX21)
        ratios = []
        for x in sample_torus_points(2, 10, margin=0.1, seed=2):
            X = np.exp(2j * np.pi * x)
            disp = (cmath.exp(2j * math.pi * 1.5 * (x[0] - x[1]))
                    * (X[0] * 0.5 - X[1]) / (X[0] - X[1]))
            ratios.append(complex(ev(x)) / disp)
        assert ratio_spread(ratios) < 1e-10, f"spread {ratio_spread(ratios)}"

    def test_n2_l2_display_ratio_constant(self):
        point, _ = closed_form_n2(4, 2)
        rs, idx = root_system(2, 2), build_indexing(2, 2)
        xi = weight_from_lambda_coords([4], 2)
        ev = omega_elliptic(point, xi, rs, idx)
        ratios = []
        for x in sample_torus_points(2, 10, margin=0.1, seed=3):
            X = np.exp(2j * np.pi * x)
            disp = cmath.exp(2j * math.pi * 2.0 * (x[0] - x[1]))
            for t in point.to_T():
                disp *= (X[0] * t - X[1])
            disp /= (X[0] - X[1]) ** 2
            ratios.append(complex(ev(x)) / disp)
        assert ratio_spread(ratios) < 1e-10, f"spread {ratio_spread(ratios)}"

    def test_n3_two_term_display_ratio_constant(self):
        # Two-term closed form with slot factors (X1 T1 - X2)/T1,
        # (X1 T2 - X3)/T2, (X2 T3 - X3 T_f)/(T3 - T_f) for f = 2 then 1,
        # over the full Vandermonde denominator.
        point, _ = closed_form_n3_l1(3, 3)[0]
        T = point.to_T()
        ev = omega_elliptic(point, XI_33, RS31, IDX31)
        ratios = []
        for x in sample_torus_points(3, 10, margin=0.1, seed=4):
            X = np.exp(2j * np.pi * x)
            pre = cmath.exp(2j * math.pi * (3 * x[0] - 3 * x[2]))
            pre /= (X[0] - X[1]) * (X[0] - X[2]) * (X[1] - X[2])
            term1 = ((X[0] * T[0] - X[1]) / T[0] * (X[0] * T[1] - X[2]) / T[1]
                     * (X[1] * T[2] - X[2] * T[1]) / (T[2] - T[1]))
            term2 = ((X[0] * T[0] - X[2]) / T[0] * (X[0] * T[1] - X[1]) / T[1]
                     * (X[1] * T[2] - X[2] * T[0]) / (T[2] - T[0]))
            ratios.append(complex(ev(x)) / (pre * (term1 + term2)))
        assert ratio_spread(ratios) < 1e-10, f"spread {ratio_spread(ratios)}"

    def test_torus_modulus_invariant_for_lattice_weight(self):
        ev = omega_elliptic(trig_point([0.5]), XI_3L1, RS21, IDX21)
        x = np.array([0.23, 0.61])
        a, b = complex(ev(x)), complex(ev(x + np.array([1.0, 0.0])))
        assert abs(abs(b / a) - 1.0) < 1e-12

    def test_elliptic_point_refused(self):
        """The p = 0 expansion, which the non-vanishing test reads, refuses
        a p > 0 point."""
        with pytest.raises(DomainError):
            sym_omega_tri_nonvanishing(elliptic_point(0.01), XI_3L1, RS21,
                                       IDX21)

    @pytest.mark.parametrize("N,l,lam", [
        lev for lev in P0_LEVELS if lev[:2] != (2, 3)])
    def test_elliptic_omega_at_p0_is_omega_tri(self, N, l, lam):
        """At Nome(p=0) the sigma-table omega is (2 pi i)^m /
        Prod_{c(k)=1} (T_k - 1) times the raw omega_tri, evaluated here from
        the expansion's rows and coefficients."""
        point, xi, rs, idx = searched_root(N, l, lam)
        T = point.to_T()
        const = (2j * math.pi) ** idx.m / np.prod(
            [T[k] - 1 for k in range(idx.m) if idx.c[k] == 1])
        xs = sample_torus_points(N, 64, seed=8)
        ref = const * omega_tri_values(states._TrigOmega(point, xi, rs, idx),
                                       xs, l)
        got = states._EllipticOmega(point, xi, rs, idx)(xs)
        assert float(np.max(np.abs(got - ref) / np.abs(ref))) <= 1e-12

    def test_paired_collision_refused(self):
        # N=3: T3 paired with T1/T2; a collision there is a pole of the slot
        # (and already expels T from the admissible domain).
        point, _ = closed_form_n3_l1(3, 3)[0]
        T = point.to_T()
        bad = trig_point([T[0], T[1], T[0]])
        with pytest.raises((PoleError, MembershipError)):
            st = bethe_state_elliptic(bad, XI_33, RS31, IDX31,
                                      compute_eigenvalue=False)
            st.evaluator(np.array([0.1, 0.4, 0.8]))


class TestOmegaElliptic:
    """The elliptic Bethe vector against its closed-form displays."""

    def test_n2_display_ratio_constant(self):
        point = elliptic_point(0.05)
        nome, t1 = point.nome, point.t[0]
        ev = omega_elliptic(point, XI_3L1, RS21, IDX21)
        ratios = []
        for x in sample_torus_points(2, 10, margin=0.1, seed=3):
            s = x[0] - x[1]
            disp = (cmath.exp(1j * math.pi * 3 * s)
                    * theta_val(s - t1, nome) / theta_val(s, nome))
            ratios.append(complex(ev(x)) / disp)
        assert ratio_spread(ratios) < 1e-10, f"spread {ratio_spread(ratios)}"

    def test_n3_two_term_display_ratio_constant(self):
        # Two-term theta closed form over theta(x1-x2) theta(x1-x3)
        # theta(x2-x3) — every term shares that denominator.
        seed3 = find_admissible_critical_point(XI_33, RS31, IDX31)[1]
        point = continue_nome(seed3, XI_33, RS31, IDX31, 0.05,
                              steps=8).endpoint.point
        nome, t = point.nome, point.t
        ev = omega_elliptic(point, XI_33, RS31, IDX31)

        def th(u):
            return theta_val(u, nome)

        ratios = []
        for x in sample_torus_points(3, 10, margin=0.1, seed=4):
            pre = cmath.exp(2j * math.pi
                            * ((2 * x[0] - x[1] - x[2])
                               + (x[0] + x[1] - 2 * x[2])))
            term1 = (th(x[0] - x[1] - t[0]) / th(t[0])
                     * th(x[0] - x[2] - t[1]) / th(t[1])
                     * th(x[1] - x[2] - t[2] + t[1]) / th(t[2] - t[1]))
            term2 = (th(x[0] - x[2] - t[0]) / th(t[0])
                     * th(x[0] - x[1] - t[1]) / th(t[1])
                     * th(x[1] - x[2] - t[2] + t[0]) / th(t[2] - t[0]))
            den = th(x[0] - x[1]) * th(x[0] - x[2]) * th(x[1] - x[2])
            ratios.append(complex(ev(x)) / (pre * (term1 + term2) / den))
        assert ratio_spread(ratios) < 1e-10, f"spread {ratio_spread(ratios)}"

    def test_trig_limit_ratio_constant(self):
        point = elliptic_point(1e-8, steps=6)
        ev_ell = omega_elliptic(point, XI_3L1, RS21, IDX21)
        ev_tri = omega_elliptic(EllipticPoint(point.t, P0), XI_3L1, RS21,
                                IDX21)
        ratios = [complex(ev_ell(x)) / complex(ev_tri(x))
                  for x in sample_torus_points(2, 10, margin=0.1, seed=5)]
        assert ratio_spread(ratios) < 1e-7, f"spread {ratio_spread(ratios)}"

    def test_pole_refused(self):
        point = elliptic_point(0.01)
        ev = omega_elliptic(point, XI_3L1, RS21, IDX21)
        with pytest.raises(PoleError):
            ev(np.array([0.4, 0.4]))


class TestSymmetrize:
    """Sym^(l): plain sum for odd l, signed sum for even l."""

    def test_n2_symbolic_factorization(self):
        # Sym of the m1=3, T=1/2 vector is proportional to
        # (X1 X2)^{-3/2} (X1 + X2) (X1 - X2)^2 / 2.
        sym = bethe_state_elliptic(trig_point([0.5]), XI_3L1, RS21, IDX21,
                                   compute_eigenvalue=False).evaluator
        ratios = []
        for x in sample_torus_points(2, 10, margin=0.1, seed=6):
            X = np.exp(2j * np.pi * x)
            ref = (cmath.exp(-3j * math.pi * (x[0] + x[1]))
                   * (X[0] + X[1]) * (X[0] - X[1]) ** 2 / 2.0)
            ratios.append(complex(sym(x)) / ref)
        assert ratio_spread(ratios) < 1e-12, f"spread {ratio_spread(ratios)}"

    def test_parity_odd_l(self):
        x = np.array([0.17, 0.62])
        swapped = x[::-1].copy()
        a = complex(TRI_STATE.evaluator(x))
        b = complex(TRI_STATE.evaluator(swapped))
        assert abs(a - b) < 1e-12 * max(1.0, abs(a)), f"{a} vs {b}"

    def test_parity_even_l(self):
        point, _ = closed_form_n2(4, 2)
        rs, idx = root_system(2, 2), build_indexing(2, 2)
        xi = weight_from_lambda_coords([4], 2)
        sym = bethe_state_elliptic(point, xi, rs, idx).evaluator
        x = np.array([0.17, 0.62])
        a = complex(sym(x))
        b = complex(sym(x[::-1].copy()))
        assert abs(a + b) < 1e-12 * max(1.0, abs(a)), f"{a} vs {b}"


class TestAltState:
    """The p = 0 state, Sym^(l) of the sigma-table omega, agrees with the
    pointwise Sym^(l) of the raw expansion, normalized by omega_tri(x*)."""

    @pytest.mark.parametrize("N,l,lam", P0_LEVELS)
    def test_matches_pointwise_sym(self, N, l, lam):
        point, xi, rs, idx = searched_root(N, l, lam)
        raw = states._TrigOmega(point, xi, rs, idx)
        sym = sym_pointwise(lambda x: omega_tri_values(raw, x, l), N, l)
        xs = sample_torus_points(N, 64, seed=10)
        ref = sym(xs) / omega_tri_values(raw, base_point(N)[None], l)[0]
        got = bethe_state_elliptic(point, xi, rs, idx,
                                   compute_eigenvalue=False).evaluator(xs)
        assert float(np.max(np.abs(got - ref))) <= 1e-12 * float(
            np.max(np.abs(ref)))

    def test_non_lattice_weight_refused(self):
        """As at p > 0, the state builds for a weight outside P, and the
        torus integral refuses it."""
        xi = weight_from_lambda_coords([2.5], 2)
        point, _ = closed_form_n2(2.5, 1)
        st = bethe_state_elliptic(point, xi, RS21, IDX21)
        assert np.isfinite(st.evaluator(np.array([0.23, 0.61])))
        with pytest.raises(DomainError):
            l2_estimate(st)

    def test_pole_at_coincident_coordinates(self):
        with pytest.raises(PoleError):
            TRI_STATE.evaluator(np.array([0.3, 1.3]))


class TestStatePeriodicity:
    """Shifting any coordinate by 1 multiplies the state by a unimodular
    constant, equal to 1 for integer-coordinate weights."""

    def test_half_integer_weight_factor_minus_one(self):
        x = np.array([0.23, 0.61])
        f = (complex(TRI_STATE.evaluator(x + np.array([1.0, 0.0])))
             / complex(TRI_STATE.evaluator(x)))
        assert abs(f - (-1.0)) < 1e-12, f"shift factor {f}"

    def test_integer_weight_factor_one(self):
        xi4 = weight_from_lambda_coords([4], 2)
        point, _ = closed_form_n2(4, 1)
        st = bethe_state_elliptic(point, xi4, RS21, IDX21)
        x = np.array([0.23, 0.61])
        f = (complex(st.evaluator(x + np.array([1.0, 0.0])))
             / complex(st.evaluator(x)))
        assert abs(f - 1.0) < 1e-12, f"shift factor {f}"

    def test_elliptic_factor_unimodular(self):
        st = bethe_state_elliptic(elliptic_point(0.01), XI_3L1, RS21, IDX21,
                                  compute_eigenvalue=False)
        x = np.array([0.23, 0.61])
        f = (complex(st.evaluator(x + np.array([1.0, 0.0])))
             / complex(st.evaluator(x)))
        assert abs(abs(f) - 1.0) < 1e-12, f"|shift factor| = {abs(f)}"


class TestJackProportionality:
    """Sym omega_tri = const * J_lambda^{(1/(l+1))} Delta^{l+1}."""

    def test_n2_mean_half_spread_tiny(self):
        jack = jack_expand((Fraction(1, 2), Fraction(-1, 2)), Fraction(1, 2))
        mean, spread = jack_proportionality(TRIG_SEED.point, XI_3L1, jack, 1)
        assert spread < 1e-10, f"spread {spread}"
        assert abs(mean - 0.5) < 1e-12, f"mean {mean} vs 1/2"

    def test_n3_proportional(self):
        point, _ = closed_form_n3_l1(3, 3)[0]
        jack = jack_expand((1, 0, -1), Fraction(1, 2))
        mean, spread = jack_proportionality(point, XI_33, jack, 1)
        assert spread < 1e-9, f"spread {spread}"
        assert abs(mean - (-5.0 / 7.0)) < 1e-12, f"mean {mean} vs -5/7"

    def test_inadmissible_weight_refused(self):
        # the admissibility gate fires before any Jack-label comparison
        xi1 = weight_from_lambda_coords([1], 2)
        jack = jack_expand((Fraction(1, 2), Fraction(-1, 2)), Fraction(1, 2))
        with pytest.raises(DomainError):
            jack_proportionality(trig_point([0.5]), xi1, jack, 1)

    def test_wrong_jack_label_refused(self):
        jack = jack_expand((Fraction(3, 2), Fraction(-3, 2)), Fraction(1, 2))
        with pytest.raises(DomainError):
            jack_proportionality(TRIG_SEED.point, XI_3L1, jack, 1)

    def test_elliptic_state_refused(self):
        jack = jack_expand((Fraction(1, 2), Fraction(-1, 2)), Fraction(1, 2))
        with pytest.raises(DomainError):
            jack_proportionality(elliptic_point(0.01), XI_3L1, jack, 1)

    @pytest.mark.parametrize("l,lam", [
        (12, (1, -1)), (16, (1, -1)), (20, (1, -1)), (24, (1, -1)),
        (16, (0, 0))])
    def test_large_l_residual(self, l, lam):
        """At N=2 l >= 12 the pointwise ratio spread exceeds 1e-9 from
        rounding alone; the coefficient residual stays at rounding level."""
        state, jack = searched_state(2, l, lam)
        _, residual = jack_proportionality(state.point, state.xi, jack, l)
        assert residual < 1e-9, f"residual {residual}"

    @pytest.mark.parametrize("N,l,lam", [
        (2, l, lam) for l in (1, 2, 3, 4)
        for lam in ((0, 0), (Fraction(1, 2), Fraction(-1, 2)), (1, -1))] + [
        (3, 1, lam) for lam in ((0, 0, 0), (1, 0, -1), (2, 0, -2), (1, 1, -2),
                                (2, -1, -1), (3, 0, -3), (2, 1, -3),
                                (4, 0, -4))])
    def test_constant_matches_pointwise_mean(self, N, l, lam):
        """The projected constant is the mean of the rejected pointwise
        ratio wherever that ratio is accurate (the N=2 l <= 4 and N=3 l=1
        benchmark ladder levels)."""
        state, jack = searched_state(N, l, lam)
        c, _ = jack_proportionality(state.point, state.xi, jack, l)
        mean, _ = pointwise_jack_ratio(state, jack, l)
        assert abs(c - mean) < 1e-12, f"{c} vs pointwise mean {mean}"

    @pytest.mark.parametrize("knob", [{"n_samples": 20}, {"seed": 3},
                                      {"threshold": 1e-8}])
    def test_sampling_knobs_refused(self, knob):
        """Both coefficient certificates sample nothing: the sampling knobs
        of the pointwise versions are refused."""
        jack = jack_expand((Fraction(1, 2), Fraction(-1, 2)), Fraction(1, 2))
        with pytest.raises(TypeError):
            jack_proportionality(TRIG_SEED.point, XI_3L1, jack, 1, **knob)
        with pytest.raises(TypeError):
            sym_omega_tri_nonvanishing(trig_point([0.5]), XI_3L1, RS21,
                                       IDX21, **knob)


class TestResidualCheck:
    """Direct application of the Hamiltonian by finite differences."""

    def test_elliptic_residual_small(self):
        st = bethe_state_elliptic(elliptic_point(0.01), XI_3L1, RS21, IDX21)
        e_ray, rel = residual_check(st, grid_n=48, fd_h=1e-3)
        assert rel < 1e-4, f"relative residual {rel}"

    def test_partial_mode_matches_rayleigh(self):
        # records the derivative-mode arbitration: the fixed-root partial
        # tau-derivative (the library's) reproduces the Rayleigh quotient;
        # the total derivative along the branch (test-local) is ~1% off at
        # p = 1e-2.
        point = elliptic_point(0.01)
        st_partial = bethe_state_elliptic(point, XI_3L1, RS21, IDX21)
        e_total = eigenvalue_total(point, XI_3L1, RS21, IDX21)
        e_ray, _ = residual_check(st_partial, grid_n=48, fd_h=1e-3)
        rel_partial = abs(st_partial.eigenvalue - e_ray) / abs(e_ray)
        rel_total = abs(e_total - e_ray) / abs(e_ray)
        assert rel_partial < 1e-4, f"partial-mode mismatch {rel_partial}"
        assert rel_total > 1e-3, f"total-mode unexpectedly close {rel_total}"

    def test_trig_state_gives_cs_eigenvalue(self):
        # p=0: Rayleigh quotient -> e0 + 2 pi^2 E_lambda = 2 pi^2 (xi, xi)
        e_ray, rel = residual_check(TRI_STATE, grid_n=48, fd_h=1e-3)
        target = 9 * math.pi ** 2
        assert abs(e_ray - target) < 1e-4 * target, f"{e_ray} vs {target}"
        assert rel < 1e-4

    def test_pole_cancellation_near_diagonal(self):
        # the symmetrized elliptic state stays bounded (indeed vanishes)
        # as min |x_i - x_j| -> 1e-3
        st = bethe_state_elliptic(elliptic_point(0.01), XI_3L1, RS21, IDX21,
                                  compute_eigenvalue=False)
        xs = sample_torus_points(2, 40, margin=0.1, seed=9)
        generic = float(np.max(np.abs(np.atleast_1d(st.evaluator(xs)))))
        near = np.array([[0.35 + 1e-3, 0.35], [0.70 + 1e-3, 0.70]])
        vals = np.abs(np.atleast_1d(st.evaluator(near)))
        assert np.all(np.isfinite(vals))
        assert float(np.max(vals)) < 1e-2 * generic, (
            f"near-diagonal {vals} vs generic {generic}")


def continued_state_parts(lam, N, l, p):
    """(point, xi, rs, idx) of the admissible root continued to nome p."""
    rs, idx = root_system(N, l), build_indexing(N, l)
    xi = weight_from_lambda_coords(lam, N)
    sigma, seed = find_admissible_critical_point(xi, rs, idx)
    xi_s = Weight([xi.exact[i] for i in sigma])
    point = continue_nome(seed, xi_s, rs, idx, p, steps=8).endpoint.point
    return point, xi_s, rs, idx


class TestSigmaTableEvaluator:
    """The elliptic Sym^(l) omega from one sigma table per row block agrees
    with the plain loop over x-permutations of omega."""

    @pytest.mark.parametrize("p", [0.05, 0.3])
    @pytest.mark.parametrize("lam,N,l", [([3], 2, 1), ([4], 2, 2),
                                         ([3, 3], 3, 1)])
    def test_matches_plain_permutation_loop(self, lam, N, l, p):
        point, xi, rs, idx = continued_state_parts(lam, N, l, p)
        fused = bethe_state_elliptic(point, xi, rs, idx,
                                     compute_eigenvalue=False).evaluator
        plain = sym_pointwise(omega_elliptic(point, xi, rs, idx), N, l)
        # every table row has at least two entries, so this spans two blocks
        xs = sample_torus_points(N, states._BLOCK_ENTRIES // 2 + 1, seed=12)
        ref = plain(xs)
        scale = float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(fused(xs) - ref))) <= 1e-13 * scale
        one = fused(xs[3])
        assert isinstance(one, complex)
        assert abs(one - ref[3]) <= 1e-13 * scale

    def test_suffix_levels_factor_the_sum(self):
        """The levels give Sum_r Prod_k f(words[r, k]) for words with
        repeated rows, shared prefixes and suffixes and a slot every word
        shares, with fewer factors than the words have labels."""
        rng = np.random.default_rng(7)
        words = rng.integers(0, 3, size=(40, 6))
        words[:, 2] = 1
        words = np.concatenate([words, words[:5]])
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        leaf, levels = states._suffix_levels(words)
        value = leaf.astype(complex)
        for label, child, starts, _ in levels:
            value = np.add.reduceat(f[label].prod(axis=1) * value[child],
                                    starts)
        terms = f[words].prod(axis=1)
        assert value.shape == (1,)
        assert abs(value[0] - terms.sum()) <= 1e-13 * np.abs(terms).sum()
        assert sum(label.size for label, *_ in levels) < words.size

    def test_pole_at_coincident_coordinates(self):
        point, xi, rs, idx = continued_state_parts([3, 3], 3, 1, 0.05)
        st = bethe_state_elliptic(point, xi, rs, idx, compute_eigenvalue=False)
        with pytest.raises(PoleError):
            st.evaluator(np.array([0.3, 0.3, 0.7]))
        with pytest.raises(PoleError):
            st.evaluator(np.array([[0.1, 0.4, 0.8], [0.2, 0.6, 1.2]]))

    def test_one_sigma_call_per_row_block(self, monkeypatch):
        point, xi, rs, idx = continued_state_parts([3, 3], 3, 1, 0.05)
        st = bethe_state_elliptic(point, xi, rs, idx, compute_eigenvalue=False)
        calls = []
        kernel = states.sigma_lambda

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(states, "sigma_lambda", counting)
        st.evaluator(sample_torus_points(3, 64, seed=2))
        assert len(calls) == 1

    def test_row_blocks_sized_by_table(self, monkeypatch):
        """A row block holds as many points as the sigma table allows: at
        N=5 l=1 (20 pair columns, 24 distinct u) that is 8 points, so the
        528 stencil points of a grid-48 residual take 66 calls, not one call
        per point."""
        rs, idx = root_system(5, 1), build_indexing(5, 1)
        xi = lambda_to_xi(Weight([0] * 5), rs)
        rng = np.random.default_rng(4)
        t = rng.random(idx.m) + 0.1j * rng.standard_normal(idx.m)
        st = bethe_state_elliptic(EllipticPoint(t, Nome(p=0.01)), xi, rs, idx,
                                  compute_eigenvalue=False)
        calls = []
        kernel = states.sigma_lambda

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(states, "sigma_lambda", counting)
        residual_check(st, grid_n=48)
        assert len(calls) <= 70, len(calls)


class TestLimitChain:
    """As p -> 0 the normalized elliptic state approaches the normalized
    trigonometric (Jack) state; the sup distance falls by ~10x per decade."""

    def test_monotone_convergence(self):
        xs = sample_torus_points(2, 40, margin=0.1, seed=9)
        ref = np.atleast_1d(TRI_STATE.evaluator(xs))
        dists = []
        for p in (1e-2, 1e-3, 1e-4):
            st = bethe_state_elliptic(elliptic_point(p), XI_3L1, RS21, IDX21,
                                      compute_eigenvalue=False)
            vals = np.atleast_1d(st.evaluator(xs))
            dists.append(float(np.max(np.abs(vals - ref))))
        assert dists[0] > dists[1] > dists[2], f"not monotone: {dists}"
        assert dists[2] < 1e-3, f"final distance {dists[2]}"


class TestL2Estimate:
    """Square-integrability evidence by midpoint tensor quadrature."""

    def test_admissible_state_converges(self):
        st = bethe_state_elliptic(elliptic_point(0.01), XI_3L1, RS21, IDX21,
                                  compute_eigenvalue=False)
        seq = l2_estimate(st)
        assert len(seq) == 3
        rel_change = abs(seq[-1] - seq[-2]) / abs(seq[-1])
        assert rel_change < 1e-3, f"sequence {seq}"

    def test_zero_function_all_zeros(self):
        def zero(x):
            return np.zeros(np.atleast_2d(x).shape[0], dtype=complex)

        st = BetheState(xi=XI_3L1, point=trig_point([0.5]), evaluator=zero,
                        eigenvalue=None)
        assert l2_estimate(st) == [0.0, 0.0, 0.0]

    def test_non_lattice_weight_refused(self):
        xi = weight_from_lambda_coords([2.5], 2)
        _, report = closed_form_n2(2.5, 1)
        point = continue_nome(report, xi, RS21, IDX21, 0.01,
                              steps=4).endpoint.point
        st = bethe_state_elliptic(point, xi, RS21, IDX21,
                                  compute_eigenvalue=False)
        with pytest.raises(DomainError):
            l2_estimate(st)


class TestNonvanishing:
    """Numerical evidence for Sym omega_tri != 0 under the admissibility gate."""

    def test_n2_nonvanishing(self):
        assert sym_omega_tri_nonvanishing(trig_point([0.5]), XI_3L1, RS21,
                                          IDX21)

    def test_n3_nonvanishing(self):
        point, _ = closed_form_n3_l1(3, 3)[0]
        assert sym_omega_tri_nonvanishing(point, XI_33, RS31, IDX31)

    @pytest.mark.parametrize("T,expected", [(-1.0, False), (-0.5, True)])
    def test_n2_xi_zero(self, T, expected):
        """At N=2 l=1 and xi = 0, Alt(T X_1 - X_2) = (T + 1)(X_1 - X_2):
        zero at T = -1 only."""
        xi0 = Weight([0, 0])
        assert sym_omega_tri_nonvanishing(trig_point([T]), xi0, RS21,
                                          IDX21) is expected


class TestSampling:
    """Deterministic torus sampling with a diagonal margin."""

    def test_base_point_prefix(self):
        assert np.allclose(base_point(2), [0.13, 0.37])
        assert np.allclose(base_point(3), [0.13, 0.37, 0.71])

    def test_margin_respected(self):
        xs = sample_torus_points(3, 25, margin=0.1, seed=1)
        assert xs.shape == (25, 3)
        for x in xs:
            for i in range(3):
                for j in range(i + 1, 3):
                    d = abs(x[i] - x[j]) % 1.0
                    d = min(d, 1.0 - d)
                    assert d > 0.1, f"pair ({i},{j}) too close in {x}"

    def test_traceless_option(self):
        xs = sample_torus_points(3, 10, margin=0.1, seed=1, traceless=True)
        assert np.max(np.abs(xs.sum(axis=1))) < 1e-12

    @pytest.mark.parametrize("N,n,seed,traceless", [
        (3, 1024, 3, False), (2, 1024, 7, False), (3, 10, 11, True),
        (4, 48, 5, False), (9, 20, 1, True)])
    def test_matches_one_draw_at_a_time(self, N, n, seed, traceless):
        def one_at_a_time(margin=0.1):
            rng = np.random.default_rng(seed)
            out = np.empty((n, N))
            count = 0
            for _ in range(200000):
                x = rng.random(N)
                d = x[:, None] - x[None, :]
                per = np.abs(d - np.round(d))
                if np.min(per[np.triu_indices(N, 1)]) <= margin:
                    continue
                if traceless:
                    x = x - x.mean()
                out[count] = x
                count += 1
                if count == n:
                    return out

        margin = 0.1 if N < 5 else 0.02
        assert np.array_equal(
            sample_torus_points(N, n, margin=margin, seed=seed,
                                traceless=traceless),
            one_at_a_time(margin))

    def test_draw_cap(self):
        # three points on the unit circle cannot all be 0.4 apart
        with pytest.raises(ResourceError):
            sample_torus_points(3, 1, margin=0.4)

    def test_deterministic(self):
        a = sample_torus_points(2, 8, margin=0.1, seed=4)
        b = sample_torus_points(2, 8, margin=0.1, seed=4)
        assert np.array_equal(a, b)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
