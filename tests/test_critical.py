"""Tests for critical-point construction and continuation in the nome.

The N=2 and N=3 (l=1) closed forms are exact rational-root constructions in
T = exp(-2 pi i t), so they double as oracles for the Newton solver (run in
t at p = 0) and for the discriminant/Hessian product formulas; reported
t-Hessian determinants convert to the T convention exactly at a root by
det H_t = Prod_k (-2 pi i T_k)^2 det H_T.  Continuation is checked against
the analytically known endpoint t(0) = log 2 / (2 pi i) of the N=2, m1 = 3
state, against the expected O(p) drift of the Bethe root, and against its
own path invariants (every accepted point is a converged, in-domain Bethe
root).
"""

import cmath
import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from cmbethe.critical import (
    NEWTON_TOL,
    P_MAX,
    closed_form_n2,
    closed_form_n3_l1,
    continue_nome,
    delta_closed_form_n2,
    delta_direct,
    find_admissible_critical_point,
    hess_closed_form_n2,
    n3_closed_form_displays,
    sigma_closed_form,
)
from cmbethe import critical, master
from cmbethe.elliptic import Nome
from cmbethe.errors import (
    ConvergenceError,
    DegeneracyError,
    DomainError,
    MembershipError,
)
from cmbethe.master import EllipticPoint, hessian_tau, newton_polish_tau
from cmbethe.jack import jack_expand
from cmbethe.perturb import rs_series
from cmbethe.states import jack_proportionality, sym_omega_tri_nonvanishing
from cmbethe.weights import (
    Weight,
    build_indexing,
    lambda_to_xi,
    root_system,
    weight_from_lambda_coords,
)
from schedule_path import max_root_gap, schedule_path

RS21 = root_system(2, 1)
IDX21 = build_indexing(2, 1)
XI_3L1 = weight_from_lambda_coords([3], 2)

RS31 = root_system(3, 1)
IDX31 = build_indexing(3, 1)
XI_33 = weight_from_lambda_coords([3, 3], 3)

T0_M3 = cmath.log(2) / (2j * cmath.pi)  # elliptic coordinate of T = 1/2 at p=0
P0 = Nome(p=0.0)

#: Levels with no closed-form root: (N, l, lambda).
BEYOND_CLOSED_FORMS = [(3, 2, (1, 0, -1)), (3, 3, (0, 0, 0)),
                       (4, 1, (1, 0, 0, -1))]


def t_of(T):
    """t = log T / (-2 pi i), the p = 0 coordinates of T."""
    return np.log(np.asarray(T, dtype=complex)) / (-2j * math.pi)


def polish(T, xi, rs, idx, **kw):
    """The one Newton at p = 0 from T coordinates; returns the root's T."""
    t = newton_polish_tau(t_of(T), xi, rs, idx, P0, tol=NEWTON_TOL, **kw)
    return np.exp(-2j * math.pi * t)


def det_T(report):
    """The report's t-Hessian determinant in the T convention."""
    T = report.point.to_T()
    return report.hessian_det / np.prod((-2j * math.pi * T) ** 2)


def n2_xi(m1):
    """The N=2 weight with lambda-coordinate m1."""
    return weight_from_lambda_coords([m1], 2)


@functools.lru_cache(maxsize=None)
def searched_root(N, l, lam):
    """(rs, idx, permuted weight, report) of the search at lambda, run once
    per level and shared by the tests that read it."""
    rs, idx = root_system(N, l), build_indexing(N, l)
    xi = lambda_to_xi(Weight(list(lam)), rs)
    sigma, report = find_admissible_critical_point(xi, rs, idx)
    return rs, idx, Weight([xi.exact[i] for i in sigma]), report


def elementary_symmetric(roots):
    """sigma_1, ..., sigma_n of a root multiset, via the monic polynomial."""
    coeffs = np.poly(np.asarray(roots, dtype=complex))
    return [(-1.0) ** k * coeffs[k] for k in range(1, len(coeffs))]


class TestClosedFormN2:
    """Exact elementary-symmetric values and the polished critical point."""

    def test_l1_m3_is_one_half(self):
        assert sigma_closed_form(3, 1) == [Fraction(1, 2)]
        point, report = closed_form_n2(3, 1)
        T = point.to_T()
        assert abs(T[0] - 0.5) < 1e-14, f"T = {T}"
        assert report.grad_norm < 1e-12
        assert report.in_F

    def test_l2_m4_sigma_values(self):
        assert sigma_closed_form(4, 2) == [Fraction(4, 5), Fraction(1, 5)]

    def test_l2_m4_roots_solve_quadratic(self):
        point, report = closed_form_n2(4, 2)
        T = point.to_T()
        for t in T:
            res = t * t - 0.8 * t + 0.2
            assert abs(res) < 1e-12, f"z^2 - (4/5) z + 1/5 at {t}: {res}"
        assert report.grad_norm < 1e-12
        # complex-conjugate pair 0.4 +/- 0.2i
        assert abs(T[0] - np.conj(T[1])) < 1e-12

    def test_degenerate_m1_refused(self):
        for l in (1, 2, 3):
            for m1 in [s * k for k in range(1, l + 1) for s in (+1, -1)]:
                with pytest.raises(DomainError):
                    sigma_closed_form(m1, l)
                with pytest.raises(DomainError):
                    closed_form_n2(m1, l)

    def test_m1_zero_is_not_degenerate(self):
        # m1 = 0 escapes the vanishing-factor set: T = -1 with zero gradient.
        point, report = closed_form_n2(0, 1)
        assert abs(point.to_T()[0] - (-1.0)) < 1e-14
        assert report.grad_norm < 1e-12

    def test_noninteger_m1_accepted(self):
        point, report = closed_form_n2(2.5, 1)
        assert report.grad_norm < 1e-12, f"grad at m1=2.5: {report.grad_norm}"

    def test_discriminant_formula_matches_direct(self):
        for l in (1, 2, 3):
            for m1 in range(l + 2, l + 7):
                point, _ = closed_form_n2(m1, l)
                closed = delta_closed_form_n2(m1, l)
                direct = delta_direct(point.to_T())
                assert abs(direct - closed) < 1e-9 * max(1.0, abs(closed)), (
                    f"l={l} m1={m1}: delta direct {direct} vs closed {closed}")

    def test_hessian_formula_matches_direct(self):
        for l in (1, 2, 3):
            for m1 in range(l + 2, l + 7):
                _, report = closed_form_n2(m1, l)
                closed = hess_closed_form_n2(m1, l)
                assert abs(det_T(report) - closed) < 1e-9 * max(
                    1.0, abs(closed)), (
                    f"l={l} m1={m1}: hess {det_T(report)} vs {closed}")


class TestClosedFormN3L1:
    """The published N=3, l=1 point and its product/Hessian values."""

    def test_point_33(self):
        reps = closed_form_n3_l1(3, 3)
        point, report = reps[0]
        t1, t2, t3 = point.to_T()
        assert abs(t3 - 5.0 / 14.0) < 1e-14, f"T3 = {t3}"
        root = (8 + 1j * math.sqrt(6)) / 14
        assert abs(t1 - root) < 1e-12 or abs(t2 - root) < 1e-12
        assert abs(t1 * t2 - 5.0 / 14.0) < 1e-12, f"T1 T2 = {t1 * t2}"
        assert abs((1 - t1) * (1 - t2) - 3.0 / 14.0) < 1e-12
        assert report.grad_norm < 1e-12
        assert report.in_F

    def test_both_orderings_returned(self):
        reps = closed_form_n3_l1(3, 3)
        assert len(reps) == 2
        a, b = reps[0][0].to_T(), reps[1][0].to_T()
        assert abs(a[0] - b[1]) < 1e-14 and abs(a[1] - b[0]) < 1e-14
        for _, report in reps:
            assert report.grad_norm < 1e-12

    def test_point_22(self):
        reps = closed_form_n3_l1(2, 2)
        T3 = reps[0][0].to_T()[2]
        assert abs(T3 - 0.2) < 1e-14, f"T3 = {T3}"
        assert reps[0][1].grad_norm < 1e-12

    def test_excluded_parameters_refused(self):
        for m1, m2 in [(0, 3), (1, 3), (-1, 3), (3, 0), (3, 1), (3, -2)]:
            with pytest.raises(DomainError):
                closed_form_n3_l1(m1, m2)

    def test_displays_match_direct_values(self):
        for m1, m2 in [(3, 3), (2, 2), (2, 4), (3, 2)]:
            disp = n3_closed_form_displays(m1, m2)
            point, report = closed_form_n3_l1(m1, m2)[0]
            assert disp["prod_sq_factor"] == -8.0
            assert disp["hessian_factor"] == -1.0
            prod_direct = delta_direct(point.to_T())
            prod_disp = disp["prod_sq_factor"] * disp["prod_sq_display"]
            assert abs(prod_direct - prod_disp) < 1e-9 * max(
                1.0, abs(prod_disp)), (
                f"({m1},{m2}): prod {prod_direct} vs {prod_disp}")
            hess_disp = disp["hessian_factor"] * disp["hessian_display"]
            assert abs(det_T(report) - hess_disp) < 1e-9 * max(
                1.0, abs(hess_disp)), (
                f"({m1},{m2}): hess {det_T(report)} vs {hess_disp}")

    def test_display_identities_33(self):
        disp = n3_closed_form_displays(3, 3)
        assert abs(disp["T1T2"] - 5.0 / 14.0) < 1e-14
        assert abs(disp["one_minus_T1_one_minus_T2"] - 3.0 / 14.0) < 1e-14


class TestNewtonTrig:
    """Newton on the trigonometric Bethe equations: the elliptic Newton in t
    at p = 0, with capped steps."""

    def test_converges_from_nearby_seed(self):
        T = polish([0.4], XI_3L1, RS21, IDX21)
        assert abs(T[0] - 0.5) < 1e-12, f"T = {T}"

    def test_converges_from_far_seed(self):
        T = polish([0.999], XI_3L1, RS21, IDX21)
        assert abs(T[0] - 0.5) < 1e-12, f"T = {T}"

    def test_already_critical_seed_returns_immediately(self):
        t0 = t_of([0.5])
        t = newton_polish_tau(t0, XI_3L1, RS21, IDX21, P0, max_iter=0)
        assert np.array_equal(t, t0)

    def test_iteration_budget_exhaustion(self):
        with pytest.raises(ConvergenceError):
            polish([0.999], XI_3L1, RS21, IDX21, max_iter=1)

    def test_failure_reports_where_iterates_went(self):
        """The ConvergenceError names the final |grad| and the largest
        |Im t| the iterates reached."""
        with pytest.raises(ConvergenceError) as info:
            polish([0.999], XI_3L1, RS21, IDX21, max_iter=1)
        msg = str(info.value)
        assert "final |grad| = " in msg and "max |Im t| = " in msg, msg
        grad = float(msg.split("final |grad| = ")[1].split(",")[0])
        im_t = float(msg.split("max |Im t| = ")[1].rstrip(")"))
        assert grad > NEWTON_TOL and 0 < im_t < 0.11, msg

    def test_runaway_iterate_raises_convergence_error(self):
        """An iterate past max |Im t| = 3 (|T| beyond about e^19) stops the
        Newton with ConvergenceError instead of a theta overflow."""
        with pytest.raises(ConvergenceError, match=r"ran off .* max \|Im t\| = 3"):
            polish([1e6], XI_3L1, RS21, IDX21, max_iter=200)

    def test_seed_outside_domain_refused(self):
        # T = 1 at t = 0 and one period over (T = 0 has no finite t)
        for bad in (0.0 + 0j, 1.0 + 0j):
            with pytest.raises(MembershipError):
                newton_polish_tau(np.array([bad]), XI_3L1, RS21, IDX21, P0)

    def test_n3_converges_to_closed_form(self):
        target = closed_form_n3_l1(3, 3)[0][0].to_T()
        T = polish(target * 1.05 + 0.01, XI_33, RS31, IDX31)
        assert np.linalg.norm(T - target) < 1e-10, (
            f"Newton endpoint {T} vs closed form {target}")

    def test_newton_recovers_sigma_sweep(self):
        rng = np.random.default_rng(7)
        for l in (1, 2, 3):
            for m1 in range(l + 2, l + 7):
                sigmas = [float(s) for s in sigma_closed_form(m1, l)]
                point, _ = closed_form_n2(m1, l)
                jitter = 1.0 + 0.02 * (rng.random(l) - 0.5) \
                    + 0.02j * (rng.random(l) - 0.5)
                T = polish(point.to_T() * jitter, n2_xi(m1),
                           root_system(2, l), build_indexing(2, l))
                got = elementary_symmetric(T)
                for k, (g, s) in enumerate(zip(got, sigmas), start=1):
                    assert abs(g - s) < 1e-10, (
                        f"l={l} m1={m1}: sigma_{k} = {g} vs {s}")


class TestFindAdmissible:
    """Search over Weyl images, with the admissibility gate."""

    def test_n2_m3_identity_permutation(self):
        sigma, report = find_admissible_critical_point(XI_3L1, RS21, IDX21)
        assert sigma == (0, 1)
        assert abs(report.point.to_T()[0] - 0.5) < 1e-12
        assert report.grad_norm < 1e-12

    def test_n3_33_identity_permutation(self):
        sigma, report = find_admissible_critical_point(XI_33, RS31, IDX31)
        assert sigma == (0, 1, 2)
        T3 = report.point.to_T()[2]
        assert abs(T3 - 5.0 / 14.0) < 1e-10, f"T3 = {T3}"

    def test_inadmissible_weight_refused(self):
        with pytest.raises(DomainError):
            find_admissible_critical_point(
                weight_from_lambda_coords([1], 2), RS21, IDX21)

    def test_accepted_point_is_nondegenerate(self):
        _, report = find_admissible_critical_point(XI_33, RS31, IDX31)
        assert abs(report.hessian_det) > 1e-9
        assert report.in_F

    @pytest.mark.parametrize("N,l,lam", BEYOND_CLOSED_FORMS)
    def test_search_seeds_beyond_closed_forms(self, N, l, lam):
        """Levels without a closed form: the search returns a p = 0 root in
        F with a non-degenerate Hessian and non-vanishing Sym omega_tri
        (the T-coordinate search raised ConvergenceError here)."""
        rs, idx, xi_s, report = searched_root(N, l, lam)
        assert report.point.nome.p == 0
        assert report.grad_norm < NEWTON_TOL
        assert report.in_F
        H, _ = hessian_tau(report.point, xi_s, rs, idx)
        scale = max(1.0, float(np.abs(np.diag(H)).prod()))
        assert abs(report.hessian_det) > critical.HESS_DEGENERACY_TOL * scale
        assert sym_omega_tri_nonvanishing(report.point, xi_s, rs, idx)

    @pytest.mark.parametrize("N,l,lam", BEYOND_CLOSED_FORMS)
    def test_jack_constant_is_rational(self, N, l, lam):
        """At the searched roots Sym omega_tri is c J_lambda Delta^{l+1}
        coefficient by coefficient, and c is a small-denominator rational."""
        rs, idx, xi_s, report = searched_root(N, l, lam)
        c, residual = jack_proportionality(
            report.point, xi_s, jack_expand(lam, Fraction(1, l + 1)), l)
        assert residual < 1e-12, f"residual {residual}"
        exact = Fraction(c.real).limit_denominator(1000)
        assert abs(c.real - exact) < 1e-12, f"c = {c} vs {exact}"
        assert abs(c.imag) < 1e-12, f"c = {c}"

    def test_exhaustion_quotes_seed_failures(self, monkeypatch):
        monkeypatch.setattr(critical, "SEARCH_MAX_ITER", 1)
        rs, idx = root_system(3, 2), build_indexing(3, 2)
        xi = lambda_to_xi(Weight([1, 0, -1]), rs)
        with pytest.raises(ConvergenceError) as info:
            find_admissible_critical_point(xi, rs, idx, n_seeds=3)
        msg = str(info.value)
        assert "seeds failed" in msg and "final |grad| = " in msg, msg


class TestContinueNome:
    """Predictor-corrector continuation from p=0 to a target nome."""

    def seed(self):
        return find_admissible_critical_point(XI_3L1, RS21, IDX21)[1]

    def test_endpoint_near_p0_coordinate(self):
        path = continue_nome(self.seed(), XI_3L1, RS21, IDX21, 1e-4, steps=8)
        end = path.endpoint
        assert abs(end.point.t[0] - T0_M3) < 1e-2, (
            f"t(1e-4) = {end.point.t[0]} vs t(0) = {T0_M3}")
        assert end.report.grad_norm < 1e-12
        assert abs(end.p - 1e-4) == 0.0

    @pytest.mark.parametrize("target", [0.01, 0.3, 0.2 + 0.1j, 1e-4])
    def test_endpoint_is_the_target_exactly(self, target):
        """The path ends on the requested nome, not one ulp past it (the
        schedule's last linear magnitude once gave 0.010000000000000002
        for 0.01), in one step or in ten."""
        for steps in (1, 10):
            path = continue_nome(self.seed(), XI_3L1, RS21, IDX21, target,
                                 steps=steps)
            assert path.endpoint.p == target
            assert len(path.steps) >= steps + 1

    def test_target_zero_returns_seed_only(self):
        path = continue_nome(self.seed(), XI_3L1, RS21, IDX21, 0.0, steps=8)
        assert len(path.steps) == 1
        assert path.steps[0].p == 0
        assert abs(path.steps[0].point.t[0] - T0_M3) < 1e-14

    def test_drift_shrinks_linearly_in_p(self):
        dists = []
        for p in (1e-3, 1e-4, 1e-5):
            path = continue_nome(self.seed(), XI_3L1, RS21, IDX21, p, steps=8)
            dists.append(abs(path.endpoint.point.t[0] - T0_M3))
        for a, b in zip(dists, dists[1:]):
            assert 7.0 < a / b < 13.0, f"decade ratios: {dists}"

    def test_every_step_is_converged_bethe_root(self):
        path = continue_nome(self.seed(), XI_3L1, RS21, IDX21, 1e-3, steps=10)
        assert len(path.steps) >= 2
        for step in path.steps:
            assert step.report.grad_norm < 1e-12, (
                f"step p={step.p}: grad {step.report.grad_norm}")
            assert step.report.in_F
            assert abs(step.report.hessian_det) > 0.0

    def test_eigenvalue_mode_partial(self):
        path = continue_nome(self.seed(), XI_3L1, RS21, IDX21, 1e-4,
                             steps=6, eigenvalues=True)
        for step in path.steps:
            assert step.eigenvalue is not None
        # at p=0 the eigenvalue is the unperturbed 2 pi^2 (xi, xi) = 9 pi^2
        assert abs(path.steps[0].eigenvalue - 9 * math.pi ** 2) < 1e-9

    def test_accepted_step_reuses_report_hessian(self, monkeypatch):
        """The degeneracy test of the seed and of each accepted step reads
        the report's own Hessian: no hessian_tau call beyond one per report."""
        calls = {"hessian": 0, "report": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        hess = counted("hessian", master.hessian_tau)
        for mod in (master, critical):
            if hasattr(mod, "hessian_tau"):
                monkeypatch.setattr(mod, "hessian_tau", hess)
            if hasattr(mod, "make_report"):
                monkeypatch.setattr(mod, "make_report",
                                    counted("report", master.make_report))
        seed = self.seed()
        path = continue_nome(seed, XI_3L1, RS21, IDX21, 1e-2, steps=6)
        assert len(path.steps) > 2
        assert calls["hessian"] <= calls["report"], calls
        for step in path.steps:
            H, det = master.hessian_tau(step.point, XI_3L1, RS21, IDX21)
            assert np.array_equal(step.report.hessian, H)
            assert step.report.hessian_det == det

    @pytest.mark.parametrize("N,l,lam", [(3, 1, (1, 0, -1)), (2, 1, (1, -1))])
    def test_master_evaluations_to_p_001(self, monkeypatch, N, l, lam):
        """To p = 0.01 at the default steps = 1 the path is one step of at
        most 6 master evaluations: the contracting Newton from the constant
        seed and the evaluation that certifies it (the fixed 14-step
        schedule made 29).  Its endpoint is a Bethe root to NEWTON_TOL."""
        rs, idx = root_system(N, l), build_indexing(N, l)
        xi = lambda_to_xi(Weight(list(lam)), rs)
        sigma, seed = find_admissible_critical_point(xi, rs, idx)
        xi_s = Weight([xi.exact[i] for i in sigma])
        calls = []
        evaluate = master._master

        def counted(*args):
            calls.append(args[0].nome.p)
            return evaluate(*args)

        monkeypatch.setattr(master, "_master", counted)
        path = continue_nome(seed, xi_s, rs, idx, 0.01)
        assert len(path.steps) == 2 and path.rejected == []
        assert len(calls) <= 6, len(calls)
        assert path.endpoint.p == 0.01
        assert path.endpoint.report.grad_norm < NEWTON_TOL

    def test_refused_steps_are_recorded(self):
        """N=2 l=2 lambda=0 to p = 0.3 in one trial step refuses at least
        one step, records each as (p, reason), and still ends exactly on
        the target; no accepted step is longer than the target's modulus."""
        rs, idx, xi_s, seed = searched_root(2, 2, (0, 0))
        path = continue_nome(seed, xi_s, rs, idx, 0.3)
        assert path.rejected, "expected a refused step"
        assert path.rejected[0][0] == 0.3
        for p, reason in path.rejected:
            assert reason in {"capped step", "no contraction", "iterations",
                              "runoff", "left F", "membership"}, reason
            assert 0 < abs(p) <= 0.3
        assert path.endpoint.p == 0.3
        assert all(s.report.grad_norm < NEWTON_TOL for s in path.steps)

    def test_step_is_halved_on_refusal_and_doubled_after_easy_steps(
            self, monkeypatch):
        """The trial nomes in order, at N=2 l=8 lambda=0 to p = 0.3 in two
        steps: the first is |target|/steps along the target, a refused
        step is halved, an accepted step within the
        rounding floor after three evaluations doubles the next, no step
        exceeds |target|/steps, and the last lands on the target."""
        rs, idx, xi_s, seed = searched_root(2, 8, (0, 0))
        trials = []
        polish = critical._polish

        def recorded(t, xi, rs, idx, nome, *args, **kwargs):
            trials.append((nome.p, None))
            rep = polish(t, xi, rs, idx, nome, *args, **kwargs)
            trials[-1] = (nome.p, rep if rep.in_F else None)
            return rep

        monkeypatch.setattr(critical, "_polish", recorded)
        path = continue_nome(seed, xi_s, rs, idx, 0.3, steps=2)
        assert len(trials) == len(path.steps) - 1 + len(path.rejected)
        assert path.rejected and trials[0][0] == 0.15
        good, h, doubled = 0j, 0.15, 0
        for p, rep in trials:
            assert abs(p - good) <= h * (1 + 1e-12)
            assert abs(p - good) == pytest.approx(min(h, abs(0.3 - good)),
                                                  rel=1e-12)
            if rep is None:
                h = abs(p - good) / 2
                continue
            floor = master._CONTRACTION_FLOOR
            if sum(c > floor for c in rep.corrections) <= 2:
                doubled += h < 0.15
                h = min(2 * h, 0.15)
            good = p
        assert good == 0.3 and path.endpoint.p == 0.3
        assert doubled, "expected a doubled step"

    def test_predictor_is_exact_on_cubics(self):
        """The predictor is the Lagrange polynomial through the last four
        accepted points: it reproduces a cubic path, and a lone seed is
        the constant prediction."""
        def step(p):
            t = np.array([0.1 + 2j * p - 3 * p ** 2 + (1 - 1j) * p ** 3,
                          0.4 - 5 * p ** 3])
            return critical.PathStep(p, EllipticPoint(t, Nome(p=p)), None)

        ps = [0.0, 1e-3, 2e-3, 4e-3, 5e-3, 6e-3]
        steps = [step(p) for p in ps]
        want = step(0.0065).point.t
        got = critical._predict(steps[-critical.PREDICTOR_POINTS:], 0.0065)
        assert np.max(np.abs(got - want)) < 1e-15
        assert np.array_equal(critical._predict(steps[:1], 0.01),
                              steps[0].point.t)

    def test_eigenvalue_default_off(self):
        path = continue_nome(self.seed(), XI_3L1, RS21, IDX21, 1e-4, steps=6)
        assert all(step.eigenvalue is None for step in path.steps)

    def test_jsonl_format(self):
        """The records `cm continue` writes, one per accepted step."""
        path = continue_nome(self.seed(), XI_3L1, RS21, IDX21, 1e-4,
                             steps=4, eigenvalues=True)
        records = path.records()
        assert len(records) == len(path.steps)
        for rec, step in zip(records, path.steps):
            assert set(rec) == {"p", "t", "grad_norm", "hess_det",
                                "eigenvalue"}
            assert rec["p"] == step.p
            assert len(rec["t"]) == 1 and isinstance(rec["t"][0], complex)

    def test_complex_target(self):
        target = 1e-4 * cmath.exp(1j * math.pi / 3)
        path = continue_nome(self.seed(), XI_3L1, RS21, IDX21, target,
                             steps=8)
        assert abs(path.endpoint.p - target) < 1e-20
        assert path.endpoint.report.grad_norm < 1e-12

    def test_target_beyond_pmax_refused(self):
        with pytest.raises(DomainError):
            continue_nome(self.seed(), XI_3L1, RS21, IDX21, 0.5)
        assert P_MAX == 0.3

    def test_unset_knobs_refused(self):
        """The step policy, the membership threshold, the critical-point
        tolerance of S_dtau and the RS degeneracy tolerance are module
        constants, not keywords or path fields."""
        seed = self.seed()
        for knob in ({"p_max": 0.5}, {"first_step": 1e-5}, {"min_step": 1e-9}):
            with pytest.raises(TypeError):
                continue_nome(seed, XI_3L1, RS21, IDX21, 1e-3, **knob)
        for field in ("first_step", "linear_steps", "min_step", "newton_tol"):
            with pytest.raises(TypeError):
                critical.ContinuationPath(steps=[], target_p=0j, **{field: 1})
        with pytest.raises(TypeError):
            master.S_dtau(seed.point, XI_3L1, RS21, IDX21, crit_tol=1.0)
        with pytest.raises(TypeError):
            master.membership_F(seed.point, XI_3L1, RS21, IDX21, threshold=0.1)
        with pytest.raises(TypeError):
            rs_series((1, -1), 2, 1, 2, degeneracy_tol=1e-3)

    def test_too_few_steps_refused(self):
        with pytest.raises(DomainError):
            continue_nome(self.seed(), XI_3L1, RS21, IDX21, 1e-3, steps=0)

    def test_elliptic_seed_refused(self):
        seed = self.seed()
        moved = dataclasses.replace(
            seed, point=EllipticPoint(seed.point.t, Nome(p=1e-3)))
        with pytest.raises(DomainError):
            continue_nome(moved, XI_3L1, RS21, IDX21, 1e-2)

    def test_degenerate_seed_refused(self):
        bad = dataclasses.replace(self.seed(), hessian_det=0.0)
        with pytest.raises(DegeneracyError):
            continue_nome(bad, XI_3L1, RS21, IDX21, 1e-4)

    def test_non_root_seed_refused(self):
        bad = dataclasses.replace(self.seed(), grad_norm=1.0)
        with pytest.raises(DomainError):
            continue_nome(bad, XI_3L1, RS21, IDX21, 1e-4)


#: The sweep of the step controller against the fixed schedule: 57 levels.
SWEEP_LEVELS = (
    [(2, l, lam) for l in (1, 2, 3, 4, 6, 8, 12, 16, 20, 24)
     for lam in ((0, 0), (Fraction(1, 2), Fraction(-1, 2)), (1, -1), (2, -2))]
    + [(3, 1, lam) for lam in ((0, 0, 0), (1, 0, -1), (2, 0, -2), (1, 1, -2),
                               (2, -1, -1), (3, 0, -3), (2, 1, -3), (4, 0, -4),
                               (5, 0, -5), (8, 0, -8))]
    + [(3, 2, (0, 0, 0)), (3, 2, (1, 0, -1)), (3, 3, (0, 0, 0)),
       (4, 1, (0, 0, 0, 0)), (4, 1, (1, 0, 0, -1)), (4, 2, (0, 0, 0, 0)),
       (5, 1, (0, 0, 0, 0, 0))])


class TestStepControl:
    """The step-controlled continuation against the fixed schedule it
    replaced (``schedule_path``), and its limits."""

    @pytest.mark.parametrize("p", [0.01, 0.1, 0.3, 0.2 + 0.1j])
    def test_same_roots_as_the_schedule(self, monkeypatch, p):
        """At every sweep level the schedule continues to p, the controller
        continues too and reaches the same root to 1e-12, with fewer
        master evaluations over the sweep."""
        calls = [0]
        evaluate = master._master

        def counted(*args):
            calls[0] += 1
            return evaluate(*args)

        monkeypatch.setattr(master, "_master", counted)
        spent = {"schedule": 0, "controller": 0}
        continued = 0
        for N, l, lam in SWEEP_LEVELS:
            rs, idx, xi_s, seed = searched_root(N, l, lam)
            calls[0] = 0
            try:
                old = schedule_path(seed, xi_s, rs, idx, p)[-1]
            except ConvergenceError:
                continue
            spent["schedule"] += calls[0]
            calls[0] = 0
            new = continue_nome(seed, xi_s, rs, idx, p).endpoint
            spent["controller"] += calls[0]
            continued += 1
            assert new.p == old.p == p
            gap = max_root_gap(old, new)
            assert gap <= 1e-12, f"N={N} l={l} lambda={lam}: |dt| = {gap}"
        assert continued >= 52, continued
        assert spent["controller"] < spent["schedule"], spent

    @pytest.mark.parametrize("l,lam", [(24, (0, 0)),
                                       (20, (Fraction(1, 2), Fraction(-1, 2)))])
    def test_large_l_stalls_at_the_rounding_floor(self, l, lam):
        """A known limit: at N=2 l=24 lambda=0 and l=20 lambda=(1/2,-1/2),
        continuation to p = 0.3 stalls past |p| = 0.15, where |grad| at the
        floating-point neighbours of the root is about NEWTON_TOL itself,
        so Newton runs out of iterations on its last bits.  The stall is a
        typed ConvergenceError carrying the path of converged roots."""
        rs, idx, xi_s, seed = searched_root(2, l, lam)
        with pytest.raises(ConvergenceError, match="stalled") as info:
            continue_nome(seed, xi_s, rs, idx, 0.3)
        path = info.value.path
        assert isinstance(path, critical.ContinuationPath)
        assert 0.15 < abs(path.endpoint.p) < 0.3
        assert all(s.report.grad_norm < NEWTON_TOL for s in path.steps)
        assert path.rejected[-1][1] == "iterations"


class TestPermutationRobustness:
    """Different Weyl-image parameterizations reach the same spectrum."""

    def test_n3_both_parameter_assignments_agree(self):
        point_a, rep_a = closed_form_n3_l1(3, 3)[0]
        point_b, rep_b = closed_form_n3_l1(-3, -3)[0]
        xi_a = Weight([3, 0, -3])
        xi_b = Weight([-3, 0, 3])
        path_a = continue_nome(rep_a, xi_a, RS31, IDX31, 1e-3, steps=6,
                               eigenvalues=True)
        path_b = continue_nome(rep_b, xi_b, RS31, IDX31, 1e-3, steps=6,
                               eigenvalues=True)
        e_a = path_a.endpoint.eigenvalue
        e_b = path_b.endpoint.eigenvalue
        assert abs(e_a - e_b) < 1e-9 * max(1.0, abs(e_a)), (
            f"eigenvalues differ: {e_a} vs {e_b}")


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
