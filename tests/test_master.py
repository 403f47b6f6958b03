"""Tests for the master functions: log-gradients, Hessians, the eigenvalue
functional, and the trigonometric degeneration.

The trigonometric equations are the elliptic ones at p = 0, evaluated in t.
The hand-derivable N=2 and N=3 (l=1) closed-form values, stated in
T = exp(-2 pi i t), anchor the sign and exponent conventions through the
exact chain rule grad_t = (-2 pi i T) grad_T and, at a root,
det H_t = Prod_k (-2 pi i T_k)^2 det H_T; a test-local T-gradient is the
reference for those cross-checks.  Finite differences validate every
derivative; the elliptic gradient is verified to approach the image of the
trigonometric one linearly in p.
"""

import cmath
import math

import numpy as np
import pytest

from cmbethe import elliptic, master
from cmbethe.elliptic import Nome, log_theta_dtau
from cmbethe.errors import (ConvergenceError, DegeneracyError, DomainError,
                            MembershipError)
from cmbethe.master import (
    CriticalReport,
    EllipticPoint,
    S_dtau,
    eigenvalue_elliptic,
    hessian_tau,
    log_phi_tau_grad,
    make_report,
    membership_F,
    newton_polish_tau,
)
from cmbethe.critical import (continue_nome, find_admissible_critical_point,
                              hess_closed_form_n2)
from cmbethe.weights import (Weight, build_indexing, lambda_to_xi, root_system,
                             weight_from_lambda_coords)
from total_convention import S_dtau_total, eigenvalue_total

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


def t_to_T_det(det_t, T):
    """det H_T from det H_t at a root: det H_t = Prod_k (-2 pi i T_k)^2 det H_T."""
    return det_t / np.prod((-2j * math.pi * np.asarray(T)) ** 2)


def _log_phi_tri_grad(T, xi, rs, idx):
    """Reference d log Phi_tri / dT_i in the T variables (no singularity guard)."""
    T = np.atleast_1d(np.asarray(T, dtype=complex))
    b = np.array([-np.diff(xi.coords)[c - 1] for c in idx.c], dtype=complex)
    mask1 = np.array([c == 1 for c in idx.c])
    K = idx.pair_coupling
    grad = -(b - 1.0) / T
    grad[mask1] += rs.l * rs.N / (1.0 - T[mask1])
    D = T[:, None] - T[None, :]
    sel = (K != 0) & ~np.eye(idx.m, dtype=bool)
    contrib = np.zeros_like(D)
    contrib[sel] = K[sel] / D[sel]
    return grad + contrib.sum(axis=1)


def n3_closed_point(m1, m2):
    """The N=3, l=1 closed-form critical point (T_1, T_2, T_3)."""
    t3 = (m1 + m2 - 1) * (m2 - 1) / ((m1 + m2 + 1) * (m2 + 1))
    a = (m1 + m2 + 1) * (m1 + 1)
    b = 2 * (-m1 * m1 - m1 * m2 + 2)
    c = (m1 + m2 - 1) * (m1 - 1)
    disc = cmath.sqrt(b * b - 4 * a * c)
    return np.array([(-b + disc) / (2 * a), (-b - disc) / (2 * a), t3])


class TestTrigGradient:
    """The Bethe equations at p = 0, in t, against their T-variable form."""

    def test_n2_critical_point_has_zero_gradient(self):
        assert abs(_log_phi_tri_grad([0.5], XI_3L1, RS21, IDX21)[0]) == 0.0
        g = log_phi_tau_grad(trig_point([0.5]), XI_3L1, RS21, IDX21)
        assert abs(g[0]) == 0.0, f"grad at T=1/2: {g}"

    def test_n2_off_critical_value(self):
        g_T = _log_phi_tri_grad([1.0 / 3.0], XI_3L1, RS21, IDX21)
        assert abs(g_T[0] - (-3.0)) < 1e-12, f"grad_T at T=1/3: {g_T} vs -3"
        # grad_t = (-2 pi i T) grad_T = 2 pi i
        g = log_phi_tau_grad(trig_point([1.0 / 3.0]), XI_3L1, RS21, IDX21)
        assert abs(g[0] - 2j * math.pi) < 1e-12, f"grad at T=1/3: {g} vs 2 pi i"

    def test_n3_closed_form_point_is_critical(self):
        T = n3_closed_point(3, 3)
        assert abs(T[2] - 5.0 / 14.0) < 1e-14
        g = log_phi_tau_grad(trig_point(T), XI_33, RS31, IDX31)
        assert np.linalg.norm(g) < 1e-12, f"grad at N=3 closed form: {g}"

    def test_finite_difference_consistency(self):
        """grad_t at p = 0 against centered differences of log Phi_tri(T(t)),
        and against the chain-rule image of the reference T-gradient."""
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(10):
            T = 0.3 + rng.random(3) + 0.5j * (rng.random(3) - 0.5)
            pt = trig_point(T)
            grad = log_phi_tau_grad(pt, XI_33, RS31, IDX31)
            image = (-2j * math.pi * T) * _log_phi_tri_grad(T, XI_33, RS31, IDX31)
            assert np.abs(grad - image).max() < 1e-12 * max(1.0, np.abs(image).max())
            for i in range(3):
                for direction in (1.0, 1.0j):
                    tp, tm = pt.t.copy(), pt.t.copy()
                    tp[i] += h * direction
                    tm[i] -= h * direction
                    fd = (_log_phi_tri_value(np.exp(-2j * math.pi * tp))
                          - _log_phi_tri_value(np.exp(-2j * math.pi * tm))) / (2 * h * direction)
                    rel = abs(grad[i] - fd) / max(1.0, abs(grad[i]))
                    assert rel < 1e-6, f"FD mismatch at i={i}: {grad[i]} vs {fd}"

    def test_singular_configurations_raise_membership_error(self):
        with pytest.raises(MembershipError):
            log_phi_tau_grad(trig_point([1.0]), XI_3L1, RS21, IDX21)
        with pytest.raises(MembershipError):
            # T = 1 again, one period over (T = 0 has no finite t)
            log_phi_tau_grad(EllipticPoint([1.0], P0), XI_3L1, RS21, IDX21)
        with pytest.raises(MembershipError):
            # coupled collision T_1 = T_3 (colors 1 and 2 are adjacent)
            log_phi_tau_grad(trig_point([0.4, 0.7, 0.4]), XI_33, RS31, IDX31)

    def test_size_validation(self):
        with pytest.raises(DomainError):
            log_phi_tau_grad(trig_point([0.5, 0.5]), XI_3L1, RS21, IDX21)


def _log_phi_tri_value(T):
    """Direct log Phi_tri for the N=3, l=1 test weight (FD reference)."""
    m1, m2 = 3.0, 3.0
    a = np.array([m1 - 1, m1 - 1, m2 - 1])
    val = -(a * np.log(T)).sum()
    val -= 1 * 3 * (np.log(1 - T[0]) + np.log(1 - T[1]))
    val += 2 * np.log(T[0] - T[1])
    val -= np.log(T[0] - T[2]) + np.log(T[1] - T[2])
    return val


class TestTrigHessian:
    """Hessian of -log Phi at p = 0 and the closed-form T-determinants."""

    def test_n2_l1_determinant_is_minus_sixteen(self):
        H, det = hessian_tau(trig_point([0.5]), XI_3L1, RS21, IDX21)
        det_T = t_to_T_det(det, [0.5])
        assert abs(det_T - (-16.0)) < 1e-12, f"det = {det_T}"

    def test_n2_l2_determinant_closed_form(self):
        """l=2, m1=4: critical T are the roots of z^2 - (4/5)z + 1/5; the
        determinant closed form l! prod (-m1-j-1)^3/((-m1+1+j)(-2l+j)) = 750."""
        xi = weight_from_lambda_coords([4], 2)
        rs, idx = root_system(2, 2), build_indexing(2, 2)
        roots = np.roots([1.0, -4.0 / 5.0, 1.0 / 5.0])
        g = log_phi_tau_grad(trig_point(roots), xi, rs, idx)
        assert np.linalg.norm(g) < 1e-12, f"closed-form roots not critical: {g}"
        _, det = hessian_tau(trig_point(roots), xi, rs, idx)
        det_T = t_to_T_det(det, roots)
        assert abs(det_T - 750.0) < 1e-9 * 750.0, f"det = {det_T} vs 750"

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        T = 0.3 + rng.random(3) + 0.4j * rng.random(3)
        H, _ = hessian_tau(trig_point(T), XI_33, RS31, IDX31)
        assert np.array_equal(H, H.T), "p = 0 Hessian not exactly symmetric"

    def test_matches_gradient_finite_differences(self):
        rng = np.random.default_rng(13)
        T = 0.3 + rng.random(3) + 0.3j * rng.random(3)
        t = trig_point(T).t
        H, _ = hessian_tau(EllipticPoint(t, P0), XI_33, RS31, IDX31)
        # |H| is about 4e4 here (T_1 and T_2 lie 0.06 apart), so the O(h^2)
        # error of the centered stencil needs a smaller step than in T
        h = 1e-7
        for j in range(3):
            tp, tm = t.copy(), t.copy()
            tp[j] += h
            tm[j] -= h
            fd_col = (log_phi_tau_grad(EllipticPoint(tp, P0), XI_33, RS31, IDX31)
                      - log_phi_tau_grad(EllipticPoint(tm, P0), XI_33, RS31, IDX31)) / (2 * h)
            # H is the Hessian of -log Phi; the gradient is of +log Phi
            err = np.abs(H[:, j] + fd_col).max()
            assert err < 1e-5, f"Hessian column {j} vs FD: err={err}"


class TestEllipticGradient:
    """The elliptic Bethe equations and the trigonometric degeneration."""

    def test_continuation_seed_is_critical_at_p_zero(self):
        t_half = cmath.log(2) / (2j * math.pi)
        pt = EllipticPoint([t_half], Nome(p=0.0))
        g = log_phi_tau_grad(pt, XI_3L1, RS21, IDX21)
        assert abs(g[0]) < 1e-14, f"grad at p=0 seed: {g}"

    def test_finite_difference_consistency(self):
        nm = Nome(p=0.08)
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(5):
            t = 0.1 + 0.3 * rng.random(3) - 0.25j * rng.random(3)
            grad = log_phi_tau_grad(EllipticPoint(t, nm), XI_33, RS31, IDX31)
            for i in range(3):
                tp, tm = t.copy(), t.copy()
                tp[i] += h
                tm[i] -= h
                fd = (_log_phi_tau_value(tp, nm) - _log_phi_tau_value(tm, nm)) / (2 * h)
                rel = abs(grad[i] - fd) / max(1.0, abs(grad[i]))
                assert rel < 1e-6, f"FD mismatch at i={i}: {grad[i]} vs {fd}"

    def test_degeneration_to_trig_gradient_is_linear_in_p(self):
        """At fixed t, the elliptic gradient approaches
        (-2 pi i T_i) * d log Phi_tri/dT_i with T = exp(-2 pi i t), linearly in p."""
        t = np.array([0.1 - 0.22j])
        T = np.exp(-2j * math.pi * t)
        image = (-2j * math.pi * T) * _log_phi_tri_grad(T, XI_3L1, RS21, IDX21)
        gaps = []
        for p in (1e-4, 1e-6, 1e-8):
            g = log_phi_tau_grad(EllipticPoint(t, Nome(p=p)), XI_3L1, RS21, IDX21)
            gaps.append(abs((g - image)[0]))
        assert gaps[0] < 1e-2
        assert abs(gaps[0] / gaps[1] - 100.0) < 5.0, f"not linear in p: {gaps}"
        assert abs(gaps[1] / gaps[2] - 100.0) < 5.0, f"not linear in p: {gaps}"

    def test_degeneration_n3(self):
        t = np.array([0.21 - 0.1j, 0.52 - 0.05j, 0.33 - 0.3j])
        T = np.exp(-2j * math.pi * t)
        image = (-2j * math.pi * T) * _log_phi_tri_grad(T, XI_33, RS31, IDX31)
        g8 = log_phi_tau_grad(EllipticPoint(t, Nome(p=1e-8)), XI_33, RS31, IDX31)
        assert np.abs(g8 - image).max() < 1e-6, f"degeneration gap: {np.abs(g8 - image).max()}"

    def test_theta_zero_coincidence_raises_membership_error(self):
        nm = Nome(p=0.1)
        with pytest.raises(MembershipError):
            log_phi_tau_grad(EllipticPoint([0.0], nm), XI_3L1, RS21, IDX21)
        with pytest.raises(MembershipError):
            log_phi_tau_grad(EllipticPoint([0.3, 0.3, 0.8], nm), XI_33, RS31, IDX31)


def _log_phi_tau_value(t, nm):
    """Direct log Phi_tau for the N=3, l=1 test weight (FD reference).

    xi = 3 Lambda_1 + 3 Lambda_2 has traceless coordinates (3, 0, -3)."""
    from cmbethe.elliptic import theta
    xi = np.array([3.0, 0.0, -3.0])
    alpha = {1: np.array([1.0, -1.0, 0.0]), 2: np.array([0.0, 1.0, -1.0])}
    colors = (1, 1, 2)
    val = 2j * math.pi * sum(float(xi @ alpha[c]) * ti for c, ti in zip(colors, t))
    K = {(0, 1): 2.0, (0, 2): -1.0, (1, 2): -1.0}
    for (i, j), k in K.items():
        val += k * cmath.log(theta(t[i] - t[j], nm).value)
    val -= 1 * 3 * (cmath.log(theta(t[0], nm).value) + cmath.log(theta(t[1], nm).value))
    return val


class TestEllipticHessian:
    def test_symmetry_exact(self):
        nm = Nome(p=0.09)
        rng = np.random.default_rng(23)
        t = 0.1 + 0.3 * rng.random(3) - 0.2j * rng.random(3)
        H, _ = hessian_tau(EllipticPoint(t, nm), XI_33, RS31, IDX31)
        assert np.array_equal(H, H.T), "hessian_tau not exactly symmetric"

    def test_matches_gradient_finite_differences(self):
        nm = Nome(p=0.09)
        rng = np.random.default_rng(29)
        t = 0.1 + 0.3 * rng.random(3) - 0.2j * rng.random(3)
        H, _ = hessian_tau(EllipticPoint(t, nm), XI_33, RS31, IDX31)
        h = 1e-6
        for j in range(3):
            tp, tm = t.copy(), t.copy()
            tp[j] += h
            tm[j] -= h
            fd_col = (log_phi_tau_grad(EllipticPoint(tp, nm), XI_33, RS31, IDX31)
                      - log_phi_tau_grad(EllipticPoint(tm, nm), XI_33, RS31, IDX31)) / (2 * h)
            err = np.abs(H[:, j] + fd_col).max()
            assert err < 1e-5, f"Hessian column {j} vs FD: err={err}"

    def test_trig_limit_matches_transformed_trig_hessian(self):
        """At p=0 and a critical point, the t-Hessian is the T-Hessian
        transformed by dT/dt = -2 pi i T (no gradient cross term)."""
        t_half = cmath.log(2) / (2j * math.pi)
        H_t, _ = hessian_tau(EllipticPoint([t_half], Nome(p=0.0)), XI_3L1, RS21, IDX21)
        H_T = hess_closed_form_n2(3, 1)      # the 1 x 1 T-Hessian at T = 1/2
        jac = -2j * math.pi * 0.5
        assert abs(H_t[0, 0] - jac * jac * H_T) < 1e-10, \
            f"{H_t[0, 0]} vs {jac * jac * H_T}"


class TestNewtonPolish:
    def test_polishes_seed_at_small_nome(self):
        t_half = cmath.log(2) / (2j * math.pi)
        nm = Nome(p=1e-3)
        t = newton_polish_tau(np.array([t_half], dtype=complex), XI_3L1, RS21, IDX21, nm)
        g = log_phi_tau_grad(EllipticPoint(t, nm), XI_3L1, RS21, IDX21)
        assert np.linalg.norm(g) < 1e-12
        assert abs(t[0] - t_half) < 1e-2, "polished point wandered far from seed"

    def test_singular_solve_is_degeneracy_error(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(DegeneracyError):
            newton_polish_tau(np.array([0.45 + 0.0j]), XI_3L1, RS21, IDX21,
                              Nome(p=0.1))

    def test_iterate_makes_one_kernel_call(self, monkeypatch):
        """Each Newton iterate at p = 0.01 evaluates the gradient, the
        Hessian and membership from one theta-series call."""
        nm = Nome(p=0.01)
        elliptic.theta(0.1, nm)             # the per-nome zero data, cached
        counts = {"kernel": 0, "solve": 0}
        kernel, solve = elliptic._theta_hat, np.linalg.solve

        def counted_kernel(*args):
            counts["kernel"] += 1
            return kernel(*args)

        def counted_solve(*args):
            counts["solve"] += 1
            return solve(*args)

        monkeypatch.setattr(elliptic, "_theta_hat", counted_kernel)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        t_half = cmath.log(2) / (2j * math.pi)
        newton_polish_tau(np.array([t_half]), XI_3L1, RS21, IDX21, nm)
        with pytest.raises(ConvergenceError):
            newton_polish_tau(np.array([0.3 - 0.2j, 0.5 - 0.3j, 0.4 - 0.1j]),
                              XI_33, RS31, IDX31, nm, tol=1e-300, max_iter=3)
        assert counts["solve"] > 3
        # one call per iterate: each run evaluates one iterate past its steps
        assert counts["kernel"] == counts["solve"] + 2

    def test_contracting_newton_refusals(self):
        """With ``contract`` the Newton refuses a capped correction and one
        that fails to halve the last; corrections below the rounding floor
        are not tested, so an unreachable tolerance runs out of iterations.
        Each refusal names its reason."""
        t_half = cmath.log(2) / (2j * math.pi)
        cases = [(0.45 + 0j, 0.1, 1e-12, "capped step"),
                 (0.05 - 0.1j, 0.01, 1e-12, "no contraction"),
                 (t_half, 0.01, 1e-300, "iterations")]
        for seed, p, tol, reason in cases:
            with pytest.raises(ConvergenceError) as info:
                master._polish(np.array([seed]), XI_3L1, RS21, IDX21,
                               Nome(p=p), tol, contract=True)
            assert info.value.reason == reason, str(info.value)
        # without the contraction test the capped Newton converges
        rep = master._polish(np.array([0.05 - 0.1j]), XI_3L1, RS21, IDX21,
                             Nome(p=0.01))
        assert rep.grad_norm < 1e-12

    def test_report_carries_correction_sizes(self):
        """The report lists the max-abs size of each correction taken, one
        per Newton step; none exceeds the cap, and they contract."""
        t_half = cmath.log(2) / (2j * math.pi)
        rep = master._polish(np.array([t_half]), XI_3L1, RS21, IDX21,
                             Nome(p=0.01), contract=True)
        sizes = rep.corrections
        assert len(sizes) >= 1 and max(sizes) <= master._MAX_STEP
        assert all(b <= 0.5 * a for a, b in zip(sizes, sizes[1:])), sizes
        assert np.array_equal(rep.point.t, newton_polish_tau(
            np.array([t_half]), XI_3L1, RS21, IDX21, Nome(p=0.01)))

    def test_unreachable_tolerance_raises(self):
        nm = Nome(p=0.1)
        bad_seed = np.array([0.45 + 0.0j])   # real t: no critical point nearby
        with pytest.raises(ConvergenceError):
            newton_polish_tau(bad_seed, XI_3L1, RS21, IDX21, nm, max_iter=3)


def _S_partial_dtau_loop(t, nome, rs, idx):
    """Reference dS/dtau at fixed t: one scalar log_theta_dtau per factor."""
    K = idx.pair_coupling
    total = 0j
    for i in range(idx.m):
        for j in range(i + 1, idx.m):
            if K[i, j] != 0:
                total += K[i, j] * log_theta_dtau(t[i] - t[j], nome)
    for i in (k for k, c in enumerate(idx.c) if c == 1):
        total -= rs.l * rs.N * log_theta_dtau(t[i], nome)
    return complex(total)


class TestSdtauAndEigenvalue:
    """The eigenvalue functional, with the rejected total derivative
    (``total_convention``) as the measured alternative."""

    def _critical_at(self, p):
        t_half = cmath.log(2) / (2j * math.pi)
        nm = Nome(p=p)
        t = newton_polish_tau(np.array([t_half], dtype=complex), XI_3L1, RS21, IDX21, nm)
        return EllipticPoint(t, nm)

    def test_requires_critical_point(self):
        nm = Nome(p=0.01)
        with pytest.raises(DomainError):
            S_dtau(EllipticPoint([0.3 - 0.2j], nm), XI_3L1, RS21, IDX21)

    def test_eigenvalue_makes_one_kernel_call(self, monkeypatch):
        """The gradient check and dS/dtau share one theta-series call."""
        pt = self._critical_at(0.01)
        elliptic.theta(0.1, pt.nome)        # the per-nome zero data, cached
        ref = 9 * math.pi ** 2 - 2j * math.pi * _S_partial_dtau_loop(
            pt.t, pt.nome, RS21, IDX21)
        calls = []
        kernel = elliptic._theta_hat

        def counted_kernel(*args):
            calls.append(args[2])
            return kernel(*args)

        monkeypatch.setattr(elliptic, "_theta_hat", counted_kernel)
        E = eigenvalue_elliptic(pt, XI_3L1, RS21, IDX21)
        assert calls == [("s0", "s1", "st")]
        assert abs(E - ref) <= 1e-14 * abs(ref), f"{E} vs {ref}"

    def test_invalid_mode_rejected(self):
        """The library has one derivative convention: a mode is refused."""
        pt = self._critical_at(1e-3)
        with pytest.raises(TypeError):
            S_dtau(pt, XI_3L1, RS21, IDX21, mode="partial")
        with pytest.raises(TypeError):
            eigenvalue_elliptic(pt, XI_3L1, RS21, IDX21, mode="total")

    def test_zero_at_p_zero(self):
        t_half = cmath.log(2) / (2j * math.pi)
        pt = EllipticPoint([t_half], Nome(p=0.0))
        assert S_dtau(pt, XI_3L1, RS21, IDX21) == 0
        assert S_dtau_total(pt, XI_3L1, RS21, IDX21) == 0

    def test_partial_mode_scales_linearly_in_p(self):
        s6 = S_dtau(self._critical_at(1e-6), XI_3L1, RS21, IDX21)
        s8 = S_dtau(self._critical_at(1e-8), XI_3L1, RS21, IDX21)
        ratio = abs(s6) / abs(s8)
        assert abs(ratio - 100.0) < 5.0, f"|S_dtau| ratio across decades: {ratio}"

    def test_eigenvalue_assembly_near_trig_limit(self):
        pt = self._critical_at(1e-6)
        E = eigenvalue_elliptic(pt, XI_3L1, RS21, IDX21)
        target = 9 * math.pi ** 2
        assert abs(E - target) < 1e-3 * target, f"E = {E} vs 9 pi^2 = {target}"

    def test_eigenvalue_real_for_admissible_weight(self):
        pt = self._critical_at(1e-3)
        for mode, fn in (("partial", eigenvalue_elliptic),
                         ("total", eigenvalue_total)):
            E = fn(pt, XI_3L1, RS21, IDX21)
            assert abs(E.imag) < 1e-6 * abs(E), f"Im E in {mode} mode: {E}"

    def test_mode_discrepancy_identity(self):
        """total - partial = Sum_i (dS/dt_i)(dt_i/dtau) with
        dS/dt_i = -2 pi i (xi, alpha_c(i)) at a critical point."""
        pt = self._critical_at(1e-3)
        nm, t = pt.nome, pt.t
        sp = S_dtau(pt, XI_3L1, RS21, IDX21)
        st = S_dtau_total(pt, XI_3L1, RS21, IDX21)
        tau = nm.tau
        d = 1e-4 * abs(tau)
        u = tau / abs(tau)
        t_p = newton_polish_tau(t, XI_3L1, RS21, IDX21, Nome(tau=tau + d * u))
        t_m = newton_polish_tau(t, XI_3L1, RS21, IDX21, Nome(tau=tau - d * u))
        dt_dtau = (t_p - t_m) / (2 * d * u)
        predicted = np.sum(-2j * math.pi * 3.0 * dt_dtau)   # (xi, alpha_1) = 3
        assert abs((st - sp) - predicted) < 1e-8, \
            f"discrepancy {st - sp} vs predicted {predicted}"

    def test_modes_differ_at_order_p(self):
        sp = S_dtau(self._critical_at(1e-2), XI_3L1, RS21, IDX21)
        st = S_dtau_total(self._critical_at(1e-2), XI_3L1, RS21, IDX21)
        assert abs(sp - st) > 1e-4, "modes indistinguishable at p=1e-2"

    @pytest.mark.parametrize("N,l,lam", [(2, 3, (1, -1)), (3, 1, (1, 0, -1))])
    @pytest.mark.parametrize("p", [0.01, 0.3])
    def test_partial_dtau_matches_scalar_loop(self, N, l, lam, p):
        """The one-call dS/dtau equals the per-factor scalar loop."""
        rs, idx = root_system(N, l), build_indexing(N, l)
        xi = lambda_to_xi(Weight(list(lam)), rs)
        sigma, seed = find_admissible_critical_point(xi, rs, idx)
        xi_s = Weight([xi.exact[i] for i in sigma])
        pt = continue_nome(seed, xi_s, rs, idx, p).endpoint.point
        ref = _S_partial_dtau_loop(pt.t, pt.nome, rs, idx)
        val = S_dtau(pt, xi_s, rs, idx)
        assert abs(val - ref) <= 1e-15 * abs(ref), f"{val} vs {ref}"


class TestMembershipAndReport:
    def test_trig_membership_examples(self):
        assert membership_F(trig_point([0.5]), XI_3L1, RS21, IDX21)
        assert not membership_F(trig_point([1.0]), XI_3L1, RS21, IDX21)
        assert not membership_F(EllipticPoint([1.0], P0), XI_3L1, RS21, IDX21)
        assert membership_F(trig_point(n3_closed_point(3, 3)), XI_33, RS31, IDX31)
        assert not membership_F(trig_point([0.4, 0.4, 0.7]), XI_33, RS31, IDX31)

    def test_elliptic_membership(self):
        nm = Nome(p=0.05)
        assert membership_F(EllipticPoint([0.3 - 0.2j], nm), XI_3L1, RS21, IDX21)
        assert not membership_F(EllipticPoint([0.0], nm), XI_3L1, RS21, IDX21)

    def test_report_fields(self):
        rep = make_report(trig_point([0.5]), XI_3L1, RS21, IDX21)
        assert isinstance(rep, CriticalReport)
        assert rep.grad_norm == 0.0
        assert abs(t_to_T_det(rep.hessian_det, [0.5]) - (-16.0)) < 1e-12
        assert rep.in_F

    @pytest.mark.parametrize("point,xi,rs,idx", [
        (trig_point([0.5]), XI_3L1, RS21, IDX21),
        (trig_point([1.0]), XI_3L1, RS21, IDX21),
        (EllipticPoint([1.0], P0), XI_3L1, RS21, IDX21),
        (EllipticPoint([1e-11], P0), XI_3L1, RS21, IDX21),
        (trig_point(n3_closed_point(3, 3)), XI_33, RS31, IDX31),
        (trig_point([0.4, 0.4, 0.7]), XI_33, RS31, IDX31),
        (EllipticPoint([0.3 - 0.2j], Nome(p=0.05)), XI_3L1, RS21, IDX21),
        (EllipticPoint([0.0], Nome(p=0.05)), XI_3L1, RS21, IDX21),
    ], ids=["T=1/2", "T=1", "t=1", "t=1e-11", "N3-closed-form", "T1=T2",
            "p=0.05", "p=0.05-t=0"])
    def test_report_reads_one_evaluation(self, point, xi, rs, idx):
        """The report's membership and Hessian are those of membership_F and
        hessian_tau; a factor on the theta zero lattice is outside F and
        has no report."""
        in_f = membership_F(point, xi, rs, idx)
        try:
            rep = make_report(point, xi, rs, idx)
        except MembershipError:
            assert not in_f
            return
        assert rep.in_F == in_f
        H, det = hessian_tau(point, xi, rs, idx)
        assert np.array_equal(rep.hessian, H)
        assert rep.hessian_det == det

    def test_report_elliptic(self):
        t_half = cmath.log(2) / (2j * math.pi)
        nm = Nome(p=1e-3)
        t = newton_polish_tau(np.array([t_half], dtype=complex), XI_3L1, RS21, IDX21, nm)
        rep = make_report(EllipticPoint(t, nm), XI_3L1, RS21, IDX21)
        assert rep.grad_norm < 1e-12
        assert rep.in_F
        assert abs(rep.hessian_det) > 1.0


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
