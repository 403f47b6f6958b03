"""Acceptance gate: every primary capability runs end to end at its stated
tolerance, one criterion per test.

Each test prints a single ``[PASS criterion-k] ...`` line (visible under
``pytest -s``; captured and shown on failure otherwise) carrying the measured
numbers, so a run of this file is a complete scoreboard.  Conventions the
numerics fix empirically rather than by fiat -- the eigenvalue derivative
mode, the p -> 0 eigenvalue-limit variant, the N=3 Hessian sign, and the
product-display prefactor -- are recorded in the printed lines.

Oracle strategy: closed forms and gate tables are exact (rationals, integer
enumeration); analytic identities are checked against independently computed
references (Rayleigh quotients, symbolically derived ratios, hand partial
sums) at the tolerances stated in each line.
"""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cmbethe import (
    Nome,
    Weight,
    admissible,
    bethe_crosscheck,
    bethe_state_elliptic,
    build_indexing,
    closed_form_n2,
    closed_form_n3_l1,
    continue_nome,
    cs_quotient,
    delta_closed_form_n2,
    delta_direct,
    dominance_leq,
    e0,
    eigenvalue_elliptic,
    find_admissible_critical_point,
    hess_closed_form_n2,
    inner_product,
    jack_energy,
    jack_expand,
    jack_proportionality,
    n3_closed_form_displays,
    newton_polish_tau,
    residual_check,
    root_system,
    rs_series,
    sigma_closed_form,
    target_eigenvalue,
    weight_from_lambda_coords,
)
from pointwise_jack import pointwise_jack_ratio
from total_convention import eigenvalue_total

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def det_T(report):
    """A p = 0 report's t-Hessian determinant in the closed forms' T
    convention: det H_t = Prod_k (-2 pi i T_k)^2 det H_T at a root."""
    T = report.point.to_T()
    return report.hessian_det / np.prod((-2j * math.pi * T) ** 2)


def target_with_term(lam, N, l):
    """The rejected p -> 0 eigenvalue variant: the library target plus the
    extra constant (pi^2/6) N(N-1) l(l+1)."""
    return (target_eigenvalue(lam, N, l)
            + math.pi ** 2 / 6.0 * N * (N - 1) * l * (l + 1))


def _gate(k: int, ok: bool, detail: str) -> None:
    """Print the one-line scoreboard entry for criterion k, then assert."""
    print(f"[{'PASS' if ok else 'FAIL'} criterion-{k}] {detail}")
    assert ok, f"criterion-{k}: {detail}"


def elementary_symmetric(roots):
    """sigma_1..sigma_n of the given roots, via the monic polynomial."""
    coeffs = np.poly(np.asarray(roots, dtype=complex))
    return [(-1) ** k * coeffs[k] for k in range(1, len(coeffs))]


def partitions_of(total, N):
    """All integer partitions of ``total`` into at most N non-negative parts,
    padded to length N."""
    out = {tuple(sorted(p, reverse=True))
           for p in itertools.product(range(total + 1), repeat=N)
           if sum(p) == total}
    return sorted(out, reverse=True)


def test_criterion_1_n2_closed_forms():
    """Closed-form N=2 critical points: Newton lands on the exact
    elementary-symmetric values; discriminant/Hessian formulas match direct
    evaluation; the l=1, m1=3 Hessian determinant is -16."""
    worst_sigma = worst_delta = worst_hess = 0.0
    rng = np.random.default_rng(7)
    for l in (1, 2, 3):
        rs, idx = root_system(2, l), build_indexing(2, l)
        for m1 in range(l + 2, l + 7):
            xi = weight_from_lambda_coords([m1], 2)
            point, report = closed_form_n2(m1, l)
            exact = [float(s) for s in sigma_closed_form(m1, l)]
            jitter = 1.0 + 0.02 * rng.standard_normal(l)
            t_seed = np.log(point.to_T() * jitter) / (-2j * math.pi)
            refined = newton_polish_tau(t_seed, xi, rs, idx, Nome(p=0.0))
            got = elementary_symmetric(np.exp(-2j * math.pi * refined))
            worst_sigma = max(worst_sigma, max(
                abs(g - e) for g, e in zip(got, exact)))
            delta_c = delta_closed_form_n2(m1, l)
            worst_delta = max(worst_delta, abs(delta_direct(point.to_T()) - delta_c)
                              / max(1.0, abs(delta_c)))
            hess_c = hess_closed_form_n2(m1, l)
            worst_hess = max(worst_hess, abs(det_T(report) - hess_c)
                             / max(1.0, abs(hess_c)))
    _, rep31 = closed_form_n2(3, 1)
    gap16 = max(abs(float(hess_closed_form_n2(3, 1)) + 16.0),
                abs(det_T(rep31) + 16.0))
    ok = (worst_sigma < 1e-10 and worst_delta < 1e-9
          and worst_hess < 1e-9 and gap16 < 1e-12)
    _gate(1, ok,
          f"N=2 closed forms (l=1..3, m1=l+2..l+6): Newton->sigma worst "
          f"{worst_sigma:.2e} (tol 1e-10); delta rel {worst_delta:.2e}, "
          f"Hessian rel {worst_hess:.2e} (tol 1e-9); l=1 m1=3 det vs -16: "
          f"{gap16:.2e} (tol 1e-12)")


def test_criterion_2_n3_closed_forms():
    """Closed-form N=3, l=1 points: zero gradient, displayed product
    identities, and displayed Hessian magnitude (direct sign is opposite
    the displayed value; recorded here)."""
    worst_grad = worst_prod = worst_hess = 0.0
    for m1, m2 in [(2, 2), (3, 3), (2, 4), (3, 2)]:   # none are excluded
        point, report = closed_form_n3_l1(m1, m2)[0]
        disp = n3_closed_form_displays(m1, m2)
        worst_grad = max(worst_grad, report.grad_norm)
        t1, t2 = point.to_T()[:2]
        prod_disp = disp["prod_sq_factor"] * disp["prod_sq_display"]
        worst_prod = max(
            worst_prod,
            abs(t1 * t2 - disp["T1T2"]) / max(1.0, abs(disp["T1T2"])),
            abs((1 - t1) * (1 - t2) - disp["one_minus_T1_one_minus_T2"])
            / max(1.0, abs(disp["one_minus_T1_one_minus_T2"])),
            abs(delta_direct(point.to_T()) - prod_disp) / max(1.0, abs(prod_disp)))
        hess_disp = disp["hessian_factor"] * disp["hessian_display"]
        worst_hess = max(worst_hess, abs(det_T(report) - hess_disp)
                         / max(1.0, abs(hess_disp)))
    ok = worst_grad < 1e-12 and worst_prod < 1e-10 and worst_hess < 1e-9
    _gate(2, ok,
          f"N=3 l=1 closed forms (2,2),(3,3),(2,4),(3,2): grad worst "
          f"{worst_grad:.2e} (tol 1e-12); product identities worst "
          f"{worst_prod:.2e} (tol 1e-10); Hessian magnitude worst "
          f"{worst_hess:.2e} (tol 1e-9), sign: direct = -(displayed)")


def test_criterion_3_jack_proportionality():
    """Sym^(l) omega_tri is proportional to J_lambda * Delta^{l+1} at 20
    random torus points and coefficient by coefficient, for five N=2 labels
    per l and three N=3 labels; the N=2, l=1, lambda=(1/2,-1/2) constant
    equals 1/2."""
    worst = worst_res = 0.0
    cases = 0
    ratio_gap = math.inf

    def certify(state, jack, l):
        nonlocal worst, worst_res, cases
        _, spread = pointwise_jack_ratio(state, jack, l, n_samples=20)
        c, residual = jack_proportionality(state.point, state.xi, jack, l)
        worst = max(worst, spread)
        worst_res = max(worst_res, residual)
        cases += 1
        return c

    for l in (1, 2, 3):
        rs, idx = root_system(2, l), build_indexing(2, l)
        for k in range(1, 6):
            m1 = l + 1 + k
            xi = weight_from_lambda_coords([m1], 2)
            point, _ = closed_form_n2(m1, l)
            state = bethe_state_elliptic(point, xi, rs, idx)
            jack = jack_expand((Fraction(k, 2), Fraction(-k, 2)),
                               Fraction(1, l + 1))
            c = certify(state, jack, l)
            if l == 1 and k == 1:
                ratio_gap = abs(c - 0.5)
    rs31, idx31 = root_system(3, 1), build_indexing(3, 1)
    n3_cases = [((3, 3), (1, 0, -1)),
                ((2, 2), (0, 0, 0)),
                ((2, 4), (Fraction(2, 3), Fraction(2, 3), Fraction(-4, 3)))]
    for (m1, m2), lam in n3_cases:
        xi = weight_from_lambda_coords([m1, m2], 3)
        point, _ = closed_form_n3_l1(m1, m2)[0]
        state = bethe_state_elliptic(point, xi, rs31, idx31)
        certify(state, jack_expand(lam, HALF), 1)
    ok = worst < 1e-9 and worst_res < 1e-12 and ratio_gap < 1e-9
    _gate(3, ok,
          f"proportionality over 20 torus points x {cases} labels "
          f"(N=2 l=1..3 five lambda each; N=3 l=1 three lambda): worst "
          f"spread {worst:.2e} (tol 1e-9); coefficient residual worst "
          f"{worst_res:.2e} (tol 1e-12); N=2 l=1 lambda=(1/2,-1/2) "
          f"constant vs 1/2: {ratio_gap:.2e} (tol 1e-9)")


def test_criterion_4_continuation_paths():
    """Continuation to p = 1e-2 and 1e-1 keeps the Bethe residual < 1e-12
    and the Hessian non-zero at every accepted step; ||t(p) - t(0)|| decays
    linearly in p on a log-log fit over p = 1e-3..1e-5."""
    rs, idx = root_system(2, 1), build_indexing(2, 1)
    xi = weight_from_lambda_coords([3], 2)
    _, rep = find_admissible_critical_point(xi, rs, idx)
    worst_grad = 0.0
    min_hess = math.inf
    all_in_f = True
    for target in (1e-2, 1e-1):
        path = continue_nome(rep, xi, rs, idx, target, steps=12)
        worst_grad = max(worst_grad,
                         max(s.report.grad_norm for s in path.steps))
        min_hess = min(min_hess,
                       min(abs(s.report.hessian_det) for s in path.steps))
        all_in_f = all_in_f and all(s.report.in_F for s in path.steps)
        assert abs(path.endpoint.p - target) < 1e-15
    t0 = cmath.log(2.0) / (2j * math.pi)
    dists = []
    for p in (1e-3, 1e-4, 1e-5):
        path = continue_nome(rep, xi, rs, idx, p, steps=10)
        dists.append(abs(path.endpoint.point.t[0] - t0))
    slope = ((math.log(dists[0]) - math.log(dists[2]))
             / (math.log(1e-3) - math.log(1e-5)))
    ok = (worst_grad < 1e-12 and min_hess > 1e-6 and all_in_f
          and abs(slope - 1.0) < 0.1)
    _gate(4, ok,
          f"paths to p=1e-2 and 1e-1: residual worst {worst_grad:.2e} "
          f"(tol 1e-12), min |Hess| {min_hess:.3f} (non-zero), all steps "
          f"in F: {all_in_f}; ||t(p)-t(0)|| log-log slope {slope:.4f} "
          f"(tol 1.0 +/- 0.1)")


def test_criterion_5_spectral_verification():
    """At p=1e-2 the finite-difference residual is < 1e-4 for four states;
    the critical-value eigenvalue (auto mode) matches the Rayleigh quotient
    to 1e-4; at p=1e-5 the eigenvalue matches one target variant to
    1e-3 -- the variant without the extra constant, recorded below."""
    cases = [([2], 2, 1, (0, 0)),
             ([3], 2, 1, (HALF, -HALF)),
             ([4], 2, 1, (1, -1)),
             ([3, 3], 3, 1, (1, 0, -1))]
    worst_res = worst_ev = worst_tgt = 0.0
    min_other = math.inf
    modes = []
    for ms, N, l, lam in cases:
        rs, idx = root_system(N, l), build_indexing(N, l)
        xi = weight_from_lambda_coords(ms, N)
        sg, rep = find_admissible_critical_point(xi, rs, idx)
        xi_s = Weight([xi.exact[i] for i in sg]) if xi.exact is not None \
            else Weight([float(xi.coords[i]) for i in sg])
        path = continue_nome(rep, xi_s, rs, idx, 1e-2, steps=10)
        pt = path.endpoint.point
        state = bethe_state_elliptic(pt, xi_s, rs, idx,
                                     compute_eigenvalue=False)
        e_ray, rel = residual_check(state, grid_n=48)
        worst_res = max(worst_res, rel)
        by_mode = {"partial": eigenvalue_elliptic(pt, xi_s, rs, idx),
                   "total": eigenvalue_total(pt, xi_s, rs, idx)}
        picked = min(by_mode, key=lambda m: abs(by_mode[m] - e_ray))
        modes.append(picked)
        worst_ev = max(worst_ev, abs(by_mode[picked] - e_ray) / abs(e_ray))
        path5 = continue_nome(rep, xi_s, rs, idx, 1e-5, steps=10,
                              eigenvalues=True)
        e5 = complex(path5.endpoint.eigenvalue).real
        tgt = target_eigenvalue(Weight(list(lam)), N, l)
        other = target_with_term(Weight(list(lam)), N, l)
        worst_tgt = max(worst_tgt, abs(e5 - tgt) / abs(tgt))
        min_other = min(min_other, abs(e5 - other) / abs(other))
    ok = (worst_res < 1e-4 and worst_ev < 1e-4 and worst_tgt < 1e-3
          and set(modes) == {"partial"} and min_other > 1e-3)
    _gate(5, ok,
          f"four states at p=1e-2 (N=2 l=1 lambda=0,(1/2,-1/2),(1,-1); "
          f"N=3 (3,3)): FD residual worst {worst_res:.2e} (tol 1e-4); "
          f"auto-mode eigenvalue vs Rayleigh worst {worst_ev:.2e} "
          f"(tol 1e-4), mode picked: {modes[0]} ({len(modes)}/4); "
          f"E(1e-5) vs target worst {worst_tgt:.2e} (tol 1e-3), variant: "
          f"WITHOUT the extra constant (other variant misses by >= "
          f"{min_other:.2e})")


def test_criterion_6_jack_suite():
    """Jack expansions are unitriangular in dominance order; the Gram
    matrix is diagonal to 1e-9 relative (|lambda| <= 5, N <= 3,
    alpha in {1/2, 1/3}); CS Rayleigh quotients match e0 + 2 pi^2 E_lambda
    to 1e-4."""
    triangular = True
    for N in (2, 3):
        for alpha in (HALF, THIRD):
            for total in range(0, 6):
                for lam in partitions_of(total, N):
                    jk = jack_expand(lam, alpha)
                    triangular &= jk.coeffs[lam] == 1
                    for mu in jk.coeffs:
                        mu_i = tuple(int(v) for v in mu)
                        triangular &= (sum(mu_i) == total
                                       and dominance_leq(mu_i, lam))
    worst_gram = 0.0
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
                                              jks[j].evaluate, alpha, N, 32))
                        worst_gram = max(
                            worst_gram, v / math.sqrt(norms[i] * norms[j]))
    worst_cs = 0.0
    for N in (2, 3):
        for l in (1, 2):
            alpha = Fraction(1, l + 1)
            for total in range(0, 5):
                for lam in partitions_of(total, N):
                    q = cs_quotient(jack_expand(lam, alpha).evaluate, l, N)
                    target = e0(N, l) + 2 * math.pi ** 2 * float(
                        jack_energy([Fraction(v) for v in lam], alpha, N))
                    worst_cs = max(worst_cs, abs(q.real - target) / target)
    ok = triangular and worst_gram < 1e-9 and worst_cs < 1e-4
    _gate(6, ok,
          f"Jack suite (|lambda| <= 5, N <= 3, alpha in {{1/2, 1/3}}): "
          f"unitriangular: {triangular}; Gram off-diagonal worst "
          f"{worst_gram:.2e} (tol 1e-9); CS quotient vs e0 + 2 pi^2 "
          f"E_lambda worst {worst_cs:.2e} over |lambda| <= 4, l <= 2 "
          f"(FD tol 1e-4)")


def test_criterion_7_perturbation_regularity():
    """The K=2 partial sum gap |E_BA(p) - partial| shrinks with log-log
    slope >= 2.7 between p = 1e-2 and 1e-3; the first-order coefficient
    matches a Richardson finite difference of E_BA in p to 1%."""
    series = rs_series((HALF, -HALF), 2, 1, 2)
    cc2 = bethe_crosscheck(series, 1e-2)
    cc3 = bethe_crosscheck(series, 1e-3)
    slope = math.log10(cc2["gap"] / cc3["gap"])
    e_un = series.coefficients[0]
    p = 1e-3
    f_p = (bethe_crosscheck(series, p)["E_BA"] - e_un) / p
    f_h = (bethe_crosscheck(series, p / 2)["E_BA"] - e_un) / (p / 2)
    e1_fd = 2.0 * f_h - f_p
    e1_rel = abs(e1_fd - series.coefficients[1]) / abs(series.coefficients[1])
    ok = slope >= 2.7 and e1_rel < 0.01
    _gate(7, ok,
          f"N=2 l=1 lambda=(1/2,-1/2), K=2: gap {cc2['gap']:.3e} at p=1e-2 "
          f"vs {cc3['gap']:.3e} at 1e-3, log-log slope {slope:.3f} "
          f"(>= 2.7); E1 from series {series.coefficients[1]:.6f} vs FD "
          f"{e1_fd:.6f}, rel {e1_rel:.2e} (tol 1%)")


def test_criterion_8_admissibility_truth_tables():
    """admissible() agrees with the hand-enumerated tables: N=2 requires
    |m1| > l; N=3, l=1 requires m1, m2, m1+m2 all outside {0, +/-1}."""
    mismatches = 0
    total = 0
    for l in (1, 2, 3):
        rs = root_system(2, l)
        for m1 in range(-5, 6):
            want = abs(m1) > l
            got = admissible(weight_from_lambda_coords([m1], 2), rs)
            mismatches += got != want
            total += 1
    rs31 = root_system(3, 1)
    excluded = {0, 1, -1}
    for m1 in range(-4, 5):
        for m2 in range(-4, 5):
            want = not ({m1, m2, m1 + m2} & excluded)
            got = admissible(weight_from_lambda_coords([m1, m2], 3), rs31)
            mismatches += got != want
            total += 1
    _gate(8, mismatches == 0,
          f"admissibility truth tables: {total} cases (N=2 l=1..3 "
          f"m1 in [-5,5]; N=3 l=1 m1,m2 in [-4,4] on the "
          f"m1,m2,m1+m2 not-in {{0,+/-1}} rule), {mismatches} mismatches")


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
