"""
Closed-form trigonometric critical points and their Hessians
============================================================

At nome p = 0 the Bethe equations reduce to a polynomial system in
T = exp(-2 pi i t) whose solutions are known in closed form for two
particles (any coupling l) and for three particles at l = 1.  This script
prints those exact solutions, refines jittered copies with the package's
Newton iteration (in t, at p = 0) to show the basin behavior, and compares
the displayed discriminant/Hessian formulas with direct evaluation of the
master-function Hessian.  Reports carry the Hessian of -log Phi in t; at a
root det H_t = Prod_k (-2 pi i T_k)^2 det H_T converts it to the displays'
T convention.
"""

import math

import numpy as np

from cmbethe import (
    DomainError,
    Nome,
    admissible,
    build_indexing,
    closed_form_n2,
    closed_form_n3_l1,
    delta_closed_form_n2,
    delta_direct,
    hess_closed_form_n2,
    n3_closed_form_displays,
    newton_polish_tau,
    root_system,
    sigma_closed_form,
    weight_from_lambda_coords,
)

###############################################################################
# N = 2: exact elementary-symmetric values of the Bethe roots
# -----------------------------------------------------------
# For weight coordinate m1 > l the l roots T_1..T_l are determined by their
# elementary symmetric functions sigma_i, which are explicit rationals.

for l in (1, 2, 3):
    for m1 in (l + 2, l + 4):
        sig = sigma_closed_form(m1, l)
        print(f"l={l} m1={m1}: sigma = {[str(s) for s in sig]}")


def det_T(report):
    """The report's t-Hessian determinant in the T convention."""
    T = report.point.to_T()
    return report.hessian_det / np.prod((-2j * math.pi * T) ** 2)


###############################################################################
# Newton refinement reproduces the closed form
# --------------------------------------------
# Jitter the exact roots by 2% and let the Newton iteration (steps capped at
# 0.1 in t) pull them back; the recovered elementary symmetric functions
# match the rationals.

rng = np.random.default_rng(3)
l, m1 = 2, 4
rs, idx = root_system(2, l), build_indexing(2, l)
xi = weight_from_lambda_coords([m1], 2)
point, report = closed_form_n2(m1, l)
seed = point.to_T() * (1 + 0.02 * rng.standard_normal(l))
refined = newton_polish_tau(np.log(seed) / (-2j * math.pi), xi, rs, idx,
                            Nome(p=0.0))
mono = np.poly(np.exp(-2j * math.pi * refined))
print(f"\nl={l} m1={m1}: roots = {np.round(point.to_T(), 12)}")
print(f"recovered sigma_1, sigma_2 = {-mono[1]:.12f}, {mono[2]:.12f}"
      f"   (exact: {[str(s) for s in sigma_closed_form(m1, l)]})")
print(f"gradient norm at the closed-form point: {report.grad_norm:.2e}")

###############################################################################
# Discriminant and Hessian determinant in closed form
# ---------------------------------------------------
# Both Pi (T_i - T_j)^2 and det Hess(log Phi) have product formulas; the
# l = 1, m1 = 3 Hessian determinant is exactly -16.

for l in (1, 2, 3):
    m1 = l + 2
    point, report = closed_form_n2(m1, l)
    print(f"l={l} m1={m1}: delta closed {complex(delta_closed_form_n2(m1, l)):.6f} "
          f"direct {delta_direct(point.to_T()):.6f} | Hess closed "
          f"{complex(hess_closed_form_n2(m1, l)):.6f} direct {det_T(report):.6f}")
print("l=1 m1=3 Hessian determinant:", hess_closed_form_n2(3, 1))

###############################################################################
# Degenerate weights are refused
# ------------------------------
# For |m1| in {1, .., l} a factor of the closed form vanishes and there is no
# admissible critical point; the constructor raises instead of returning junk.

try:
    closed_form_n2(2, 2)
except DomainError as exc:
    print("\nclosed_form_n2(2, 2) ->", exc)

###############################################################################
# N = 3, l = 1: the quadratic closed form and its displayed identities
# --------------------------------------------------------------------
# The three roots are T3 (rational) plus a conjugate pair T1, T2 solving a
# quadratic; the products T1 T2, (1-T1)(1-T2), Pi (T_i-T_j)^2 and the Hessian
# all have displayed closed forms.  The direct Hessian carries the opposite
# sign of the displayed magnitude (the sign convention is recorded by the
# ``hessian_factor`` entry).

for m1, m2 in [(3, 3), (2, 2), (2, 4)]:
    point, report = closed_form_n3_l1(m1, m2)[0]
    disp = n3_closed_form_displays(m1, m2)
    t1, t2, t3 = point.to_T()
    print(f"\n(m1,m2)=({m1},{m2}): T = {np.round(point.to_T(), 10)}")
    print(f"  T1*T2 = {t1 * t2:.10f}  display {disp['T1T2']}")
    print(f"  (1-T1)(1-T2) = {(1 - t1) * (1 - t2):.10f}  "
          f"display {disp['one_minus_T1_one_minus_T2']}")
    print(f"  Hessian direct {det_T(report):.8f} = "
          f"{disp['hessian_factor']:+.0f} x displayed {disp['hessian_display']:.8f}")
    print(f"  gradient norm {report.grad_norm:.2e}")

###############################################################################
# The admissibility gate
# ----------------------
# A weight labels a square-integrable state only if every pairing with a
# positive root exceeds the coupling in absolute value.  For N = 3, l = 1
# that is the condition m1, m2, m1+m2 all outside {0, +/-1}.

rs31 = root_system(3, 1)
print("\nN=3, l=1 admissibility (rows m1 = -2..4, cols m2 = -2..4):")
for m1 in range(-2, 5):
    row = "".join(
        " x " if admissible(weight_from_lambda_coords([m1, m2], 3), rs31)
        else " . " for m2 in range(-2, 5))
    print(f"  m1={m1:+d} {row}")
