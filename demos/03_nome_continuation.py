"""
Continuing Bethe roots from the trigonometric limit into the elliptic regime
============================================================================

The elliptic Bethe roots are constructed by homotopy continuation in the
nome p: start from the closed-form trigonometric critical point at p = 0,
increase p in controlled steps (halved when Newton refuses one, doubled
after an easy one), predict each new root and polish it with Newton's
method, and certify every accepted step (small gradient, root in the
fundamental-domain cell, non-degenerate Hessian).  This script tracks a
two-particle and a three-particle level and shows the certified path data.
"""

import cmath
import math

from cmbethe import (
    Weight,
    build_indexing,
    continue_nome,
    find_admissible_critical_point,
    root_system,
    weight_from_lambda_coords,
)

###############################################################################
# A certified path for N = 2, l = 1, m1 = 3
# -----------------------------------------
# The trigonometric root is T = 1/2, i.e. t(0) = log(2)/(2 pi i).  Continue
# to p = 0.1 in steps of at most 0.1/12 and print the accepted steps: every
# one carries its own residual, Hessian determinant and membership
# certificate.  Refused trial steps are recorded with their reasons.

rs, idx = root_system(2, 1), build_indexing(2, 1)
xi = weight_from_lambda_coords([3], 2)
sigma, seed = find_admissible_critical_point(xi, rs, idx)
path = continue_nome(seed, xi, rs, idx, 0.1, steps=12)
print("      p           t_1                      |grad|      det Hess   in F")
for step in path.steps:
    t1 = step.point.t[0]
    print(f"  {step.p.real:9.6f}   {t1.real:+.6f}{t1.imag:+.6f}i   "
          f"{step.report.grad_norm:.2e}   {step.report.hessian_det.real:9.4f}   "
          f"{step.report.in_F}")
print(f"  refused trial steps: {path.rejected}")

###############################################################################
# The root drifts linearly in p
# -----------------------------
# ||t(p) - t(0)|| decays like p as p -> 0: successive decades of p shrink the
# drift by almost exactly a factor of 10.

t0 = cmath.log(2.0) / (2j * math.pi)
dists = []
for p in (1e-3, 1e-4, 1e-5):
    endpoint = continue_nome(seed, xi, rs, idx, p, steps=10).endpoint
    d = abs(endpoint.point.t[0] - t0)
    dists.append(d)
    print(f"p = {p:.0e}: ||t(p) - t(0)|| = {d:.6e}")
slope = (math.log(dists[0]) - math.log(dists[2])) / (math.log(1e-3) - math.log(1e-5))
print(f"log-log slope over two decades: {slope:.4f}")

###############################################################################
# Eigenvalues along the path
# --------------------------
# With ``eigenvalues=True``, each step also evaluates the critical-value
# eigenvalue formula; at p = 0 it equals 2 pi^2 (xi, xi) = 9 pi^2 here.

path_ev = continue_nome(seed, xi, rs, idx, 1e-2, steps=10,
                        eigenvalues=True)
print(f"\nE at p = 0    : {complex(path_ev.steps[0].eigenvalue).real:.9f}"
      f"   (9 pi^2 = {9 * math.pi ** 2:.9f})")
print(f"E at p = 1e-2 : {complex(path_ev.endpoint.eigenvalue).real:.9f}")

###############################################################################
# The continued level does not depend on the labeling convention
# ---------------------------------------------------------------
# The N = 3 weights (m1, m2) = (3, 3) and (-3, -3) describe the same level
# with the coordinate order reversed; both continuations give the same
# eigenvalue.

rs3, idx3 = root_system(3, 1), build_indexing(3, 1)
evs = []
for coords in ([3, 0, -3], [-3, 0, 3]):
    w = Weight(coords)
    sg, sd = find_admissible_critical_point(w, rs3, idx3)
    w_s = Weight([w.exact[i] for i in sg])
    p3 = continue_nome(sd, w_s, rs3, idx3, 1e-3, steps=10,
                       eigenvalues=True)
    evs.append(complex(p3.endpoint.eigenvalue).real)
    print(f"xi = {coords}: E(1e-3) = {evs[-1]:.10f}")
print("difference:", abs(evs[0] - evs[1]))
