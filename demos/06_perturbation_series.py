"""
Rayleigh-Schrodinger series in the nome and the Bethe crosscheck
================================================================

The elliptic interaction expands in the nome p around the trigonometric one,
with coefficient potentials of a striking shape: the k-th order couples
Fourier modes d only when d divides k.  Feeding that band structure into
Rayleigh-Schrodinger perturbation theory gives the eigenvalue expansion
E(p) = E0 + p E1 + p^2 E2 + ..., which this script cross-validates against
the independently continued Bethe eigenvalue.
"""

import math
from fractions import Fraction

import numpy as np

from cmbethe import (
    DegeneracyError,
    band_distance,
    bethe_crosscheck,
    exact_interaction,
    potential_coeffs,
    rs_series,
)

###############################################################################
# The divisor structure of the expansion
# --------------------------------------
# Order k couples modes cos(2 pi d s) with coefficient -8 pi^2 l(l+1) d when
# d | k and 0 otherwise: the Lambert expansion of the shifted pair potential.
# potential_coeffs returns that closed-form table; the theta-quotient
# interaction confirms it, since the truncated series misses the exact
# interaction by O(p^(K+1)).

series_v = potential_coeffs(2, 1, 4)
scale = -8 * math.pi ** 2 * 1 * 2
print("coefficient / (-8 pi^2 l(l+1)) for orders k = 1..4, modes d = 1..k:")
for k in range(1, 5):
    row = series_v.coeffs[k - 1]
    got = [round(c / scale) for c in row[1:]]
    divisors = [d for d in range(1, k + 1) if k % d == 0]
    print(f"  k={k}: {got}   (divisors of {k}: {divisors})")
x = np.array([0.31, 0.74])
misses = []
for p in (0.05, 0.025):
    misses.append(
        abs(series_v.reconstruct(p, x) - exact_interaction(x, p, 1))[0])
    print(f"  p = {p}: |Sum_(k<=4) p^k V_k - exact| = {misses[-1]:.3e}")
print(f"  halving p divides the miss by {misses[0] / misses[1]:.1f} "
      "(O(p^5) predicts about 2^5 = 32)")

###############################################################################
# Band selection rules
# --------------------
# The k-th order potential only connects levels whose labels differ by a
# total displacement within the band; band_distance measures it.

pairs = [((1, 0), (1, 0)), ((2, 0), (1, 1)), ((4, 0), (2, 2))]
for mu, lam in pairs:
    print(f"band_distance{mu} vs {lam} = {band_distance(mu, lam)}")

###############################################################################
# The series for the first excited two-particle level
# ---------------------------------------------------
# lambda = (1/2, -1/2), N = 2, l = 1: E0 = 9 pi^2 and E1 = 4 pi^2 exactly;
# E2 comes from the second-order sum over reachable levels.

lam = (Fraction(1, 2), Fraction(-1, 2))
series = rs_series(lam, 2, 1, 2)
print("\nE coefficients:", [f"{c:.10f}" for c in series.coefficients])
print(f"E0 / pi^2 = {series.coefficients[0] / math.pi ** 2:.12f}")
print(f"E1 / pi^2 = {series.coefficients[1] / math.pi ** 2:.12f}")

###############################################################################
# Crosscheck against the continued Bethe eigenvalue
# -------------------------------------------------
# |E_BA(p) - partial sum| must shrink like p^(K+1); with K = 2 the gap drops
# three orders of magnitude per decade of p.

gaps = []
for p in (1e-2, 1e-3):
    cc = bethe_crosscheck(series, p)
    gaps.append(cc["gap"])
    print(f"p = {p:.0e}: E_BA = {cc['E_BA']:.10f}  partial = "
          f"{cc['partial_sum']:.10f}  gap = {cc['gap']:.3e}")
print(f"log-log slope of the gap: {math.log10(gaps[0] / gaps[1]):.3f} "
      f"(regular convergence predicts >= K+1 = 3)")

###############################################################################
# First-order coefficient vs. a finite difference in p
# ----------------------------------------------------
# Richardson-extrapolated FD of the continued eigenvalue at p -> 0
# reproduces E1.

e_un = series.coefficients[0]
p = 1e-3
f_p = (bethe_crosscheck(series, p)["E_BA"] - e_un) / p
f_h = (bethe_crosscheck(series, p / 2)["E_BA"] - e_un) / (p / 2)
e1_fd = 2 * f_h - f_p
print(f"\nE1 from the series : {series.coefficients[1]:.8f}")
print(f"E1 from FD in p    : {e1_fd:.8f}   "
      f"(rel {abs(e1_fd - series.coefficients[1]) / series.coefficients[1]:.2e})")

###############################################################################
# Degenerate levels are detected, not silently mishandled
# --------------------------------------------------------
# At third order the N = 3 label (4,1,1) couples to a degenerate partner;
# the solver refuses rather than dividing by the vanishing gap.

try:
    rs_series((4, 1, 1), 3, 1, 3)
except DegeneracyError as exc:
    print("\nrs_series((4,1,1), 3, 1, K=3) ->", exc)
print("K = 2 for the same label works:",
      [f"{c:.6f}" for c in rs_series((4, 1, 1), 3, 1, 2).coefficients])
