"""
Assembling Bethe eigenstates and verifying them against the Hamiltonian
=======================================================================

A critical point of the master function determines a quasi-periodic wave
function: a weighted product of theta-function factors, symmetrized over
particle exchanges.  This script builds the two-particle state for weight
coordinate m1 = 3 in both regimes, certifies its structure (proportionality
to a Jack polynomial times a Vandermonde power at p = 0, quasi-periodicity
in both periods), and then verifies directly that H psi = E psi by finite
differences.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from cmbethe import (
    Weight,
    bethe_state_elliptic,
    build_indexing,
    continue_nome,
    eigenvalue_elliptic,
    find_admissible_critical_point,
    jack_expand,
    jack_proportionality,
    l2_estimate,
    residual_check,
    root_system,
    sigma_lambda,
    target_eigenvalue,
    weight_from_lambda_coords,
)

rs, idx = root_system(2, 1), build_indexing(2, 1)
xi = weight_from_lambda_coords([3], 2)
sigma, seed = find_admissible_critical_point(xi, rs, idx)

###############################################################################
# The trigonometric state is a Jack polynomial in disguise
# --------------------------------------------------------
# At p = 0 the symmetrized state equals a constant times
# J_lambda^{(1/(l+1))}(X) Delta(X)^{l+1} with lambda = xi - (l+1) rho_bar.
# Times Delta^l both sides are finite Laurent polynomials, so the identity is
# checked coefficient by coefficient; the constant is 1/2 for this level
# under the fixed normalizations.  The same constructor and the same sigma
# table build the state at every nome, the p = 0 root included, and there
# its eigenvalue formula reduces to 2 pi^2 (xi, xi).

tri = bethe_state_elliptic(seed.point, xi, rs, idx)
jack = jack_expand((Fraction(1, 2), Fraction(-1, 2)), Fraction(1, 2))
c, residual = jack_proportionality(seed.point, xi, jack, 1)
print(f"Sym omega = c J Delta^2 coefficientwise: c = {c.real:.15f}")
print(f"relative coefficient residual          : {residual:.2e}")
print(f"trigonometric eigenvalue 2 pi^2 (xi,xi): {tri.eigenvalue.real:.9f}")

###############################################################################
# Quasi-periodicity of the elliptic state
# ---------------------------------------
# Continue the root to p = 0.05 and build the elliptic state.  The building
# block omega is doubly quasi-periodic with explicit constant multipliers:
# -1 under x1 -> x1 + 1 (for odd m1) and exp(pi i m1 tau + 2 pi i t1) under
# x1 -> x1 + tau.  The state is evaluated on the real torus only (a complex
# point raises DomainError), so the tau multiplier is read from omega's one
# factor e^(2 pi i (xi, x)) sigma_(x1 - x2)(t1): sigma_(lam + tau)(u) =
# e^(2 pi i u) sigma_lam(u).  The symmetrized state keeps the real-period
# phase (both particle orderings share it).

path = continue_nome(seed, xi, rs, idx, 0.05, steps=10)
pt = path.endpoint.point
ell = bethe_state_elliptic(pt, xi, rs, idx)
tau = pt.nome.tau
x = np.array([0.21, 0.68])
lam, t1 = x[0] - x[1], pt.t[0]
f_tau = (cmath.exp(2j * math.pi * float(xi.coords[0]) * tau)
         * sigma_lambda(lam + tau, t1, pt.nome) / sigma_lambda(lam, t1, pt.nome))
pred = cmath.exp(3j * math.pi * tau + 2j * math.pi * t1)
f1 = complex(ell.evaluator(x + np.array([1.0, 0.0]))) / complex(ell.evaluator(x))
print(f"\nomega factor, x1 -> x1 + tau : {f_tau:.12f}")
print(f"predicted multiplier         : {pred:.12f}")
print(f"state factor, x1 -> x1 + 1   : {f1:.12f}")


###############################################################################
# Direct spectral verification
# ----------------------------
# Apply H = -(1/2) Laplacian + l(l+1) sum wp_shifted(x_i - x_j) on a sample
# grid by finite differences.  The relative residual ||H psi - E psi|| /
# ||E psi|| certifies the state, and the Rayleigh quotient checks the
# eigenvalue formula, whose tau-derivative is taken at fixed roots (the
# partial derivative; differentiating along the moving roots misses the
# Rayleigh quotient by about 1 %).

e_ray, rel = residual_check(ell, grid_n=48)
print(f"\nRayleigh quotient at p = 0.05 : {e_ray.real:.9f}")
print(f"relative residual             : {rel:.2e}")
ev = eigenvalue_elliptic(pt, xi, rs, idx)
print(f"eigenvalue formula [partial] : {ev.real:.9f} "
      f"(vs Rayleigh: {abs(ev - e_ray) / abs(e_ray):.2e})")

###############################################################################
# The p -> 0 eigenvalue limit
# ---------------------------
# Two candidate constants for the limit are published; continuation decides:
# the limit is 2 pi^2 (xi, xi), i.e. the variant WITHOUT the extra additive
# constant.

path5 = continue_nome(seed, xi, rs, idx, 1e-5, steps=10,
                      eigenvalues=True)
e5 = complex(path5.endpoint.eigenvalue).real
tgt = target_eigenvalue(Weight([Fraction(1, 2), Fraction(-1, 2)]), 2, 1)
print(f"\nE(1e-5)                  : {e5:.9f}")
other = tgt + math.pi ** 2 / 6.0 * 2 * 1 * 1 * 2     # (pi^2/6) N(N-1) l(l+1)
print(f"target without extra term: {tgt:.9f} "
      f"(rel gap {abs(e5 - tgt) / tgt:.2e})")
print(f"target with extra term   : {other:.9f} "
      f"(rel gap {abs(e5 - other) / other:.2e})")

###############################################################################
# Square-integrability estimate
# -----------------------------
# The admissibility gate predicts a normalizable state; a refining-grid
# quadrature of |psi|^2 over the torus converges, supporting it.

norms = l2_estimate(ell)
print(f"\nL2 norm estimates on refining grids: "
      f"{[f'{v:.12f}' for v in norms]}")
