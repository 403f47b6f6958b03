"""
Theta and Weierstrass functions from q-series
=============================================

Everything downstream (master functions, Bethe states, eigenvalues) is built
on two special functions on the torus with periods (1, tau): the normalized
odd theta function theta(x) = theta1(x)/theta1'(0) and the Weierstrass
function wp(x).  This script evaluates both from their q-series and checks
the structural identities against independent references.
"""

import cmath
import math

import numpy as np

from cmbethe import Nome, eta_const, theta, theta1, wp, wp_shifted

###############################################################################
# The trigonometric limit p = 0
# -----------------------------
# The normalized series is arranged so that theta(x) -> sin(pi x)/pi exactly
# as the nome p -> 0 (no cancellation of large prefactors).

x = np.linspace(0.05, 0.95, 7)
tv = theta(x, Nome(p=0.0))
print("p = 0:  max |theta(x) - sin(pi x)/pi| =",
      float(np.max(np.abs(tv.value - np.sin(np.pi * x) / np.pi))))

###############################################################################
# Derivatives returned by the evaluator vs. finite differences
# ------------------------------------------------------------
# ``theta`` returns the value together with d/dx and d/dtau; both are series
# evaluations, not numerical derivatives.  Compare against central
# differences at p = 0.05.

nome = Nome(p=0.05)
h = 1e-6
x0 = 0.31
fd_x = (complex(theta(x0 + h, nome).value)
        - complex(theta(x0 - h, nome).value)) / (2 * h)
print(f"p = 0.05: d_x series vs FD   : {abs(complex(theta(x0, nome).d_x) - fd_x):.3e}")

tau = nome.tau
fd_tau = (complex(theta(x0, Nome(tau=tau + 1j * h)).value)
          - complex(theta(x0, Nome(tau=tau - 1j * h)).value)) / (2j * h)
print(f"p = 0.05: d_tau series vs FD : {abs(complex(theta(x0, nome).d_tau) - fd_tau):.3e}")

###############################################################################
# Quasi-periodicity
# -----------------
# theta(x+1) = -theta(x) and theta(x+tau) = -exp(-pi i tau - 2 pi i x) theta(x);
# these multipliers are what make the master function single-valued on the
# weight lattice.

t0 = complex(theta(x0, nome).value)
r1 = complex(theta(x0 + 1.0, nome).value) / t0
r_tau = complex(theta(x0 + tau, nome).value) / t0
mult = -cmath.exp(-1j * math.pi * tau - 2j * math.pi * x0)
print(f"theta(x+1)/theta(x) + 1      : {abs(r1 + 1):.3e}")
print(f"theta(x+tau)/theta(x) - mult : {abs(r_tau - mult):.3e}")

###############################################################################
# The raw (unnormalized) theta1 vanishes at p = 0
# -----------------------------------------------
# theta1 carries the exp(pi i tau / 4) = p^(1/8) prefactor, so the
# unnormalized function drifts to 0 (slowly, like p^(1/8)) and is exactly 0
# at p = 0; that is why the package works with the normalized ratio.

for pv in (1e-4, 1e-8, 0.0):
    print(f"theta1(0.31) at p = {pv:5.0e}   :",
          abs(complex(theta1(x0, Nome(p=pv)).value)))

###############################################################################
# Weierstrass wp: double pole, evenness, periodicity
# --------------------------------------------------
# wp is computed as -(log theta1)'' plus the constant that removes the
# constant term of the Laurent expansion: x^2 wp(x) -> 1 at the origin.

for eps in (1e-2, 1e-3, 1e-4):
    print(f"x^2 wp(x) at x = {eps:.0e}     : {complex(eps**2 * wp(eps, nome)).real:.12f}")
print("wp(x) - wp(-x)               :", abs(complex(wp(x0, nome) - wp(-x0, nome))))
print("wp(x+1) - wp(x)              :", abs(complex(wp(x0 + 1, nome) - wp(x0, nome))))
print("wp(x+tau) - wp(x)            :", abs(complex(wp(x0 + tau, nome) - wp(x0, nome))))

###############################################################################
# The shifted potential used by the Hamiltonian
# ---------------------------------------------
# wp_shifted = wp + 2 eta (the lattice quasi-period) has the exact trigonometric limit
# pi^2/sin^2(pi x).  This is the interaction the spectral checks verify.

lim = complex(wp_shifted(x0, Nome(p=0.0)))
print("wp_shifted p=0 vs pi^2/sin^2 :",
      abs(lim - math.pi ** 2 / math.sin(math.pi * x0) ** 2))
print("eta_const                    :", eta_const(nome))
