"""The rejected eigenvalue convention, kept as test evidence.

The library differentiates S in tau at fixed t (``cmbethe.master.S_dtau``).
The rejected "total" convention differentiates along the critical branch
t(tau): one Newton-corrected continuation step on either side of tau, and
centered differencing of S through term-wise principal logs of theta ratios
(each ratio is near 1 for small steps).  At a critical point the two differ
by Sum_i (dS/dt_i)(dt_i/dtau) with dS/dt_i = -2 pi i (xi, alpha_c(i)); the
Rayleigh quotient of the state matches the fixed-t value only.  At p = 0
both vanish.
"""

import cmath
import math

import numpy as np

from cmbethe.elliptic import Nome, theta
from cmbethe.errors import DomainError
from cmbethe.master import log_phi_tau_grad, newton_polish_tau
from cmbethe.weights import pairing


def _S_difference(t_new, nome_new, t_old, nome_old, rs, idx):
    """S(t_new; tau_new) - S(t_old; tau_old) by term-wise principal logs."""
    K = idx.pair_coupling
    total = 0j
    for i in range(idx.m):
        for j in range(i + 1, idx.m):
            if K[i, j] != 0:
                num = theta(t_new[i] - t_new[j], nome_new).value
                den = theta(t_old[i] - t_old[j], nome_old).value
                total += K[i, j] * cmath.log(num / den)
    for i in (k for k, c in enumerate(idx.c) if c == 1):
        num = theta(t_new[i], nome_new).value
        den = theta(t_old[i], nome_old).value
        total -= rs.l * rs.N * cmath.log(num / den)
    return total


def S_dtau_total(pt, xi, rs, idx, crit_tol=1e-8, fd_scale=1e-4):
    """dS/dtau along the critical branch at an elliptic Bethe root."""
    gnorm = float(np.linalg.norm(log_phi_tau_grad(pt, xi, rs, idx)))
    if gnorm > crit_tol:
        raise DomainError(f"not a Bethe critical point: |grad| = {gnorm:.3e}")
    t, nome = pt.t, pt.nome
    if nome.p == 0:
        return 0j
    tau = nome.tau
    step = fd_scale * max(1.0, abs(tau)) * (tau / abs(tau))
    nome_plus = Nome(tau=tau + step)
    nome_minus = Nome(tau=tau - step)
    t_plus = newton_polish_tau(t, xi, rs, idx, nome_plus)
    t_minus = newton_polish_tau(t, xi, rs, idx, nome_minus)
    dS_plus = _S_difference(t_plus, nome_plus, t, nome, rs, idx)
    dS_minus = _S_difference(t_minus, nome_minus, t, nome, rs, idx)
    return (dS_plus - dS_minus) / (2.0 * step)


def eigenvalue_total(pt, xi, rs, idx):
    """E = 2 pi^2 (xi, xi) - 2 pi i dS/dtau with the total derivative."""
    base = 2.0 * math.pi ** 2 * pairing(xi, xi)
    return base - 2j * math.pi * S_dtau_total(pt, xi, rs, idx)
