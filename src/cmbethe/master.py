"""Master functions of the Bethe ansatz, their log-gradients and Hessians.

The elliptic master function, in the t variables at nome p:

    log Phi_tau(t) = 2 pi i (xi, Sum_j t_j alpha_c(j)) + S(t; tau),
    S(t; tau) = Sum_{i<j} (alpha_c(i), alpha_c(j)) log theta(t_i - t_j)
                - l N Sum_{c(i)=1} log theta(t_i).

The trigonometric master function is its p = 0 case: with theta(x) =
sin(pi x)/pi and T_i = exp(-2 pi i t_i), log Phi_tau is, up to a constant,

    log Phi_tri(T) = Sum_j [-(xi - rho_bar, alpha_c(j))] log T_j
                     - l N Sum_{c(j)=1} log(1 - T_j)
                     + 2 Sum_{c(i)=c(j), i<j} log(T_i - T_j)
                     - Sum_{|c(i)-c(j)|=1, i<j} log(T_i - T_j),

so trigonometric Bethe roots are elliptic points at ``Nome(p=0)`` and every
gradient, Hessian and Newton step here is taken in t.  Critical points of
Phi (zeros of the log-gradient) are the Bethe roots.  The Hessian convention
is the Hessian matrix of MINUS log Phi (the non-degeneracy certificate is its
determinant); at a root the t- and T-Hessians are related by
det H_t = Prod_k (-2 pi i T_k)^2 det H_T.  Only log-derivatives are ever
evaluated, so no branch of log is needed anywhere except in the small
centered-difference ratios of ``S_dtau(mode="total")``, which are all near 1.

The eigenvalue functional at an elliptic Bethe root:

    E = 2 pi^2 (xi, xi) - 2 pi i * dS/dtau,

with dS/dtau either partial (fixed t, term-wise theta tau-derivatives) or
total (along the critical branch t(tau), by one Newton-corrected continuation
step and centered differencing).  At p = 0 both reduce to 2 pi^2 (xi, xi).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import Nome, log_theta_d1, log_theta_d2, log_theta_dtau, theta
from .errors import (ConvergenceError, DegeneracyError, DomainError,
                     MembershipError, PoleError)
from .weights import BetheIndexing, RootSystemData, Weight, pairing

_TWO_PI_I = 2j * math.pi
_MEMBERSHIP_TOL = 1e-9    # factor-magnitude threshold of the F predicate
_MAX_STEP = 0.1           # Newton step cap, max-abs over the t coordinates
_RUNOFF_IM_T = 3.0        # max |Im t| (|T| within about e^{+-19}) of an iterate


@dataclass
class EllipticPoint:
    """A point in the t variables together with its nome."""

    t: np.ndarray
    nome: Nome

    def __post_init__(self):
        self.t = np.atleast_1d(np.asarray(self.t, dtype=complex))
        if not np.all(np.isfinite(self.t)):
            raise DomainError("EllipticPoint coordinates must be finite")

    @property
    def m(self) -> int:
        return len(self.t)

    def to_T(self) -> np.ndarray:
        """The trigonometric coordinates T = exp(-2 pi i t)."""
        return np.exp(-_TWO_PI_I * self.t)


@dataclass(frozen=True)
class CriticalReport:
    """Certificate data for a candidate critical point."""

    point: EllipticPoint
    grad_norm: float
    hessian_det: complex
    in_F: bool


def _check_sizes(point_len: int, xi: Weight, rs: RootSystemData,
                 idx: BetheIndexing) -> None:
    if idx.N != rs.N or idx.l != rs.l:
        raise DomainError(f"indexing is for (N,l)=({idx.N},{idx.l}), "
                          f"root system for ({rs.N},{rs.l})")
    if point_len != idx.m:
        raise DomainError(f"point has {point_len} coordinates, expected m={idx.m}")
    if xi.N != rs.N:
        raise DomainError(f"weight has N={xi.N}, root system has N={rs.N}")


def _per_index_exponents(xi: Weight, idx: BetheIndexing) -> np.ndarray:
    """b_k = (xi, alpha_c(k)); (xi, alpha_a) for the simple roots are the
    consecutive coordinate drops."""
    xa = -np.diff(xi.coords)
    return np.array([xa[c - 1] for c in idx.c], dtype=complex)


def _first_color_mask(idx: BetheIndexing) -> np.ndarray:
    return np.array([c == 1 for c in idx.c])


# ---------------------------------------------------------------------------
# elliptic side


def _pair_eval(fn, t: np.ndarray, nome: Nome, K: np.ndarray) -> np.ndarray:
    """Evaluate fn on the coupled off-diagonal differences t_i - t_j,
    returning the full m x m matrix with zeros elsewhere."""
    m = len(t)
    D = t[:, None] - t[None, :]
    sel = (K != 0) & ~np.eye(m, dtype=bool)
    out = np.zeros_like(D)
    if np.any(sel):
        out[sel] = fn(D[sel], nome)
    return out


def log_phi_tau_grad(pt: EllipticPoint, xi: Weight, rs: RootSystemData,
                     idx: BetheIndexing) -> np.ndarray:
    """The gradient d log Phi_tau / dt_i; zero exactly at elliptic Bethe roots."""
    _check_sizes(pt.m, xi, rs, idx)
    t, nome = pt.t, pt.nome
    K = idx.pair_coupling
    b = _per_index_exponents(xi, idx)
    mask1 = _first_color_mask(idx)
    try:
        zmat = _pair_eval(log_theta_d1, t, nome, K)
        grad = _TWO_PI_I * b + (K * zmat).sum(axis=1)
        if np.any(mask1):
            grad[mask1] -= rs.l * rs.N * np.atleast_1d(
                log_theta_d1(t[mask1], nome))
    except PoleError as exc:
        raise MembershipError(f"theta factor vanishes: {exc}") from exc
    return grad


def hessian_tau(pt: EllipticPoint, xi: Weight, rs: RootSystemData,
                idx: BetheIndexing) -> tuple[np.ndarray, complex]:
    """Hessian matrix of -log Phi_tau in the t variables, and its determinant."""
    _check_sizes(pt.m, xi, rs, idx)
    t, nome = pt.t, pt.nome
    K = idx.pair_coupling
    mask1 = _first_color_mask(idx)
    try:
        wmat = _pair_eval(log_theta_d2, t, nome, K)
        Kw = K * wmat
        H = Kw.copy()                      # off-diagonal of -log Phi_tau
        diag = -Kw.sum(axis=1)
        if np.any(mask1):
            diag[mask1] += rs.l * rs.N * np.atleast_1d(log_theta_d2(t[mask1], nome))
        H[np.arange(idx.m), np.arange(idx.m)] = diag
    except PoleError as exc:
        raise MembershipError(f"theta factor vanishes: {exc}") from exc
    return H, complex(np.linalg.det(H))


def newton_polish_tau(t: np.ndarray, xi: Weight, rs: RootSystemData,
                       idx: BetheIndexing, nome: Nome,
                       tol: float = 1e-12, max_iter: int = 30) -> np.ndarray:
    """Newton iteration on the elliptic Bethe equations at ``nome``, in t.

    The package's one Newton: the root search runs it at p = 0 and the
    continuation at every nome step.  Each step is capped at ``_MAX_STEP``
    in max-abs over the coordinates.  Converged iff |grad| < tol.  Raises
    ConvergenceError after ``max_iter`` steps or once an iterate runs off
    (max |Im t| > ``_RUNOFF_IM_T``), naming the final |grad| and the largest
    |Im t| reached; DegeneracyError if the Hessian is singular;
    MembershipError if an iterate hits a zero of a theta factor.
    """
    t = np.array(t, dtype=complex)
    im_max = float(np.max(np.abs(t.imag)))
    for it in range(max_iter + 1):
        pt = EllipticPoint(t=t, nome=nome)
        g = log_phi_tau_grad(pt, xi, rs, idx)
        gnorm = float(np.linalg.norm(g))
        if gnorm < tol:
            return t
        if it == max_iter:
            break
        H, _ = hessian_tau(pt, xi, rs, idx)
        # Jacobian of the gradient is the Hessian of +log Phi = -H
        try:
            step = np.linalg.solve(-H, -g)
        except np.linalg.LinAlgError as exc:
            raise DegeneracyError(f"singular Hessian during Newton: {exc}") from exc
        size = float(np.max(np.abs(step)))
        if size > _MAX_STEP:
            step *= _MAX_STEP / size
        t = t + step
        im_max = max(im_max, float(np.max(np.abs(t.imag))))
        if im_max > _RUNOFF_IM_T:
            break
    where = f"(final |grad| = {gnorm:.3e}, max |Im t| = {im_max:.3g})"
    if im_max > _RUNOFF_IM_T:
        raise ConvergenceError(
            f"Newton iterate ran off past |Im t| = {_RUNOFF_IM_T} {where}")
    raise ConvergenceError(
        f"Newton did not reach |grad| < {tol} in {max_iter} iterations {where}")


def _S_partial_dtau(t: np.ndarray, nome: Nome, rs: RootSystemData,
                    idx: BetheIndexing) -> complex:
    """dS/dtau at fixed t, term-wise theta tau-derivatives."""
    K = idx.pair_coupling
    mask1 = _first_color_mask(idx)
    total = 0j
    for i in range(idx.m):
        for j in range(i + 1, idx.m):
            if K[i, j] != 0:
                total += K[i, j] * log_theta_dtau(t[i] - t[j], nome)
    if np.any(mask1):
        total -= rs.l * rs.N * np.sum(np.atleast_1d(
            log_theta_dtau(t[mask1], nome)))
    return complex(total)


def _S_difference(t_new: np.ndarray, nome_new: Nome, t_old: np.ndarray,
                  nome_old: Nome, rs: RootSystemData, idx: BetheIndexing) -> complex:
    """S(t_new; tau_new) - S(t_old; tau_old), via term-wise principal logs of
    theta ratios (each ratio is near 1 for small parameter steps)."""
    K = idx.pair_coupling
    mask1 = _first_color_mask(idx)
    total = 0j
    for i in range(idx.m):
        for j in range(i + 1, idx.m):
            if K[i, j] != 0:
                num = theta(t_new[i] - t_new[j], nome_new).value
                den = theta(t_old[i] - t_old[j], nome_old).value
                total += K[i, j] * cmath.log(num / den)
    for i in np.nonzero(mask1)[0]:
        num = theta(t_new[i], nome_new).value
        den = theta(t_old[i], nome_old).value
        total -= rs.l * rs.N * cmath.log(num / den)
    return total


def S_dtau(pt: EllipticPoint, xi: Weight, rs: RootSystemData, idx: BetheIndexing,
           mode: str = "partial", *, crit_tol: float = 1e-8,
           fd_scale: float = 1e-4) -> complex:
    """dS/dtau at an elliptic Bethe root.

    mode="partial": derivative at fixed t (term-wise theta tau-derivatives).
    mode="total": derivative along the critical branch t(tau), by one
    Newton-corrected continuation step on either side and centered
    differencing.  At a critical point the two differ by
    Sum_i (dS/dt_i)(dt_i/dtau) with dS/dt_i = -2 pi i (xi, alpha_c(i)).

    The point must satisfy the Bethe equations to ``crit_tol``.
    """
    if mode not in ("partial", "total"):
        raise DomainError(f"mode must be 'partial' or 'total', got {mode!r}")
    _check_sizes(pt.m, xi, rs, idx)
    g = log_phi_tau_grad(pt, xi, rs, idx)
    gnorm = float(np.linalg.norm(g))
    if gnorm > crit_tol:
        raise DomainError(
            f"S_dtau requires a Bethe critical point: |grad| = {gnorm:.3e} "
            f"> {crit_tol:.1e}")
    t, nome = pt.t, pt.nome
    if nome.p == 0:
        return 0j
    if mode == "partial":
        return _S_partial_dtau(t, nome, rs, idx)

    tau = nome.tau
    direction = tau / abs(tau)
    delta = fd_scale * max(1.0, abs(tau))
    step = delta * direction
    nome_plus = Nome(tau=tau + step, series_tolerance=nome.series_tolerance)
    nome_minus = Nome(tau=tau - step, series_tolerance=nome.series_tolerance)
    t_plus = newton_polish_tau(t, xi, rs, idx, nome_plus)
    t_minus = newton_polish_tau(t, xi, rs, idx, nome_minus)
    dS_plus = _S_difference(t_plus, nome_plus, t, nome, rs, idx)
    dS_minus = _S_difference(t_minus, nome_minus, t, nome, rs, idx)
    return (dS_plus - dS_minus) / (2.0 * step)


def eigenvalue_elliptic(pt: EllipticPoint, xi: Weight, rs: RootSystemData,
                        idx: BetheIndexing, mode: str = "partial") -> complex:
    """The Bethe eigenvalue E = 2 pi^2 (xi, xi) - 2 pi i dS/dtau."""
    base = 2.0 * math.pi ** 2 * pairing(xi, xi)
    return base - _TWO_PI_I * S_dtau(pt, xi, rs, idx, mode=mode)


# ---------------------------------------------------------------------------
# membership and reports


def membership_F(point: EllipticPoint, xi: Weight, rs: RootSystemData,
                 idx: BetheIndexing, threshold: float = _MEMBERSHIP_TOL) -> bool:
    """True iff every factor of Phi is finite and non-zero at the point
    (all theta-factor magnitudes above ``threshold``)."""
    _check_sizes(point.m, xi, rs, idx)
    K = idx.pair_coupling
    mask1 = _first_color_mask(idx)
    coupled = (K != 0) & ~np.eye(idx.m, dtype=bool)
    t, nome = point.t, point.nome
    if np.any(mask1):
        vals = np.abs(np.atleast_1d(theta(t[mask1], nome).value))
        if np.any(vals <= threshold):
            return False
    D = t[:, None] - t[None, :]
    if np.any(coupled):
        vals = np.abs(theta(D[coupled], nome).value)
        if np.any(vals <= threshold):
            return False
    return True


def make_report(point: EllipticPoint, xi: Weight, rs: RootSystemData,
                idx: BetheIndexing) -> CriticalReport:
    """Assemble the CriticalReport (gradient norm and Hessian determinant of
    -log Phi in t, membership) for a point at any nome, p = 0 included."""
    in_f = membership_F(point, xi, rs, idx)
    grad = log_phi_tau_grad(point, xi, rs, idx)
    _, det = hessian_tau(point, xi, rs, idx)
    return CriticalReport(point=point, grad_norm=float(np.linalg.norm(grad)),
                          hessian_det=det, in_F=in_f)
