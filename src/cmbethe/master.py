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
evaluated, so no branch of log is needed.  The gradient, the Hessian and the
membership predicate of F all come from one theta-jet call on the factor
arguments (``_master``), so a Newton iterate or a report costs one kernel
call; so does an eigenvalue, whose root check reuses the call that gives
dS/dtau (``S_dtau``).

The eigenvalue functional at an elliptic Bethe root:

    E = 2 pi^2 (xi, xi) - 2 pi i * dS/dtau,

with dS/dtau the partial derivative at fixed t (term-wise theta
tau-derivatives); at p = 0 it vanishes and E = 2 pi^2 (xi, xi).  The
derivative along the critical branch t(tau) is the rejected convention: it
misses the Rayleigh quotient of the state by about 1 % at p = 0.01, and it
lives on only as test evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .elliptic import Nome, log_theta_d1_dtau, log_theta_jet
from .errors import (ConvergenceError, DegeneracyError, DomainError,
                     MembershipError, PoleError)
from .weights import (BetheIndexing, RootSystemData, Weight, coupling_matrix,
                      pairing)

_TWO_PI_I = 2j * math.pi
_MEMBERSHIP_TOL = 1e-9    # factor-magnitude threshold of the F predicate
_CRIT_TOL = 1e-8          # largest |grad| at which S_dtau accepts a root
_MAX_STEP = 0.1           # Newton step cap, max-abs over the t coordinates
_CONTRACTION_FLOOR = 1e-9  # corrections below it are rounding: not tested
_RUNOFF_IM_T = 3.0        # max |Im t| (|T| within about e^{+-19}) of an iterate


@dataclass
class EllipticPoint:
    """A point in the t variables together with its nome."""

    t: np.ndarray
    nome: Nome

    def __post_init__(self):
        self.t = np.atleast_1d(np.asarray(self.t, dtype=complex))
        if not np.isfinite(self.t).all():
            raise DomainError("EllipticPoint coordinates must be finite")

    @property
    def m(self) -> int:
        return len(self.t)

    def to_T(self) -> np.ndarray:
        """The trigonometric coordinates T = exp(-2 pi i t)."""
        return np.exp(-_TWO_PI_I * self.t)


@dataclass(frozen=True)
class CriticalReport:
    """Certificate data for a candidate critical point: the gradient norm of
    log Phi, the Hessian of -log Phi in t and its determinant, membership,
    and the max-abs sizes of the Newton corrections that led to it."""

    point: EllipticPoint
    grad_norm: float
    hessian_det: complex
    hessian: np.ndarray = field(repr=False, compare=False)
    in_F: bool
    corrections: tuple[float, ...] = field(default=(), repr=False,
                                           compare=False)


def _check_sizes(point_len: int, xi: Weight, rs: RootSystemData,
                 idx: BetheIndexing) -> None:
    if idx.N != rs.N or idx.l != rs.l:
        raise DomainError(f"indexing is for (N,l)=({idx.N},{idx.l}), "
                          f"root system for ({rs.N},{rs.l})")
    if point_len != idx.m:
        raise DomainError(f"point has {point_len} coordinates, expected m={idx.m}")
    if xi.N != rs.N:
        raise DomainError(f"weight has N={xi.N}, root system has N={rs.N}")


@dataclass(frozen=True)
class _Layout:
    """The per-(xi, indexing) constants of every master-function evaluation,
    as read-only arrays: the coupled off-diagonal pairs (i, j) in row-major
    order (both orders of each pair) and their couplings
    (alpha_c(i), alpha_c(j)), the first-colour coordinates, and the linear
    part 2 pi i (xi, alpha_c(k)) of the gradient."""

    m: int
    rows: np.ndarray
    cols: np.ndarray
    coupling: np.ndarray
    first: np.ndarray
    linear: np.ndarray


@lru_cache(maxsize=16)
def _layout(coords: bytes, c: tuple[int, ...]) -> _Layout:
    """The layout of a weight, given by the bytes of its coordinates, and a
    colouring c: a cache hit compares no arrays, and the cache holds no
    index sets."""
    K = coupling_matrix(c)
    rows, cols = np.nonzero((K != 0) & ~np.eye(len(c), dtype=bool))
    c = np.array(c)
    # (xi, alpha_a) for the simple roots are the consecutive coordinate drops
    linear = _TWO_PI_I * (-np.diff(np.frombuffer(coords)))[c - 1].astype(complex)
    arrays = (rows, cols, K[rows, cols], np.flatnonzero(c == 1), linear)
    for a in arrays:
        a.setflags(write=False)
    return _Layout(len(c), *arrays)


# ---------------------------------------------------------------------------
# elliptic side


def _on_pairs(values: np.ndarray, lay: _Layout) -> np.ndarray:
    """The m x m matrix holding ``values`` on the coupled pairs, zeros
    elsewhere."""
    out = np.zeros((lay.m, lay.m), dtype=complex)
    out[lay.rows, lay.cols] = values
    return out


def _on_factors(jet, pt: EllipticPoint, xi: Weight, rs: RootSystemData,
                idx: BetheIndexing) -> tuple:
    """(layout, jet(x)) for one call of the elliptic function ``jet`` on the
    factor arguments x of Phi at a point: the coupled differences
    t_i - t_j, then the first-colour coordinates.  MembershipError if one
    lies on the theta zero lattice."""
    _check_sizes(pt.m, xi, rs, idx)
    lay = _layout(xi.coords.tobytes(), idx.c)
    t = pt.t
    x = np.concatenate([t[lay.rows] - t[lay.cols], t[lay.first]])
    try:
        return lay, jet(x, pt.nome)
    except PoleError as exc:
        raise MembershipError(f"theta factor vanishes: {exc}") from exc


def _gradient(d1: np.ndarray, lay: _Layout, rs: RootSystemData) -> np.ndarray:
    """The gradient of log Phi_tau from theta'/theta on the factor arguments."""
    n = lay.rows.size
    grad = lay.linear + _on_pairs(lay.coupling * d1[:n], lay).sum(axis=1)
    grad[lay.first] -= rs.l * rs.N * d1[n:]
    return grad


def _master(pt: EllipticPoint, xi: Weight, rs: RootSystemData,
            idx: BetheIndexing) -> tuple[np.ndarray, np.ndarray, bool]:
    """(gradient of log Phi_tau, Hessian of -log Phi_tau, membership in F)
    at a point, from one theta-jet call on every factor argument.

    Membership means every theta-factor magnitude exceeds ``_MEMBERSHIP_TOL``.
    MembershipError if a factor argument lies on the theta zero lattice.
    """
    lay, (th, d1, d2) = _on_factors(log_theta_jet, pt, xi, rs, idx)
    grad = _gradient(d1, lay, rs)
    n = lay.rows.size
    H = _on_pairs(lay.coupling * d2[:n], lay)   # off-diagonal of -log Phi_tau
    diag = -H.sum(axis=1)
    diag[lay.first] += rs.l * rs.N * d2[n:]
    H.ravel()[::lay.m + 1] = diag
    return grad, H, bool((np.abs(th) > _MEMBERSHIP_TOL).all())


def log_phi_tau_grad(pt: EllipticPoint, xi: Weight, rs: RootSystemData,
                     idx: BetheIndexing) -> np.ndarray:
    """The gradient d log Phi_tau / dt_i; zero exactly at elliptic Bethe roots."""
    return _master(pt, xi, rs, idx)[0]


def hessian_tau(pt: EllipticPoint, xi: Weight, rs: RootSystemData,
                idx: BetheIndexing) -> tuple[np.ndarray, complex]:
    """Hessian matrix of -log Phi_tau in the t variables, and its determinant."""
    H = _master(pt, xi, rs, idx)[1]
    return H, complex(np.linalg.det(H))


def _polish(t: np.ndarray, xi: Weight, rs: RootSystemData, idx: BetheIndexing,
            nome: Nome, tol: float = 1e-12, max_iter: int = 30, *,
            contract: bool = False) -> CriticalReport:
    """The Newton of ``newton_polish_tau``, returning the report of the
    converged iterate (built from the evaluation that certified it), with
    the sizes of the corrections taken as ``corrections``.

    With ``contract`` the iteration is refused as soon as a correction is
    capped, or a correction above ``_CONTRACTION_FLOOR`` fails to halve the
    previous one (Deuflhard's monotonicity test): the start is then outside
    the region of quadratic convergence.  Every ConvergenceError carries a
    ``reason``: "capped step", "no contraction", "iterations" or "runoff".
    """
    t = np.array(t, dtype=complex)
    im_max = float(np.abs(t.imag).max())
    sizes: list[float] = []
    reason = "iterations"
    for it in range(max_iter + 1):
        pt = EllipticPoint(t=t, nome=nome)
        g, H, in_f = _master(pt, xi, rs, idx)
        gnorm = float(np.linalg.norm(g))
        if gnorm < tol:
            return CriticalReport(point=pt, grad_norm=gnorm,
                                  hessian_det=complex(np.linalg.det(H)),
                                  hessian=H, in_F=in_f,
                                  corrections=tuple(sizes))
        if it == max_iter:
            break
        # Jacobian of the gradient is the Hessian of +log Phi = -H
        try:
            step = np.linalg.solve(-H, -g)
        except np.linalg.LinAlgError as exc:
            raise DegeneracyError(f"singular Hessian during Newton: {exc}") from exc
        size = float(np.abs(step).max())
        if contract and size > _MAX_STEP:
            reason = "capped step"
            break
        if contract and sizes and size > max(_CONTRACTION_FLOOR,
                                             0.5 * sizes[-1]):
            reason = "no contraction"
            break
        if size > _MAX_STEP:
            step *= _MAX_STEP / size
        sizes.append(min(size, _MAX_STEP))
        t = t + step
        im_max = max(im_max, float(np.abs(t.imag).max()))
        if im_max > _RUNOFF_IM_T:
            reason = "runoff"
            break
    msg = {"runoff": f"Newton iterate ran off past |Im t| = {_RUNOFF_IM_T}",
           "iterations": f"Newton did not reach |grad| < {tol} in "
                         f"{max_iter} iterations",
           }.get(reason, f"Newton refused at evaluation {it + 1}: {reason}")
    err = ConvergenceError(
        f"{msg} (final |grad| = {gnorm:.3e}, max |Im t| = {im_max:.3g})")
    err.reason = reason
    raise err


def newton_polish_tau(t: np.ndarray, xi: Weight, rs: RootSystemData,
                       idx: BetheIndexing, nome: Nome,
                       tol: float = 1e-12, max_iter: int = 30) -> np.ndarray:
    """Newton iteration on the elliptic Bethe equations at ``nome``, in t.

    The package's one Newton: the root search runs it at p = 0 and the
    continuation at every nome step.  Each iterate makes one theta-jet call.
    Each step is capped at ``_MAX_STEP`` in max-abs over the coordinates.
    Converged iff |grad| < tol.  Raises ConvergenceError after ``max_iter``
    steps or once an iterate runs off (max |Im t| > ``_RUNOFF_IM_T``),
    naming the final |grad| and the largest |Im t| reached; DegeneracyError
    if the Hessian is singular; MembershipError if an iterate hits a zero of
    a theta factor.
    """
    return _polish(t, xi, rs, idx, nome, tol, max_iter).point.t


def S_dtau(pt: EllipticPoint, xi: Weight, rs: RootSystemData,
           idx: BetheIndexing) -> complex:
    """dS/dtau at an elliptic Bethe root, at fixed t (term-wise theta
    tau-derivatives; exactly 0 at p = 0, where d_tau log theta is).  The
    point must satisfy the Bethe equations to ``_CRIT_TOL``; the gradient
    that checks it and dS/dtau come from one ``log_theta_d1_dtau`` call on
    every factor argument.  d_tau log theta is even in x, so each coupled
    pair, present in both orders, is counted with weight 1/2.
    """
    lay, (d1, dtau) = _on_factors(log_theta_d1_dtau, pt, xi, rs, idx)
    gnorm = float(np.linalg.norm(_gradient(d1, lay, rs)))
    if gnorm > _CRIT_TOL:
        raise DomainError(
            f"S_dtau requires a Bethe critical point: |grad| = {gnorm:.3e} "
            f"> {_CRIT_TOL:.1e}")
    n = lay.rows.size
    pairs = 0.5 * np.sum(lay.coupling * dtau[:n])
    return complex(pairs - rs.l * rs.N * np.sum(dtau[n:]))


def eigenvalue_elliptic(pt: EllipticPoint, xi: Weight, rs: RootSystemData,
                        idx: BetheIndexing) -> complex:
    """The Bethe eigenvalue E = 2 pi^2 (xi, xi) - 2 pi i dS/dtau."""
    base = 2.0 * math.pi ** 2 * pairing(xi, xi)
    return base - _TWO_PI_I * S_dtau(pt, xi, rs, idx)


# ---------------------------------------------------------------------------
# membership and reports


def membership_F(point: EllipticPoint, xi: Weight, rs: RootSystemData,
                 idx: BetheIndexing) -> bool:
    """True iff every factor of Phi is finite and non-zero at the point
    (all theta-factor magnitudes above ``_MEMBERSHIP_TOL``)."""
    try:
        return _master(point, xi, rs, idx)[2]
    except MembershipError:
        return False


def make_report(point: EllipticPoint, xi: Weight, rs: RootSystemData,
                idx: BetheIndexing) -> CriticalReport:
    """Assemble the CriticalReport (gradient norm, Hessian and its
    determinant of -log Phi in t, membership) for a point at any nome,
    p = 0 included."""
    grad, H, in_f = _master(point, xi, rs, idx)
    return CriticalReport(point=point, grad_norm=float(np.linalg.norm(grad)),
                          hessian_det=complex(np.linalg.det(H)), hessian=H,
                          in_F=in_f)
