"""Bethe-ansatz eigenfunctions of the elliptic Calogero-Moser model.

The package builds, in layers:

  * ``elliptic``  — theta / Weierstrass q-series with x- and tau-derivatives;
  * ``weights``   — A_{N-1} weight bookkeeping and the Bethe index sets;
  * ``master``    — the elliptic master function (the trigonometric one is
                    its p = 0 case), its log-gradient, Hessian, the one
                    Newton iteration and the eigenvalue functional;
  * ``critical``  — closed-form and searched p = 0 critical points, and
                    homotopy continuation of critical points in the nome;
  * ``states``    — Bethe vectors, symmetrization, and direct spectral
                    verification of the eigenfunction property;
  * ``jack``      — Jack polynomials and the trigonometric-limit comparison;
  * ``perturb``   — Rayleigh-Schrodinger series in the nome for cross-checks,
                    from the closed-form V_k and exact Laurent elements;
  * ``cli``       — the ``cm`` command-line interface.
"""

from .errors import (
    AccuracyError,
    CmError,
    ConvergenceError,
    DegeneracyError,
    DomainError,
    MembershipError,
    PoleError,
    ResourceError,
)
from .elliptic import (
    Nome,
    ThetaValue,
    eta_const,
    lattice_distance,
    log_theta_d1,
    log_theta_d2,
    log_theta_dtau,
    log_theta_jet,
    sigma_lambda,
    theta,
    theta1,
    wp,
    wp_shifted,
)
from .weights import (
    BetheIndexing,
    RootSystemData,
    Weight,
    admissible,
    build_indexing,
    e0,
    jack_energy,
    lambda_coords,
    lambda_to_xi,
    pairing,
    root_system,
    target_eigenvalue,
    w_count,
    weight_from_lambda_coords,
)
from .master import (
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
from .critical import (
    ContinuationPath,
    PathStep,
    closed_form_n2,
    closed_form_n3_l1,
    continue_nome,
    delta_closed_form_n2,
    delta_direct,
    find_admissible_critical_point,
    hess_closed_form_n2,
    n3_closed_form_displays,
    sigma_closed_form,
)
from .states import (
    BetheState,
    base_point,
    bethe_state_elliptic,
    jack_proportionality,
    l2_estimate,
    omega_elliptic,
    residual_check,
    sample_torus_points,
    sym_omega_tri_nonvanishing,
    symmetrize,
)
from .jack import (
    JackExpansion,
    cs_apply,
    cs_quotient,
    dominance_leq,
    inner_product,
    jack_expand,
    partition,
)
from .perturb import (
    EnergySeries,
    PotentialSeries,
    band_distance,
    bethe_crosscheck,
    exact_interaction,
    matrix_element,
    potential_coeffs,
    reachable_partitions,
    rs_series,
    unperturbed_energy,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "CmError", "ConvergenceError", "DegeneracyError",
    "DomainError", "MembershipError", "PoleError", "ResourceError",
    "Nome", "ThetaValue", "eta_const", "lattice_distance", "log_theta_d1",
    "log_theta_d2", "log_theta_dtau", "log_theta_jet", "sigma_lambda",
    "theta", "theta1", "wp", "wp_shifted",
    "BetheIndexing", "RootSystemData", "Weight",
    "admissible", "build_indexing", "e0", "jack_energy", "lambda_coords",
    "lambda_to_xi", "pairing", "root_system", "target_eigenvalue",
    "w_count", "weight_from_lambda_coords",
    "CriticalReport", "EllipticPoint", "S_dtau",
    "eigenvalue_elliptic", "hessian_tau", "log_phi_tau_grad", "make_report",
    "membership_F", "newton_polish_tau",
    "ContinuationPath", "PathStep", "closed_form_n2", "closed_form_n3_l1",
    "continue_nome", "delta_closed_form_n2", "delta_direct",
    "find_admissible_critical_point", "hess_closed_form_n2",
    "n3_closed_form_displays", "sigma_closed_form",
    "BetheState", "base_point", "bethe_state_elliptic",
    "jack_proportionality", "l2_estimate", "omega_elliptic", "residual_check",
    "sample_torus_points", "sym_omega_tri_nonvanishing", "symmetrize",
    "JackExpansion", "cs_apply", "cs_quotient", "dominance_leq",
    "inner_product", "jack_expand", "partition",
    "EnergySeries", "PotentialSeries", "band_distance", "bethe_crosscheck",
    "exact_interaction", "matrix_element", "potential_coeffs",
    "reachable_partitions", "rs_series", "unperturbed_energy",
    "__version__",
]
