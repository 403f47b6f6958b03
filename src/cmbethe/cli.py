"""Command-line surface: ``cm <subcommand>``.

Subcommands
    theta      theta-function values on a grid (JSON, or CSV via --out)
    critical   admissible trigonometric Bethe root for one weight
    continue   homotopy continuation of the root in the nome (JSONL path)
    state      eigenstate construction + spectral residual certificate (one
               state constructor for every nome; --p 0 skips the
               continuation)
    jack       Jack polynomial expansion in monomial symmetric functions
    perturb    Rayleigh-Schrodinger energy series (+ Bethe crosscheck)
    verify     full verification chain for one lambda, single JSON verdict

Conventions
    * Weights are comma-separated exact coordinates: N entries are
      epsilon-coordinates, N-1 entries are fundamental-weight coordinates
      (m_1, ..., m_{N-1}); fractions like ``1/2`` are accepted.
    * Every float in JSON output is formatted with 17 significant digits and
      dictionary keys are emitted in a fixed order, so identical
      configuration (including --seed) yields byte-identical output.
    * Failures print {"error": {"code": ..., "message": ...}} and exit
      nonzero; the codes are the stable vocabulary DOMAIN(2),
      CONVERGENCE(3), DEGENERACY(4), MEMBERSHIP(5), RESOURCE(6),
      ACCURACY(7).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from .critical import (NEWTON_TOL, closed_form_n3_l1, continue_nome,
                       find_admissible_critical_point, sigma_closed_form)
from .elliptic import Nome, theta
from .errors import CmError, DomainError
from .jack import jack_expand, partition
from .perturb import _crosscheck_record, bethe_crosscheck, rs_series
from .states import (base_point, bethe_state_elliptic, jack_proportionality,
                     l2_estimate, residual_check)
from .weights import (Weight, build_indexing, lambda_to_xi, permute_weight,
                      root_system, weight_from_lambda_coords)

SCHEMA = 1
_EXIT_CODES = {"DOMAIN": 2, "CONVERGENCE": 3, "DEGENERACY": 4,
               "MEMBERSHIP": 5, "RESOURCE": 6, "ACCURACY": 7}


# ---------------------------------------------------------------------------
# deterministic JSON


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _to_json(obj) -> str:
    """Serialize with floats at 17 significant digits and stable key order
    (insertion order); complex values appear as [re, im] pairs."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt17(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return f"[{_fmt17(z.real)}, {_fmt17(z.imag)}]"
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_to_json(v)}"
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    raise DomainError(f"cannot serialize {type(obj).__name__} to JSON")


def _complex_pair(z: complex) -> List[float]:
    z = complex(z)
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_fractions(text: str) -> List[Fraction]:
    try:
        return [Fraction(tok.strip()) for tok in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse coordinates {text!r}: {exc}")


def _parse_weight(text: str, N: int) -> Weight:
    """N entries: epsilon-coordinates; N-1 entries: Lambda-coordinates.

    Either way the result is the canonical traceless representative (the
    only part the Bethe machinery sees; the center-of-mass mode is cyclic).
    """
    vals = _parse_fractions(text)
    if len(vals) == N:
        return Weight(vals)
    if len(vals) == N - 1:
        return weight_from_lambda_coords(vals, N)
    raise DomainError(
        f"expected {N} epsilon- or {N - 1} Lambda-coordinates, "
        f"got {len(vals)}")


def _parse_partition(text: str, N: int):
    """A partition for jack/perturb: N raw entries (no traceless
    projection -- (2,0) and (1,-1) label different Laurent polynomials), or
    N-1 Lambda-coordinates resolved to the traceless representative."""
    vals = _parse_fractions(text)
    if len(vals) == N:
        return partition(vals)
    if len(vals) == N - 1:
        w = weight_from_lambda_coords(vals, N)
        return partition(w.exact)
    raise DomainError(
        f"expected {N} partition entries or {N - 1} Lambda-coordinates, "
        f"got {len(vals)}")


def _parse_p(text: str) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise DomainError(f"cannot parse nome {text!r}: {exc}")


def _resolve_xi(args, rs) -> Weight:
    """The Bethe weight: --xi/--m directly, or --lambda shifted by (l+1)rho."""
    given = [name for name, val in
             (("--xi/--m", args.xi), ("--lambda", args.lam)) if val]
    if len(given) != 1:
        raise DomainError("specify exactly one of --xi/--m or --lambda")
    if args.xi:
        return _parse_weight(args.xi, rs.N)
    return lambda_to_xi(_parse_weight(args.lam, rs.N), rs)


def _weight_floats(xi: Weight) -> List[float]:
    return [float(c) for c in xi.coords]


# ---------------------------------------------------------------------------
# subcommands


def cmd_theta(args) -> Dict:
    nome = Nome(p=_parse_p(args.p))
    n = int(args.grid)
    if n < 1:
        raise DomainError(f"need --grid >= 1, got {n}")
    xs = (np.arange(n) + 0.5) / n
    tv = theta(xs, nome)
    payload: Dict = {"schema": SCHEMA, "command": "theta",
                     "p": _complex_pair(nome.p), "grid": n}
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "theta_re", "theta_im", "dx_re", "dx_im",
                             "dtau_re", "dtau_im"])
            for i in range(n):
                writer.writerow([_fmt17(xs[i]),
                                 _fmt17(tv.value[i].real),
                                 _fmt17(tv.value[i].imag),
                                 _fmt17(tv.d_x[i].real),
                                 _fmt17(tv.d_x[i].imag),
                                 _fmt17(tv.d_tau[i].real),
                                 _fmt17(tv.d_tau[i].imag)])
        payload["csv"] = args.out
        payload["rows"] = n
    else:
        payload["values"] = [
            {"x": float(xs[i]), "theta": _complex_pair(tv.value[i]),
             "d_x": _complex_pair(tv.d_x[i]),
             "d_tau": _complex_pair(tv.d_tau[i])}
            for i in range(n)]
    return payload


def cmd_critical(args) -> Dict:
    rs = root_system(args.N, args.l)
    idx = build_indexing(args.N, args.l)
    xi = _resolve_xi(args, rs)
    sigma, rep = find_admissible_critical_point(xi, rs, idx, seed=args.seed)
    payload: Dict = {
        "schema": SCHEMA, "command": "critical", "N": args.N, "l": args.l,
        "xi": _weight_floats(xi), "sigma": list(sigma),
        "T": [_complex_pair(z) for z in rep.point.to_T()],
        "grad_norm": float(rep.grad_norm),
        "hessian_det": _complex_pair(rep.hessian_det),
        "in_F": bool(rep.in_F),
    }
    exact = xi.exact
    if exact is not None:
        gaps = [exact[i] - exact[i + 1] for i in range(rs.N - 1)]
        if all(g.denominator == 1 for g in gaps):
            ms = [int(g) for g in gaps]
            if rs.N == 2:
                payload["closed_form"] = {
                    "elementary_symmetric":
                        [str(s) for s in sigma_closed_form(ms[0], rs.l)]}
            elif rs.N == 3 and rs.l == 1:
                m1, m2 = ms
                t3 = Fraction((m1 + m2 - 1) * (m2 - 1),
                              (m1 + m2 + 1) * (m2 + 1))
                pts = closed_form_n3_l1(float(m1), float(m2))
                roots = [_complex_pair(z) for z in pts[0][0].to_T()[:2]]
                payload["closed_form"] = {
                    "T3": str(t3), "T3_value": float(t3),
                    "quadratic_roots": roots}
    return payload


def cmd_continue(args) -> Dict:
    rs = root_system(args.N, args.l)
    idx = build_indexing(args.N, args.l)
    xi = _resolve_xi(args, rs)
    target = _parse_p(args.p)
    sigma, trig = find_admissible_critical_point(xi, rs, idx, seed=args.seed)
    xi_s = permute_weight(xi, sigma)
    path = continue_nome(trig, xi_s, rs, idx, target, steps=args.steps,
                         newton_tol=args.tol,
                         eigenvalues=args.mode == "partial")
    end = path.endpoint
    payload: Dict = {
        "schema": SCHEMA, "command": "continue", "N": args.N, "l": args.l,
        "xi": _weight_floats(xi), "sigma": list(sigma),
        "target_p": _complex_pair(target),
        "steps_accepted": len(path.steps),
        "endpoint": {
            "p": _complex_pair(end.p),
            "t": [_complex_pair(z) for z in end.point.t],
            "grad_norm": float(end.report.grad_norm),
            "hessian_det": _complex_pair(end.report.hessian_det),
        },
    }
    if end.eigenvalue is not None:
        payload["endpoint"]["eigenvalue"] = _complex_pair(end.eigenvalue)
        payload["eigenvalue_mode"] = args.mode
    records = path.records()
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(_to_json(rec) + "\n" for rec in records)
        payload["jsonl"] = args.out
    else:
        payload["path"] = records
    return payload


def _build_state(args):
    """Common chain for state/verify: critical point, continuation to p
    (skipped at p = 0), the Bethe state with its eigenvalue, Rayleigh data."""
    rs = root_system(args.N, args.l)
    idx = build_indexing(args.N, args.l)
    xi = _resolve_xi(args, rs)
    target = _parse_p(args.p)
    sigma, trig = find_admissible_critical_point(xi, rs, idx, seed=args.seed)
    xi_s = permute_weight(xi, sigma)
    info: Dict = {"xi": xi, "xi_s": xi_s, "sigma": sigma, "rs": rs,
                  "idx": idx, "trig": trig, "target": target, "path": None}
    point = trig.point
    if abs(target) != 0:
        path = continue_nome(trig, xi_s, rs, idx, target, steps=args.steps)
        info["path"] = path
        point = path.endpoint.point
    state = bethe_state_elliptic(point, xi_s, rs, idx)
    e_ray, rel = residual_check(state, grid_n=args.grid, fd_h=args.fd_h)
    info["E_rayleigh"] = e_ray
    info["rel_residual"] = rel
    return state, info


def cmd_state(args) -> Dict:
    state, info = _build_state(args)
    try:
        l2 = [float(v) for v in l2_estimate(state)]
    except DomainError:
        l2 = None
    payload: Dict = {
        "schema": SCHEMA, "command": "state", "N": args.N, "l": args.l,
        "xi": _weight_floats(info["xi"]), "sigma": list(info["sigma"]),
        "p": _complex_pair(info["target"]),
        "eigenvalue": _complex_pair(state.eigenvalue),
        "E_rayleigh": _complex_pair(info["E_rayleigh"]),
        "rel_residual": float(info["rel_residual"]),
        "l2": l2,
    }
    if args.out:
        n = int(args.grid)
        direction = np.zeros(args.N)
        direction[0], direction[1] = 0.5, -0.5
        svals = (np.arange(n) + 0.5) / n
        pts = base_point(args.N)[None, :] + svals[:, None] * direction[None, :]
        vals = np.atleast_1d(state.evaluator(pts))
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x_{i + 1}" for i in range(args.N)]
                            + ["psi_re", "psi_im"])
            for row, v in zip(pts, vals):
                writer.writerow([_fmt17(c) for c in row]
                                + [_fmt17(v.real), _fmt17(v.imag)])
        payload["csv"] = args.out
    return payload


def cmd_jack(args) -> Dict:
    try:
        alpha = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse alpha {args.alpha!r}: {exc}")
    lam = _parse_partition(args.lam, args.N)
    js = jack_expand(lam, alpha)
    keys = sorted(js.coeffs, reverse=True)
    payload: Dict = {
        "schema": SCHEMA, "command": "jack", "N": args.N,
        "alpha": str(alpha), "lambda": [float(a) for a in lam],
        "coefficients": [
            {"mu": [float(a) for a in mu], "exact": str(js.coeffs[mu]),
             "value": float(js.coeffs[mu])} for mu in keys],
    }
    return payload


def cmd_perturb(args) -> Dict:
    lam = _parse_partition(args.lam, args.N)
    series = rs_series(lam, args.N, args.l, args.order)
    payload: Dict = {"schema": SCHEMA, "command": "perturb", "N": args.N,
                     "l": args.l}
    payload.update(series.report())
    if args.p is not None:
        target = _parse_p(args.p)
        if target.imag != 0:
            raise DomainError("crosscheck nome --p must be real")
        payload["crosscheck"] = bethe_crosscheck(series, target.real,
                                                 steps=args.steps)
    return payload


def cmd_verify(args) -> Dict:
    if not args.lam:
        raise DomainError("verify identifies the state by --lambda")
    rs = root_system(args.N, args.l)
    lam_w = _parse_weight(args.lam, args.N)
    if lam_w.exact is None:
        raise DomainError("--lambda must be exact (integer or fraction entries)")
    lam = partition(lam_w.exact)

    state, info = _build_state(args)
    checks: List[Dict] = []

    def check(name: str, value: float, tol: float) -> None:
        checks.append({"name": name, "value": float(value),
                       "tolerance": float(tol),
                       "pass": bool(abs(value) < tol)})

    trig = info["trig"]
    check("critical_grad_norm", trig.grad_norm, NEWTON_TOL * 10)
    if info["path"] is not None:
        check("endpoint_grad_norm",
              info["path"].endpoint.report.grad_norm, NEWTON_TOL * 10)
    e_ray = info["E_rayleigh"]
    rel = info["rel_residual"]
    check("rel_residual", rel, args.tol)
    e_ba = state.eigenvalue
    scale = max(1.0, abs(e_ray))
    check("eigenvalue_vs_rayleigh", abs(e_ba - e_ray) / scale, args.tol)

    # trigonometric limit: Sym omega_tri proportional to Jack * Delta^{l+1}
    jack = jack_expand(lam, Fraction(1, args.l + 1))
    _, spread = jack_proportionality(trig.point, info["xi_s"], jack, args.l)
    check("jack_ratio_spread", spread, 1e-9)

    # perturbation crosscheck at the target nome, on the continued root
    # and the eigenvalue of the certified state
    series = rs_series(lam, args.N, args.l, args.order)
    e0_gap = abs(series.coefficients[0]
                 - 2.0 * math.pi ** 2
                 * float(np.dot(info["xi"].coords, info["xi"].coords)))
    check("E0_matches_2pi2_xi_xi", e0_gap, 1e-9 * scale)
    p_real = info["target"].real
    gap_tol = 100.0 * abs(info["target"]) ** (args.order + 1) * scale
    if info["path"] is not None and info["target"].imag == 0 and p_real != 0:
        cc = _crosscheck_record(series, p_real, e_ba)
        check("perturbation_gap", cc["gap"], gap_tol)
    else:
        cc = None

    verdict = "PASS" if all(c["pass"] for c in checks) else "FAIL"
    payload: Dict = {
        "schema": SCHEMA, "command": "verify", "verdict": verdict,
        "N": args.N, "l": args.l,
        "lambda": [float(a) for a in lam],
        "xi": _weight_floats(info["xi"]), "sigma": list(info["sigma"]),
        "p": _complex_pair(info["target"]),
        "eigenvalue": _complex_pair(e_ba),
        "E_rayleigh": _complex_pair(e_ray),
        "perturbation": series.report(crosscheck=cc),
        "checks": checks,
    }
    return payload


# ---------------------------------------------------------------------------
# parser


def _add_weight_flags(sp) -> None:
    sp.add_argument("--xi", "--m", dest="xi", default=None,
                    help="weight: N epsilon- or N-1 Lambda-coordinates")
    sp.add_argument("--lambda", dest="lam", default=None,
                    help="dominant lambda; the weight is lambda + (l+1) rho")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cm",
        description="Bethe-Ansatz eigenstates of the elliptic "
                    "Calogero-Moser model: critical points, continuation "
                    "in the nome, eigenstate certificates, Jack "
                    "polynomials, perturbation series.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("theta", help="theta values on a midpoint grid")
    sp.add_argument("--p", default="0.05", help="nome (complex accepted)")
    sp.add_argument("--grid", type=int, default=64)
    sp.add_argument("--out", default=None, help="write CSV here")
    sp.set_defaults(func=cmd_theta)

    sp = sub.add_parser(
        "critical", help="trigonometric Bethe root",
        description="The admissible trigonometric (p = 0) Bethe root.  T is "
                    "printed; grad_norm and hessian_det are those of -log Phi "
                    "in t at p = 0, the same convention as `cm continue`.")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    _add_weight_flags(sp)
    sp.add_argument("--seed", type=int, default=1234)
    sp.add_argument("--out", default=None, help="also write the JSON here")
    sp.set_defaults(func=cmd_critical)

    sp = sub.add_parser("continue", help="continuation in the nome")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    _add_weight_flags(sp)
    sp.add_argument("--p", required=True, help="target nome")
    sp.add_argument("--steps", type=int, default=10)
    sp.add_argument("--tol", type=float, default=NEWTON_TOL)
    sp.add_argument("--mode", choices=["partial", "none"], default="partial",
                    help="eigenvalue at every step (partial) or none")
    sp.add_argument("--seed", type=int, default=1234)
    sp.add_argument("--out", default=None, help="write the JSONL path here")
    sp.set_defaults(func=cmd_continue)

    sp = sub.add_parser("state", help="eigenstate + residual certificate")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    _add_weight_flags(sp)
    sp.add_argument("--p", default="0.01", help="nome (0 = trigonometric)")
    sp.add_argument("--steps", type=int, default=10)
    sp.add_argument("--grid", type=int, default=64,
                    help="residual sample count / CSV slice resolution")
    sp.add_argument("--fd-h", dest="fd_h", type=float, default=1e-3)
    sp.add_argument("--seed", type=int, default=1234)
    sp.add_argument("--out", default=None, help="write a CSV slice of psi")
    sp.set_defaults(func=cmd_state)

    sp = sub.add_parser("jack", help="Jack polynomial expansion")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--alpha", required=True, help="e.g. 1/2")
    sp.add_argument("--lambda", dest="lam", required=True,
                    help="partition (N entries) or Lambda-coordinates (N-1)")
    sp.add_argument("--out", default=None, help="also write the JSON here")
    sp.set_defaults(func=cmd_jack)

    sp = sub.add_parser("perturb", help="Rayleigh-Schrodinger series")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--order", type=int, default=2, help="expansion order K")
    sp.add_argument("--p", default=None,
                    help="real nome for the Bethe crosscheck")
    sp.add_argument("--steps", type=int, default=10)
    sp.add_argument("--out", default=None, help="also write the JSON here")
    sp.set_defaults(func=cmd_perturb)

    sp = sub.add_parser("verify", help="full-chain verdict for one lambda")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    _add_weight_flags(sp)
    sp.add_argument("--p", default="0.01")
    sp.add_argument("--steps", type=int, default=10)
    sp.add_argument("--grid", type=int, default=64)
    sp.add_argument("--fd-h", dest="fd_h", type=float, default=1e-3)
    sp.add_argument("--order", type=int, default=2)
    sp.add_argument("--tol", type=float, default=1e-4,
                    help="residual / eigenvalue-agreement tolerance")
    sp.add_argument("--seed", type=int, default=1234)
    sp.add_argument("--out", default=None, help="also write the JSON here")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
    except CmError as exc:
        sys.stdout.write(_to_json(
            {"schema": SCHEMA, "error": {"code": exc.code,
                                         "message": exc.message}}) + "\n")
        return _EXIT_CODES.get(exc.code, 1)
    text = _to_json(payload) + "\n"
    sys.stdout.write(text)
    out = getattr(args, "out", None)
    if out and "csv" not in payload and "jsonl" not in payload:
        with open(out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
