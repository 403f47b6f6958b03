"""Tests for the ``cm`` command-line surface.

Each subcommand is driven in-process through ``main(argv)``; stdout is a
single JSON document (or an error envelope with a stable code), so the tests
parse it directly.  One subprocess test checks the console-script wiring,
through ``python -m cmbethe.cli`` when ``cm`` is not installed.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cmbethe import cli, critical, master, perturb, states
from cmbethe.cli import main
from cmbethe.errors import AccuracyError
from cmbethe.master import eigenvalue_elliptic
from cmbethe.weights import Weight, build_indexing, lambda_to_xi, root_system

SQRT6_OVER_14 = math.sqrt(6) / 14.0
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    """Invoke main(argv registered as the cm argument vector); return
    (exit_code, parsed payload, raw stdout)."""
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out), out


class TestJackCommand:
    """cm jack: monomial expansions as JSON."""

    def test_row_two_expansion(self, capsys):
        code, payload, _ = run_cli(
            capsys, "jack", "--N", "2", "--alpha", "1/2", "--lambda", "2,0")
        assert code == 0
        assert payload["schema"] == 1
        assert payload["lambda"] == [2.0, 0.0]
        coeffs = {tuple(c["mu"]): c for c in payload["coefficients"]}
        assert coeffs[(2.0, 0.0)]["exact"] == "1"
        assert coeffs[(1.0, 1.0)]["exact"] == "4/3"
        assert abs(coeffs[(1.0, 1.0)]["value"] - 4.0 / 3.0) < 1e-15

    def test_partition_entries_not_projected(self, capsys):
        # N raw entries name a Laurent label; (2,0) stays (2,0)
        _, payload, _ = run_cli(
            capsys, "jack", "--N", "2", "--alpha", "1/2", "--lambda", "2,0")
        assert payload["lambda"] == [2.0, 0.0]

    def test_lambda_coordinates_resolved(self, capsys):
        # N-1 entries are fundamental-weight coordinates -> traceless label
        _, payload, _ = run_cli(
            capsys, "jack", "--N", "2", "--alpha", "1/2", "--lambda", "3")
        assert payload["lambda"] == [1.5, -1.5]

    def test_bad_alpha_is_domain_error(self, capsys):
        code, payload, _ = run_cli(
            capsys, "jack", "--N", "2", "--alpha", "x", "--lambda", "2,0")
        assert code == 2
        assert payload["error"]["code"] == "DOMAIN"


class TestCriticalCommand:
    """cm critical: the admissible trigonometric Bethe root."""

    def test_n3_closed_form_block(self, capsys):
        code, payload, _ = run_cli(
            capsys, "critical", "--N", "3", "--l", "1", "--m", "3,3")
        assert code == 0
        assert payload["sigma"] == [0, 1, 2]
        assert payload["grad_norm"] < 1e-12
        cf = payload["closed_form"]
        assert cf["T3"] == "5/14"
        assert abs(cf["T3_value"] - 5.0 / 14.0) < 1e-15
        roots = cf["quadratic_roots"]
        assert len(roots) == 2
        for re, im in roots:
            assert abs(re - 8.0 / 14.0) < 1e-12
            assert abs(abs(im) - SQRT6_OVER_14) < 1e-12
        assert abs(roots[0][1] + roots[1][1]) < 1e-15  # conjugate pair

    def test_n2_closed_form_block(self, capsys):
        code, payload, _ = run_cli(
            capsys, "critical", "--N", "2", "--l", "1", "--m", "3")
        assert code == 0
        assert payload["closed_form"]["elementary_symmetric"] == ["1/2"]
        assert abs(payload["T"][0][0] - 0.5) < 1e-12

    def test_inadmissible_weight_domain_error(self, capsys):
        code, payload, _ = run_cli(
            capsys, "critical", "--N", "2", "--l", "1", "--m", "1")
        assert code == 2
        assert payload["error"]["code"] == "DOMAIN"
        assert "message" in payload["error"]


class TestContinueCommand:
    """cm continue: the continuation path as JSONL."""

    def test_jsonl_artifact(self, capsys, tmp_path):
        out = tmp_path / "path.jsonl"
        code, payload, _ = run_cli(
            capsys, "continue", "--N", "2", "--l", "1", "--m", "3",
            "--p", "1e-4", "--out", str(out))
        assert code == 0
        assert payload["jsonl"] == str(out)
        assert payload["endpoint"]["grad_norm"] < 1e-12
        assert payload["endpoint"]["p"] == [1e-4, 0.0]
        lines = out.read_text().splitlines()
        assert len(lines) == payload["steps_accepted"]
        records = [json.loads(line) for line in lines]
        for rec in records:
            assert set(rec) == {"p", "t", "grad_norm", "hess_det",
                                "eigenvalue"}
            assert len(rec["t"]) == 1 and len(rec["t"][0]) == 2
        assert records[0]["p"] == [0, 0]
        assert records[-1]["p"] == payload["endpoint"]["p"]
        assert records[-1]["t"] == payload["endpoint"]["t"]
        # the file holds the records the inline path prints
        _, inline, _ = run_cli(
            capsys, "continue", "--N", "2", "--l", "1", "--m", "3",
            "--p", "1e-4")
        assert inline["path"] == records

    def test_refused_steps_reported(self, capsys):
        """`cm continue` reports the refused trial steps, each with its
        nome and reason, next to the accepted ones."""
        code, payload, _ = run_cli(
            capsys, "continue", "--N", "2", "--l", "2", "--lambda", "0,0",
            "--p", "0.3", "--mode", "none")
        assert code == 0
        assert payload["steps_rejected"] == len(payload["rejected"]) >= 1
        assert all(set(r) == {"p", "reason"} and isinstance(r["reason"], str)
                   for r in payload["rejected"])
        assert payload["endpoint"]["p"] == [0.3, 0.0]

    def test_inline_path_and_modes(self, capsys):
        code, payload, _ = run_cli(
            capsys, "continue", "--N", "2", "--l", "1", "--m", "3",
            "--p", "1e-4")
        assert code == 0
        assert isinstance(payload["path"], list)
        assert len(payload["path"]) == payload["steps_accepted"]
        assert payload["eigenvalue_mode"] == "partial"
        assert "endpoint_modes" not in payload
        partial = payload["endpoint"]["eigenvalue"]
        assert abs(partial[0] - 9 * math.pi ** 2) < 0.1
        assert payload["path"][-1]["eigenvalue"] == partial

        code, payload, _ = run_cli(
            capsys, "continue", "--N", "2", "--l", "1", "--m", "3",
            "--p", "1e-4", "--mode", "none")
        assert code == 0
        assert "eigenvalue" not in payload["endpoint"]
        for mode in ("total", "auto"):
            with pytest.raises(SystemExit):
                main(["continue", "--N", "2", "--l", "1", "--m", "3",
                      "--p", "1e-4", "--mode", mode])


class TestStateCommand:
    """cm state: eigenstate certificate and CSV slice."""

    def test_elliptic_state_report(self, capsys):
        code, payload, _ = run_cli(
            capsys, "state", "--N", "2", "--l", "1", "--m", "3",
            "--p", "0.01", "--grid", "48")
        assert code == 0
        assert payload["rel_residual"] < 1e-4
        assert "mode_matched" not in payload
        assert "eigenvalue_modes" not in payload
        # the eigenvalue is the library's (partial) one at the continued root
        rs, idx = root_system(2, 1), build_indexing(2, 1)
        xi = Weight([Fraction(3, 2), Fraction(-3, 2)])
        sigma, trig = critical.find_admissible_critical_point(xi, rs, idx)
        xi_s = Weight([xi.exact[i] for i in sigma])
        end = critical.continue_nome(trig, xi_s, rs, idx, 0.01).endpoint
        expected = eigenvalue_elliptic(end.point, xi_s, rs, idx)
        assert payload["eigenvalue"] == [expected.real, expected.imag]
        e_ray = complex(*payload["E_rayleigh"])
        assert abs(expected - e_ray) < 1e-4 * abs(e_ray)
        l2 = payload["l2"]
        assert len(l2) == 3
        assert abs(l2[-1] - l2[-2]) < 1e-3 * abs(l2[-1])

    def test_trig_state_report(self, capsys):
        code, payload, _ = run_cli(
            capsys, "state", "--N", "2", "--l", "1", "--m", "3", "--p", "0",
            "--grid", "48")
        assert code == 0
        assert abs(payload["eigenvalue"][0] - 9 * math.pi ** 2) < 1e-9
        assert payload["rel_residual"] < 1e-4
        assert "eigenvalue_modes" not in payload

    def test_oversized_l2_grid_reports_null(self, capsys, monkeypatch):
        """A grid past the point cap leaves "l2" null, as a weight outside
        P does; the residual certificate is still reported."""
        monkeypatch.setattr(states, "_L2_POINTS", 32 ** 2 - 1)
        code, payload, _ = run_cli(
            capsys, "state", "--N", "2", "--l", "1", "--m", "3",
            "--p", "0", "--grid", "48")
        assert code == 0
        assert payload["l2"] is None
        assert payload["rel_residual"] < 1e-4

    def test_n4_state_keeps_l2_evidence(self, capsys):
        """From N = 4 the levels are the last three of (4, 8, 16, 32, 64)
        whose n^N grid fits 2^18 points: (4, 8, 16) at N = 4, where the
        fixed (16, 32, 64) reported null."""
        code, payload, _ = run_cli(
            capsys, "state", "--N", "4", "--l", "1", "--lambda", "0,0,0,0",
            "--p", "0.01")
        assert code == 0
        l2 = payload["l2"]
        assert l2 is not None and len(l2) == 3
        assert all(v > 0 for v in l2)
        assert abs(l2[-1] - l2[-2]) < 1e-5 * abs(l2[-1])

    def test_l2_levels_by_evaluator_work(self):
        """The L2 levels are chosen by the evaluator's work, grid points x
        N! x omega's labels, against one budget: the levels reported at
        N <= 4 by the former 2^18-point cap stay (N=4 l=2 keeps 4 and 8 of
        its 2.2e9-product 16 level), and at N=6 l=1 even the 4^6 grid (8.1e9
        products) is refused, so "l2" is null with no grid evaluated."""
        levels = cli._state_l2_levels
        for N, l in [(2, 1), (2, 16), (3, 1), (3, 2), (3, 3)]:
            assert levels(N, l) == [16, 32, 64], (N, l)
        assert levels(4, 1) == [4, 8, 16]
        assert levels(4, 2) == [4, 8]
        assert levels(6, 1) == []

    def test_csv_slice(self, capsys, tmp_path):
        out = tmp_path / "slice.csv"
        code, payload, _ = run_cli(
            capsys, "state", "--N", "2", "--l", "1", "--m", "3",
            "--p", "0.01", "--grid", "16", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x_1,x_2,psi_re,psi_im"
        assert len(lines) == 17


class TestPerturbCommand:
    """cm perturb: the energy series report."""

    def test_series_with_crosscheck(self, capsys):
        code, payload, _ = run_cli(
            capsys, "perturb", "--N", "2", "--l", "1",
            "--lambda", "1/2,-1/2", "--order", "2", "--p", "0.01")
        assert code == 0
        assert payload["lambda"] == [0.5, -0.5]
        assert payload["K"] == 2
        assert len(payload["E"]) == 3
        assert abs(payload["E"][0] - 9 * math.pi ** 2) < 1e-9
        assert abs(payload["E"][1] - 4 * math.pi ** 2) < 1e-9
        cc = payload["crosscheck"]
        assert cc["p"] == 0.01
        assert cc["gap"] < 1e-4 * abs(cc["E_BA"])

    def test_non_traceless_label_kept(self, capsys):
        code, payload, _ = run_cli(
            capsys, "perturb", "--N", "2", "--l", "1", "--lambda", "2,0",
            "--order", "1")
        assert code == 0
        assert payload["lambda"] == [2.0, 0.0]
        assert abs(payload["E"][0] - 20 * math.pi ** 2) < 1e-9

    def test_complex_crosscheck_nome_refused(self, capsys):
        code, payload, _ = run_cli(
            capsys, "perturb", "--N", "2", "--l", "1",
            "--lambda", "1/2,-1/2", "--p", "1e-3+1e-3j")
        assert code == 2
        assert payload["error"]["code"] == "DOMAIN"

    def test_degenerate_level_exit_code(self, capsys):
        code, payload, _ = run_cli(
            capsys, "perturb", "--N", "3", "--l", "1", "--lambda", "4,1,1",
            "--order", "3")
        assert code == 4
        assert payload["error"]["code"] == "DEGENERACY"

    def test_order_k_max(self, capsys):
        code, payload, _ = run_cli(
            capsys, "perturb", "--N", "2", "--l", "1",
            "--lambda", "1/2,-1/2", "--order", "8")
        assert code == 0
        assert payload["K"] == 8
        assert len(payload["E"]) == 9

    def test_accuracy_error_exit_code(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AccuracyError("accuracy postcondition not met")

        monkeypatch.setattr(cli, "rs_series", refuse)
        code, payload, _ = run_cli(
            capsys, "perturb", "--N", "2", "--l", "1",
            "--lambda", "1/2,-1/2", "--order", "2")
        assert code == 7
        assert payload["error"]["code"] == "ACCURACY"


class TestVerifyCommand:
    """cm verify: the full-chain verdict."""

    def test_fundamental_state_passes(self, capsys):
        code, payload, _ = run_cli(
            capsys, "verify", "--N", "2", "--l", "1", "--lambda", "1",
            "--p", "0.01")
        assert code == 0
        assert payload["verdict"] == "PASS"
        assert payload["lambda"] == [0.5, -0.5]
        assert "mode_matched" not in payload
        checks = {c["name"]: c for c in payload["checks"]}
        assert checks["rel_residual"]["value"] < 1e-4
        assert checks["jack_ratio_spread"]["value"] < 1e-9
        assert checks["eigenvalue_vs_rayleigh"]["pass"]
        assert checks["perturbation_gap"]["pass"]
        assert all(c["pass"] for c in payload["checks"])

    def test_negative_real_nome_measures_gap(self, capsys):
        # the series is a power series in p: the gap is checked for p < 0 too
        code, payload, _ = run_cli(
            capsys, "verify", "--N", "2", "--l", "1", "--lambda", "1/2,-1/2",
            "--p", "-0.01")
        assert code == 0
        checks = {c["name"]: c for c in payload["checks"]}
        assert checks["perturbation_gap"]["pass"]
        assert len(checks) == 7
        assert payload["perturbation"]["crosscheck"]["p"] == -0.01

    @pytest.mark.parametrize("p", ["nan", "0.01+nanj"])
    def test_non_finite_nome_is_domain_error(self, capsys, p):
        """A NaN nome is refused as a domain error, not run through the
        theta series until it gives up."""
        code, payload, _ = run_cli(
            capsys, "verify", "--N", "2", "--l", "1", "--lambda", "1,-1",
            "--p", p)
        assert code == 2
        assert payload["error"]["code"] == "DOMAIN"

    @pytest.mark.parametrize("flag,value,named", [("--grid", "0", "grid")])
    def test_degenerate_stencil_is_domain_error(self, capsys, flag, value,
                                                named):
        """An empty sample grid is refused by name before H is applied."""
        code, payload, _ = run_cli(
            capsys, "verify", "--N", "2", "--l", "1", "--lambda", "1,-1",
            flag, value)
        assert code == 2
        assert payload["error"]["code"] == "DOMAIN"
        assert named in payload["error"]["message"]

    @pytest.mark.parametrize("command", ["state", "verify"])
    def test_step_flag_refused(self, capsys, command):
        """The finite-difference step is a constant: the parser refuses the
        --fd-h flag as an unknown argument."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--N", "2", "--l", "1", "--lambda", "1,-1",
                  "--fd-h", "1e-3"])
        assert exc.value.code == 2
        assert "--fd-h" in capsys.readouterr().err

    def test_missing_lambda_refused(self, capsys):
        code, payload, _ = run_cli(
            capsys, "verify", "--N", "2", "--l", "1", "--xi", "3",
            "--p", "0.01")
        assert code == 2
        assert payload["error"]["code"] == "DOMAIN"

    @pytest.mark.parametrize("N,l,lam", [(3, 2, "1,0,-1"), (4, 1, "1,0,0,-1")])
    def test_levels_beyond_closed_forms_pass(self, capsys, N, l, lam):
        """The search seeds levels with no closed form (the T-coordinate
        search exited 3 with CONVERGENCE here) and every check passes."""
        code, payload, _ = run_cli(
            capsys, "verify", "--N", str(N), "--l", str(l), "--lambda", lam)
        assert code == 0, payload
        assert payload["verdict"] == "PASS"
        assert all(c["pass"] for c in payload["checks"])

    @pytest.mark.parametrize("l,p", [(12, "0.01"), (16, "0.01"), (20, "0")],
                             ids=["12", "16", "20-p0"])
    def test_large_l_jack_check_passes(self, capsys, l, p):
        """The coefficient-space Jack certificate meets the unchanged 1e-9
        tolerance at the N=2 ladder levels where the pointwise ratio spread
        failed (l=16) or passed only by rounding (l=12). At p = 0 and l = 20
        the state is Sym^(l) of the sigma-table omega, as at p > 0, and meets
        the residual tolerance that the pointwise X^xi Alt / Delta^l form of
        the same state missed (6.97e-4)."""
        code, payload, _ = run_cli(
            capsys, "verify", "--N", "2", "--l", str(l), "--lambda", "1,-1",
            "--p", p)
        assert code == 0
        checks = {c["name"]: c for c in payload["checks"]}
        check = checks["jack_ratio_spread"]
        assert check["tolerance"] == 1e-9
        assert check["pass"], check
        assert checks["rel_residual"]["value"] < 1e-4
        assert payload["verdict"] == "PASS"


class TestVerifySharedChain:
    """cm verify searches and continues once; the perturbation gap is
    measured on the continued root that the state certificate uses."""

    def test_one_search_one_continuation(self, capsys, monkeypatch):
        calls = {"search": 0, "continue": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        search = counted("search", critical.find_admissible_critical_point)
        cont = counted("continue", critical.continue_nome)
        for mod in (cli, perturb):
            monkeypatch.setattr(mod, "find_admissible_critical_point", search)
            monkeypatch.setattr(mod, "continue_nome", cont)
        code, payload, _ = run_cli(
            capsys, "verify", "--N", "3", "--l", "1", "--lambda", "1,0,-1",
            "--p", "0.01")
        assert code == 0
        assert calls == {"search": 1, "continue": 1}
        assert "perturbation_gap" in {c["name"] for c in payload["checks"]}

        rs, idx = root_system(3, 1), build_indexing(3, 1)
        xi = lambda_to_xi(Weight([1, 0, -1]), rs)
        sigma, trig = critical.find_admissible_critical_point(xi, rs, idx)
        xi_s = Weight([xi.exact[i] for i in sigma])
        path = critical.continue_nome(trig, xi_s, rs, idx, 0.01,
                                      eigenvalues=True)
        expected = path.endpoint.eigenvalue.real
        e_ba = payload["perturbation"]["crosscheck"]["E_BA"]
        assert abs(e_ba - expected) <= 1e-12 * abs(expected)


    def test_one_eigenvalue_evaluation(self, capsys, monkeypatch):
        """The state's eigenvalue is evaluated once and is the one the
        perturbation gap reads."""
        calls = []
        fn = master.eigenvalue_elliptic

        def counted(*args, **kwargs):
            calls.append(kwargs.get("mode"))
            return fn(*args, **kwargs)

        for mod in (cli, master, states, perturb, critical):
            if hasattr(mod, "eigenvalue_elliptic"):
                monkeypatch.setattr(mod, "eigenvalue_elliptic", counted)
        code, payload, _ = run_cli(
            capsys, "verify", "--N", "2", "--l", "1", "--lambda", "1,-1",
            "--p", "0.01")
        assert code == 0
        assert len(calls) == 1, calls
        e_ba = payload["perturbation"]["crosscheck"]["E_BA"]
        assert e_ba == payload["eigenvalue"][0]

    def test_one_index_enumeration(self, capsys):
        """The search's closed form and the Jack certificate reuse the index
        sets that cm verify enumerates."""
        build_indexing.cache_clear()
        code, _, _ = run_cli(
            capsys, "verify", "--N", "2", "--l", "1", "--lambda", "1,-1")
        assert code == 0
        info = build_indexing.cache_info()
        assert info.misses == 1 and info.hits >= 2, info

    @pytest.mark.parametrize("p,expected", [("0.01", 1), ("0", 1)])
    def test_p0_polynomial_expansions(self, capsys, monkeypatch, p, expected):
        """The p = 0 polynomial is expanded once, by the search's
        non-vanishing test: the Jack certificate reads the same expansion,
        the state is the sigma-table one at every nome, and the certificate
        builds no state."""
        monkeypatch.setattr(states, "_TRI_MEMO", {})
        calls = []
        expand = states._EllipticOmega.tri_expansion

        def counted(self):
            calls.append(self)
            return expand(self)

        monkeypatch.setattr(states._EllipticOmega, "tri_expansion", counted)
        code, payload, _ = run_cli(
            capsys, "verify", "--N", "3", "--l", "1", "--lambda", "1,0,-1",
            "--p", p)
        assert code == 0 and payload["verdict"] == "PASS"
        assert len(calls) == expected


class TestReferenceGuard:
    """cm verify reproduces the benchmark references (read, never written)
    on four ladder levels: the eigenvalue to 1e-9 relative and the same set
    of failed checks, less the mended Jack check."""

    REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references.json"

    @pytest.mark.parametrize("N,l,lam", [
        (2, 1, "1,-1"), (2, 16, "1,-1"), (3, 1, "1,0,-1"), (3, 1, "4,0,-4")])
    def test_verify_matches_reference(self, capsys, N, l, lam):
        ref = json.loads(self.REFERENCES.read_text())["verify-ladder"][
            f"N{N}-l{l}-lam{lam}"]
        code, payload, _ = run_cli(
            capsys, "verify", "--N", str(N), "--l", str(l), "--lambda", lam)
        assert code == 0
        ev, ref_ev = complex(*payload["eigenvalue"]), complex(*ref["eigenvalue"])
        assert abs(ev - ref_ev) <= 1e-9 * abs(ref_ev), f"{ev} vs {ref_ev}"
        # the references record the pointwise Jack spread failing at
        # N=2 l >= 12; the coefficient certificate passes there, and every
        # other check keeps its recorded outcome
        failed = sorted(c["name"] for c in payload["checks"] if not c["pass"])
        expected = sorted(n for n in ref["failed"] if n != "jack_ratio_spread")
        assert failed == expected
        assert payload["verdict"] == ("FAIL" if expected else "PASS")


class TestDeterminism:
    """Identical configuration (including seed) gives identical bytes."""

    def test_critical_byte_identical(self, capsys):
        argv = ("critical", "--N", "3", "--l", "1", "--m", "3,3")
        _, _, a = run_cli(capsys, *argv)
        _, _, b = run_cli(capsys, *argv)
        assert a == b

    def test_verify_byte_identical(self, capsys):
        argv = ("verify", "--N", "2", "--l", "1", "--lambda", "1",
                "--p", "0.01", "--grid", "48")
        _, _, a = run_cli(capsys, *argv)
        _, _, b = run_cli(capsys, *argv)
        assert a == b

    def test_out_copy_matches_stdout(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        _, _, text = run_cli(
            capsys, "critical", "--N", "2", "--l", "1", "--m", "3",
            "--out", str(out))
        assert out.read_text() == text


class TestThetaCommand:
    """cm theta: grid values inline or as CSV."""

    def test_inline_values(self, capsys):
        code, payload, _ = run_cli(
            capsys, "theta", "--p", "0.05", "--grid", "8")
        assert code == 0
        assert len(payload["values"]) == 8
        rec = payload["values"][0]
        assert {"x", "theta", "d_x", "d_tau"} <= set(rec)

    def test_csv_artifact(self, capsys, tmp_path):
        out = tmp_path / "theta.csv"
        code, payload, _ = run_cli(
            capsys, "theta", "--p", "0.05", "--grid", "8",
            "--out", str(out))
        assert code == 0
        assert payload["rows"] == 8
        lines = out.read_text().splitlines()
        assert lines[0].startswith("x,theta_re,theta_im")
        assert len(lines) == 9


class TestParserReuse:
    """main builds its parser once per process, and successive calls parse
    their own argument vectors."""

    def test_successive_calls_parse_independently(self, capsys, monkeypatch):
        cli._parser.cache_clear()
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        code, first, _ = run_cli(
            capsys, "theta", "--p", "0.1", "--grid", "3")
        assert code == 0
        code, jack, _ = run_cli(
            capsys, "jack", "--N", "2", "--alpha", "1/2", "--lambda", "2,0")
        assert code == 0 and jack["command"] == "jack"
        code, again, _ = run_cli(capsys, "theta")
        assert code == 0
        # the second theta call sees the defaults, not the first call's flags
        assert (first["grid"], first["p"]) == (3, [0.1, 0.0])
        assert (again["grid"], again["p"]) == (64, [0.05, 0.0])
        assert "alpha" not in again and "lambda" not in again
        assert built == [1]
        cli._parser.cache_clear()


class TestConsoleScript:
    """The installed entry point behaves like main()."""

    def test_cm_executable(self):
        # without an installed console script, run the module entry point
        # against this source tree
        exe = shutil.which("cm")
        env = dict(os.environ)
        if exe is None:
            cmd = [sys.executable, "-m", "cmbethe.cli"]
            old = env.get("PYTHONPATH")
            env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        else:
            cmd = [exe]
        proc = subprocess.run(
            cmd + ["jack", "--N", "2", "--alpha", "1/2", "--lambda", "2,0"],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        coeffs = {tuple(c["mu"]): c["exact"]
                  for c in payload["coefficients"]}
        assert coeffs[(1.0, 1.0)] == "4/3"


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
