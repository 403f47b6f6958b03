"""Record ``bench/references.json`` from the current source tree.

    PYTHONPATH=src python3 bench/record.py

Run it only at a commit whose outputs are known to be right: the benchmark
counts any later disagreement beyond REL_TOL as a wrong output.  The
state-certify E_rayleigh is recorded for each of the SAMPLE_SEEDS residual
sample seeds.
"""

from __future__ import annotations

import json

import workloads as wl
from cmbethe import l2_estimate, residual_check, rs_series


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def record() -> dict:
    verify = {}
    for N, l, lam in wl.VERIFY_LEVELS:
        out = wl.verify_output(wl.run_verify(N, l, lam))
        verify[wl.verify_key(N, l, lam)] = {
            k: out[k] for k in ("eigenvalue", "verdict", "failed")}

    certify = {}
    for spec in wl.CERTIFY_STATES:
        state = wl.build_certified_state(*spec)
        e_ray = {str(s): _pair(residual_check(state, grid_n=wl.CERTIFY_GRID,
                                              seed=s)[0])
                 for s in range(wl.SAMPLE_SEEDS)}
        [l2] = l2_estimate(state, levels=wl.CERTIFY_L2_LEVELS)
        certify[wl.certify_key(*spec)] = {
            "eigenvalue": _pair(state.eigenvalue), "l2": l2, "E_rayleigh": e_ray}

    series = {}
    for spec in wl.RS_ITEMS:
        lam, N, l, K = spec
        out = rs_series(wl.fractions(lam), N, l, K)
        series[wl.rs_key(*spec)] = {"coefficients": list(out.coefficients)}

    return {"verify-ladder": verify, "state-certify": certify, "rs-series": series}


if __name__ == "__main__":
    refs = record()
    wl.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {wl.REFERENCES}")
