"""The cmbethe benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source tree; the package is imported from ``src/``.
A run makes passes over the workload's fixed item list, one at a time, each
in a fresh interpreter (``bench/worker.py``) with one BLAS/OpenMP thread, so
module caches start empty as they do for a ``cm`` invocation.  Passes go on
until the next one would end after S seconds (at least one pass; with
``--trace 1`` at least one plain and one traced pass, alternating).  The
same seed gives the same inputs: it shuffles the item order and picks the
residual sample points.

Every item's output is checked against ``bench/references.json``.  The
output is, in order: one ``item`` row per item and pass, an ``env`` line,
one ``metric`` line per metric with its unit, and as the last line the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts
items whose output is wrong: a ``CmError``, or a disagreement with the
references (which includes a certificate that newly fails).
``pass_frac`` counts items that fail no check at all; it is the complement
of the fail fraction, which is also printed.

End-to-end metrics (``--trace 0``, from plain passes):
  wall_s            median over passes of the wall time of one pass
  item_p50_ms       median over items of each item's median latency over the
                    passes of the run (items x passes samples, printed in
                    the ``env`` line)
  item_p90_ms       90th percentile over items of the same per-item medians.
                    Taking each item's median first keeps a percentile that
                    falls between two items of very different cost (as
                    rs-series's median does) from resting on single samples.
  setup_s           median over passes of interpreter start, import and
                    workload set-up, timed from process start to ``ready``
  pass_frac         items failing no check / items attempted
  max_rel_residual  median over passes of the worst ||H psi - E psi||/||E psi||
                    of a pass (rs-series: of the p = 0 state and E^(0))
  peak_rss_mb       median over passes of the pass process's peak RSS

Per-layer metrics (``--trace 1``) are the medians over the traced passes of
the counts and times of ``bench/tracing.py``, and ``trace.overhead_s``, the
traced wall_s minus the plain wall_s.  The spans of the last traced pass are
written to ``.bench_out/spans-<workload>.tsv``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify-ladder", "state-certify", "rs-series")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RUN_LIMIT_S = 175.0

END_TO_END_UNITS = {"wall_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms",
                    "setup_s": "s", "pass_frac": "ratio",
                    "max_rel_residual": "1", "peak_rss_mb": "MB"}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_item"):
        return "1/item"
    return "count"


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_pass(workload: str, seed: int, spans: Path | None, deadline: float) -> dict:
    """One pass in a fresh interpreter; adds its set-up time as ``setup_s``."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited with code {proc.returncode}")
    report = json.loads(rest.strip().splitlines()[-1])
    report["setup_s"] = setup_s
    report["traced"] = spans is not None
    return report


def _wrong(row: dict) -> bool:
    return any(f.startswith(("error:", "ref:")) for f in row["failed"])


def end_to_end(plain: list) -> dict:
    rows = [r for p in plain for r in p["rows"]]
    by_item: dict = {}
    for r in rows:
        by_item.setdefault(r["key"], []).append(r["ms"])
    item_ms = [statistics.median(v) for v in by_item.values()]
    # A pass whose every residual item raised counts as residual 1.
    residuals = [max((r["residual"] for r in p["rows"] if r["residual"] is not None),
                     default=1.0) for p in plain]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "item_p50_ms": statistics.median(item_ms),
        "item_p90_ms": statistics.quantiles(item_ms, n=10, method="inclusive")[8],
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "pass_frac": sum(not r["failed"] for r in rows) / len(rows),
        "max_rel_residual": statistics.median(residuals),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(plain: list, traced: list) -> dict:
    layers = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in plain))
    return layers


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spans = OUT / f"spans-{workload}.tsv" if trace else None
    if trace:
        OUT.mkdir(exist_ok=True)
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    passes: list = []
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, seed, spans if traced else None, deadline))
        elapsed = perf_counter() - start
        if trace and len(passes) < 2:
            continue
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    for n, p in enumerate(passes):
        tag = f"pass{n}{'-traced' if p['traced'] else ''}"
        for r in p["rows"]:
            print(f"item\t{workload}\t{tag}\t{r['key']}\t{r['ms']:.3f}\t"
                  f"{r['verdict']}\t{','.join(r['failed']) or '-'}")
        print(f"pass\t{workload}\t{tag}\twall_s={p['wall_s']:.4f}\t"
              f"setup_s={p['setup_s']:.4f}\tpeak_rss_mb={p['peak_rss_mb']:.1f}")
    n_rows = sum(len(p["rows"]) for p in plain)
    print("env " + json.dumps({
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": passes[0]["python"], "numpy": passes[0]["numpy"],
        "threads": {var: "1" for var in THREAD_VARS},
        "passes": len(plain), "traced_passes": len(traced_passes),
        "item_samples": n_rows}))
    n_failing = sum(bool(r["failed"]) for p in plain for r in p["rows"])
    print(f"fail_frac {n_failing / n_rows} ({n_failing}/{n_rows} items fail a check)")

    if trace:
        values = per_layer(plain, traced_passes)
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in values.items()}
    else:
        values = end_to_end(plain)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"metric\t{workload}\t{name}\t{m['value']:.6g}\t{m['unit']}")
    failed = sum(_wrong(r) for p in passes for r in p["rows"])
    return {"correct": failed == 0,
            "attempted": sum(len(p["rows"]) for p in passes),
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cmbethe" / "__init__.py").is_file():
        print(f"no cmbethe source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in WORKLOADS}
        print(json.dumps(results))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
