"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--spans FILE]

Prints ``ready`` once cmbethe is imported and the workload is set up, then
runs every item once, timed, checks the outputs and prints one JSON line:
the pass wall time, one row per item, the peak RSS and, with ``--spans``,
the per-layer metrics of a traced pass (whose spans go to FILE).  The parent
(``run.py``) times the set-up from its side, from process start to
``ready``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys

import numpy as np

import cmbethe
import workloads
from tracing import Tracer


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None,
                        help="trace the pass and write its spans here")
    args = parser.parse_args()

    tracer = None
    if args.spans:
        # Installed before set-up, so that the evaluators of states built in
        # set-up are wrapped too; spans are recorded only while items run.
        tracer = Tracer(cmbethe)
        tracer.install()
    items = workloads.setup(args.workload, args.seed)
    print("ready", flush=True)

    on_item = None
    if tracer is not None:
        hits0, misses0 = tracer.jack_cache_counts()

        def on_item(key):
            tracer.item = key

        tracer.on = True
    wall, results = workloads.run_items(items, on_item)
    if tracer is not None:
        tracer.on = False
        hits1, misses1 = tracer.jack_cache_counts()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rows = []
    for item, (ms, out) in zip(items, results):
        verdict, failed, residual = item.check(out)
        rows.append({"key": item.key, "ms": ms, "verdict": verdict,
                     "failed": failed, "residual": residual})
    report = {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "rows": rows,
              "python": platform.python_version(), "numpy": np.__version__}
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(
            len(items), hits1 - hits0, misses1 - misses0)
        tracer.write(args.spans)
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    sys.exit(main())
