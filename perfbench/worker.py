"""One pass of a workload in a fresh interpreter, as `rank3 verify` runs.

    python perfbench/worker.py --workload W --seed N --mode plain|traced|setup
                               --t0 T --out FILE

``--t0`` is the launcher's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux), so ``setup_s``
runs from process start to the first timed call: interpreter start, imports
and input generation.  ``setup`` mode stops there.  The result goes to FILE
as JSON; run.py judges it.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import time
import traceback
from importlib import metadata

from tracing import NullTracer, Tracer

import workloads  # imports rank3


def run_pass(calls, tr) -> list[dict]:
    """Run every call once, timing it; a raised exception counts as wrong."""
    out = []
    for call in calls:
        t = time.perf_counter()
        try:
            res = call.traced(tr) if isinstance(tr, Tracer) else call.plain()
        except Exception as exc:  # noqa: BLE001 -- a raise is a failed call
            res = {
                "outcome": workloads.WRONG,
                "detail": f"raised {type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        res.update(name=call.name, kind=call.kind, seconds=time.perf_counter() - t)
        out.append(res)
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("plain", "traced", "setup"))
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    tr = Tracer() if args.mode == "traced" else NullTracer()
    calls = workloads.build(args.workload, args.seed, tr)
    first_call = time.monotonic()
    result = {
        "setup_s": first_call - args.t0,
        "rank3_file": workloads.verify_entry.__code__.co_filename,
        "budget_s": workloads.BUDGET_S,
        "versions": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "sympy": metadata.version("sympy"),
        },
        "calls_planned": [c.name for c in calls],
    }
    if args.mode != "setup":
        t = time.perf_counter()
        result["calls"] = run_pass(calls, tr)
        result["pass_s"] = time.perf_counter() - t
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["spans"] = tr.spans
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
