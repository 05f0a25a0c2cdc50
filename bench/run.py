#!/usr/bin/env python3
"""Run the benchmark: one workload once, or a whole set.

One run (what the driver calls)::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

builds the program from ``src/``, generates W's inputs from the seed,
measures for S seconds, checks the outputs and prints one JSON object as
the last line of standard output: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- every end-to-end metric of ``BENCHMARK.json`` with
``--trace 0``, every per-layer metric with ``--trace 1``.  It exits
non-zero when the outputs are wrong.

Without ``--workload`` it runs a set (see ``bench/suite.py``): every
workload ``--reps`` times, each in a fresh process, interleaved, and
prints every metric with unit, n, median and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run in this process; returns the driver's result object."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit("bench: no program to measure (src/repro is missing)")
    from bench import layers, load_contract, simload, tcpload
    from bench.trace import Tracer

    contract = load_contract()
    if workload not in {w["name"] for w in contract["workloads"]}:
        raise SystemExit(f"bench: unknown workload {workload!r}")
    tracer = None
    if trace:
        tracer = Tracer()
        layers.install(tracer)
    module = simload if workload in simload.SPECS else tcpload
    try:
        result = module.run(workload, seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    if tracer is not None:
        os.makedirs(tcpload.OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(tcpload.OUT_DIR, f"trace-{workload}.json"))

    # Layers a workload does not cross report 0; an end-to-end metric a
    # workload fails to produce is a bug and raises.
    if trace:
        wanted, values = contract["per_layer"], result["per_layer"]
    else:
        wanted, values = contract["end_to_end"], result["e2e"]
    metrics = {
        m["name"]: {
            "value": float(values.get(m["name"], 0.0) if trace else values[m["name"]]),
            "unit": m["unit"],
        }
        for m in wanted
    }
    for violation in result.get("violations", ()):
        print(f"bench: violation: {violation}", file=sys.stderr)
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; omit to run a set")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=3, help="set: runs per workload")
    parser.add_argument("--out", help="set: write the set's results here (JSON)")
    args = parser.parse_args(argv)
    from bench import load_contract

    seconds = args.seconds
    if seconds is None:
        seconds = float(load_contract()["run_seconds"])
    if args.workload is None:
        from bench import suite

        return suite.main(args.seed, seconds, args.reps, bool(args.trace), args.out)
    result = run_once(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # The script's own directory leads sys.path; swap it for the checkout
    # root (so ``bench`` is a package and ``bench/trace.py`` cannot shadow
    # the standard library's ``trace``) and the program's source tree.
    sys.path[:1] = [ROOT, os.path.join(ROOT, "src")]
    sys.exit(main())
