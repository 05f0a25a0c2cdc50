"""A set of runs: every workload several times, fresh process each.

Repetitions are interleaved round-robin across the workloads, so a noisy
interval on the machine cannot land on one workload alone, and each runs
in its own child process, so nothing leaks from run to run and
``peak_rss_mb`` belongs to one workload.  Repetition ``k`` uses seed
``--seed + k``; the reported value of a metric is the median over the
repetitions (each run already reports medians over its own rounds or
windows).  End-to-end numbers always come from untraced runs; ``--trace
1`` adds one traced run per workload for the per-layer numbers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

from . import ROOT, load_contract
from .stats import quartiles


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One run in a child process; its result object, or a failed one."""
    command = [
        sys.executable, os.path.join(ROOT, "bench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = child.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if child.returncode != 0:
        result["correct"] = False
    result["seed"] = seed
    return result


def summarize(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """``metric -> {unit, n, median, q1, q3}`` over the correct runs."""
    out: Dict[str, Dict[str, Any]] = {}
    good = [r for r in runs if r["metrics"]]
    for name in good[0]["metrics"] if good else ():
        values = [r["metrics"][name]["value"] for r in good]
        out[name] = {"unit": good[0]["metrics"][name]["unit"], **quartiles(values)}
    return out


def main(
    seed: int, seconds: float, reps: int, trace: bool, out: Optional[str]
) -> int:
    workloads = [w["name"] for w in load_contract()["workloads"]]
    runs: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    for rep in range(reps):
        for workload in workloads:
            result = run_child(workload, seed + rep, seconds, False)
            runs[workload].append(result)
            state = "ok" if result["correct"] else "INCORRECT"
            print(
                f"[{rep + 1}/{reps}] {workload}: {state}, "
                f"{result['failed']}/{result['attempted']} failed",
                file=sys.stderr,
            )
    layers = {}
    if trace:
        for workload in workloads:
            layers[workload] = run_child(workload, seed, seconds, True)

    summary = {w: summarize(r) for w, r in runs.items()}
    print(f"{'workload':<11} {'metric':<26} {'unit':<5} {'n':>2} "
          f"{'median':>12} {'q1':>12} {'q3':>12}")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            print(f"{workload:<11} {name:<26} {s['unit']:<5} {s['n']:>2} "
                  f"{s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g}")
    for workload, result in layers.items():
        for name, m in result["metrics"].items():
            print(f"{workload:<11} {name:<40} {m['unit']:<6} {m['value']:>12.5g}")

    everything = [r for rs in runs.values() for r in rs] + list(layers.values())
    ok = all(r["correct"] for r in everything)
    if out:
        doc = {
            "seed": seed, "seconds": seconds, "reps": reps, "ok": ok,
            "runs": runs, "summary": summary, "layers": layers,
        }
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    if not ok:
        print("bench: at least one run was incorrect", file=sys.stderr)
    return 0 if ok else 1
