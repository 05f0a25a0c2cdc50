#!/usr/bin/env python3
"""Compare two sets of runs: ``python3 bench/compare.py A.json B.json``.

A and B are files written by ``bench/run.py --out`` (A the parent, B the
change).  For every pairing of workload and end-to-end metric the
verdict is, with the bound taken from ``BENCHMARK.json``:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B's median is better by more than the bound;
* ``same``       neither;
* ``unresolved`` the run-to-run spread (quartile distance over median,
  the wider of the two sides) exceeds the bound, so a difference of the
  bound's size cannot be seen -- unless every run of one side beats
  every run of the other, which is a verdict whatever the spread.

The seeded simulator quantities (:data:`EXACT_ON_SIM`) are held to no
change at all: runs are paired by seed, and any difference is ``worse`` or
``better`` by the direction of the medians.

Exits non-zero on any ``worse`` and when B failed a larger share of the
operations it attempted than A did.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List

if __package__ in (None, ""):
    sys.path[:1] = [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
from bench import load_contract  # noqa: E402
from bench.stats import quartiles  # noqa: E402

#: Exact for a seed on the ``sim-*`` workloads (virtual time and counts).
EXACT_ON_SIM = ("visibility_p50_ms", "visibility_p95_ms", "metadata_bytes_per_write")


def exact_verdict(
    a: Dict[int, float], b: Dict[int, float], better: str
) -> str:
    """Verdict for a seeded quantity, ``seed -> value`` on each side."""
    shared = sorted(set(a) & set(b))
    if not shared:
        return "unresolved"
    if all(a[seed] == b[seed] for seed in shared):
        return "same"
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (
        quartiles([b[s] for s in shared])["median"]
        - quartiles([a[s] for s in shared])["median"]
    )
    return "worse" if change >= 0 else "better"


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """Verdict on B against A for one metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    base = abs(qa["median"]) or 1.0
    # Positive = B worse, as a share of A's median.
    change = sign * (qb["median"] - qa["median"]) / base
    spread = max(
        (qa["q3"] - qa["q1"]) / base,
        (qb["q3"] - qb["q1"]) / (abs(qb["median"]) or 1.0),
    )
    if spread > bound:
        if sign * (min(b) - max(a)) > 0:  # every B run worse than every A run
            return "worse" if change > bound else "same"
        if sign * (max(b) - min(a)) < 0:
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def failed_share(doc: Dict[str, Any], workload: str) -> float:
    runs = doc["runs"][workload]
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / max(attempted, 1)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    a, b = docs
    end_to_end = load_contract()["end_to_end"]
    bad = False
    print(f"{'workload':<11} {'metric':<26} {'A median':>12} {'B median':>12} "
          f"{'bound':>6}  verdict")
    for workload in a["runs"]:
        if workload not in b["runs"]:
            continue
        for metric in end_to_end:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in a["runs"][workload] if r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b["runs"][workload] if r["metrics"]]
            if not va or not vb:
                print(f"{workload:<11} {name:<26} no runs to compare")
                bad = True
                continue
            if workload.startswith("sim-") and name in EXACT_ON_SIM:
                by_seed = [
                    {r["seed"]: r["metrics"][name]["value"]
                     for r in doc["runs"][workload] if r["metrics"]}
                    for doc in (a, b)
                ]
                result = exact_verdict(*by_seed, metric["better"])
            else:
                result = verdict(va, vb, metric["better"], metric["bound"])
            bad = bad or result == "worse"
            print(f"{workload:<11} {name:<26} {quartiles(va)['median']:>12.5g} "
                  f"{quartiles(vb)['median']:>12.5g} {metric['bound']:>6.2f}  {result}")
        fa, fb = failed_share(a, workload), failed_share(b, workload)
        if fb > fa:
            print(f"{workload:<11} failed share rose: {fa:.4%} -> {fb:.4%}")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
