"""End-to-end and per-layer benchmark (see ``bench/README.md``)."""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_contract() -> dict:
    """``BENCHMARK.json``: workloads, metric names, units, bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)
