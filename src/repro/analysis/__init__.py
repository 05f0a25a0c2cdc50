"""Structural analysis of share graphs and timestamp graphs.

Quantifies *why* the paper's edge set is small: what fraction of the
share graph each replica must track, how that fraction scales with
sharing density, and how long the dependency-carrying loops are.
"""

from repro.analysis.stability import StabilityReport, stability_report
from repro.analysis.structure import (
    density_sweep,
    loop_length_histogram,
    tracking_fraction,
)

__all__ = [
    "StabilityReport",
    "stability_report",
    "density_sweep",
    "loop_length_histogram",
    "tracking_fraction",
]
