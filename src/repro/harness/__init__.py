"""Experiment harness: sweeps, metrics, and table rendering.

Each experiment of the E1-E14 index (see DESIGN.md) has a function in
:mod:`repro.harness.experiments` returning a :class:`Table`; the benchmark
modules call these and print the rows the paper's figures/claims imply.
"""

from repro.harness.chaos import (
    CampaignReport,
    ChaosSpec,
    TrialResult,
    run_chaos_campaign,
    run_chaos_trial,
    store_divergence,
)
from repro.harness.report import JsonlWriter, Table
from repro.harness.soak import (
    SoakReport,
    SoakSpec,
    run_soak,
    timeline_for,
)
from repro.harness.sweeps import (
    metadata_comparison,
    protocol_run,
)
from repro.harness.timeline import (
    FaultAction,
    ProcessFaults,
    derive_crashes,
    install_faults,
)

__all__ = [
    "CampaignReport",
    "ChaosSpec",
    "FaultAction",
    "JsonlWriter",
    "ProcessFaults",
    "SoakReport",
    "SoakSpec",
    "Table",
    "TrialResult",
    "derive_crashes",
    "install_faults",
    "metadata_comparison",
    "protocol_run",
    "run_chaos_campaign",
    "run_chaos_trial",
    "run_soak",
    "store_divergence",
    "timeline_for",
]
