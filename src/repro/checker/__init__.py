"""Independent verification of replica-centric causal consistency.

The checker replays a :class:`~repro.core.causality.History` and verifies
both clauses of Definition 2 without looking at any protocol metadata --
happened-before is recomputed from the issue/apply log alone.  It catches
bugs in *any* timestamp policy, including the deliberately crippled ones
used by the Theorem 8 necessity experiments.
"""

from repro.checker.check import (
    CheckResult,
    LivenessViolation,
    SafetyViolation,
    SessionViolation,
    check_history,
    frontier_closure_violations,
)

__all__ = [
    "CheckResult",
    "LivenessViolation",
    "SafetyViolation",
    "SessionViolation",
    "check_history",
    "frontier_closure_violations",
]
