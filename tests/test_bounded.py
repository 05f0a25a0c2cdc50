"""Tests for bounded-loop timestamp graphs (sacrificing causality)."""

from __future__ import annotations

import pytest

from repro import DSMSystem, ShareGraph, all_timestamp_graphs
from repro.errors import ConfigurationError
from repro.network.delays import LooseSynchronyDelay, UniformDelay
from repro.optimizations import bounded_policy_factory
from repro.workloads import ring_placements, run_workload, uniform_writes


@pytest.fixture
def ring8():
    return ShareGraph(ring_placements(8))


def test_factory_validation(ring8):
    with pytest.raises(ConfigurationError):
        bounded_policy_factory(ring8, 2)


def test_bounded_policies_are_smaller(ring8):
    factory = bounded_policy_factory(ring8, 4)
    policy = factory(ring8, 1)
    exact = all_timestamp_graphs(ring8)[1]
    assert policy.counters() < len(exact.edges)


def test_safe_under_loose_synchrony(ring8):
    """With the synchrony guarantee matching the cap, no violations."""
    factory = bounded_policy_factory(ring8, 4)
    system = DSMSystem(
        ring8,
        policy_factory=factory,
        seed=71,
        delay_model=LooseSynchronyDelay(path_length=3),
    )
    stream = uniform_writes(ring8, 200, seed=72)
    run_workload(system, stream)
    assert system.quiescent()
    assert system.check().ok


def test_violation_when_loop_counters_dropped():
    """The Theorem 8 adversarial schedule (see
    :func:`repro.harness.experiments.e11_adversarial_race`): with cap 3
    the intermediate replicas drop edge e_21, so replica 1 cannot tell the
    chained update depends on the stalled one -- safety is violated."""
    from repro.harness.experiments import e11_adversarial_race

    system = e11_adversarial_race(bounded_cap=3)
    result = system.check()
    assert len(result.safety) >= 1
    assert any(v.replica == 1 for v in result.safety)


def test_exact_policy_survives_same_race():
    """Control: the exact algorithm buffers the chained update until the
    stalled dependency arrives -- no violation, and liveness still holds."""
    from repro.harness.experiments import e11_adversarial_race

    system = e11_adversarial_race(bounded_cap=None)
    assert system.quiescent()
    assert system.check().ok


def test_loose_synchrony_prevents_the_race(ring8):
    """Under a delay model honouring the synchrony bound the chain cannot
    overtake the direct message, so even the capped policy is safe."""
    factory = bounded_policy_factory(ring8, 3)
    for seed in range(4):
        system = DSMSystem(
            ring8,
            policy_factory=factory,
            seed=seed,
            delay_model=LooseSynchronyDelay(path_length=2),
        )
        stream = uniform_writes(ring8, 150, seed=seed + 100)
        run_workload(system, stream)
        assert system.check().ok
