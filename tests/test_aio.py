"""Tests for the asyncio runtime (same protocol, live concurrency)."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.aio import AioDSMSystem
from repro.errors import ConfigurationError, UnknownRegisterError
from repro.workloads import fig5_placements, ring_placements


def run(coro):
    return asyncio.run(coro)


def test_basic_write_propagates():
    async def scenario():
        system = AioDSMSystem(fig5_placements(), seed=1)
        async with system:
            await system.replica(2).write("y", "hello")
            await system.settle()
            assert system.replica(1).read("y") == "hello"
            assert system.replica(4).read("y") == "hello"
        assert system.check().ok

    run(scenario())


def test_causal_chain_across_replicas():
    async def scenario():
        system = AioDSMSystem(fig5_placements(), seed=2)
        async with system:
            await system.replica(3).write("x", "base")
            await system.settle()
            seen = system.replica(2).read("x")
            await system.replica(2).write("y", f"re:{seen}")
            await system.settle()
            assert system.replica(4).read("y") == "re:base"
        result = system.check()
        assert result.ok, str(result)

    run(scenario())


def test_concurrent_writers_stay_consistent():
    async def scenario():
        system = AioDSMSystem(ring_placements(5), seed=3)
        rng = random.Random(3)
        async with system:
            async def writer(rid):
                registers = sorted(system.graph.registers_at(rid))
                for n in range(15):
                    await system.replica(rid).write(
                        rng.choice(registers), f"{rid}:{n}"
                    )
                    await asyncio.sleep(rng.uniform(0, 0.005))

            await asyncio.gather(*(writer(r) for r in system.graph.replicas))
            await system.settle()
        result = system.check()
        assert result.ok, str(result)
        assert system.quiescent()

    run(scenario())


def test_settle_reports_quiescence():
    async def scenario():
        system = AioDSMSystem(fig5_placements(), seed=4)
        async with system:
            assert system.quiescent()
            await system.replica(2).write("y", 1)
            await system.settle()
            assert system.quiescent()

    run(scenario())


def test_read_unstored_register_rejected():
    async def scenario():
        system = AioDSMSystem(fig5_placements(), seed=5)
        async with system:
            with pytest.raises(UnknownRegisterError):
                system.replica(1).read("z")
            with pytest.raises(UnknownRegisterError):
                await system.replica(1).write("z", 0)

    run(scenario())


def test_unknown_replica_rejected():
    async def scenario():
        system = AioDSMSystem(fig5_placements(), seed=6)
        async with system:
            with pytest.raises(ConfigurationError):
                system.replica(99)

    run(scenario())


def test_delay_bounds_validated():
    with pytest.raises(ConfigurationError):
        AioDSMSystem(fig5_placements(), delay_range=(0.5, 0.1))


def test_history_matches_simulator_semantics():
    """The asyncio run produces a valid happened-before structure: each
    replica's second write depends on its first."""

    async def scenario():
        system = AioDSMSystem(fig5_placements(), seed=7)
        async with system:
            u1 = await system.replica(2).write("y", 1)
            u2 = await system.replica(2).write("y", 2)
            await system.settle()
            assert system.history.happened_before(u1, u2)
        assert system.check().ok

    run(scenario())


def test_finished_delivery_tasks_are_not_retained():
    """A long run must not hold one finished Task per message.

    Deliveries live in a set that discards each task on completion; only
    the replicas' ``run()`` loops are kept until ``__aexit__``.
    """

    async def scenario():
        system = AioDSMSystem(
            ring_placements(4), seed=9, delay_range=(0.0, 0.001)
        )
        async with system:
            for n in range(500):
                rid = 1 + n % 4
                shared = f"s{rid}_{rid + 1}" if rid < 4 else "s1_4"
                await system.replica(rid).write(shared, n)
            await system.settle()
            assert system.messages_sent >= 500
            assert len(system._deliveries) == 0
            assert len(system._tasks) == len(system.replicas)
        assert system.check().ok

    run(scenario())
