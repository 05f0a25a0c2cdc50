"""Seeded input generators for the benchmark.

Everything here is written against :class:`random.Random` only -- not
``repro.workloads`` -- so a change in the program cannot silently change
the traffic the benchmark offers.  ``--seed`` reaches this module and
nothing else; the program under test sees only the generated placements
and operation schedules.

Every written register has at least two holders, so every write
replicates.  Placements keep the properties that set the cost of a write
(timestamp length, fan-out) fixed across seeds and let the seed pick the
labelling, the holder sets and the traffic; the seed-to-seed spread of
the metrics then measures the machine, not the draw.
"""

from __future__ import annotations

import heapq
import json
import random
from typing import Any, Dict, Iterator, List, NamedTuple, Sequence, Tuple

#: ``replica -> registers``.  Simulator placements use integer replica
#: ids: the program multicasts in set-iteration order, which for strings
#: changes with the interpreter's hash seed and would make the seeded
#: simulator metrics differ from process to process.
Placements = Dict[Any, List[str]]

#: Times a replica appears in the tree's Pruefer sequence (= degree - 1).
#: Two hubs of degree 4, three of degree 3, two of degree 2, nine leaves:
#: fixing the multiset fixes sum(deg^2), hence the mean timestamp length
#: per write, while the shuffle still draws a different tree per seed.
_TREE16_PRUFER_COUNTS = (3, 3, 2, 2, 2, 1, 1)


class Write(NamedTuple):
    """One scheduled client write (``value`` is unique per schedule)."""

    due: float
    replica: Any
    register: str
    value: int
    targets: Tuple[Any, ...]


class Read(NamedTuple):
    """One scheduled client read."""

    due: float
    replica: Any
    register: str
    targets: Tuple[Any, ...]


def tree_placements(rng: random.Random) -> Placements:
    """A random labelled tree with a fixed degree multiset.

    One register per tree edge, held by the edge's two endpoints.  A tree
    share graph has no loops, so each replica's timestamp is just its
    incident edges -- the paper's best case.
    """
    names = list(range(16))
    rng.shuffle(names)
    prufer = [
        names[i] for i, c in enumerate(_TREE16_PRUFER_COUNTS) for _ in range(c)
    ]
    rng.shuffle(prufer)
    degree = {name: 1 for name in names}
    for name in prufer:
        degree[name] += 1
    leaves = [name for name in names if degree[name] == 1]
    heapq.heapify(leaves)
    edges: List[Tuple[int, int]] = []
    for name in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, name))
        degree[name] -= 1
        if degree[name] == 1:
            heapq.heappush(leaves, name)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    placements: Placements = {name: [] for name in sorted(names)}
    for k, (a, b) in enumerate(edges):
        placements[a].append(f"e{k:02d}")
        placements[b].append(f"e{k:02d}")
    return placements


def dense_placements(
    rng: random.Random,
    n: int = 24,
    registers: int = 80,
    factor: int = 10,
) -> Placements:
    """``registers`` shared registers on ``factor`` random holders each,
    plus one private (never written) register per replica.

    With 24/80/10 every pair of replicas shares a register with
    probability 1 - 7e-7, so the share graph is complete and every
    timestamp carries all n(n-1) = 552 edge counters -- the paper's
    worst case.
    """
    names = list(range(n))
    placements: Placements = {name: [f"p{name:02d}"] for name in names}
    for k in range(registers):
        for holder in rng.sample(names, factor):
            placements[holder].append(f"x{k:02d}")
    return placements


def ring_placements(n: int = 8) -> Placements:
    """Register ``x<i>`` on replicas ``i`` and ``i+1 (mod n)``."""
    return {
        f"r{i:02d}": sorted({f"x{(i - 1) % n:02d}", f"x{i:02d}"})
        for i in range(n)
    }


def holders(placements: Placements) -> Dict[str, List[Any]]:
    """``register -> sorted holders`` for registers with >= 2 holders."""
    out: Dict[str, List[Any]] = {}
    for replica in sorted(placements):
        for register in placements[replica]:
            out.setdefault(register, []).append(replica)
    return {x: h for x, h in sorted(out.items()) if len(h) >= 2}


def _arrivals(
    rng: random.Random, rate: float, count: int, duration: float
) -> Iterator[float]:
    """Poisson arrival times: ``count`` of them, or those before ``duration``."""
    now = rng.expovariate(rate)
    made = 0
    while made < count if count else now < duration:
        yield now
        made += 1
        now += rng.expovariate(rate)


def _pick(
    rng: random.Random, by_register: Dict[str, List[Any]]
) -> Tuple[Any, str, Tuple[Any, ...]]:
    """A uniform replicated register, a uniform holder of it as the
    home, and the failover order: the home first, then the others."""
    register = rng.choice(list(by_register))
    owners = by_register[register]
    home = rng.choice(owners)
    return home, register, (home,) + tuple(h for h in owners if h != home)


def write_schedule(
    rng: random.Random,
    placements: Placements,
    rate: float,
    count: int = 0,
    duration: float = 0.0,
) -> List[Write]:
    """Poisson writes at ``rate`` per time unit: ``count`` of them, or
    as many as fall within ``duration``; values are 0, 1, 2, ..."""
    by_register = holders(placements)
    out: List[Write] = []
    for due in _arrivals(rng, rate, count, duration):
        home, register, targets = _pick(rng, by_register)
        out.append(Write(due, home, register, len(out), targets))
    return out


def read_schedule(
    rng: random.Random, placements: Placements, rate: float, duration: float
) -> List[Read]:
    """Poisson reads at ``rate`` per second for ``duration`` seconds."""
    by_register = holders(placements)
    out: List[Read] = []
    for due in _arrivals(rng, rate, 0, duration):
        home, register, targets = _pick(rng, by_register)
        out.append(Read(due, home, register, targets))
    return out


def deal(ops: Sequence[NamedTuple], connections: int) -> List[List[NamedTuple]]:
    """Deal a due-ordered stream round-robin onto FIFO connection queues."""
    return [list(ops[k::connections]) for k in range(connections)]


def fingerprint(placements: Placements, *schedules: Sequence[NamedTuple]) -> bytes:
    """Canonical bytes of a generated input (equal seeds => equal bytes)."""
    doc = {
        "placements": {r: sorted(x) for r, x in sorted(placements.items())},
        "schedules": [[list(op) for op in s] for s in schedules],
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")
