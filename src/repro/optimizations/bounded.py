"""Bounded-loop timestamp graphs: sacrificing causality (Appendix D).

Replica *i* may include edge ``e_jk`` in its timestamp only when an
(i, e_jk)-loop of at most ``l + 1`` edges exists.  Under *loose synchrony*
(a message over a path of length >= l is always slower than one hop --
:class:`repro.network.delays.LooseSynchronyDelay`) this is still causally
consistent: the dependency chain travelling the long way around always
loses the race.  When the synchrony assumption breaks, causality can be
violated -- the E11 experiment measures the violation rate as a function
of the cap and the delay model.
"""

from __future__ import annotations

from typing import Callable

from repro.core.share_graph import ShareGraph
from repro.core.timestamp import TimestampPolicy, edge_policy_factory
from repro.errors import ConfigurationError
from repro.types import ReplicaId


def bounded_policy_factory(
    graph: ShareGraph, max_loop_len: int
) -> Callable[[ShareGraph, ReplicaId], TimestampPolicy]:
    """A policy factory tracking only loops of at most ``max_loop_len``
    vertices (i.e. ``max_loop_len`` edges, since loops are cycles).

    Incident edges are always tracked; only the cycle-closing edges beyond
    the cap are dropped.  The resulting policies must be paired with a
    delay model honouring the matching loose-synchrony guarantee to stay
    safe.
    """
    if max_loop_len < 3:
        raise ConfigurationError("max_loop_len must be >= 3")
    return edge_policy_factory(graph, max_loop_len)
