"""Timestamp compression (Appendix D).

The counters of replica *i*'s timestamp are not independent: for a fixed
neighbour *j*, the count on edge ``e_jk`` is the sum of per-register update
counts over ``X_jk``, so counts on different outgoing edges of *j* satisfy
the linear dependencies induced by how registers overlap across edges.

The paper's scheme: for each ``j``, find the smallest subset ``I_j`` of
*j*'s outgoing tracked edges whose counts determine the rest by linear
combination, and store only those -- ``I(E_i, j) = rank`` of the
edge x register-class membership matrix.  This is valid exactly when the
counts are *consistent* (some non-negative per-class count vector produces
them); mid-protocol they may not be, in which case that neighbour's block
falls back to raw storage (the paper's ``I(E_i) <= I'(E_i) <= |E_i|``).

In the special case of full replication every neighbour has rank 1, so the
compressed timestamp has one counter per neighbour plus the replica's own
outgoing block -- the classic vector-clock overhead (Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

from repro.core.share_graph import ShareGraph
from repro.core.timestamp import Timestamp
from repro.errors import CompressionError
from repro.optimizations import linalg
from repro.types import Edge, RegisterName, ReplicaId


def _sort_key(value):
    return (str(type(value)), repr(value))


def register_classes(
    graph: ShareGraph,
    source: ReplicaId,
    out_edges: Sequence[Edge],
) -> Dict[FrozenSet[Edge], FrozenSet[RegisterName]]:
    """Partition the registers on ``source``'s outgoing tracked edges.

    Two registers are equivalent when they appear on exactly the same
    subset of ``out_edges``; the class signature is that edge subset.
    """
    membership: Dict[RegisterName, List[Edge]] = {}
    for e in out_edges:
        for x in graph.shared(*e):
            membership.setdefault(x, []).append(e)
    classes: Dict[FrozenSet[Edge], List[RegisterName]] = {}
    for x, edges in membership.items():
        classes.setdefault(frozenset(edges), []).append(x)
    return {sig: frozenset(regs) for sig, regs in classes.items()}


def _membership_matrix(
    out_edges: Sequence[Edge],
    signatures: Sequence[FrozenSet[Edge]],
) -> List[List[int]]:
    """Rows = edges, columns = register classes; 1 when class lies on edge."""
    return [
        [1 if e in sig else 0 for sig in signatures] for e in out_edges
    ]


@dataclass(frozen=True)
class _Block:
    """Precomputed compression data for one source replica ``j``."""

    source: ReplicaId
    out_edges: Tuple[Edge, ...]
    matrix: Tuple[Tuple[int, ...], ...]
    basis: Tuple[int, ...]  # indices into out_edges
    # For each non-basis edge: coefficients over the basis counts.
    coefficients: Mapping[int, Tuple[object, ...]]

    @property
    def compressed_size(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class CompressedTimestamp:
    """Wire/storage form of a timestamp: per-source basis counts.

    ``blocks`` maps source replica -> ("basis", counts) or
    ("raw", counts) when that block's counters were inconsistent.
    """

    blocks: Mapping[ReplicaId, Tuple[str, Tuple[int, ...]]]

    @property
    def length(self) -> int:
        """Number of stored counters."""
        return sum(len(counts) for _, counts in self.blocks.values())

    @property
    def fallback_sources(self) -> FrozenSet[ReplicaId]:
        """Sources whose blocks could not be compressed."""
        return frozenset(
            src for src, (kind, _) in self.blocks.items() if kind == "raw"
        )


class CompressedCodec:
    """Lossless encode/decode between a :class:`Timestamp` and its
    compressed form, for a fixed replica and edge index set.

    Parameters
    ----------
    graph, replica_id:
        The share graph and the owning replica.
    edges:
        The timestamp's edge index set (``E_i``).
    """

    def __init__(
        self,
        graph: ShareGraph,
        replica_id: ReplicaId,
        edges: FrozenSet[Edge],
    ) -> None:
        self.graph = graph
        self.replica_id = replica_id
        self.edges = frozenset(edges)
        by_source: Dict[ReplicaId, List[Edge]] = {}
        for e in sorted(self.edges, key=lambda e: (_sort_key(e[0]), _sort_key(e[1]))):
            by_source.setdefault(e[0], []).append(e)
        self._blocks: Dict[ReplicaId, _Block] = {}
        for source, out_edges in by_source.items():
            classes = register_classes(graph, source, out_edges)
            signatures = sorted(classes, key=lambda sig: sorted(map(_sort_key, sig)))
            matrix = _membership_matrix(out_edges, signatures)
            basis = linalg.row_basis_indices(matrix)
            basis_rows = [matrix[b] for b in basis]
            coefficients: Dict[int, Tuple[object, ...]] = {}
            for idx, row in enumerate(matrix):
                if idx in basis:
                    continue
                coeffs = linalg.express_row(basis_rows, row)
                if coeffs is None:  # pragma: no cover - basis is maximal
                    raise CompressionError(
                        f"row basis for source {source!r} is not spanning"
                    )
                coefficients[idx] = tuple(coeffs)
            self._blocks[source] = _Block(
                source=source,
                out_edges=tuple(out_edges),
                matrix=tuple(tuple(r) for r in matrix),
                basis=tuple(basis),
                coefficients=coefficients,
            )

    # ------------------------------------------------------------------
    def compressed_length(self) -> int:
        """``I(E_i)``: counters stored when every block is consistent."""
        return sum(b.compressed_size for b in self._blocks.values())

    def raw_length(self) -> int:
        """``|E_i|``: counters without compression."""
        return len(self.edges)

    def compress(self, ts: Timestamp) -> CompressedTimestamp:
        """Encode ``ts``; inconsistent blocks fall back to raw counters."""
        if ts.index != self.edges:
            raise CompressionError("timestamp index does not match codec")
        blocks: Dict[ReplicaId, Tuple[str, Tuple[int, ...]]] = {}
        for source, block in self._blocks.items():
            counts = [ts[e] for e in block.out_edges]
            if linalg.in_column_space(
                [list(r) for r in block.matrix], counts
            ):
                blocks[source] = (
                    "basis",
                    tuple(counts[b] for b in block.basis),
                )
            else:
                blocks[source] = ("raw", tuple(counts))
        return CompressedTimestamp(blocks=blocks)

    def decompress(self, compressed: CompressedTimestamp) -> Timestamp:
        """Reconstruct the full edge-indexed timestamp."""
        counters: Dict[Edge, int] = {}
        for source, block in self._blocks.items():
            kind, counts = compressed.blocks[source]
            if kind == "raw":
                for e, c in zip(block.out_edges, counts):
                    counters[e] = c
                continue
            basis_counts = dict(zip(block.basis, counts))
            for idx, e in enumerate(block.out_edges):
                if idx in basis_counts:
                    counters[e] = basis_counts[idx]
                else:
                    coeffs = block.coefficients[idx]
                    value = sum(
                        c * basis_counts[b]
                        for c, b in zip(coeffs, block.basis)
                    )
                    if value != int(value):
                        raise CompressionError(
                            f"non-integral reconstruction on edge {e!r}"
                        )
                    counters[e] = int(value)
        if frozenset(counters) != self.edges:  # pragma: no cover - guard
            raise CompressionError("decompressed index mismatch")
        return Timestamp(counters)


def compressed_length(
    graph: ShareGraph, replica_id: ReplicaId, edges: FrozenSet[Edge]
) -> Tuple[int, int]:
    """``(I(E_i), |E_i|)`` -- compressed vs raw counter counts."""
    codec = CompressedCodec(graph, replica_id, edges)
    return codec.compressed_length(), codec.raw_length()
