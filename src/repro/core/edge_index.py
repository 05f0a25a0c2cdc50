"""Interned dense indexes for timestamp key sets.

Every timestamp over the same key set (a replica's edge set ``E_i``, or
replica ids for the vector-clock baseline) shares one :class:`EdgeIndex`:
an immutable, canonical ordering of the keys plus a key -> position map.
Interning makes the index a *identity-comparable* object, which is what
turns timestamp operations into flat array arithmetic:

* two timestamps with the same key set always carry the *same* index
  object, so ``merge``/``dominates``/``__eq__`` can zip their value
  tuples positionally instead of walking dictionaries;
* policies can cache per-sender position plans keyed by the sender's
  index object (senders keep one index for a whole run);
* hashing reduces to ``hash((index.key_hash, values))``, which is stable
  across dict- and array-constructed timestamps by construction.

The intern table is keyed by ``frozenset(keys)`` and lives for the
process: index sets are static per-policy configuration (a handful per
system), not per-message data, so the table stays tiny.
"""

from __future__ import annotations

from struct import Struct
from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Tuple

Key = Hashable

#: What a lane-packed timestamp needs to know about its index: every
#: lane's top bit as one integer, the packer (whose ``size`` is the
#: packed byte length), and ``2**31 - 2**k`` in every lane for the
#: varint thresholds ``k`` = 7, 14, 21, 28 -- the first is bits 7-30.
Lanes = Tuple[int, Struct, Tuple[int, ...]]


def _canonical_key(key: Key) -> Tuple[str, str]:
    """Deterministic ordering for heterogeneous hashable keys."""
    return (str(type(key)), repr(key))


class EdgeIndex:
    """An interned, immutable ``key -> dense position`` mapping.

    Construct via :meth:`of`; the constructor itself is private to the
    intern table (two indexes over the same key set must be the same
    object, otherwise the identity fast paths silently degrade).
    """

    __slots__ = ("keys", "order", "position", "key_hash", "_lanes")

    _intern: Dict[FrozenSet[Key], "EdgeIndex"] = {}

    def __init__(self, keys: FrozenSet[Key]) -> None:
        self.keys: FrozenSet[Key] = keys
        self.order: Tuple[Key, ...] = tuple(sorted(keys, key=_canonical_key))
        self.position: Dict[Key, int] = {
            key: pos for pos, key in enumerate(self.order)
        }
        self.key_hash: int = hash(keys)
        self._lanes: Optional[Lanes] = None

    @classmethod
    def of(cls, keys: Iterable[Key]) -> "EdgeIndex":
        """The interned index for ``keys`` (created on first use)."""
        key_set = keys if isinstance(keys, frozenset) else frozenset(keys)
        index = cls._intern.get(key_set)
        if index is None:
            index = cls._intern[key_set] = cls(key_set)
        return index

    def lanes(self) -> Lanes:
        """The constants of a timestamp's lane-packed form over this
        index (``Timestamp._packed``), built on first use and shared by
        every policy and timestamp over the index."""
        lanes = self._lanes
        if lanes is None:
            width = len(self.order)
            top = int.from_bytes(b"\x00\x00\x00\x80" * width, "little")
            lanes = self._lanes = (
                top,
                Struct("<%di" % width),
                tuple((top >> 31) * (2**31 - 2**k) for k in (7, 14, 21, 28)),
            )
        return lanes

    def __len__(self) -> int:
        return len(self.order)

    def __contains__(self, key: Key) -> bool:
        return key in self.position

    def __repr__(self) -> str:
        return f"EdgeIndex({len(self.order)} keys)"
