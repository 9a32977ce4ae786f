"""Shard layouts: persisted ``b(v)`` range boundaries per relation.

A :class:`ShardLayout` records how one relation was placed across the
shard nodes: the placement attribute and the boundary list that splits
the ``b(v)`` axis into half-open, *order-disjoint* ranges — exactly the
:mod:`~repro.parallel.partitioner` geometry, promoted from an
intra-query decision to durable data placement.  The
:class:`ShardCatalog` holds the layout of every placed relation plus a
monotonically increasing **layout token** per relation; plan-cache
entries validate against ``(statistics version, layout token)`` pairs,
so re-sharding a relation — even without touching its statistics —
invalidates every cached plan that reads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..fuzzy.interval_order import sort_key
from ..parallel.partitioner import PartitionSpec, range_specs, slice_of


@dataclass(frozen=True)
class ShardLayout:
    """Where one relation lives: attribute, boundaries, and a layout token.

    Shard ``i`` owns the half-open ``b(v)`` range
    ``[boundaries[i-1], boundaries[i])`` (unbounded at the ends).  A
    tuple's **primary** shard is decided by the left endpoint of its
    placement attribute alone; its right endpoint only decides how far
    the ``Rng(r)`` band replicas reach (see
    :meth:`ShardedStorage.place <repro.shard.storage.ShardedStorage.place>`).
    ``source`` names the heap file (the table's epoch) the placement was
    cut from, and prefixes the placement's node files; a join over any
    other epoch of the table does not read it.
    """

    relation: str
    attribute: str
    boundaries: Tuple
    source: str
    token: int = 0

    @property
    def n_shards(self) -> int:
        """Number of primary shards this layout actually uses."""
        return len(self.boundaries) + 1

    def shard_of_b(self, b) -> int:
        """The primary shard of a left endpoint ``b``."""
        return slice_of(self.boundaries, b)

    def shard_of(self, value) -> int:
        """The primary shard of a fuzzy ``value`` (by its left endpoint)."""
        return self.shard_of_b(sort_key(value)[0])

    def replica_range(self, value) -> Tuple[int, int]:
        """``(primary, last)`` shard indices the value's support reaches.

        The support ``[b, e]`` intersects the ranges of shards
        ``primary .. last`` and no others: ``e >= boundaries[j-1]`` —
        i.e. the support crosses into shard ``j`` — holds exactly for
        ``j <= bisect_right(boundaries, e)``.  Band replicas therefore go
        to the *adjacent* shards ``primary + 1 .. last``.
        """
        b, e = sort_key(value)
        return self.shard_of_b(b), self.shard_of_b(e)

    def specs(self) -> List[PartitionSpec]:
        """The shard ranges as ``(index, lower, upper)`` half-open bounds."""
        return range_specs(self.boundaries)


class ShardCatalog:
    """Layouts of every placed relation, with monotonic layout tokens."""

    def __init__(self):
        self._layouts: Dict[str, ShardLayout] = {}
        self._tokens = itertools.count(1)

    def record(self, relation: str, attribute: str, boundaries, source: str) -> ShardLayout:
        """Persist a (re)placement of ``relation`` cut from the heap file
        ``source`` and advance the relation's layout token."""
        layout = ShardLayout(
            relation=relation.upper(),
            attribute=attribute,
            boundaries=tuple(boundaries),
            source=source,
            token=next(self._tokens),
        )
        self._layouts[layout.relation] = layout
        return layout

    def get(self, relation: str) -> Optional[ShardLayout]:
        """The layout of ``relation``, or ``None`` if it was never placed."""
        return self._layouts.get(relation.upper())

    def token(self, relation: str) -> int:
        """The relation's current layout token (0 when never placed)."""
        layout = self._layouts.get(relation.upper())
        return 0 if layout is None else layout.token

    def names(self) -> List[str]:
        """Placed relation names, sorted."""
        return sorted(self._layouts)
