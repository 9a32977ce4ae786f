"""Sharded placement over N simulated disks.

:class:`ShardedStorage` spreads each placed relation across independent
disk nodes on ``b(v)`` range boundaries (with the ``Rng(r)`` overlap band
replicated into adjacent shards and a factor-2 mirror on the next node),
and :class:`ShardCatalog` persists the layouts and their tokens for
plan-cache validation.  A placement is one slice source of the
partitioned band join (:class:`~repro.parallel.join.PartitionedBandJoin`):
a shard is a partition with a placement and a mirror.
"""

from .catalog import ShardCatalog, ShardLayout
from .storage import ShardedStorage, ShardNode

__all__ = [
    "ShardCatalog",
    "ShardLayout",
    "ShardNode",
    "ShardedStorage",
]
