"""Sharded placement and scatter-gather execution over N simulated disks.

The package promotes PR 5's intra-query range partitioning to durable
*data placement*: :class:`ShardedStorage` spreads each placed relation
across independent disk nodes on ``b(v)`` range boundaries (with the
``Rng(r)`` overlap band replicated into adjacent shards and a factor-2
mirror on the next node), :class:`ShardCatalog` persists the layouts and
their tokens for plan-cache validation, and :class:`ShardedMergeJoin`
runs merge-joins shard-local and splices the per-shard pair lists in
shard order — bit-identical to the serial path, with replica failover
when a shard's disk dies.
"""

from .catalog import ShardCatalog, ShardLayout, select_boundaries
from .executor import ShardedMergeJoin
from .storage import ShardedStorage, ShardNode

__all__ = [
    "ShardCatalog",
    "ShardLayout",
    "ShardNode",
    "ShardedMergeJoin",
    "ShardedStorage",
    "select_boundaries",
]
