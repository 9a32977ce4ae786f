"""The per-execution context every operator tree runs on.

Kept apart from :mod:`repro.engine.operators` so that the operators never
import the parallel or shard layers: whether a band join runs serially,
on sampled slices or on a shard placement is decided here, by
:meth:`ExecutionContext.merge_join`, and nowhere else.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Iterator, List, Optional

from ..join.merge_join import MergeJoin
from ..storage.disk import SimulatedDisk
from ..storage.stats import OperationStats

_materialize_counter = itertools.count(1)


class ExecutionContext:
    """Shared disk, buffer budget, and statistics for one plan execution.

    ``metrics`` is an optional :class:`~repro.observe.metrics.QueryMetrics`
    collector, the query's one instrument: its counters and its span tree
    (``metrics.tracer``).  When it is ``None`` (the default) the operators
    run the exact pre-observability code paths — every touch point is
    guarded by an ``is not None`` check.

    ``workers`` and ``shards`` are *execution-time* knobs, never baked
    into a plan: cached operator trees are shared across sessions and
    threads, so the serial / sampled / placed decision — and the
    per-execution comparison kernel — live here.  ``guard`` carries the
    query's deadline/cancel limits so slice workers can derive their own
    linked guards, and ``sharded`` the session's
    :class:`~repro.shard.ShardedStorage` (when one exists) so band joins
    over placed base relations can run on the shard nodes.

    ``catalog`` is the live-catalog view (``tables`` and ``indexes`` by
    catalog name) the leaves of this execution bind against — see
    :func:`~repro.engine.operators.live_heap`; without one every leaf
    reads the heap it was built on.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        buffer_pages: int,
        stats: Optional[OperationStats] = None,
        metrics=None,
        workers: int = 1,
        guard=None,
        kernel=None,
        shards: int = 1,
        sharded=None,
        catalog=None,
    ):
        from ..fuzzy.compare import ComparisonKernel

        self.disk = disk
        self.buffer_pages = buffer_pages
        self.stats = stats if stats is not None else OperationStats()
        self.metrics = metrics
        self.workers = max(1, workers)
        self.guard = guard
        self.shards = max(1, shards)
        self.sharded = sharded
        self.catalog = catalog
        #: Per-execution memoizing comparison kernel, shared by every
        #: operator (and every slice worker) of this one execution.
        self.kernel = kernel if kernel is not None else ComparisonKernel()
        if metrics is not None:
            metrics.parallel_workers = self.workers
            metrics.requested_shards = self.shards if sharded is not None else 0
        #: Scratch heap files materialized during this execution; deleted
        #: by :meth:`release` whether the plan finished or failed.
        self.scratch_files: List[str] = []

    @property
    def placement(self):
        """The shard placement band joins of this execution may run on
        (``None``: no sharded storage, or a shard budget of 1)."""
        return self.sharded if self.shards > 1 else None

    def scratch_name(self, prefix: str) -> str:
        """A fresh name for a scratch file materialized during execution."""
        name = f"__mat_{prefix}_{next(_materialize_counter)}"
        self.scratch_files.append(name)
        return name

    def mark_degraded(self, reason: str) -> None:
        """Record that execution stepped down a rung (``docs/robustness.md``).

        A query can take more than one rung (sharded → local, then the
        local window outgrows the buffer); the reasons chain in the order
        they happened.
        """
        if self.metrics is not None:
            earlier = self.metrics.degraded_reason
            self.metrics.degraded = True
            self.metrics.degraded_reason = (
                f"{earlier}; then {reason}" if earlier else reason
            )

    @contextmanager
    def merge_join(
        self,
        outer_table: Optional[str] = None,
        inner_table: Optional[str] = None,
    ) -> Iterator[MergeJoin]:
        """The band join for one join edge of this execution.

        The one place serial, sampled or placed execution is chosen: with
        a shard placement or more than one worker it is a
        :class:`~repro.parallel.join.PartitionedBandJoin`, whose placed
        source looks the inputs' layouts up by their catalog names
        ``outer_table`` / ``inner_table`` (``None``: not a base table);
        otherwise the serial :class:`MergeJoin`.  Every rung the join
        stepped down to — declines and failovers included, chained in
        :attr:`~MergeJoin.fallback_reason` — is reported when the block
        ends, also when it ends in an error, so a failed query still
        shows the rungs it had taken.
        """
        if self.workers > 1 or self.placement is not None:
            # Imported here: a serial session never loads the thread pool.
            from ..parallel.join import PartitionedBandJoin

            join = PartitionedBandJoin(
                self.disk, self.buffer_pages, self.stats,
                workers=self.workers,
                placement=self.placement,
                tables=(outer_table, inner_table),
                metrics=self.metrics,
                guard=self.guard,
            )
        else:
            join = MergeJoin(
                self.disk, self.buffer_pages, self.stats, metrics=self.metrics
            )
        try:
            yield join
        finally:
            if join.fallback_reason is not None:
                self.mark_degraded(join.fallback_reason)

    def release(self) -> None:
        """Delete the scratch files this execution materialized.

        Idempotent, and called from a ``finally`` in
        :meth:`~repro.engine.operators.Operator.to_relation` so that
        neither a completed nor a failed plan leaks scratch heaps onto the
        shared disk.
        """
        for name in self.scratch_files:
            self.disk.delete(name)
        self.scratch_files.clear()
