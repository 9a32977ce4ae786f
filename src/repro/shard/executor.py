"""The scatter-gather executor: shard-local merge-joins, spliced in order.

Correctness argument (checked exhaustively by
:mod:`tests.test_shard_property` and the differential matrix):

* The outer relation's primary slices partition it **disjointly** on
  ``b(r.X)``, so every joining pair belongs to exactly one shard task and
  the splice never duplicates a pair.
* Each shard task computes the reach band ``(low_i, high_i)`` — the
  ``(min b, max e)`` of its outer primaries — and assembles the inner
  slice from the durable placement: with ``j_lo/j_hi`` the inner shards
  of ``low_i``/``high_i``, the slice is ``band(j_lo)`` plus the primaries
  of shards ``j_lo .. j_hi``, all filtered by the reach band.  This is
  *exact*: an inner tuple ``s`` overlapping some outer ``r`` of shard
  ``i`` satisfies ``e(s) >= low_i >= lower(j_lo)``, so if its primary
  shard is below ``j_lo`` it crossed into shard ``j_lo``'s range and sits
  in ``band(j_lo)``; a primary above ``j_hi`` would force
  ``b(s) > high_i``, contradicting overlap.  No duplicates: primaries
  partition S, and ``band(j)`` holds only tuples whose primary is below
  ``j``.  Extra slice tuples are harmless — a disjoint-support pair has
  equality degree 0 and is never emitted.
* Each task runs the unmodified serial
  :class:`~repro.join.merge_join.MergeJoin` on its home node, and the
  coordinator concatenates the per-shard pair lists in shard order —
  which *is* the serial output order, because the global ``(b, e)`` sort
  of R is the concatenation of the shards' sorted orders.  No global
  merge pass, same bit-identity argument as PR 5.

Failover (the PR 4 fault taxonomy, at shard level): every slice is
mirrored on the next node.  A :class:`~repro.errors.StorageFaultError`
while reading an *inner* shard retries once from that shard's mirror; a
fault on the shard task's *home* node re-runs the whole task in mirror
mode on the next node.  Either way the query completes — degraded, with
:attr:`failovers` counted — and only a **double fault** (a shard and its
replica both dead) propagates, as exactly one typed
:class:`~repro.errors.FuzzyQueryError` through
:func:`~repro.parallel.executor.gather_partitions`.
"""

from __future__ import annotations

import itertools
from contextlib import ExitStack
from typing import List, Optional, Tuple

from ..data.tuples import FuzzyTuple
from ..errors import DiskFullError, StorageFaultError
from ..fuzzy.interval_order import sort_key
from ..join.merge_join import MergeJoin
from ..join.predicates import PairDegree
from ..resilience import CancelToken, QueryGuard
from ..sort.runs import RunWriter
from ..storage.heap import HeapFile
from ..storage.stats import OperationStats
from .storage import ShardedStorage, ShardNode

Pair = Tuple[FuzzyTuple, FuzzyTuple, float]

#: Stats phase shard tasks charge their reach/slice work under.
SHARD_PHASE = "shard"

_slice_counter = itertools.count(1)


class ShardedMergeJoin:
    """Coordinator for one scatter-gather merge-join over placed relations."""

    def __init__(
        self,
        storage: ShardedStorage,
        buffer_pages: int,
        stats: OperationStats,
        metrics=None,
        tracer=None,
        guard: Optional[QueryGuard] = None,
        cancel: Optional[CancelToken] = None,
    ):
        self.storage = storage
        self.buffer_pages = buffer_pages
        self.stats = stats
        self.metrics = metrics
        self.tracer = tracer
        self.guard = guard
        self.cancel = cancel
        #: Why the last :meth:`run` declined (``None`` = it ran).
        self.fallback_reason: Optional[str] = None
        #: The first rung a shard-local merge-join stepped down to while
        #: the last :meth:`run` ran sharded (``None`` = none did); see
        #: the ladder in ``docs/robustness.md``.
        self.slice_fallback: Optional[str] = None
        #: Replica failovers the last :meth:`run` performed (inner-shard
        #: reads re-routed to mirrors plus whole-task mirror-mode retries).
        self.failovers: int = 0

    # ------------------------------------------------------------------
    # Entry
    # ------------------------------------------------------------------
    def run(
        self,
        outer: HeapFile,
        outer_attr: str,
        inner: HeapFile,
        inner_attr: str,
        pair_degree: PairDegree,
    ) -> Optional[List[Pair]]:
        """All joining pairs in serial order, or ``None`` to degrade.

        Engages only when *both* heaps are placed base relations whose
        layout attribute equals the join attribute on that side, and at
        least two outer primary slices are non-empty; anything else
        (scratch heaps, predicate-filtered scans, a collapsed layout)
        hands the join back to the caller's serial path, which produces
        the identical answer.
        """
        self.fallback_reason = self.slice_fallback = None
        self.failovers = 0
        outer_layout = self.storage.layout(outer.name)
        inner_layout = self.storage.layout(inner.name)
        if outer_layout is None or inner_layout is None:
            return self._fallback("join input is not a placed relation")
        if outer_layout.attribute != outer_attr or inner_layout.attribute != inner_attr:
            return self._fallback(
                "join attribute differs from the shard placement attribute"
            )
        live = [
            i for i in range(self.storage.n_shards)
            if self._slice_tuples(i, outer.name) > 0
        ]
        if len(live) < 2:
            return self._fallback("fewer than two non-empty outer shards")
        try:
            return self._run_sharded(
                live, outer.name, outer_attr, inner.name, inner_attr,
                inner_layout, pair_degree,
            )
        except DiskFullError:
            return self._fallback("shard-local spill hit DiskFullError")

    def _fallback(self, reason: str) -> Optional[List[Pair]]:
        self.fallback_reason = reason
        return None

    def _slice_tuples(self, shard: int, name: str) -> int:
        heap = self.storage.primary(shard, name)
        return 0 if heap is None else heap.n_tuples

    # ------------------------------------------------------------------
    # Scatter-gather
    # ------------------------------------------------------------------
    def _run_sharded(
        self,
        live: List[int],
        outer_name: str,
        outer_attr: str,
        inner_name: str,
        inner_attr: str,
        inner_layout,
        pair_degree: PairDegree,
    ) -> List[Pair]:
        from ..parallel.executor import gather_partitions

        deadline = self.guard.deadline if self.guard is not None else None
        clock = self.tracer.now if self.tracer is not None else None
        tag = next(_slice_counter)

        def make_task(i: int):
            def task(linked: CancelToken):
                started = clock() if clock is not None else 0.0
                try:
                    result = self._run_shard(
                        i, outer_name, outer_attr, inner_name, inner_attr,
                        inner_layout, pair_degree, tag, deadline, linked,
                        use_mirror=False,
                    )
                except StorageFaultError:
                    # The shard's home node died: re-run the whole task in
                    # mirror mode on the next node.  A second storage
                    # fault there — shard *and* replica dead — propagates.
                    result = self._run_shard(
                        i, outer_name, outer_attr, inner_name, inner_attr,
                        inner_layout, pair_degree, tag, deadline, linked,
                        use_mirror=True,
                    )
                    result.failovers += 1
                ended = clock() if clock is not None else 0.0
                return i, result, started, ended

            return task

        results = gather_partitions(
            [make_task(i) for i in live], len(live), self.cancel
        )
        results.sort(key=lambda item: item[0])

        out: List[Pair] = []
        specs = {spec[0]: spec for spec in self.storage.layout(outer_name).specs()}
        for i, result, started, ended in results:
            self.stats.merge(result.stats)
            self.storage.nodes[i].stats.merge(result.stats)
            self.failovers += result.failovers
            out.extend(result.pairs)
            if result.rung is not None and self.slice_fallback is None:
                self.slice_fallback = f"shard {i}: {result.rung}"
            if self.metrics is not None:
                from ..observe.metrics import PartitionMetrics

                outer_heap = self.storage.primary(i, outer_name)
                self.metrics.record_shard(PartitionMetrics(
                    index=i,
                    lower=specs[i][1],
                    upper=specs[i][2],
                    outer_tuples=outer_heap.n_tuples,
                    inner_tuples=result.slice_tuples,
                    outer_pages=outer_heap.n_pages,
                    inner_pages=result.slice_pages,
                    rows_out=len(result.pairs),
                    stats=result.stats,
                    failovers=result.failovers,
                ))
            if self.tracer is not None:
                self.tracer.record(
                    f"shard {i}", started, ended, rows=len(result.pairs)
                )
        if self.metrics is not None:
            self.metrics.shard_failovers += self.failovers
        return out

    def _run_shard(
        self,
        i: int,
        outer_name: str,
        outer_attr: str,
        inner_name: str,
        inner_attr: str,
        inner_layout,
        pair_degree: PairDegree,
        tag: int,
        deadline,
        linked: CancelToken,
        use_mirror: bool,
    ) -> "_ShardResult":
        """One shard task: reach band → inner slice → shard-local join.

        In mirror mode the home moves to the next node and the outer side
        reads the mirrored primary; inner-shard reads fail over to their
        mirrors individually either way.
        """
        storage = self.storage
        if use_mirror:
            home = storage.mirror_node(i)
            outer_heap = storage.mirror_primary(i, outer_name)
        else:
            home = storage.nodes[i]
            outer_heap = storage.primary(i, outer_name)
        worker_stats = OperationStats()
        worker_guard = QueryGuard(deadline=deadline, token=linked)
        failovers = 0
        with ExitStack() as stack:
            # Disk accounting and guards are thread-local *per disk*; a
            # shard task touches its home node plus every inner node it
            # slices from, so install on all of them.
            for node in storage.nodes:
                stack.enter_context(node.disk.use_stats(worker_stats))
                stack.enter_context(node.disk.use_guard(worker_guard))
            with worker_stats.enter_phase(SHARD_PHASE):
                low, high = self._reach_band(home, outer_heap, outer_attr, worker_stats)
                slice_name = f"__slice_{inner_name}_{tag}_{i}"
                slice_heap, read_failovers = self._build_slice(
                    home, slice_name, inner_name, inner_attr, inner_layout,
                    low, high, worker_stats,
                )
                failovers += read_failovers
            slice_shape = (slice_heap.n_tuples, slice_heap.n_pages)
            try:
                join = MergeJoin(home.disk, self.buffer_pages, worker_stats)
                pairs = list(join.pairs(
                    outer_heap, outer_attr, slice_heap, inner_attr, pair_degree
                ))
            finally:
                home.disk.delete(slice_name)
        return _ShardResult(
            pairs, worker_stats, failovers, *slice_shape, rung=join.fallback_reason
        )

    def _reach_band(
        self, home: ShardNode, outer_heap: HeapFile, outer_attr: str,
        stats: OperationStats,
    ):
        """The ``(min b, max e)`` reach of the shard's outer primaries."""
        key_index = outer_heap.schema.index_of(outer_attr)
        low = high = None
        for page_index in range(outer_heap.n_pages):
            page = home.disk.read_page(outer_heap.name, page_index)
            for record in page.records():
                b, e = sort_key(outer_heap.serializer.decode(record)[key_index])
                stats.count_crisp(2)
                low = b if low is None or b < low else low
                high = e if high is None or e > high else high
        return low, high

    def _build_slice(
        self,
        home: ShardNode,
        slice_name: str,
        inner_name: str,
        inner_attr: str,
        inner_layout,
        low,
        high,
        stats: OperationStats,
    ) -> Tuple[HeapFile, int]:
        """Materialize the shard's inner slice from the durable placement.

        ``band(j_lo)`` plus the primaries of inner shards ``j_lo .. j_hi``,
        filtered by the reach band — see the module docstring for why this
        is exactly the serial slice.  Each source heap read fails over to
        its mirror on a :class:`~repro.errors.StorageFaultError`.
        """
        storage = self.storage
        last = storage.n_shards - 1
        j_lo = min(inner_layout.shard_of_b(low), last)
        j_hi = min(inner_layout.shard_of_b(high), last)
        sources = [
            (j_lo, storage.band(j_lo, inner_name), storage.mirror_band(j_lo, inner_name))
        ]
        for j in range(j_lo, j_hi + 1):
            sources.append(
                (j, storage.primary(j, inner_name), storage.mirror_primary(j, inner_name))
            )
        template = sources[0][1] or sources[0][2]
        writer = RunWriter(home.disk, slice_name, template.serializer)
        key_index = template.schema.index_of(inner_attr)
        failovers = 0
        count = 0
        ok = False
        try:
            for j, heap, mirror in sources:
                try:
                    tuples = self._read_slice_source(j, heap, stats)
                except StorageFaultError:
                    failovers += 1
                    tuples = self._read_slice_source(j, mirror, stats)
                for s in tuples:
                    b, e = sort_key(s[key_index])
                    stats.count_crisp()
                    if e >= low and b <= high:
                        stats.count_move()
                        writer.append(s)
                        count += 1
            writer.close()
            ok = True
        finally:
            if not ok:
                writer.discard()
                home.disk.delete(slice_name)
        slice_heap = HeapFile(
            slice_name, template.schema, home.disk, template.serializer.fixed_size
        )
        slice_heap.n_tuples = count
        return slice_heap, failovers

    def _read_slice_source(
        self, shard: int, heap: Optional[HeapFile], stats: OperationStats
    ) -> List[FuzzyTuple]:
        """Read one source heap of the slice off its node, fully."""
        if heap is None or heap.n_tuples == 0:
            return []
        out: List[FuzzyTuple] = []
        for page_index in range(heap.n_pages):
            page = heap.disk.read_page(heap.name, page_index)
            for record in page.records():
                out.append(heap.serializer.decode(record))
        return out


class _ShardResult:
    """What one shard task hands back to the coordinator."""

    def __init__(self, pairs, stats, failovers, slice_tuples, slice_pages, rung):
        self.pairs = pairs
        self.stats = stats
        self.failovers = failovers
        self.slice_tuples = slice_tuples
        self.slice_pages = slice_pages
        #: The rung the shard-local merge-join stepped down to, if any.
        self.rung = rung
