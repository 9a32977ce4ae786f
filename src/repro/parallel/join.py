"""The range-partitioned parallel merge-join.

Correctness argument (the invariant :mod:`tests.test_parallel_property`
checks exhaustively):

* The outer relation R is partitioned **disjointly** on ``b(r.X)``, so
  every R-tuple — hence every joining pair ``(r, s)`` — belongs to
  exactly one partition.  No pair is produced twice.
* The inner relation S is **replicated** into every partition its
  support interval can reach: slice ``i`` receives ``s`` iff
  ``e(s.Y) >= min b(r.X)`` and ``b(s.Y) <= max e(r.X)`` over the slice's
  R-tuples.  This is the ``Rng(r)`` overlap band of Section 3 — an
  S-tuple straddling a boundary lands in *both* adjacent slices, because
  R-tuples on either side can reach it.  Omitting the band would silently
  drop exactly the pairs whose supports cross a boundary, which is why
  bit-identical results require it.
* The band makes each slice's S a *superset* of what its R-tuples can
  join: the extra tuples are harmless because a pair with disjoint
  supports has equality degree 0 and is never emitted.
* Each worker runs the unmodified serial
  :class:`~repro.join.merge_join.MergeJoin` on its slice pair, and the
  coordinator concatenates the per-slice pair lists in partition order —
  which *is* the serial output order, since serial R-sorted order is the
  concatenation of the slices' sorted orders.  Duplicate answers (same
  projected tuple from different pairs) are then ``max``-merged by
  :class:`~repro.data.relation.FuzzyRelation` exactly as in the serial
  path.

The join degrades to the serial path — returning ``None`` rather than
raising — when statistics yield no usable boundaries, fewer than two
slices are non-empty, one slice holds nearly everything (skew), or the
partition writes hit :class:`~repro.errors.DiskFullError`.  A slice whose
own merge-join steps down a rung of the ladder in ``docs/robustness.md``
(slice page alignment can need one more frame than the serial window)
still returns its pairs in order; the coordinator reports the rung as
:attr:`PartitionedMergeJoin.slice_fallback`.  Genuine execution faults
inside a worker cancel the sibling workers through the shared
:class:`~repro.parallel.executor.LinkedCancelToken` and surface as one
typed error.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from ..data.tuples import FuzzyTuple
from ..errors import DiskFullError
from ..fuzzy.interval_order import sort_key
from ..join.merge_join import MergeJoin
from ..join.predicates import PairDegree
from ..resilience import CancelToken, QueryGuard
from ..sort.runs import RunWriter
from ..storage.disk import SimulatedDisk
from ..storage.heap import HeapFile
from ..storage.stats import OperationStats
from .executor import gather_partitions
from .partitioner import RangePartitioner

Pair = Tuple[FuzzyTuple, FuzzyTuple, float]

#: Stats phase charged for the coordinator's partitioning write pass.
PARTITION_PHASE = "partition"

_partition_counter = itertools.count(1)


def partition_heap(
    disk: SimulatedDisk,
    source: HeapFile,
    attribute: str,
    partitioner: RangePartitioner,
    stats: OperationStats,
) -> List[HeapFile]:
    """Route ``source`` into one scratch heap per ``b(v)`` slice.

    One charged read pass over the source plus the writes of the slice
    files, all under the ``partition`` phase.  Returns the slice heaps in
    partition order (empty slices included, as zero-page heaps).
    """
    key_index = source.schema.index_of(attribute)
    tag = next(_partition_counter)
    names = [
        f"__part_{source.name}_{tag}_{i}" for i in range(partitioner.n_partitions)
    ]
    writers = [RunWriter(disk, name, source.serializer) for name in names]
    counts = [0] * partitioner.n_partitions
    ok = False
    try:
        with disk.use_stats(stats), stats.enter_phase(PARTITION_PHASE):
            for page_index in range(source.n_pages):
                page = disk.read_page(source.name, page_index)
                for record in page.records():
                    t = source.serializer.decode(record)
                    i = partitioner.partition_index(t[key_index])
                    stats.count_move()
                    writers[i].append(t)
                    counts[i] += 1
            for writer in writers:
                writer.close()
        ok = True
    finally:
        if not ok:
            for writer in writers:
                writer.discard()
            for name in names:
                disk.delete(name)
    heaps = []
    for name, count in zip(names, counts):
        heap = HeapFile(name, source.schema, disk, source.serializer.fixed_size)
        heap.n_tuples = count
        heaps.append(heap)
    return heaps


def replicate_inner(
    disk: SimulatedDisk,
    inner: HeapFile,
    inner_attr: str,
    bands: List[Optional[Tuple[object, object]]],
    stats: OperationStats,
) -> List[Optional[HeapFile]]:
    """Write the inner relation's slice files, replicating the overlap band.

    ``bands[i]`` is the ``(min_b, max_e)`` reach of slice ``i``'s R-tuples
    (``None`` for an empty slice).  An S-tuple is routed into every slice
    whose band its support ``[b, e]`` intersects — one tuple near a
    boundary is written into both adjacent slices.  One charged read pass
    plus the replicated writes, under the ``partition`` phase.
    """
    key_index = inner.schema.index_of(inner_attr)
    tag = next(_partition_counter)
    names = [
        None if band is None else f"__part_{inner.name}_{tag}_{i}"
        for i, band in enumerate(bands)
    ]
    writers = [
        None if name is None else RunWriter(disk, name, inner.serializer)
        for name in names
    ]
    counts = [0] * len(bands)
    ok = False
    try:
        with disk.use_stats(stats), stats.enter_phase(PARTITION_PHASE):
            for page_index in range(inner.n_pages):
                page = disk.read_page(inner.name, page_index)
                for record in page.records():
                    s = inner.serializer.decode(record)
                    b, e = sort_key(s[key_index])
                    for i, band in enumerate(bands):
                        if band is None:
                            continue
                        low, high = band
                        stats.count_crisp()
                        if e >= low and b <= high:
                            stats.count_move()
                            writers[i].append(s)
                            counts[i] += 1
            for writer in writers:
                if writer is not None:
                    writer.close()
        ok = True
    finally:
        if not ok:
            for writer in writers:
                if writer is not None:
                    writer.discard()
            for name in names:
                if name is not None:
                    disk.delete(name)
    heaps: List[Optional[HeapFile]] = []
    for name, count in zip(names, counts):
        if name is None:
            heaps.append(None)
            continue
        heap = HeapFile(name, inner.schema, disk, inner.serializer.fixed_size)
        heap.n_tuples = count
        heaps.append(heap)
    return heaps


class PartitionedMergeJoin:
    """Coordinator for the partitioned sort + merge-join of one equi-band."""

    def __init__(
        self,
        disk: SimulatedDisk,
        buffer_pages: int,
        stats: OperationStats,
        workers: int,
        metrics=None,
        tracer=None,
        guard: Optional[QueryGuard] = None,
        cancel: Optional[CancelToken] = None,
        skew_limit: float = 0.8,
        sample_seed: int = 0,
        partitioner: Optional[RangePartitioner] = None,
    ):
        self.disk = disk
        self.buffer_pages = buffer_pages
        self.stats = stats
        self.workers = workers
        self.metrics = metrics
        self.tracer = tracer
        self.guard = guard
        self.cancel = cancel
        self.skew_limit = skew_limit
        self.sample_seed = sample_seed
        #: An explicit partitioner overrides boundary sampling — the
        #: property tests use this to drive *arbitrary* partition counts.
        self.partitioner = partitioner
        #: Why the last :meth:`run` degraded to serial (``None`` = it ran).
        self.fallback_reason: Optional[str] = None
        #: The first rung a slice's own merge-join stepped down to while
        #: the last :meth:`run` ran partitioned (``None`` = none did).
        self.slice_fallback: Optional[str] = None

    def run(
        self,
        outer: HeapFile,
        outer_attr: str,
        inner: HeapFile,
        inner_attr: str,
        pair_degree: PairDegree,
    ) -> Optional[List[Pair]]:
        """All joining pairs, or ``None`` to degrade to the serial path.

        The pair list is in the exact order the serial merge-join would
        stream them; nothing is returned until every partition worker has
        finished, so a fault can never surface after pairs were consumed.
        """
        self.fallback_reason = self.slice_fallback = None
        if self.workers < 2:
            return self._fallback("workers < 2")
        partitioner = self.partitioner
        if partitioner is None:
            partitioner = RangePartitioner.from_sample(
                outer, outer_attr, self.workers, seed=self.sample_seed, stats=self.stats
            )
        if partitioner is None:
            return self._fallback("no usable boundary statistics")
        try:
            return self._run_partitioned(
                partitioner, outer, outer_attr, inner, inner_attr, pair_degree
            )
        except DiskFullError:
            return self._fallback("partition spill hit DiskFullError")

    def _fallback(self, reason: str) -> Optional[List[Pair]]:
        self.fallback_reason = reason
        return None

    def _run_partitioned(
        self,
        partitioner: RangePartitioner,
        outer: HeapFile,
        outer_attr: str,
        inner: HeapFile,
        inner_attr: str,
        pair_degree: PairDegree,
    ) -> Optional[List[Pair]]:
        outer_parts = partition_heap(
            self.disk, outer, outer_attr, partitioner, self.stats
        )
        inner_parts: List[Optional[HeapFile]] = []
        try:
            non_empty = [p for p in outer_parts if p.n_tuples > 0]
            if len(non_empty) < 2:
                return self._fallback("fewer than two non-empty partitions")
            largest = max(p.n_tuples for p in outer_parts)
            if largest > self.skew_limit * max(1, outer.n_tuples):
                return self._fallback(
                    f"skewed partitioning (largest slice holds {largest} of "
                    f"{outer.n_tuples} tuples)"
                )
            bands = self._reach_bands(outer_parts, outer_attr)
            inner_parts = replicate_inner(
                self.disk, inner, inner_attr, bands, self.stats
            )
            return self._join_partitions(
                partitioner, outer_parts, outer_attr, inner_parts, inner_attr,
                pair_degree,
            )
        finally:
            for part in outer_parts:
                self.disk.delete(part.name)
            for part in inner_parts:
                if part is not None:
                    self.disk.delete(part.name)

    def _reach_bands(
        self, outer_parts: List[HeapFile], outer_attr: str
    ) -> List[Optional[Tuple[object, object]]]:
        """Per-slice ``(min b, max e)`` reach of the R-tuples, one read pass."""
        bands: List[Optional[Tuple[object, object]]] = []
        with self.disk.use_stats(self.stats), self.stats.enter_phase(PARTITION_PHASE):
            for part in outer_parts:
                if part.n_tuples == 0:
                    bands.append(None)
                    continue
                key_index = part.schema.index_of(outer_attr)
                low = high = None
                for page_index in range(part.n_pages):
                    page = self.disk.read_page(part.name, page_index)
                    for record in page.records():
                        b, e = sort_key(part.serializer.decode(record)[key_index])
                        self.stats.count_crisp(2)
                        low = b if low is None or b < low else low
                        high = e if high is None or e > high else high
                bands.append((low, high))
        return bands

    def _join_partitions(
        self,
        partitioner: RangePartitioner,
        outer_parts: List[HeapFile],
        outer_attr: str,
        inner_parts: List[Optional[HeapFile]],
        inner_attr: str,
        pair_degree: PairDegree,
    ) -> List[Pair]:
        deadline = self.guard.deadline if self.guard is not None else None
        clock = self.tracer.now if self.tracer is not None else None
        tasks = []
        live = [
            (i, outer_parts[i], inner_parts[i])
            for i in range(len(outer_parts))
            if outer_parts[i].n_tuples > 0 and inner_parts[i] is not None
        ]

        def make_task(i: int, r_part: HeapFile, s_part: HeapFile):
            def task(linked: CancelToken):
                started = clock() if clock is not None else 0.0
                worker_stats = OperationStats()
                worker_guard = QueryGuard(deadline=deadline, token=linked)
                with self.disk.use_guard(worker_guard):
                    join = MergeJoin(self.disk, self.buffer_pages, worker_stats)
                    pairs = list(
                        join.pairs(r_part, outer_attr, s_part, inner_attr, pair_degree)
                    )
                ended = clock() if clock is not None else 0.0
                return i, pairs, worker_stats, started, ended, join.fallback_reason

            return task

        for i, r_part, s_part in live:
            tasks.append(make_task(i, r_part, s_part))
        results = gather_partitions(tasks, self.workers, self.cancel)
        results.sort(key=lambda item: item[0])

        out: List[Pair] = []
        specs = partitioner.specs()
        for i, pairs, worker_stats, started, ended, rung in results:
            self.stats.merge(worker_stats)
            out.extend(pairs)
            if rung is not None and self.slice_fallback is None:
                self.slice_fallback = f"partition {i}: {rung}"
            if self.metrics is not None:
                from ..observe.metrics import PartitionMetrics

                self.metrics.record_partition(PartitionMetrics(
                    index=i,
                    lower=specs[i].lower,
                    upper=specs[i].upper,
                    outer_tuples=outer_parts[i].n_tuples,
                    inner_tuples=inner_parts[i].n_tuples,
                    outer_pages=outer_parts[i].n_pages,
                    inner_pages=inner_parts[i].n_pages,
                    rows_out=len(pairs),
                    stats=worker_stats,
                ))
            if self.tracer is not None:
                self.tracer.record(
                    f"partition {i}", started, ended, rows=len(pairs),
                )
        return out
