"""The partitioned band join: Section 3's merge-join over order-disjoint slices.

:class:`PartitionedBandJoin` is a :class:`~repro.join.merge_join.MergeJoin`
whose :meth:`~PartitionedBandJoin.fold` — and through it ``pairs`` — cuts
the ``b(v)`` axis into slices, runs the unmodified serial fold on every
slice concurrently, and splices the per-slice outputs in slice order.
Why the splice is the serial output (disjoint outer slices, inner slices
that carry the band reaching them) is argued once, in
``docs/parallelism.md``.

Slices come from one of two sources, tried in this order:

* **placed** — the session's durable shard placement
  (:class:`~repro.shard.ShardedStorage`): a slice is one shard's outer
  primary on its home node, mirrored on the next node; its task builds
  the inner slice from ``band(j_lo)`` plus the inner primaries
  ``j_lo .. j_hi`` its reach band touches, charged under ``shard``;
* **sampled** — boundaries sampled from the outer heap: one coordinator
  pass, charged under ``partition``, routes the outer side disjointly and
  replicates the inner side's band into scratch files.

A source that cannot cut the join declines with a reason and the next
one — finally the serial fold — answers.  Every decline, replica failover
and rung — a slice's or the serial fold's — is chained, in the order it
happened, onto :attr:`~repro.join.merge_join.MergeJoin.fallback_reason`,
which :meth:`~repro.engine.context.ExecutionContext.merge_join` reports.
"""

from __future__ import annotations

import itertools
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from ..data.tuples import FuzzyTuple
from ..errors import DiskFullError, StorageFaultError
from ..join.merge_join import MergeJoin
from ..resilience import CancelToken, QueryGuard
from ..sort.runs import RunWriter
from ..storage.disk import SimulatedDisk
from ..storage.heap import HeapFile
from ..storage.stats import OperationStats
from .executor import gather_partitions
from .partitioner import RangePartitioner

#: A sampled cut whose largest outer slice holds more than this share of
#: the outer tuples declines: it would be the serial plan plus overhead.
SKEW_LIMIT = 0.8

_scratch = itertools.count(1)


@dataclass(frozen=True)
class Source:
    """How one slice source reports.

    ``kind`` names its stats phase, its spans, its EXPLAIN lines and its
    rungs (:attr:`~repro.observe.metrics.PartitionMetrics.kind`);
    ``declined`` prefixes its decline reasons, and ``spilled`` is the
    reason when one of its slice writes hits
    :class:`~repro.errors.DiskFullError`.
    """

    kind: str
    declined: str
    spilled: str


PLACED = Source(
    "shard", "sharded join fell back to local execution", "shard-local spill hit DiskFullError"
)
SAMPLED = Source(
    "partition", "parallel join fell back to serial", "partition spill hit DiskFullError"
)


class _Decline(Exception):
    """A slice source cannot cut this join; the message says why."""


@dataclass
class Slice:
    """One slice of a band join, ready to run on its home disk.

    ``build(slice, file_name, stats) -> (inner heap, mirror reads)`` gives
    the slice's inner side: a placed slice's task builds it into
    ``file_name`` on the home disk, a sampled slice's was written by the
    coordinator.  ``mirror`` is the slice to rerun on when the home disk
    fails (``None``: there is no replica).
    """

    index: int
    lower: object
    upper: object
    outer: HeapFile
    build: Callable
    home: SimulatedDisk
    mirror: Optional["Slice"] = None


def _read(heap: Optional[HeapFile]) -> List[bytes]:
    """A whole heap read into memory (nothing when absent), so a read that
    fails part-way leaves nothing behind to retry around."""
    return [] if heap is None else list(heap.disk.records(heap.name))


def _key(heap: HeapFile, attribute: str) -> Callable[[bytes], Tuple[object, object]]:
    """The ``(b, e)`` of ``attribute``, read from one of ``heap``'s records."""
    return partial(heap.serializer.key_at, index=heap.schema.index_of(attribute))


def _spill(
    disk: SimulatedDisk,
    names: List[str],
    template: HeapFile,
    records: Iterable[bytes],
    route: Callable[[bytes], Iterable[int]],
    stats: OperationStats,
) -> List[HeapFile]:
    """Write ``records`` into scratch heaps ``names``: each to every slice
    ``route`` names, one charged move per copy.  The caller deletes the
    files, whether or not the writes finished."""
    writers = [RunWriter(disk, name) for name in names]
    for record in records:
        for i in route(record):
            stats.count_move()
            writers[i].append(record)
    heaps = []
    for writer in writers:
        writer.close()
        heap = HeapFile(writer.name, template.schema, disk, template.serializer.fixed_size)
        heap.n_tuples = writer.n_tuples
        heaps.append(heap)
    return heaps


def _reach(heap: HeapFile, attribute: str, stats: OperationStats) -> Tuple[object, object]:
    """The ``(min b, max e)`` reach of an outer slice's tuples."""
    key = _key(heap, attribute)
    low = high = None
    for record in heap.disk.records(heap.name):
        b, e = key(record)
        stats.count_crisp(2)
        low = b if low is None or b < low else low
        high = e if high is None or e > high else high
    return low, high


def _written(heap: HeapFile) -> Callable:
    """The builder of an inner slice the coordinator already wrote."""
    return lambda _slice, _name, _stats: (heap, 0)


def _band_route(key: Callable, bands: List[Tuple[object, object]], stats: OperationStats):
    """Route an inner record to every slice whose reach band its support meets."""

    def route(record: bytes) -> Iterator[int]:
        b, e = key(record)
        for i, (low, high) in enumerate(bands):
            stats.count_crisp()
            if e >= low and b <= high:
                yield i

    return route


class PartitionedBandJoin(MergeJoin):
    """The band join over placed or sampled slices, else the serial fold."""

    def __init__(
        self,
        disk: SimulatedDisk,
        buffer_pages: int,
        stats: OperationStats,
        workers: int = 1,
        placement=None,
        tables: Tuple[Optional[str], Optional[str]] = (None, None),
        metrics=None,
        guard: Optional[QueryGuard] = None,
        partitioner: Optional[RangePartitioner] = None,
    ):
        """``workers >= 2`` enables the sampled source; ``placement`` (a
        :class:`~repro.shard.ShardedStorage`) the placed one, whose
        layouts are looked up by the catalog names ``tables`` of the outer
        and inner input.  An explicit ``partitioner`` replaces boundary
        sampling — the property tests drive arbitrary cuts with it."""
        super().__init__(disk, buffer_pages, stats, metrics=metrics)
        self.workers = workers
        self.placement = placement
        self.tables = tables
        self.guard = guard
        self.partitioner = partitioner
        #: Every disk a slice task may touch: stats and guard go on all.
        self._disks = [disk] + [n.disk for n in placement.nodes] if placement else [disk]

    def fold(self, outer, outer_attr, inner, inner_attr, pair_degree, init, step, decided=None):
        """:meth:`MergeJoin.fold`, spliced from slices when a source cuts the join.

        Nothing is yielded until every slice has finished, so a fault can
        never surface after states were consumed.
        """
        sources = []
        if self.placement is not None:
            # One task per node: the nodes are independent devices.
            sources.append((PLACED, self._placed, self.placement.n_shards))
        if self.workers > 1:
            sources.append((SAMPLED, self._sampled, self.workers))
        for source, cut, width in sources:
            scratch: List[str] = []
            try:
                slices = cut(outer, outer_attr, inner, inner_attr, scratch)
                states = self._gather(
                    source, slices, width,
                    (outer_attr, inner_attr, pair_degree, init, step, decided),
                )
            except _Decline as decline:
                self._degrade(f"{source.declined}: {decline}")
                continue
            except DiskFullError:
                self._degrade(f"{source.declined}: {source.spilled}")
                continue
            finally:
                for name in scratch:
                    self.disk.delete(name)
            yield from states
            return
        yield from super().fold(
            outer, outer_attr, inner, inner_attr, pair_degree, init, step, decided
        )

    # ------------------------------------------------------------------
    # Slice sources
    # ------------------------------------------------------------------
    def _placed(self, outer, outer_attr, inner, inner_attr, scratch) -> List[Slice]:
        """One slice per non-empty outer primary of a current placement."""
        storage = self.placement
        layouts = []
        for heap, table in zip((outer, inner), self.tables):
            layout = storage.layout(table) if table is not None else None
            # A placement cut from another heap epoch is not this input
            # (an index's clustered copy holds its source heap's records).
            if layout is None or layout.source != heap.source:
                raise _Decline("join input is not a placed relation")
            layouts.append(layout)
        outer_layout, inner_layout = layouts
        if outer_layout.attribute != outer_attr or inner_layout.attribute != inner_attr:
            raise _Decline("join attribute differs from the shard placement attribute")
        build = partial(self._placed_inner, inner_layout, outer_attr, inner_attr)
        source = outer_layout.source
        slices = []
        # Cuts beyond the node count were clamped into the last node.
        for spec in outer_layout.specs()[: storage.n_shards]:
            primary = storage.primary(spec.index, source)
            if primary is None or primary.n_tuples == 0:
                continue
            mirror = Slice(
                *spec, storage.mirror_primary(spec.index, source), build,
                storage.mirror_node(spec.index).disk,
            )
            slices.append(Slice(*spec, primary, build, storage.nodes[spec.index].disk, mirror))
        if len(slices) < 2:
            raise _Decline("fewer than two non-empty outer shards")
        return slices

    def _placed_inner(self, layout, outer_attr, inner_attr, sl, name, stats):
        """A placed slice's inner side: ``band(j_lo)`` plus the primaries
        ``j_lo .. j_hi`` its reach band touches, filtered by that band;
        each source read fails over to its mirror on its own."""
        storage = self.placement
        source = layout.source
        with stats.enter_phase(PLACED.kind):
            low, high = _reach(sl.outer, outer_attr, stats)
            last = storage.n_shards - 1
            j_lo = min(layout.shard_of_b(low), last)
            j_hi = min(layout.shard_of_b(high), last)
            sources = [(storage.band(j_lo, source), storage.mirror_band(j_lo, source))]
            sources += [
                (storage.primary(j, source), storage.mirror_primary(j, source))
                for j in range(j_lo, j_hi + 1)
            ]
            records: List[bytes] = []
            failovers = 0
            for heap, mirror in sources:
                try:
                    records += _read(heap)
                except StorageFaultError:
                    failovers += 1
                    records += _read(mirror)
            template = sources[0][0] or sources[0][1]
            route = _band_route(_key(template, inner_attr), [(low, high)], stats)
            [heap] = _spill(sl.home, [name], template, records, route, stats)
        return heap, failovers

    def _sampled(self, outer, outer_attr, inner, inner_attr, scratch) -> List[Slice]:
        """Slices cut at sampled boundaries, written by one coordinator pass."""
        partitioner = self.partitioner or RangePartitioner.from_sample(
            outer, outer_attr, self.workers, stats=self.stats
        )
        if partitioner is None:
            raise _Decline("no usable boundary statistics")
        tag = next(_scratch)
        with self.disk.use_stats(self.stats), self.stats.enter_phase(SAMPLED.kind):
            names = [f"__part_{outer.name}_{tag}_{i}" for i in range(partitioner.n_partitions)]
            scratch += names
            key = _key(outer, outer_attr)
            parts = _spill(
                self.disk, names, outer, outer.disk.records(outer.name),
                lambda record: (partitioner.partition_index(key(record)[0]),), self.stats,
            )
            live = [(spec, part) for spec, part in zip(partitioner.specs(), parts) if part.n_tuples]
            if len(live) < 2:
                raise _Decline("fewer than two non-empty partitions")
            largest = max(part.n_tuples for _, part in live)
            if largest > SKEW_LIMIT * max(1, outer.n_tuples):
                raise _Decline(
                    f"skewed partitioning (largest slice holds {largest} of "
                    f"{outer.n_tuples} tuples)"
                )
            bands = [_reach(part, outer_attr, self.stats) for _, part in live]
            names = [f"__part_{inner.name}_{tag}_{spec.index}" for spec, _ in live]
            scratch += names
            route = _band_route(_key(inner, inner_attr), bands, self.stats)
            inner_parts = _spill(
                self.disk, names, inner, inner.disk.records(inner.name), route, self.stats
            )
        return [
            Slice(*spec, part, _written(inner_part), self.disk)
            for (spec, part), inner_part in zip(live, inner_parts)
        ]

    # ------------------------------------------------------------------
    # Scatter, gather, splice
    # ------------------------------------------------------------------
    def _gather(self, source, slices, width, fold) -> list:
        """Run the slices' folds, ``width`` at a time, and splice them in
        slice order.  ``fold`` is ``(outer_attr, inner_attr, pair_degree,
        init, step, decided)``."""
        clock = self.metrics.tracer.now if self.metrics is not None else (lambda: 0.0)
        fold = (source.kind, *fold)

        def task(sl: Slice, linked: CancelToken):
            started = clock()
            try:
                run = self._run(sl, *fold, linked)
            except StorageFaultError:
                if sl.mirror is None:
                    raise
                # The home disk died: rerun the whole slice on the mirror.
                # A second storage fault there — slice and replica both
                # dead — propagates.
                run = self._run(sl.mirror, *fold, linked)
                run[2].failovers += 1
            return (*run, started, clock())

        cancel = self.guard.token if self.guard is not None else None
        runs = gather_partitions([partial(task, sl) for sl in slices], width, cancel)
        out: list = []
        rung = None
        failovers = 0
        for sl, (states, slice_rung, entry, started, ended) in zip(slices, runs):
            self.stats.merge(entry.stats)
            out.extend(states)
            failovers += entry.failovers
            if slice_rung is not None and rung is None:
                rung = f"{source.kind} {sl.index}: {slice_rung}"
            if self.metrics is not None:
                self.metrics.slices.append(entry)
                self.metrics.tracer.record(
                    f"{source.kind} {sl.index}", started, ended, rows=entry.rows_out
                )
        if failovers:
            if self.metrics is not None:
                self.metrics.shard_failovers += failovers
            self._degrade(
                f"shard failover: {failovers} slice read(s) completed from mirror replicas"
            )
        if rung is not None:
            self._degrade(rung)
        return out

    def _run(self, sl, kind, outer_attr, inner_attr, pair_degree, init, step, decided, linked):
        """One slice task: build the inner slice, then fold serially.

        Returns the slice's states, the rungs its fold stepped down to,
        and its metrics entry (``rows_out`` counts the joining pairs).
        """
        from ..observe.metrics import PartitionMetrics  # observe imports the engine

        stats = OperationStats()
        deadline = self.guard.deadline if self.guard is not None else None
        guard = QueryGuard(deadline=deadline, token=linked)
        name = f"__slice_{next(_scratch)}_{sl.index}"
        # Joining pairs count once their outer tuple's state is yielded: the
        # window rung re-inits and refolds a half-scanned outer tuple, and
        # ``init`` (called for a whole block before any step) drops the
        # pairs counted for it so far.
        pending = 0

        def begun(r: FuzzyTuple):
            nonlocal pending
            pending = 0
            return init(r)

        def counted(state, s: FuzzyTuple, degree: float):
            nonlocal pending
            if degree > 0.0:
                pending += 1
            return step(state, s, degree)

        with ExitStack() as stack:
            for disk in self._disks:
                stack.enter_context(disk.use_stats(stats))
                stack.enter_context(disk.use_guard(guard))
            try:
                inner, failovers = sl.build(sl, name, stats)
                entry = PartitionMetrics(
                    kind, sl.index, sl.lower, sl.upper, sl.outer.n_tuples, inner.n_tuples,
                    sl.outer.n_pages, inner.n_pages, stats=stats, failovers=failovers,
                )
                join = MergeJoin(sl.home, self.buffer_pages, stats)
                states = []
                for state in join.fold(
                    sl.outer, outer_attr, inner, inner_attr, pair_degree, begun, counted, decided
                ):
                    entry.rows_out += pending
                    pending = 0
                    states.append(state)
            finally:
                sl.home.delete(name)
        return states, join.fallback_reason, entry
