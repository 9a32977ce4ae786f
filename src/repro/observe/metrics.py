"""The :class:`QueryMetrics` collector.

One collector instance accompanies one query execution.  It gathers

* per-operator counters (rows in/out, degree-threshold prunes, pairs a
  fold skipped as decided, inclusive wall time) keyed by operator identity;
* external-sort shape (initial runs, merge passes) per sort;
* a page-access trace from the simulated disk (via :meth:`watch_disk`),
  tagged with the :class:`~repro.storage.stats.OperationStats` phase that
  was active at access time — this is what lets tests assert the paper's
  locality claim ("a page of S is never re-read once the merge scan
  passes it") page by page, and replayed through an LRU pool for the
  buffer's hits and re-fetches (:meth:`buffer_replay`);
* the query's span tree (:attr:`tracer`): the ``query`` span the
  lifecycle opens, the phases below it (:meth:`span`) and one span per
  operator stream;
* which unnest rewrite fired and which execution strategy ran.

Everything is plain data; rendering lives in :mod:`repro.observe.explain`.
"""

from __future__ import annotations

import time
from collections import Counter, OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..storage.stats import OperationStats
from .trace import SpanTracer


@dataclass
class OperatorMetrics:
    """Counters for one plan operator (or one storage-level executor).

    ``wall_seconds`` is *inclusive*: time spent producing this operator's
    stream includes time spent pulling from its children.
    """

    label: str
    rows_in: int = 0
    rows_out: int = 0
    prunes: int = 0  # tuples dropped because their degree fell to/below the bar
    decided: int = 0  # pairs a fold skipped: their outer tuple was already decided
    wall_seconds: float = 0.0


@dataclass
class SortMetrics:
    """Shape of one external sort: how many runs, how many merge passes."""

    source: str
    attribute: str
    tuples: int = 0
    runs: int = 0
    merge_passes: int = 0
    output: str = ""


@dataclass
class BufferMetrics:
    """Buffer outcome counts of an LRU replay (:meth:`QueryMetrics.buffer_replay`).

    ``re_fetches`` counts misses for pages that had been fetched before —
    the locality violations the paper argues the merge join never incurs
    on the inner relation.
    """

    hits: int = 0
    misses: int = 0
    re_fetches: int = 0

    @property
    def accesses(self) -> int:
        """Total buffer lookups (hits plus misses)."""
        return self.hits + self.misses


@dataclass(frozen=True)
class PageAccess:
    """One traced page transfer."""

    kind: str  # "read" | "write"
    file: str
    index: int
    phase: str


@dataclass
class StepMetrics:
    """One pipeline step of an unnested plan (temp relation, final query)."""

    name: str
    rows_out: int = 0
    wall_seconds: float = 0.0


@dataclass
class PartitionMetrics:
    """One slice — a range partition or a shard task — of a partitioned band join.

    ``outer_tuples``/``inner_tuples`` count the slice's inputs *after*
    replication (the inner side's overlap band appears in every adjacent
    slice it reaches), so their sum across slices can legitimately exceed
    the inner relation's cardinality.  ``rows_out`` counts the slice's
    joining pairs (positive degree).  ``stats`` is the worker's own
    :class:`~repro.storage.stats.OperationStats` ledger — the per-slice
    response times the parallel cost model takes its ``max`` over.
    ``kind`` names the slice source: ``"partition"`` (sampled boundaries)
    or ``"shard"`` (a shard placement).
    """

    kind: str
    index: int
    lower: Optional[object] = None
    upper: Optional[object] = None
    outer_tuples: int = 0
    inner_tuples: int = 0
    outer_pages: int = 0
    inner_pages: int = 0
    rows_out: int = 0
    stats: Optional[OperationStats] = None
    #: Replica failovers this task performed (shard tasks only; range
    #: partitions have no replicas and leave it 0).
    failovers: int = 0


class QueryMetrics:
    """Collector threaded through one query execution (strictly opt-in)."""

    def __init__(self):
        self.operators: "OrderedDict[int, OperatorMetrics]" = OrderedDict()
        self._nodes: Dict[int, object] = {}
        self.sorts: List[SortMetrics] = []
        #: The query's span tree; a door given ``tracer=`` installs that
        #: tracer here instead.
        self.tracer = SpanTracer()
        self.steps: List[StepMetrics] = []
        self.page_trace: List[PageAccess] = []
        self.rewrite: Optional[str] = None
        self.nesting_type: Optional[str] = None
        self.strategy: Optional[str] = None
        #: Why the planner refused every unnested form, for a statement
        #: that ran naive (EXPLAIN's ``refused:`` line); empty otherwise.
        self.refused: str = ""
        #: Plan-cache outcome for this query: "hit", "miss",
        #: "invalidated", or None when no cache was consulted.
        self.plan_cache: Optional[str] = None
        #: True when this execution ran through a prepared statement.
        self.prepared: bool = False
        #: The :class:`OperationStats` of the run, attached by the session.
        self.stats: Optional[OperationStats] = None
        #: True when execution fell back to a degraded strategy (e.g. a
        #: merge-join spill hit :class:`~repro.errors.DiskFullError` and
        #: the nested loop produced the answer instead).
        self.degraded: bool = False
        #: Human-readable reason for the degradation, if any.
        self.degraded_reason: Optional[str] = None
        #: How the query ended: "ok", "timeout", "cancelled", or "error".
        self.outcome: str = "ok"
        #: Worker budget the query ran with (1 = serial; 0 = the executor
        #: never stamped a budget, e.g. a storage-level strategy).
        self.parallel_workers: int = 0
        #: Per-slice counters of every partitioned band join that ran,
        #: coordinator-side and in slice order.
        self.slices: List[PartitionMetrics] = []
        #: Shard budget the query ran with (0 = the session had no
        #: sharded storage or the executor never stamped one).
        self.requested_shards: int = 0
        #: Replica failovers performed by shard tasks during this query.
        self.shard_failovers: int = 0

    # ------------------------------------------------------------------
    # Parallel / sharded execution
    # ------------------------------------------------------------------
    @property
    def partitions(self) -> List[PartitionMetrics]:
        """The slices cut at sampled boundaries."""
        return [sl for sl in self.slices if sl.kind == "partition"]

    @property
    def shards(self) -> List[PartitionMetrics]:
        """The slices read from a shard placement (shards *are* durable
        partitions)."""
        return [sl for sl in self.slices if sl.kind == "shard"]

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def op(self, operator: object, label: Optional[str] = None) -> OperatorMetrics:
        """The (created-on-first-use) counters for ``operator``.

        Keys are object identities; the operator itself is retained so a
        later render pass can match counters back to plan nodes.
        """
        key = id(operator)
        entry = self.operators.get(key)
        if entry is None:
            if label is None:
                describe = getattr(operator, "describe", None)
                label = describe() if callable(describe) else type(operator).__name__
            entry = OperatorMetrics(label)
            self.operators[key] = entry
            self._nodes[key] = operator
        return entry

    def for_node(self, operator: object) -> Optional[OperatorMetrics]:
        """The per-operator counters for ``operator``, or ``None`` if never touched."""
        return self.operators.get(id(operator))

    def iter_nodes(self) -> Iterator[Tuple[object, OperatorMetrics]]:
        """``(operator, counters)`` pairs in first-touch order."""
        for key, om in self.operators.items():
            yield self._nodes.get(key), om

    def stream(self, operator: object, iterator: Iterator) -> Iterator:
        """Wrap an operator's tuple stream, counting rows and per-pull time.

        The stream is one span named by the operator's label, opened at
        the first pull.  Operator streams are pulled strictly nested (a
        parent's generator body drives its children), so the spans nest
        as the plan tree does.  The span also covers the consumer's work
        between pulls; ``wall_seconds`` counts only the pulls.
        """
        om = self.op(operator)
        clock = time.perf_counter
        with self.tracer.span(om.label):
            while True:
                started = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    om.wall_seconds += clock() - started
                    return
                om.wall_seconds += clock() - started
                om.rows_out += 1
                yield item

    def span(self, name: str, **args):
        """Open a span named ``name`` in the query's tree (a context manager)."""
        return self.tracer.span(name, **args)

    # ------------------------------------------------------------------
    # Storage-layer reporting
    # ------------------------------------------------------------------
    def record_sort(self, sort: SortMetrics) -> None:
        """Attach the metrics of one finished external sort."""
        self.sorts.append(sort)

    def record_page_access(self, kind: str, file: str, index: int, phase: str) -> None:
        """Append one page-granularity access to the locality trace."""
        self.page_trace.append(PageAccess(kind, file, index, phase))

    @contextmanager
    def watch_disk(self, disk):
        """Trace every page transfer of ``disk`` while the context is open.

        Accesses are tagged with the phase of the disk's *active* stats
        object, so the trace can be sliced per phase (sort/join/...).
        """

        def observer(kind: str, file: str, index: int) -> None:
            self.record_page_access(kind, file, index, disk.stats.current_phase)

        disk.add_observer(observer)
        try:
            yield self
        finally:
            disk.remove_observer(observer)

    # ------------------------------------------------------------------
    # Trace analysis
    # ------------------------------------------------------------------
    def page_reads(self, file: str, phase: Optional[str] = None) -> Counter:
        """Per-page read counts for ``file`` (optionally one phase only)."""
        counts: Counter = Counter()
        for access in self.page_trace:
            if access.kind != "read" or access.file != file:
                continue
            if phase is not None and access.phase != phase:
                continue
            counts[access.index] += 1
        return counts

    def reread_pages(self, file: str, phase: Optional[str] = None) -> List[int]:
        """Pages of ``file`` read more than once — locality violations."""
        return sorted(
            index for index, n in self.page_reads(file, phase).items() if n > 1
        )

    def buffer_replay(
        self, capacity: int, phase: Optional[str] = None
    ) -> BufferMetrics:
        """Replay the read trace through an LRU pool of ``capacity`` frames.

        The join algorithms read through the accounted simulated disk, not
        through a :class:`BufferPool`; replaying the recorded access
        sequence against an LRU model of the same budget yields the
        hit/miss/re-fetch profile a pool of that size *would* have had —
        which is exactly what the paper's buffer-locality claims are
        about.
        """
        metrics = BufferMetrics()
        frames: "OrderedDict[Tuple[str, int], None]" = OrderedDict()
        seen: set = set()
        for access in self.page_trace:
            if access.kind != "read":
                continue
            if phase is not None and access.phase != phase:
                continue
            key = (access.file, access.index)
            if key in frames:
                metrics.hits += 1
                frames.move_to_end(key)
            else:
                metrics.misses += 1
                if key in seen:
                    metrics.re_fetches += 1
                while len(frames) >= capacity:
                    frames.popitem(last=False)
                frames[key] = None
            seen.add(key)
        return metrics

    # ------------------------------------------------------------------
    # Pipeline steps
    # ------------------------------------------------------------------
    def record_step(self, name: str, rows_out: int, wall_seconds: float) -> None:
        """Record one pipeline step's output rows and wall time."""
        self.steps.append(StepMetrics(name, rows_out, wall_seconds))

    def __repr__(self) -> str:
        return (
            f"QueryMetrics(operators={len(self.operators)}, "
            f"sorts={len(self.sorts)}, trace={len(self.page_trace)} transfers)"
        )
