"""The workload flight recorder: a bounded ring of per-query events.

A :class:`QueryEvent` is the one per-query record.  The statement
lifecycle builds it once per finished query with :func:`build_event` and
hands the same event to every workload sink: the
:class:`~repro.observe.registry.MetricsRegistry` folds it into lifetime
counters, and the flight recorder keeps it — fingerprint, strategy,
plan-cache outcome, worker budget, per-shard I/O and failovers, partition
counts, degraded flag, sort shapes, rows per operator kind, the typed
error name on failure — in a bounded ring, exportable as JSON
Lines.

Attach one by assigning ``session.recorder`` (or ``db.recorder``); the
session records every query for you, on the query boundary only, so the
zero-overhead-when-off contract is untouched: with no sink attached no
event is ever built.

The workload reports are views over the retained events:
:meth:`FlightRecorder.top` ranks statement templates by modelled cost
(the shell's ``\\top``), :meth:`FlightRecorder.summarize` renders the
slow-query report (the shell's ``\\log``), and
:func:`~repro.observe.health.evaluate_health` judges the same events
(``session.health()``).
"""

from __future__ import annotations

import json
import threading
from collections import Counter, deque
from dataclasses import asdict, dataclass, field, replace
from typing import Deque, Dict, List, Optional, Tuple

from ..storage.costs import PAPER_1992
from ..storage.stats import Counters
from .fingerprint import canonicalize_sql, fingerprint
from .metrics import QueryMetrics


@dataclass(frozen=True)
class ShardIO:
    """One shard task's contribution to a query, as recorded in the event."""

    index: int
    rows: int
    page_reads: int
    page_writes: int
    failovers: int


@dataclass(frozen=True)
class QueryEvent:
    """One executed statement, fully structured for machine consumption."""

    #: Arrival number in a :class:`FlightRecorder` (0 until recorded).
    seq: int
    fingerprint: str
    template: str
    sql: str
    nesting: str
    rewrite: str
    strategy: str
    #: Why the planner refused every unnested form ("" unless naive).
    refused: str
    plan_cache: str
    prepared: bool
    outcome: str
    error: str
    degraded: bool
    degraded_reason: str
    workers: int
    partitions: int
    shards: Tuple[ShardIO, ...]
    shard_failovers: int
    rows: int
    wall_seconds: float
    modelled_seconds: float
    page_reads: int
    page_writes: int
    crisp_comparisons: int
    fuzzy_evaluations: int
    tuple_moves: int
    io_retries: int
    sort_runs: int
    sort_merge_passes: int
    #: ``(operator kind, rows produced)`` pairs, sorted by kind; the kind
    #: is the operator label up to any parenthesis or bracket.
    operator_rows: Tuple[Tuple[str, int], ...]

    @property
    def page_ios(self) -> int:
        """Total page reads plus writes for the query."""
        return self.page_reads + self.page_writes

    def to_json(self) -> str:
        """The event as one JSON line (stable key order)."""
        payload = asdict(self)
        payload["shards"] = [asdict(sh) for sh in self.shards]
        payload["operator_rows"] = dict(self.operator_rows)
        return json.dumps(payload, sort_keys=True)


def build_event(
    sql: str,
    metrics: Optional[QueryMetrics] = None,
    wall_seconds: float = 0.0,
    rows: int = 0,
    error: str = "",
) -> QueryEvent:
    """The one builder of :class:`QueryEvent`, from a finished collector.

    The collector is only read, never mutated, so a caller-supplied
    ``QueryMetrics`` stays usable afterwards.  Modelled seconds are
    priced with :data:`~repro.storage.costs.PAPER_1992`.
    """
    canonical = canonicalize_sql(str(sql))
    printed = fingerprint(canonical)
    m = metrics if metrics is not None else QueryMetrics()
    total = m.stats.total if m.stats is not None else Counters()
    operator_rows: Counter = Counter()
    for om in m.operators.values():
        operator_rows[om.label.split("(", 1)[0].split("[", 1)[0]] += om.rows_out
    return QueryEvent(
        seq=0,
        fingerprint=printed.id,
        template=printed.template,
        sql=canonical,
        nesting=m.nesting_type or "",
        rewrite=m.rewrite or "",
        strategy=m.strategy or "",
        refused=m.refused,
        plan_cache=m.plan_cache or "",
        prepared=bool(m.prepared),
        outcome=m.outcome,
        error=error,
        degraded=bool(m.degraded),
        degraded_reason=m.degraded_reason or "",
        workers=m.parallel_workers,
        partitions=len(m.partitions),
        shards=tuple(
            ShardIO(
                index=sh.index,
                rows=sh.rows_out,
                page_reads=sh.stats.total.page_reads if sh.stats is not None else 0,
                page_writes=sh.stats.total.page_writes if sh.stats is not None else 0,
                failovers=sh.failovers,
            )
            for sh in m.shards
        ),
        shard_failovers=m.shard_failovers,
        rows=rows,
        wall_seconds=wall_seconds,
        modelled_seconds=PAPER_1992.response_seconds(total),
        page_reads=total.page_reads,
        page_writes=total.page_writes,
        crisp_comparisons=total.crisp_comparisons,
        fuzzy_evaluations=total.fuzzy_evaluations,
        tuple_moves=total.tuple_moves,
        io_retries=total.io_retries,
        sort_runs=sum(sort.runs for sort in m.sorts),
        sort_merge_passes=sum(sort.merge_passes for sort in m.sorts),
        operator_rows=tuple(sorted(operator_rows.items())),
    )


@dataclass
class FingerprintSummary:
    """Per-statement-template aggregate over the retained events."""

    fingerprint: str
    template: str
    count: int = 0
    errors: int = 0
    degraded: int = 0
    rows: int = 0
    page_ios: int = 0
    total_modelled_seconds: float = 0.0
    total_wall_seconds: float = 0.0
    walls: List[float] = field(default_factory=list)

    def percentile(self, q: float) -> float:
        """Nearest-rank latency percentile (seconds) over retained events."""
        if not self.walls:
            return 0.0
        ordered = sorted(self.walls)
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return ordered[rank]


def _clip(text: str, width: int) -> str:
    return text if len(text) <= width else text[:width - 3] + "..."


class FlightRecorder:
    """A thread-safe bounded ring of :class:`QueryEvent`."""

    def __init__(self, capacity: int = 2048):
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._events: Deque[QueryEvent] = deque(maxlen=capacity)
        #: Totals survive ring eviction.
        self.recorded_total = 0
        self._lock = threading.Lock()

    def record(self, event: QueryEvent) -> QueryEvent:
        """Append one event stamped with its arrival number; returns it."""
        with self._lock:
            self.recorded_total += 1
            event = replace(event, seq=self.recorded_total)
            self._events.append(event)
        return event

    # ------------------------------------------------------------------
    # Views and export
    # ------------------------------------------------------------------
    def events(self, last: Optional[int] = None) -> List[QueryEvent]:
        """The retained events in arrival order (optionally the last N)."""
        with self._lock:
            out = list(self._events)
        return out if last is None else out[-max(0, last):]

    def to_jsonl(self, last: Optional[int] = None) -> str:
        """The retained events as JSON Lines text (one event per line)."""
        events = self.events(last)
        return "\n".join(event.to_json() for event in events) + ("\n" if events else "")

    def dump_jsonl(self, path) -> int:
        """Write every retained event to ``path``; returns the event count."""
        events = self.events()
        with open(path, "w") as handle:
            for event in events:
                handle.write(event.to_json())
                handle.write("\n")
        return len(events)

    def slow(self, threshold: float = 0.1) -> List[QueryEvent]:
        """Retained events at or above ``threshold`` seconds, slowest first."""
        return sorted(
            (e for e in self.events() if e.wall_seconds >= threshold),
            key=lambda e: e.wall_seconds,
            reverse=True,
        )

    def summarize(self, top: int = 5, slow_threshold: float = 0.1) -> str:
        """The slow-query report (the shell's ``\\log``): per-strategy
        rollup, failure outcomes, the top statement templates by total
        wall time and the slowest queries, over the retained events."""
        events = self.events()
        slow = sum(1 for e in events if e.wall_seconds >= slow_threshold)
        lines = [
            f"query log: {self.recorded_total} recorded "
            f"({len(events)} retained), {slow} slow "
            f"(>= {slow_threshold * 1000.0:.0f}ms)"
        ]
        by_strategy: Counter = Counter()
        wall_by_strategy: Counter = Counter()
        for event in events:
            key = event.strategy or "(unknown)"
            by_strategy[key] += 1
            wall_by_strategy[key] += event.wall_seconds
        for key, n in by_strategy.most_common():
            mean_ms = 1000.0 * wall_by_strategy[key] / n
            lines.append(f"  {key}: {n} queries, mean {mean_ms:.2f}ms")
        outcomes: Counter = Counter(e.outcome for e in events)
        degraded = sum(1 for e in events if e.degraded)
        retries = sum(e.io_retries for e in events)
        if degraded or retries or set(outcomes) - {"ok"}:
            rollup = " ".join(f"{k}={outcomes[k]}" for k in sorted(outcomes))
            lines.append(
                f"outcomes: {rollup} (degraded={degraded}, io_retries={retries})"
            )
        groups = sorted(
            self.by_fingerprint().values(),
            key=lambda s: (s.total_wall_seconds, s.count),
            reverse=True,
        )[:top]
        if groups:
            lines.append(f"top {len(groups)} statements by total wall time:")
            for s in groups:
                lines.append(
                    f"  {s.fingerprint}  n={s.count}  "
                    f"total={s.total_wall_seconds * 1000.0:.2f}ms  "
                    f"ios={s.page_ios}  {_clip(s.template, 60)}"
                )
        slowest = sorted(events, key=lambda e: e.wall_seconds, reverse=True)[:top]
        if slowest:
            lines.append(f"slowest {len(slowest)}:")
            for event in slowest:
                lines.append(
                    f"  {event.wall_seconds * 1000.0:8.2f}ms  rows={event.rows}  "
                    f"ios={event.page_ios}  {_clip(event.sql, 72)}"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Per-fingerprint aggregation
    # ------------------------------------------------------------------
    def by_fingerprint(self) -> Dict[str, FingerprintSummary]:
        """Aggregates per statement template over the retained events."""
        out: Dict[str, FingerprintSummary] = {}
        for event in self.events():
            summary = out.get(event.fingerprint)
            if summary is None:
                summary = FingerprintSummary(event.fingerprint, event.template)
                out[event.fingerprint] = summary
            summary.count += 1
            summary.errors += 1 if event.outcome != "ok" else 0
            summary.degraded += 1 if event.degraded else 0
            summary.rows += event.rows
            summary.page_ios += event.page_ios
            summary.total_modelled_seconds += event.modelled_seconds
            summary.total_wall_seconds += event.wall_seconds
            summary.walls.append(event.wall_seconds)
        return out

    def top(self, k: int = 10) -> List[FingerprintSummary]:
        """The top-K statement templates by total modelled cost.

        Ties (e.g. a workload where every in-memory query models to zero)
        fall back to total wall time, then to count, so the ordering stays
        meaningful on every engine.
        """
        summaries = sorted(
            self.by_fingerprint().values(),
            key=lambda s: (
                s.total_modelled_seconds, s.total_wall_seconds, s.count
            ),
            reverse=True,
        )
        return summaries[:max(0, k)]

    def render_top(self, k: int = 10) -> str:
        """The ``\\top`` report: one line per statement template."""
        summaries = self.top(k)
        lines = [
            f"flight recorder: {self.recorded_total} recorded "
            f"({len(self)} retained), top {len(summaries)} by modelled cost"
        ]
        for s in summaries:
            flags = ""
            if s.degraded:
                flags += f" degraded={s.degraded}"
            if s.errors:
                flags += f" errors={s.errors}"
            lines.append(
                f"  {s.fingerprint}  n={s.count}  model={s.total_modelled_seconds:.3f}s  "
                f"ios={s.page_ios}  p50={s.percentile(0.50) * 1000.0:.2f}ms  "
                f"p95={s.percentile(0.95) * 1000.0:.2f}ms{flags}  {_clip(s.template, 56)}"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(recorded={self.recorded_total}, "
            f"retained={len(self._events)}/{self.capacity})"
        )


__all__ = ["FingerprintSummary", "FlightRecorder", "QueryEvent", "ShardIO", "build_event"]
