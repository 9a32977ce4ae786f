"""The workload flight recorder: a bounded ring of per-query events.

Where :class:`~repro.observe.registry.MetricsRegistry` keeps cumulative
counters and :class:`~repro.observe.querylog.QueryLog` keeps a human
summary, the flight recorder keeps the *structured* record a fleet
operator replays after the fact: one :class:`QueryEvent` per executed
statement — fingerprint, strategy, plan-cache outcome, worker budget,
per-shard I/O and failovers, partition counts, degraded flag, join
q-errors, and the typed error name on failure — in a bounded ring,
exportable as JSON Lines.

Attach one by assigning ``session.recorder`` (or ``db.recorder``); the
session records every query for you, on the query boundary only, so the
zero-overhead-when-off contract is untouched: with no recorder attached
no event is ever built.

Per-fingerprint aggregation (:meth:`FlightRecorder.top`) answers the
fleet-level question a cost-based planner starts from: *which
statement shapes dominate cost* — count, total modelled
cost, page I/O, and p50/p95 latency per statement template, surfaced in
the shell as ``\\top``.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..storage.costs import CostModel, PAPER_1992
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
    q_errors: Tuple[float, ...]
    rows: int
    wall_seconds: float
    modelled_seconds: float
    page_reads: int
    page_writes: int
    crisp_comparisons: int
    fuzzy_evaluations: int
    tuple_moves: int
    io_retries: int

    def to_json(self) -> str:
        """The event as one JSON line (stable key order)."""
        payload = asdict(self)
        payload["shards"] = [asdict(sh) for sh in self.shards]
        payload["q_errors"] = list(self.q_errors)
        return json.dumps(payload, sort_keys=True)


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


class FlightRecorder:
    """A thread-safe bounded ring of :class:`QueryEvent`."""

    def __init__(self, capacity: int = 2048, cost_model: CostModel = PAPER_1992):
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self.cost_model = cost_model
        self._events: Deque[QueryEvent] = deque(maxlen=capacity)
        #: Totals survive ring eviction.
        self.recorded_total = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        sql: str,
        metrics: Optional[QueryMetrics] = None,
        wall_seconds: float = 0.0,
        rows: int = 0,
        error: str = "",
    ) -> QueryEvent:
        """Build and append one event from a finished collector.

        The collector is only read, never mutated — same discipline as
        the registry fold, so a caller-supplied ``QueryMetrics`` stays
        usable afterwards.
        """
        canonical = canonicalize_sql(str(sql))
        printed = fingerprint(canonical)
        reads = writes = crisp = fuzzy = moves = retries = 0
        nesting = rewrite = strategy = refused = cache = ""
        outcome, prepared, degraded, reason = "ok", False, False, ""
        workers = partitions = failovers = 0
        shard_ios: Tuple[ShardIO, ...] = ()
        q_errors: Tuple[float, ...] = ()
        modelled = 0.0
        if metrics is not None:
            nesting = metrics.nesting_type or ""
            rewrite = metrics.rewrite or ""
            strategy = metrics.strategy or ""
            refused = metrics.refused
            cache = metrics.plan_cache or ""
            prepared = bool(metrics.prepared)
            outcome = getattr(metrics, "outcome", "ok")
            degraded = bool(metrics.degraded)
            reason = metrics.degraded_reason or ""
            workers = getattr(metrics, "parallel_workers", 0)
            partitions = len(getattr(metrics, "partitions", ()))
            failovers = getattr(metrics, "shard_failovers", 0)
            q_errors = tuple(getattr(metrics, "q_errors", ()))
            shard_ios = tuple(
                ShardIO(
                    index=sh.index,
                    rows=sh.rows_out,
                    page_reads=sh.stats.total.page_reads if sh.stats is not None else 0,
                    page_writes=sh.stats.total.page_writes if sh.stats is not None else 0,
                    failovers=getattr(sh, "failovers", 0),
                )
                for sh in getattr(metrics, "shards", ())
            )
            if metrics.stats is not None:
                total = metrics.stats.total
                reads, writes = total.page_reads, total.page_writes
                crisp, fuzzy = total.crisp_comparisons, total.fuzzy_evaluations
                moves, retries = total.tuple_moves, total.io_retries
                modelled = self.cost_model.response_time(metrics.stats)
        with self._lock:
            self.recorded_total += 1
            event = QueryEvent(
                seq=self.recorded_total,
                fingerprint=printed.id,
                template=printed.template,
                sql=canonical,
                nesting=nesting,
                rewrite=rewrite,
                strategy=strategy,
                refused=refused,
                plan_cache=cache,
                prepared=prepared,
                outcome=outcome,
                error=error,
                degraded=degraded,
                degraded_reason=reason,
                workers=workers,
                partitions=partitions,
                shards=shard_ios,
                shard_failovers=failovers,
                q_errors=q_errors,
                rows=rows,
                wall_seconds=wall_seconds,
                modelled_seconds=modelled,
                page_reads=reads,
                page_writes=writes,
                crisp_comparisons=crisp,
                fuzzy_evaluations=fuzzy,
                tuple_moves=moves,
                io_retries=retries,
            )
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
            summary.page_ios += event.page_reads + event.page_writes
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
            template = s.template if len(s.template) <= 56 else s.template[:53] + "..."
            flags = ""
            if s.degraded:
                flags += f" degraded={s.degraded}"
            if s.errors:
                flags += f" errors={s.errors}"
            lines.append(
                f"  {s.fingerprint}  n={s.count}  model={s.total_modelled_seconds:.3f}s  "
                f"ios={s.page_ios}  p50={s.percentile(0.50) * 1000.0:.2f}ms  "
                f"p95={s.percentile(0.95) * 1000.0:.2f}ms{flags}  {template}"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(recorded={self.recorded_total}, "
            f"retained={len(self._events)}/{self.capacity})"
        )


__all__ = ["FingerprintSummary", "FlightRecorder", "QueryEvent", "ShardIO"]
