"""A process-lifetime metrics registry with Prometheus text exposition.

:class:`QueryMetrics` observes *one* query; a :class:`MetricsRegistry`
folds successive query events into cumulative workload-level counters —
queries per strategy, rewrites per rule, page I/O, comparison counts,
sort shapes, rows returned — plus a latency histogram, and renders them
in the Prometheus text exposition format so an exporter endpoint (or a
test) can scrape them.

Attach one to a :class:`~repro.session.StorageSession` (or a
:class:`~repro.db.FuzzyDatabase`) by assigning ``session.registry``; the
session then folds every query's
:class:`~repro.observe.recorder.QueryEvent` in exactly once — the same
event the flight recorder keeps.  The event is built after the query
finished, so attaching a registry never perturbs the per-query trace (see
the no-double-counting regression test in
``tests/test_observe_workload.py``).
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Dict, List, Optional, Tuple

from .recorder import QueryEvent

#: Default latency buckets (seconds) — log-ish spacing from 0.5 ms to 10 s.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Prefix of every exported metric family.
NAMESPACE = "fuzzysql"


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_number(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Histogram:
    """A cumulative histogram over :data:`DEFAULT_BUCKETS` (Prometheus semantics)."""

    def __init__(self):
        self.bounds: Tuple[float, ...] = DEFAULT_BUCKETS
        self.bucket_counts: List[int] = [0] * len(self.bounds)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Fold ``value`` into the sum, count, and cumulative buckets."""
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1

    def render(self, name: str, help_text: str) -> List[str]:
        """The ``# HELP`` / ``# TYPE`` / sample lines of this histogram."""
        lines = [f"# HELP {name} {help_text}", f"# TYPE {name} histogram"]
        for bound, count in zip(self.bounds, self.bucket_counts):
            lines.append(f'{name}_bucket{{le="{_format_number(bound)}"}} {count}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {self.count}')
        lines.append(f"{name}_sum {repr(self.sum)}")
        lines.append(f"{name}_count {self.count}")
        return lines


class MetricsRegistry:
    """Cumulative counters over every query observed in this process."""

    def __init__(self):
        self.queries_by_strategy: Counter = Counter()
        self.queries_by_nesting: Counter = Counter()
        self.rewrites: Counter = Counter()
        self.rows_returned_total = 0
        self.page_reads_total = 0
        self.page_writes_total = 0
        self.crisp_comparisons_total = 0
        self.fuzzy_evaluations_total = 0
        self.tuple_moves_total = 0
        self.sort_runs_total = 0
        self.sort_merge_passes_total = 0
        self.plan_cache_hits_total = 0
        self.plan_cache_misses_total = 0
        self.plan_cache_invalidations_total = 0
        self.statements_prepared_total = 0
        self.prepared_executions_total = 0
        self.io_retries_total = 0
        self.partitions_total = 0
        self.parallel_queries_total = 0
        self.shards_total = 0
        self.sharded_queries_total = 0
        self.shard_failovers_total = 0
        self.queries_degraded_total = 0
        self.queries_timeout_total = 0
        self.queries_cancelled_total = 0
        self.queries_failed_total = 0
        #: Write-ahead-log counters, fed by the
        #: :class:`~repro.wal.manager.WriteManager` via :meth:`count_wal`.
        self.wal_records_total = 0
        self.wal_commits_total = 0
        self.wal_syncs_total = 0
        self.wal_group_commits_total = 0
        self.wal_bytes_synced_total = 0
        self.wal_truncated_bytes_total = 0
        self.wal_snapshots_total = 0
        self.wal_recoveries_total = 0
        self.wal_replayed_records_total = 0
        self.operator_rows: Counter = Counter()  # keyed by operator kind
        #: Typed errors raised, keyed by exception class name — every name
        #: in :data:`repro.errors.__all__` is a possible label.
        self.errors_by_type: Counter = Counter()
        #: Per-shard page I/O, keyed by shard index (as a string label).
        self.shard_page_reads: Counter = Counter()
        self.shard_page_writes: Counter = Counter()
        self.latency = Histogram()
        #: Folding is serialized so concurrent sessions can share a
        #: registry (``run_batch`` drives queries from worker threads).
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    @property
    def queries_total(self) -> int:
        """Number of queries folded into the registry so far."""
        return self.latency.count

    def observe(self, event: QueryEvent) -> None:
        """Fold one query's :class:`~repro.observe.recorder.QueryEvent`
        into the cumulative counters.

        The statement lifecycle calls this exactly once per query with the
        same event it hands the flight recorder, so the two sinks agree
        by construction.
        """
        with self._lock:
            self.latency.observe(event.wall_seconds)
            if event.strategy:
                self.queries_by_strategy[event.strategy] += 1
            if event.nesting:
                self.queries_by_nesting[event.nesting] += 1
            if event.rewrite:
                self.rewrites[event.rewrite] += 1
            if event.plan_cache == "hit":
                self.plan_cache_hits_total += 1
            elif event.plan_cache in ("miss", "invalidated"):
                self.plan_cache_misses_total += 1
                if event.plan_cache == "invalidated":
                    self.plan_cache_invalidations_total += 1
            if event.prepared:
                self.prepared_executions_total += 1
            if event.partitions:
                # A query counts as parallel only when a partitioned plan
                # actually ran — a worker budget alone may have degraded
                # to the serial path.
                self.parallel_queries_total += 1
                self.partitions_total += event.partitions
            if event.shards:
                # Same discipline as parallel queries: a shard budget
                # alone may have degraded to local execution.
                self.sharded_queries_total += 1
                self.shards_total += len(event.shards)
                for shard in event.shards:
                    self.shard_page_reads[str(shard.index)] += shard.page_reads
                    self.shard_page_writes[str(shard.index)] += shard.page_writes
            self.shard_failovers_total += event.shard_failovers
            if event.degraded:
                self.queries_degraded_total += 1
            if event.outcome == "timeout":
                self.queries_timeout_total += 1
            elif event.outcome == "cancelled":
                self.queries_cancelled_total += 1
            elif event.outcome != "ok":
                self.queries_failed_total += 1
            self.rows_returned_total += event.rows
            self.page_reads_total += event.page_reads
            self.page_writes_total += event.page_writes
            self.crisp_comparisons_total += event.crisp_comparisons
            self.fuzzy_evaluations_total += event.fuzzy_evaluations
            self.tuple_moves_total += event.tuple_moves
            self.io_retries_total += event.io_retries
            self.sort_runs_total += event.sort_runs
            self.sort_merge_passes_total += event.sort_merge_passes
            for kind, rows in event.operator_rows:
                self.operator_rows[kind] += rows

    def count_prepared(self) -> None:
        """Record one ``prepare()`` call (a statement entering the service)."""
        with self._lock:
            self.statements_prepared_total += 1

    def count_wal(
        self,
        records: int = 0,
        commits: int = 0,
        syncs: int = 0,
        group_commits: int = 0,
        bytes_synced: int = 0,
        snapshots: int = 0,
        recoveries: int = 0,
        replayed_records: int = 0,
        truncated_bytes: int = 0,
    ) -> None:
        """Fold one write-path event into the ``fuzzysql_wal_*`` counters."""
        with self._lock:
            self.wal_records_total += records
            self.wal_commits_total += commits
            self.wal_syncs_total += syncs
            self.wal_group_commits_total += group_commits
            self.wal_bytes_synced_total += bytes_synced
            self.wal_snapshots_total += snapshots
            self.wal_recoveries_total += recoveries
            self.wal_replayed_records_total += replayed_records
            self.wal_truncated_bytes_total += truncated_bytes

    def count_error(self, type_name: str) -> None:
        """Record one raised error by its exception class name."""
        with self._lock:
            self.errors_by_type[type_name] += 1

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, float]:
        """A flat, lock-consistent copy of every counter.

        Scalar counters appear under their attribute name; labelled
        families under ``family:label`` (``shard_page_reads:0``); the
        latency histogram under ``latency_sum`` / ``latency_count`` /
        ``latency_bucket:<bound>``.
        """
        with self._lock:
            state: Dict[str, float] = {
                name: float(value)
                for name, value in vars(self).items()
                if isinstance(value, (int, float)) and not name.startswith("_")
            }
            state["queries"] = float(self.latency.count)
            for family, counts in (
                ("strategy", self.queries_by_strategy),
                ("nesting", self.queries_by_nesting),
                ("rewrite", self.rewrites),
                ("operator_rows", self.operator_rows),
                ("errors", self.errors_by_type),
                ("shard_page_reads", self.shard_page_reads),
                ("shard_page_writes", self.shard_page_writes),
            ):
                for key, value in counts.items():
                    state[f"{family}:{key}"] = float(value)
            state["latency_sum"] = self.latency.sum
            state["latency_count"] = float(self.latency.count)
            for bound, count in zip(self.latency.bounds, self.latency.bucket_counts):
                state[f"latency_bucket:{_format_number(bound)}"] = float(count)
        return state

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_prometheus(self, name_prefix: Optional[str] = None) -> str:
        """The registry in the Prometheus text exposition format.

        ``name_prefix`` keeps only the metric families whose qualified
        name starts with it (``fuzzysql_`` is implied when the prefix
        does not carry it), so a reader can slice the growing exposition
        — e.g. ``render_prometheus("fuzzysql_shard")`` or, through the
        shell, ``\\metrics shard``.
        """
        families: List[List[str]] = []
        families.append(
            self._counter_family(
                "queries_total",
                "Queries executed, by execution strategy.",
                "strategy",
                self.queries_by_strategy,
            )
        )
        families.append(
            self._counter_family(
                "nesting_total",
                "Queries executed, by nesting type.",
                "nesting",
                self.queries_by_nesting,
            )
        )
        families.append(
            self._counter_family(
                "rewrites_total",
                "Unnesting rewrites fired, by rule.",
                "rule",
                self.rewrites,
            )
        )
        families.append(
            self._counter_family(
                "operator_rows_total",
                "Rows produced, by operator kind.",
                "operator",
                self.operator_rows,
            )
        )
        families.append(
            self._counter_family(
                "errors_total",
                "Typed errors raised, by exception class name.",
                "type",
                self.errors_by_type,
            )
        )
        families.append(
            self._counter_family(
                "shard_page_reads_total",
                "Pages read by shard tasks, by shard index.",
                "shard",
                self.shard_page_reads,
            )
        )
        families.append(
            self._counter_family(
                "shard_page_writes_total",
                "Pages written by shard tasks, by shard index.",
                "shard",
                self.shard_page_writes,
            )
        )
        for name, help_text, value in (
            ("rows_returned_total", "Answer tuples returned.", self.rows_returned_total),
            ("page_reads_total", "Pages read from the simulated disk.", self.page_reads_total),
            ("page_writes_total", "Pages written to the simulated disk.", self.page_writes_total),
            ("crisp_comparisons_total", "Crisp comparisons performed.", self.crisp_comparisons_total),
            ("fuzzy_evaluations_total", "Fuzzy predicate evaluations performed.", self.fuzzy_evaluations_total),
            ("tuple_moves_total", "Tuple moves performed.", self.tuple_moves_total),
            ("sort_runs_total", "Initial runs generated by external sorts.", self.sort_runs_total),
            ("sort_merge_passes_total", "Merge passes performed by external sorts.", self.sort_merge_passes_total),
            ("plan_cache_hits_total", "Plan-cache lookups served from cache.", self.plan_cache_hits_total),
            ("plan_cache_misses_total", "Plan-cache lookups that had to plan.", self.plan_cache_misses_total),
            ("plan_cache_invalidations_total", "Plan-cache entries dropped for stale statistics.", self.plan_cache_invalidations_total),
            ("statements_prepared_total", "Statements prepared via prepare().", self.statements_prepared_total),
            ("prepared_executions_total", "Executions of prepared statements.", self.prepared_executions_total),
            ("io_retries_total", "Page transfers re-issued after a transient fault.", self.io_retries_total),
            ("partitions_total", "Partitions executed by range-partitioned parallel joins.", self.partitions_total),
            ("parallel_queries_total", "Queries that ran a range-partitioned parallel join.", self.parallel_queries_total),
            ("shards_total", "Shard tasks executed by scatter-gather joins.", self.shards_total),
            ("sharded_queries_total", "Queries that ran a scatter-gather sharded join.", self.sharded_queries_total),
            ("shard_failovers_total", "Shard reads completed from a mirror replica after a storage fault.", self.shard_failovers_total),
            ("queries_degraded_total", "Queries answered via a degraded fallback strategy.", self.queries_degraded_total),
            ("queries_timeout_total", "Queries that exceeded their deadline.", self.queries_timeout_total),
            ("queries_cancelled_total", "Queries cancelled via a CancelToken.", self.queries_cancelled_total),
            ("queries_failed_total", "Queries that failed with a typed error.", self.queries_failed_total),
            ("wal_records_total", "Frames appended to the write-ahead log.", self.wal_records_total),
            ("wal_commits_total", "Transactions committed through the write-ahead log.", self.wal_commits_total),
            ("wal_syncs_total", "Durability barriers issued by the write-ahead log.", self.wal_syncs_total),
            ("wal_group_commits_total", "Syncs that covered two or more commits.", self.wal_group_commits_total),
            ("wal_bytes_synced_total", "Bytes made durable by WAL syncs.", self.wal_bytes_synced_total),
            ("wal_truncated_bytes_total", "Torn WAL tail bytes truncated by recovery.", self.wal_truncated_bytes_total),
            ("wal_snapshots_total", "Heap versions installed by the write path.", self.wal_snapshots_total),
            ("wal_recoveries_total", "Crash recoveries completed.", self.wal_recoveries_total),
            ("wal_replayed_records_total", "Row records replayed by crash recovery.", self.wal_replayed_records_total),
        ):
            qualified = f"{NAMESPACE}_{name}"
            families.append([
                f"# HELP {qualified} {help_text}",
                f"# TYPE {qualified} counter",
                f"{qualified} {_format_number(value)}",
            ])
        families.append(
            self.latency.render(
                f"{NAMESPACE}_query_seconds", "Query wall time in seconds."
            )
        )
        if name_prefix:
            prefix = (
                name_prefix
                if name_prefix.startswith(NAMESPACE)
                else f"{NAMESPACE}_{name_prefix}"
            )
            families = [
                family
                for family in families
                if family[0].split(" ", 2)[2].split(" ", 1)[0].startswith(prefix)
            ]
        lines = [line for family in families for line in family]
        return "\n".join(lines) + "\n"

    @staticmethod
    def _counter_family(
        name: str, help_text: str, label: str, values: Dict[str, int]
    ) -> List[str]:
        qualified = f"{NAMESPACE}_{name}"
        lines = [f"# HELP {qualified} {help_text}", f"# TYPE {qualified} counter"]
        for key in sorted(values):
            lines.append(
                f'{qualified}{{{label}="{escape_label_value(key)}"}} {values[key]}'
            )
        return lines

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(queries={self.queries_total}, "
            f"reads={self.page_reads_total}, writes={self.page_writes_total})"
        )
