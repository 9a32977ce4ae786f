"""Query observability: metrics collection and plan introspection.

The paper's whole argument is quantitative — merge-join vs nested-loop
I/O counts, buffer locality, intermediate-relation sizes — so the engine
must be able to *show its work*.  This package provides

* :class:`~repro.observe.metrics.QueryMetrics` — the query's one
  instrument: an opt-in collector that every layer (operators, joins,
  external sort, simulated disk) reports into when one is attached to the
  :class:`~repro.engine.operators.ExecutionContext`, and that owns the
  query's span tree (``metrics.tracer``);
* :mod:`~repro.observe.explain` — rendering of physical plans as
  indented trees (``EXPLAIN``) and, under a collector, each operator's
  counted rows, prunes and time (``EXPLAIN ANALYZE``); it shows what ran
  and estimates nothing;
* :class:`~repro.observe.trace.SpanTracer` — the collector's span tree
  (query / parse / bind / rewrite / sort / merge / probe / operator
  streams) exportable as Chrome ``trace_event`` JSON for
  ``chrome://tracing`` / Perfetto;
* :class:`~repro.observe.recorder.QueryEvent` — the one per-query record
  (plan summary, cache outcome, page I/O, comparison counts, modelled
  seconds, per-shard I/O, typed failure), built once per query
  by :func:`~repro.observe.recorder.build_event` and handed to both
  workload sinks:

  - :class:`~repro.observe.registry.MetricsRegistry` — process-lifetime
    cumulative counters plus a latency histogram, rendered in the
    Prometheus text exposition format;
  - :class:`~repro.observe.recorder.FlightRecorder` — a bounded ring of
    events exportable as JSONL, with per-fingerprint top-K aggregation
    and the slow-query report;

* :mod:`~repro.observe.fingerprint` — the shared statement canonicalizer
  and ``pg_stat_statements``-style fingerprinting (literals → ``?``) that
  the plan cache, the flight recorder, and shell analytics all key
  statement identity on;
* :mod:`~repro.observe.health` — threshold rules over the rates of a list
  of events, folding into an ``ok / warn / critical``
  :class:`~repro.observe.health.HealthReport`.

Collection is strictly opt-in: with no collector, tracer, registry or
recorder attached the hot paths run the exact same code as before
(guarded by ``if ctx.metrics is not None``, or routed through
:func:`~repro.observe.trace.maybe_span`).
"""

from .explain import render_plan, render_report
from .fingerprint import (
    Fingerprint,
    canonicalize_sql,
    fingerprint,
    fingerprint_sql,
    statement_template,
)
from .health import (
    HealthReport,
    HealthSignal,
    HealthThresholds,
    evaluate_health,
)
from .metrics import (
    BufferMetrics,
    OperatorMetrics,
    PageAccess,
    QueryMetrics,
    SortMetrics,
)
from .recorder import (
    FingerprintSummary,
    FlightRecorder,
    QueryEvent,
    ShardIO,
    build_event,
)
from .registry import Histogram, MetricsRegistry
from .trace import Span, SpanTracer, maybe_span

__all__ = [
    "BufferMetrics",
    "Fingerprint",
    "FingerprintSummary",
    "FlightRecorder",
    "HealthReport",
    "HealthSignal",
    "HealthThresholds",
    "Histogram",
    "MetricsRegistry",
    "OperatorMetrics",
    "PageAccess",
    "QueryEvent",
    "QueryMetrics",
    "ShardIO",
    "SortMetrics",
    "Span",
    "SpanTracer",
    "build_event",
    "canonicalize_sql",
    "evaluate_health",
    "fingerprint",
    "fingerprint_sql",
    "maybe_span",
    "render_plan",
    "render_report",
    "statement_template",
]
