"""Workload-level observability: tracer, registry, slow-query log, reports.

Covers the span tracer (tree shape against the executed plan, Chrome
``trace_event`` export), the process-lifetime :class:`MetricsRegistry`
(Prometheus text exposition, fold-once semantics), the slow-query views
of the :class:`FlightRecorder`, EXPLAIN ANALYZE for the chain / JA /
JALL strategies, and the no-double-counting regression when a
collector, a registry, and a recorder all watch the same query.
"""

import json
import random
import re

import pytest

from repro.data import FuzzyRelation, FuzzyTuple, Schema
from repro.db import FuzzyDatabase
from repro.fuzzy import CrispNumber, TrapezoidalNumber
from repro.observe import (
    FlightRecorder,
    MetricsRegistry,
    QueryMetrics,
    SpanTracer,
    build_event,
    maybe_span,
)
from repro.observe.registry import DEFAULT_BUCKETS
from repro.session import StorageSession

N = CrispNumber
T = TrapezoidalNumber
SCHEMA = Schema(["K", "U", "V"])
POOL = [N(0), N(5), T(0, 1, 2, 4), T(3, 5, 5, 7), T(4, 6, 8, 12)]

TYPE_J_SQL = "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.U = R.U)"
TYPE_JX_SQL = "SELECT R.K FROM R WHERE R.V NOT IN (SELECT S.V FROM S WHERE S.U = R.U)"
TYPE_JALL_SQL = "SELECT R.K FROM R WHERE R.V < ALL (SELECT S.V FROM S WHERE S.U = R.U)"
TYPE_JA_SQL = "SELECT R.K FROM R WHERE R.V > (SELECT MAX(S.V) FROM S WHERE S.U = R.U)"
CHAIN_SQL = (
    "SELECT R.K FROM R WHERE R.V IN "
    "(SELECT S.V FROM S WHERE S.K IN (SELECT W.V FROM W WHERE W.U = R.U))"
)


def make_relation(rng, n, base):
    rel = FuzzyRelation(SCHEMA)
    for i in range(n):
        rel.add(
            FuzzyTuple(
                [N(base + i), rng.choice(POOL), rng.choice(POOL)],
                rng.choice([0.3, 0.6, 1.0]),
            )
        )
    return rel


def build_session(seed=11, n=30, tables=("R", "S")):
    rng = random.Random(seed)
    session = StorageSession(buffer_pages=16, page_size=512)
    for i, name in enumerate(tables):
        session.register(name, make_relation(rng, n, 1000 * i))
    return session


def assert_type_j_tree(tracer):
    """``TYPE_J_SQL``'s span tree: the ``query`` root over the planning
    phases and the operator spans, nested like the compiled plan."""
    assert [s.name for s in tracer.roots] == ["query"]
    names = [c.name for c in tracer.roots[0].children]
    for phase in ("parse", "bind", "rewrite", "compile"):
        assert phase in names
    # The operator spans nest exactly like the compiled plan.
    threshold = tracer.find("Threshold")
    assert threshold is not None
    project = threshold.find("Project")
    assert project is not None and project is not threshold
    join = project.find("MaxFold")
    assert join is not None
    # The join's own phases hang below it: two sorts and the probe.
    sorts = [c for c in join.children if c.name.startswith("sort ")]
    assert len(sorts) == 2
    assert all(c.find("runs") and c.find("merge") for c in sorts)
    assert any(c.name.startswith("probe ") for c in join.children)


# ----------------------------------------------------------------------
# The span tracer
# ----------------------------------------------------------------------
class TestSpanTracer:
    def test_spans_nest_by_open_stack(self):
        tracer = SpanTracer()
        with tracer.span("query"):
            with tracer.span("parse"):
                pass
            with tracer.span("execute"):
                with tracer.span("sort"):
                    pass
        assert [s.name for s in tracer.roots] == ["query"]
        query = tracer.roots[0]
        assert [c.name for c in query.children] == ["parse", "execute"]
        assert [c.name for c in query.children[1].children] == ["sort"]
        assert all(s.end is not None for s in tracer.walk())

    def test_maybe_span_without_tracer_is_a_noop(self):
        with maybe_span(None, "anything") as span:
            assert span is None

    def test_stream_opens_span_at_first_pull(self):
        metrics = QueryMetrics()
        node = object()
        wrapped = metrics.stream(node, iter(range(3)))
        assert metrics.tracer.roots == []  # lazy: nothing recorded before the pull
        assert list(wrapped) == [0, 1, 2]
        assert [s.name for s in metrics.tracer.roots] == ["object"]
        assert metrics.for_node(node).rows_out == 3

    def test_query_trace_matches_the_executed_plan_tree(self):
        session = build_session()
        tracer = SpanTracer()
        session.query(TYPE_J_SQL, tracer=tracer)
        assert_type_j_tree(tracer)

    def test_chrome_export_is_valid_and_containment_matches(self, tmp_path):
        session = build_session()
        tracer = SpanTracer()
        session.query(TYPE_J_SQL, tracer=tracer)

        path = tmp_path / "trace.json"
        tracer.export(path)
        with open(path) as handle:
            data = json.load(handle)

        events = data["traceEvents"]
        assert events and data["displayTimeUnit"] == "ms"
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["name"], str) and event["name"]
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)

        # Timestamp containment re-derives the span nesting: every child
        # interval lies inside its parent's (how chrome://tracing stacks).
        by_name = {e["name"]: e for e in events}
        parent = by_name["query"]
        for name in ("parse", "bind", "rewrite", "compile"):
            child = by_name[name]
            assert parent["ts"] <= child["ts"] + 1e-6
            assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-6
        # One event per span.
        assert len(events) == sum(1 for _ in tracer.walk())

    def test_render_tree_indents_children(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        lines = tracer.render_tree().splitlines()
        assert lines[0].startswith("a")
        assert lines[1].startswith("  b")

    def test_session_trace_helper_returns_the_tracer(self):
        session = build_session()
        tracer = session.trace(TYPE_J_SQL)
        assert isinstance(tracer, SpanTracer)
        assert tracer.find("probe") is not None

    def test_db_trace_helper_runs_on_a_scratch_storage_session(self):
        db = FuzzyDatabase()
        db.execute("CREATE TABLE R (K NUMERIC, V NUMERIC)")
        db.execute("INSERT INTO R VALUES (1, 5), (2, 6)")
        tracer = db.trace("SELECT R.K FROM R WHERE R.V > 4")
        assert tracer.find("query") is not None
        assert len(db.tables()) == 1  # the catalog itself is untouched


# ----------------------------------------------------------------------
# One instrument per query: the collector owns the span tree and the clock
# ----------------------------------------------------------------------
class TestOneInstrument:
    def test_a_collector_alone_records_the_span_tree(self):
        session = build_session()
        metrics = QueryMetrics()
        session.query(TYPE_J_SQL, metrics=metrics)
        assert_type_j_tree(metrics.tracer)

    def test_the_event_and_explain_analyze_read_the_query_span(self):
        session = build_session()
        session.recorder = FlightRecorder()
        tracer = SpanTracer()
        session.query(TYPE_J_SQL, tracer=tracer)
        [event] = session.recorder.events()
        assert event.wall_seconds == tracer.find("query").seconds

        report = session.explain_analyze(TYPE_J_SQL)
        analyzed = session.recorder.events()[-1]
        [line] = [line for line in report.splitlines() if line.startswith("span ")]
        assert line == f"span query: {analyzed.wall_seconds * 1000.0:.2f}ms"

    def test_a_caller_span_around_the_query_is_not_its_clock(self):
        session = build_session()
        session.recorder = FlightRecorder()
        tracer = SpanTracer()
        with tracer.span("outer"):
            session.query(TYPE_J_SQL, tracer=tracer)
            sum(range(100000))  # the outer span outlives the query
        [event] = session.recorder.events()
        assert [s.name for s in tracer.roots] == ["outer"]
        assert event.wall_seconds == tracer.find("query").seconds
        assert event.wall_seconds < tracer.roots[0].seconds


# ----------------------------------------------------------------------
# Zero overhead when detached
# ----------------------------------------------------------------------
class TestZeroOverhead:
    def test_raw_generator_with_nothing_attached(self):
        from repro.engine.operators import ExecutionContext, Scan

        session = build_session()
        ctx = ExecutionContext(session.disk, session.buffer_pages)
        assert ctx.metrics is None
        stream = Scan(session.tables["R"]).tuples(ctx)
        assert stream.gi_code.co_name == "_tuples"

    def test_a_collector_wraps_once(self):
        from repro.engine.operators import ExecutionContext, Scan

        session = build_session()
        ctx = ExecutionContext(
            session.disk, session.buffer_pages, metrics=QueryMetrics()
        )
        stream = Scan(session.tables["R"]).tuples(ctx)
        assert stream.gi_code.co_name == "stream"
        # The collector's wrapper holds the raw generator: no second layer.
        assert stream.gi_frame.f_locals["iterator"].gi_code.co_name == "_tuples"

    def test_counters_identical_with_every_sink_attached(self):
        plain = build_session()
        watched = build_session()
        watched.registry = MetricsRegistry()
        watched.recorder = FlightRecorder()

        bare = plain.query(TYPE_J_SQL)
        observed = watched.query(TYPE_J_SQL, tracer=SpanTracer())

        assert bare.same_as(observed, 0.0)
        snapshot = lambda s: {
            phase: (
                c.page_reads,
                c.page_writes,
                c.crisp_comparisons,
                c.fuzzy_evaluations,
                c.tuple_moves,
            )
            for phase, c in s.last_stats.items()
        }
        assert snapshot(plain) == snapshot(watched)


# ----------------------------------------------------------------------
# The metrics registry
# ----------------------------------------------------------------------
PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\"\})? "
    r"[-+]?[0-9.eE+-]+$"
)


class TestMetricsRegistry:
    def run_workload(self, session):
        for sql in (TYPE_J_SQL, TYPE_J_SQL, TYPE_JX_SQL):
            session.query(sql)

    def test_folds_every_query_once(self):
        session = build_session()
        session.registry = MetricsRegistry()
        self.run_workload(session)
        registry = session.registry
        assert registry.queries_total == 3
        assert registry.queries_by_strategy["flat/J: merge-join plan"] == 2
        assert registry.queries_by_nesting["J"] == 2
        assert registry.queries_by_nesting["JX"] == 1
        assert registry.rewrites["IN -> flat equi-join (Theorems 4.1/4.2)"] == 2
        assert registry.page_reads_total > 0
        assert registry.sort_runs_total > 0
        assert registry.latency.count == 3

    def test_prometheus_output_parses_line_by_line(self):
        session = build_session()
        session.registry = MetricsRegistry()
        self.run_workload(session)
        text = session.registry.render_prometheus()
        assert text.endswith("\n")
        families = set()
        for line in text.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                families.add(line.split()[2])
                continue
            assert PROM_SAMPLE.match(line), f"unparseable sample line: {line!r}"
            name = line.split("{", 1)[0].split(" ", 1)[0]
            base = re.sub(r"_(bucket|sum|count)$", "", name)
            assert name in families or base in families
        assert "fuzzysql_queries_total" in families
        assert "fuzzysql_query_seconds" in families

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        assert registry.latency.bounds == DEFAULT_BUCKETS
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            registry.latency.observe(value)
        counts = dict(zip(DEFAULT_BUCKETS, registry.latency.bucket_counts))
        assert (counts[0.025], counts[0.05], counts[0.5], counts[5.0], counts[10.0]) == (
            0, 1, 3, 4, 4,
        )
        assert registry.latency.count == 5
        rendered = "\n".join(registry.latency.render("x_seconds", "test"))
        assert 'x_seconds_bucket{le="0.5"} 3' in rendered
        assert 'x_seconds_bucket{le="+Inf"} 5' in rendered
        assert "x_seconds_count 5" in rendered

    def test_label_values_are_escaped(self):
        from repro.observe.registry import escape_label_value

        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_registry_observe_does_not_mutate_the_collector(self):
        session = build_session()
        metrics = QueryMetrics()
        session.query(TYPE_J_SQL, metrics=metrics)
        before = list(metrics.page_trace)
        registry = MetricsRegistry()
        registry.observe(build_event(TYPE_J_SQL, metrics, wall_seconds=0.01, rows=5))
        registry.observe(build_event(TYPE_J_SQL, metrics, wall_seconds=0.01, rows=5))
        assert list(metrics.page_trace) == before
        assert registry.rows_returned_total == 10  # caller controls fold count
        assert registry.page_reads_total == 2 * metrics.stats.total.page_reads


class TestNoDoubleCounting:
    def test_page_trace_identical_with_registry_and_log_attached(self):
        """The regression: collector + registry + recorder observe ONE run.

        The page-access trace of a caller-supplied collector is replayed
        bit-identically whether or not workload sinks are attached, and
        the registry's totals equal the collector's exactly (folded once,
        not once per sink).
        """
        alone = build_session()
        collector_alone = QueryMetrics()
        alone.query(TYPE_J_SQL, metrics=collector_alone)

        sinked = build_session()
        sinked.registry = MetricsRegistry()
        sinked.recorder = FlightRecorder()
        collector_sinked = QueryMetrics()
        sinked.query(TYPE_J_SQL, metrics=collector_sinked)

        # Temp-run names carry a process-global counter; strip it so the
        # two sessions' traces are comparable position by position.
        trace = lambda m: [
            (a.kind, re.sub(r"\d+$", "#", a.file), a.index, a.phase)
            for a in m.page_trace
        ]
        assert trace(collector_alone) == trace(collector_sinked)

        total = collector_sinked.stats.total
        assert sinked.registry.page_reads_total == total.page_reads
        assert sinked.registry.page_writes_total == total.page_writes
        assert sinked.registry.fuzzy_evaluations_total == total.fuzzy_evaluations
        assert sinked.registry.queries_total == 1
        assert sinked.recorder.recorded_total == 1
        event = sinked.recorder.events()[0]
        assert event.page_reads == total.page_reads


# ----------------------------------------------------------------------
# The slow-query log: views over the flight recorder
# ----------------------------------------------------------------------
class TestQueryLog:
    def test_records_sql_strategy_and_io(self):
        session = build_session()
        session.recorder = FlightRecorder()
        session.query(TYPE_J_SQL)
        assert len(session.recorder) == 1
        event = session.recorder.events()[0]
        assert event.sql == TYPE_J_SQL
        assert event.nesting == "J"
        assert event.strategy == "flat/J: merge-join plan"
        assert event.rewrite == "IN -> flat equi-join (Theorems 4.1/4.2)"
        assert event.rows >= 0 and event.page_ios > 0
        assert session.recorder.slow(0.0) == [event]  # threshold 0: everything is slow

    def test_fast_queries_are_not_flagged_slow(self):
        recorder = FlightRecorder()
        recorder.record(build_event("SELECT 1", wall_seconds=0.001))
        assert recorder.slow(10.0) == []
        assert "0 slow (>= 10000ms)" in recorder.summarize(slow_threshold=10.0)

    def test_capacity_evicts_but_totals_survive(self):
        recorder = FlightRecorder(capacity=2)
        for i in range(5):
            recorder.record(build_event(f"Q{i}", wall_seconds=0.01))
        assert len(recorder) == 2
        assert recorder.recorded_total == 5
        assert [e.sql for e in recorder.events()] == ["Q3", "Q4"]
        # The slow count is a view over the retained events only.
        assert "5 recorded (2 retained), 2 slow" in recorder.summarize(slow_threshold=0.0)

    def test_summarize_reports_strategies_and_slowest(self):
        session = build_session()
        session.recorder = FlightRecorder()
        session.query(TYPE_J_SQL)
        session.query(TYPE_JX_SQL)
        report = session.recorder.summarize(top=1, slow_threshold=0.0)
        assert "2 recorded" in report
        assert "flat/J: merge-join plan" in report
        assert "slowest 1:" in report

    def test_sql_is_whitespace_normalized(self):
        event = build_event("SELECT\n  R.K\nFROM   R")
        assert event.sql == "SELECT R.K FROM R"


# ----------------------------------------------------------------------
# Explain rendering for the chain / JA / JALL strategies
# ----------------------------------------------------------------------
class TestStrategyReports:
    def test_chain_report_renders_rule_and_counts(self):
        session = build_session(tables=("R", "S", "W"))
        report = session.explain_analyze(CHAIN_SQL)
        assert "nesting type: chain" in report
        assert "rewrite: K-level chain -> single flat join (Theorem 8.1)" in report
        assert "strategy: flat/chain: merge-join plan" in report
        join_lines = [l for l in report.splitlines() if "MergeJoin" in l or "MaxFold" in l]
        assert len(join_lines) == 2  # R-S and S-W edges of the chain
        assert all("rows=" in l and "est=" not in l for l in join_lines)

    def test_ja_report_renders_rule_and_counts(self):
        session = build_session()
        report = session.explain_analyze(TYPE_JA_SQL)
        assert "nesting type: JA" in report
        assert (
            "rewrite: correlated aggregate -> pipelined T1/T2 merge pass (Section 6)"
            in report
        )
        assert "strategy: pipelined/JA: T1/T2 merge pass" in report
        line = next(l for l in report.splitlines() if l.startswith("JAPipeline"))
        assert "rows=" in line and "est=" not in line and "q=" not in line

    def test_jall_report_renders_rule_and_counts(self):
        session = build_session()
        report = session.explain_analyze(TYPE_JALL_SQL)
        assert "nesting type: JALL" in report
        assert (
            "rewrite: op ALL -> doubly-negated grouped fold (Section 7)" in report
        )
        assert "strategy: grouped/JALL: merge-join min-fold" in report
        line = next(
            l for l in report.splitlines() if l.startswith("GroupedAntiJoin")
        )
        assert "rows=" in line and "est=" not in line and "q=" not in line


# ----------------------------------------------------------------------
# The FuzzyDatabase facade sinks
# ----------------------------------------------------------------------
class TestDatabaseSinks:
    def build_db(self):
        db = FuzzyDatabase()
        db.execute("CREATE TABLE R (K NUMERIC, V NUMERIC)")
        db.execute("INSERT INTO R VALUES (1, 5), (2, 6), (3, 7)")
        return db

    def test_registry_and_log_observe_facade_queries(self):
        db = self.build_db()
        db.registry = MetricsRegistry()
        db.recorder = FlightRecorder()
        result = db.execute("SELECT R.K FROM R WHERE R.V > 5")
        assert len(result) == 2
        assert db.registry.queries_total == 1
        assert db.registry.rows_returned_total == 2
        assert db.recorder.recorded_total == 1
        assert db.recorder.events()[0].sql == "SELECT R.K FROM R WHERE R.V > 5"

    def test_caller_collector_still_usable_with_sinks(self):
        db = self.build_db()
        db.registry = MetricsRegistry()
        metrics = QueryMetrics()
        db.query("SELECT R.K FROM R WHERE R.V > 5", metrics=metrics)
        assert metrics.nesting_type == "flat"
        assert db.registry.queries_total == 1
