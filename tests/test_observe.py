"""The query observability layer: collector, plan rendering, EXPLAIN ANALYZE."""

import random

import pytest

from repro.data import Catalog, FuzzyRelation, FuzzyTuple, Schema
from repro.db import FuzzyDatabase
from repro.engine import NaiveEvaluator
from repro.fuzzy import CrispNumber, TrapezoidalNumber
from repro.observe import QueryMetrics, render_plan, render_report
from repro.session import StorageSession

N = CrispNumber
T = TrapezoidalNumber
SCHEMA = Schema(["K", "U", "V"])
POOL = [N(0), N(5), T(0, 1, 2, 4), T(3, 5, 5, 7), T(4, 6, 8, 12)]

TYPE_J_SQL = "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.U = R.U)"


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


def build_session(seed=11, n=30):
    rng = random.Random(seed)
    r, s = make_relation(rng, n, 0), make_relation(rng, n, 1000)
    catalog = Catalog()
    catalog.register("R", r)
    catalog.register("S", s)
    session = StorageSession(buffer_pages=16, page_size=512)
    session.register("R", r)
    session.register("S", s)
    return catalog, session


class TestQueryMetrics:
    def test_operator_counters_keyed_by_identity(self):
        metrics = QueryMetrics()

        class Node:
            def describe(self):
                return "Node(x)"

        a, b = Node(), Node()
        metrics.op(a).rows_out += 3
        metrics.op(b).rows_out += 5
        assert metrics.for_node(a).rows_out == 3
        assert metrics.for_node(b).rows_out == 5
        assert metrics.for_node(a).label == "Node(x)"

    def test_stream_counts_rows_and_time(self):
        metrics = QueryMetrics()
        node = object()
        out = list(metrics.stream(node, iter(range(7))))
        assert out == list(range(7))
        om = metrics.for_node(node)
        assert om.rows_out == 7
        assert om.wall_seconds >= 0.0

    def test_span_accumulates(self):
        metrics = QueryMetrics()
        with metrics.span("sort"):
            pass
        with metrics.span("sort"):
            pass
        sorts = metrics.tracer.roots
        assert [s.name for s in sorts] == ["sort", "sort"]
        assert all(s.end is not None and s.seconds >= 0.0 for s in sorts)

    def test_page_trace_analysis(self):
        metrics = QueryMetrics()
        for index in (0, 1, 0, 2):
            metrics.record_page_access("read", "S", index, "join")
        metrics.record_page_access("read", "S", 3, "sort")
        metrics.record_page_access("write", "S", 0, "join")
        assert metrics.page_reads("S", phase="join") == {0: 2, 1: 1, 2: 1}
        assert metrics.reread_pages("S", phase="join") == [0]
        assert metrics.reread_pages("S", phase="sort") == []

    def test_buffer_replay_lru(self):
        metrics = QueryMetrics()
        # Access pattern 0 1 2 0 with capacity 2: page 0 is evicted by 2,
        # so its second read is a re-fetch.
        for index in (0, 1, 2, 0):
            metrics.record_page_access("read", "F", index, "work")
        replay = metrics.buffer_replay(2)
        assert replay.misses == 4
        assert replay.re_fetches == 1
        # With enough frames every revisit hits.
        replay = metrics.buffer_replay(3)
        assert replay.hits == 1
        assert replay.re_fetches == 0


class TestRenderPlan:
    def test_render_plan_shows_only_what_ran(self):
        _, session = build_session(n=20)
        metrics = QueryMetrics()
        session.query(TYPE_J_SQL, metrics=metrics)
        tree = session.last_plan.explain().splitlines()
        analyzed = render_plan(session.last_plan, metrics).splitlines()
        assert len(analyzed) == len(tree)
        assert all(line.startswith(node) for line, node in zip(analyzed, tree))
        assert "MaxFold(V = V)" in analyzed[2]
        # The merge join reads its inputs' heaps, so the scans count nothing.
        assert all("rows=" in line and "time=" in line for line in analyzed[:3])
        assert analyzed[3:] == tree[3:]
        assert not any("est=" in line or "q=" in line for line in analyzed)


class TestSessionInstrumentation:
    def test_metrics_collects_everything_on_flat_path(self):
        catalog, session = build_session()
        metrics = QueryMetrics()
        result = session.query(TYPE_J_SQL, metrics=metrics)
        expected = NaiveEvaluator(catalog).evaluate(TYPE_J_SQL)
        assert result.same_as(expected, 1e-9)  # instrumentation changes nothing
        assert metrics.nesting_type == "J"
        assert metrics.rewrite == "IN -> flat equi-join (Theorems 4.1/4.2)"
        assert metrics.strategy.startswith("flat/J")
        assert metrics.sorts, "merge join must report its sorts"
        assert {s.source for s in metrics.sorts} == {"R", "S"}
        assert all(s.runs >= 1 and s.merge_passes >= 1 for s in metrics.sorts)
        assert metrics.page_trace, "disk trace must be populated"
        assert metrics.stats is session.last_stats
        join_node = session.last_plan
        while not type(join_node).__name__.startswith("MergeJoin"):
            join_node = join_node.children()[0]
        om = metrics.for_node(join_node)
        assert om is not None and om.rows_out > 0

    def test_metrics_on_grouped_path(self):
        _, session = build_session()
        sql = "SELECT R.K FROM R WHERE R.V NOT IN (SELECT S.V FROM S WHERE S.U = R.U)"
        metrics = QueryMetrics()
        session.query(sql, metrics=metrics)
        assert metrics.strategy.startswith("grouped/")
        assert "Section 5" in metrics.rewrite
        (om,) = metrics.operators.values()
        assert om.label.startswith("GroupedAntiJoin")
        assert om.rows_in > 0

    def test_metrics_on_pipelined_path(self):
        _, session = build_session()
        sql = "SELECT R.K FROM R WHERE R.V > (SELECT MAX(S.V) FROM S WHERE S.U = R.U)"
        metrics = QueryMetrics()
        session.query(sql, metrics=metrics)
        assert metrics.strategy.startswith("pipelined/")
        assert "Section 6" in metrics.rewrite
        assert any(om.label.startswith("JAPipeline") for om in metrics.operators.values())

    def test_metrics_on_naive_fallback(self):
        _, session = build_session()
        sql = "SELECT R.K FROM R WHERE EXISTS (SELECT S.K FROM S WHERE S.U = R.U)"
        metrics = QueryMetrics()
        session.query(sql, metrics=metrics)
        assert metrics.strategy.startswith("naive/")
        assert metrics.rewrite == "none (naive fallback)"


class TestExplainAnalyze:
    def test_type_j_report(self):
        """The acceptance scenario: a type-J query's full analysis."""
        _, session = build_session()
        report = session.explain_analyze(TYPE_J_SQL)
        assert "nesting type: J" in report
        assert "rewrite: IN -> flat equi-join (Theorems 4.1/4.2)" in report
        assert "strategy: flat/J: merge-join plan" in report
        assert "MaxFold(V = V)" in report
        assert "rows=" in report and "est=" not in report  # counted, not guessed
        assert "merge passes" in report  # sort shapes
        assert "buffer" in report  # hit/miss profile
        assert "io[sort]" in report and "io[join]" in report
        assert "answer:" in report

    def test_explain_shows_the_plan_without_running(self):
        _, session = build_session()
        text = session.explain(TYPE_J_SQL)
        assert "rewrite:" in text
        assert "MaxFold(V = V)" in text
        assert "rows=" not in text  # EXPLAIN never executes

    def test_report_renders_for_every_strategy(self):
        queries = [
            TYPE_J_SQL,
            "SELECT R.K FROM R WHERE R.V NOT IN (SELECT S.V FROM S WHERE S.U = R.U)",
            "SELECT R.K FROM R WHERE R.V > (SELECT MAX(S.V) FROM S WHERE S.U = R.U)",
            "SELECT R.K FROM R WHERE EXISTS (SELECT S.K FROM S WHERE S.U = R.U)",
        ]
        for sql in queries:
            _, session = build_session()
            report = session.explain_analyze(sql)
            assert "strategy:" in report
            assert "answer:" in report

    def test_database_facade_delegates(self):
        db = FuzzyDatabase()
        db.execute("CREATE TABLE R (K NUMERIC, U NUMERIC, V NUMERIC)")
        db.execute("CREATE TABLE S (K NUMERIC, U NUMERIC, V NUMERIC)")
        rng = random.Random(3)
        for i in range(12):
            db.execute(
                f"INSERT INTO R VALUES ({i}, {rng.randint(0, 6)}, {rng.randint(0, 6)})"
            )
            db.execute(
                f"INSERT INTO S VALUES ({100 + i}, {rng.randint(0, 6)}, {rng.randint(0, 6)})"
            )
        report = db.explain_analyze(TYPE_J_SQL)
        assert "nesting type: J" in report
        assert "rewrite:" in report
        assert "answer:" in report

    def test_database_query_records_rewrite(self):
        db = FuzzyDatabase()
        db.execute("CREATE TABLE R (K NUMERIC, V NUMERIC)")
        db.execute("CREATE TABLE S (K NUMERIC, V NUMERIC)")
        db.execute("INSERT INTO R VALUES (1, 4)")
        db.execute("INSERT INTO S VALUES (2, 4)")
        metrics = QueryMetrics()
        db.query("SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S)", metrics=metrics)
        assert metrics.rewrite == "IN -> flat equi-join (Theorems 4.1/4.2)"
        assert metrics.nesting_type == "N"

    def test_render_report_without_plan_lists_operators(self):
        metrics = QueryMetrics()
        metrics.strategy = "grouped/JX: merge-join min-fold"
        om = metrics.op(object(), label="GroupedAntiJoin[not in](R -> S)")
        om.rows_in, om.rows_out, om.prunes = 10, 4, 6
        report = render_report(metrics, n_answers=4)
        assert "GroupedAntiJoin[not in](R -> S)" in report
        assert "prunes=6" in report
        assert "answer: 4 tuples" in report
