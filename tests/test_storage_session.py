"""Tests for the storage-backed query session (all strategies, one API)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data import Catalog, FuzzyRelation, FuzzyTuple, Schema
from repro.engine import NaiveEvaluator
from repro.fuzzy import CrispNumber, TrapezoidalNumber, paper_vocabulary
from repro.join import NL_PHASE
from repro.join.merge_join import WINDOW_RUNG
from repro.observe import FlightRecorder, MetricsRegistry, QueryMetrics
from repro.session import StorageSession
from repro.sort import SORT_PHASE

N = CrispNumber
T = TrapezoidalNumber
SCHEMA = Schema(["K", "U", "V"])
POOL = [N(0), N(5), T(0, 1, 2, 4), T(3, 5, 5, 7), T(4, 6, 8, 12), T(0, 2, 8, 10)]

QUERIES = {
    "flat": "SELECT R.K FROM R WHERE R.U > 2",
    "N": "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S)",
    "J": "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.U = R.U)",
    "JX": "SELECT R.K FROM R WHERE R.V NOT IN (SELECT S.V FROM S WHERE S.U = R.U)",
    "XN": "SELECT R.K FROM R WHERE R.V NOT IN (SELECT S.V FROM S WHERE S.U < 6)",
    "JALL": "SELECT R.K FROM R WHERE R.V < ALL (SELECT S.V FROM S WHERE S.U = R.U)",
    "ALL": "SELECT R.K FROM R WHERE R.V >= ALL (SELECT S.V FROM S)",
    "JA": "SELECT R.K FROM R WHERE R.V > (SELECT MAX(S.V) FROM S WHERE S.U = R.U)",
    "JA-count": "SELECT R.K FROM R WHERE R.V > (SELECT COUNT(S.V) FROM S WHERE S.U = R.U)",
    "JSOME": "SELECT R.K FROM R WHERE R.V < SOME (SELECT S.V FROM S WHERE S.U = R.U)",
    "chain": (
        "SELECT R.K FROM R WHERE R.U IN "
        "(SELECT S.V FROM S WHERE S.K IN (SELECT S2.V FROM S S2 WHERE S2.U = R.V))"
    ),
    "general": "SELECT R.K FROM R WHERE EXISTS (SELECT S.K FROM S WHERE S.U = R.U)",
    "p1p2": (
        "SELECT R.K FROM R WHERE R.U > 1 AND R.V NOT IN "
        "(SELECT S.V FROM S WHERE S.V > 2 AND S.U = R.U)"
    ),
}


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


def build(seed=17, n=25):
    rng = random.Random(seed)
    r, s = make_relation(rng, n, 0), make_relation(rng, n, 1000)
    catalog = Catalog()
    catalog.register("R", r)
    catalog.register("S", s)
    session = StorageSession(buffer_pages=32, page_size=1024)
    session.register("R", r)
    session.register("S", s)
    return catalog, session


class TestAllStrategiesMatchOracle:
    @pytest.mark.parametrize("label", sorted(QUERIES))
    def test_query(self, label):
        catalog, session = build()
        sql = QUERIES[label]
        expected = NaiveEvaluator(catalog).evaluate(sql)
        got = session.query(sql)
        assert expected.same_as(got, 1e-9), (
            f"{label} [{session.last_strategy}]\n"
            f"expected:\n{expected.pretty()}\ngot:\n{got.pretty()}"
        )

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.sampled_from(sorted(QUERIES)),
    )
    def test_property_random_data(self, seed, label):
        catalog, session = build(seed=seed, n=12)
        sql = QUERIES[label]
        expected = NaiveEvaluator(catalog).evaluate(sql)
        got = session.query(sql)
        assert expected.same_as(got, 1e-9)


class TestStrategySelection:
    def test_strategies(self):
        _, session = build()
        session.query(QUERIES["J"])
        assert session.last_strategy.startswith("flat/J")
        session.query(QUERIES["JX"])
        assert session.last_strategy.startswith("grouped/JX")
        assert "merge-join" in session.last_strategy
        session.query(QUERIES["JA"])
        assert session.last_strategy.startswith("pipelined/JA")
        session.query(QUERIES["general"])
        assert session.last_strategy.startswith("naive/")

    def test_uncorrelated_all_uses_nested_loop_fold(self):
        _, session = build()
        session.query(QUERIES["ALL"])
        assert "nested-loop min-fold" in session.last_strategy

    def test_stats_populated(self):
        _, session = build()
        session.query(QUERIES["J"])
        assert session.last_stats.total.page_reads > 0
        assert session.last_stats.total.fuzzy_evaluations > 0

    def test_grouped_cheaper_on_sparse_workload(self):
        """On anchored (sparse-overlap) data the grouped fold touches far
        fewer pairs than the naive per-tuple inner evaluation.  (Efficiency
        on dense data is workload-dependent; see test_unnest_methods_storage
        for the workload-level comparisons.)"""
        from repro.storage import BufferPool, OperationStats
        from repro.workload.generator import WorkloadSpec, build_workload

        spec = WorkloadSpec(n_outer=80, n_inner=80, join_fanout=4, seed=9)
        workload = build_workload(spec, page_size=1024)
        pool = BufferPool(workload.disk, 16)
        session = StorageSession(buffer_pages=32, page_size=1024)
        session.register("R", workload.outer.to_relation(pool))
        session.register("S", workload.inner.to_relation(pool))
        sql = "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S)"
        session.query(sql)
        grouped_evals = session.last_stats.total.fuzzy_evaluations

        catalog = Catalog()
        catalog.register("R", workload.outer.to_relation(pool))
        catalog.register("S", workload.inner.to_relation(pool))
        oracle_stats = OperationStats()
        NaiveEvaluator(catalog, stats=oracle_stats).evaluate(sql)
        assert grouped_evals < oracle_stats.total.fuzzy_evaluations / 3

    def test_with_threshold_falls_back(self):
        """A WITH cut inside the nested block has no fold form: naive."""
        catalog, session = build()
        sql = (
            "SELECT R.K FROM R WHERE R.V NOT IN "
            "(SELECT S.V FROM S WHERE S.U = R.U WITH D >= 0.5)"
        )
        out = session.query(sql)
        assert session.last_strategy.startswith("naive/")
        assert out.same_as(NaiveEvaluator(catalog).evaluate(sql), 1e-9)

    @pytest.mark.parametrize("z", [0.3, 0.6, 1.0])
    @pytest.mark.parametrize(
        "label,family", [("JX", "grouped/"), ("JALL", "grouped/"), ("JA", "pipelined/")]
    )
    def test_outer_with_threshold_is_a_threshold_node_on_the_fold(self, label, family, z):
        catalog, session = build()
        sql = f"{QUERIES[label]} WITH D >= {z}"
        out = session.query(sql)
        assert session.last_strategy.startswith(family)
        assert f"strategy: {session.last_strategy}" in session.explain(sql).splitlines()
        assert session.last_plan.describe() == f"Threshold(D >= {z})"
        assert out.same_as(NaiveEvaluator(catalog).evaluate(sql), 1e-9)
        assert all(t.degree >= z for t in out)


class TestWindowOverflowFallback:
    @staticmethod
    def wide_session(**options):
        """R and S whose every support overlaps every other: one window."""
        wide = FuzzyRelation(SCHEMA)
        for i in range(60):
            wide.add(FuzzyTuple([N(i), T(0, 1, 2, 1000), N(i)], 1.0))
        session = StorageSession(buffer_pages=3, page_size=1024, **options)
        catalog = Catalog()
        for name in ("R", "S"):
            session.register(name, wide)
            catalog.register(name, wide)
        return catalog, session

    def test_two_rungs_chain_in_every_sink(self):
        """Sharded -> local (nothing is placed), then the local window
        outgrows the buffer: both reasons, in order, one degraded query."""
        _, session = self.wide_session(shards=2)
        session.registry = MetricsRegistry()
        session.recorder = FlightRecorder()
        report = session.explain_analyze("SELECT R.K FROM R WHERE R.U IN (SELECT S.U FROM S)")
        both = (
            "sharded join fell back to local execution: join input is not a "
            f"placed relation; then {WINDOW_RUNG}"
        )
        assert session.last_metrics.degraded_reason == both
        assert f"degraded=True ({both})" in report.splitlines()
        assert session.recorder.events()[-1].degraded_reason == both
        assert session.registry.queries_degraded_total == 1

    def test_wide_supports_finish_on_the_nested_loop(self):
        """When the largest Rng(r) exceeds the buffer (Section 3's buffer
        assumption violated), the merge-join finishes its scan as a block
        nested loop: same plan, same answer, nothing restarted."""
        catalog, session = self.wide_session()
        sql = "SELECT R.K FROM R WHERE R.U IN (SELECT S.U FROM S)"
        metrics = QueryMetrics()
        out = session.query(sql, metrics=metrics)
        assert session.last_strategy == "flat/N: merge-join plan"
        assert out.same_as(NaiveEvaluator(catalog).evaluate(sql), 1e-9)
        # Every event charged before the step-down stays on the ledger
        # (both sorts' writes, the scan so far) and the query is reported
        # degraded with the rung's reason — not as a cheap plan.
        assert session.last_stats.phase(SORT_PHASE).page_writes > 0
        assert session.last_stats.phase(NL_PHASE).fuzzy_evaluations > 0
        assert metrics.stats is session.last_stats
        assert metrics.degraded is True
        assert metrics.degraded_reason == WINDOW_RUNG
        registry = MetricsRegistry()
        session.registry = registry
        session.query(sql)
        assert registry.queries_degraded_total == 1


class TestVocabulary:
    def test_linguistic_literals(self):
        from repro.data import Attribute

        schema = Schema([Attribute("ID"), Attribute("AGE")])
        rel = FuzzyRelation.from_rows(
            schema, [(1, "about 35"), (2, 70)], paper_vocabulary()
        )
        session = StorageSession(paper_vocabulary(), page_size=1024)
        session.register("R", rel)
        out = session.query("SELECT R.ID FROM R WHERE R.AGE = 'medium young'")
        assert out.degree_of([N(1)]) == pytest.approx(0.5)
