"""Tests for the query service layer: prepared statements, the LRU plan
cache with statistics-version invalidation, and concurrent batch execution
(`repro.service` plus the wiring in `StorageSession` / `FuzzyDatabase`)."""

import random
import re

import pytest

from repro.data import Catalog, FuzzyRelation, FuzzyTuple, Schema
from repro.db import FuzzyDatabase
from repro.engine import NaiveEvaluator
from repro.fuzzy import CrispNumber, TrapezoidalNumber
from repro.observe import MetricsRegistry, QueryMetrics, SpanTracer
from repro.service import PlanCache, normalize_sql
from repro.session import StorageSession
from repro.sql import ParameterError, parse
from repro.sql.ast import Parameter

N = CrispNumber
T = TrapezoidalNumber
SCHEMA = Schema(["K", "U", "V"])
POOL = [N(0), N(5), T(0, 1, 2, 4), T(3, 5, 5, 7), T(4, 6, 8, 12), T(0, 2, 8, 10)]

#: One query per dispatch family, exercised by the batch differential sweep.
SWEEP = [
    "SELECT R.K FROM R WHERE R.U > 2",
    "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.U = R.U)",
    "SELECT R.K FROM R WHERE R.V NOT IN (SELECT S.V FROM S WHERE S.U = R.U)",
    "SELECT R.K FROM R WHERE R.V < ALL (SELECT S.V FROM S WHERE S.U = R.U)",
    "SELECT R.K FROM R WHERE R.V > (SELECT MAX(S.V) FROM S WHERE S.U = R.U)",
    "SELECT R.K FROM R WHERE EXISTS (SELECT S.K FROM S WHERE S.U = R.U)",
]


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


def canonical(relation):
    return sorted((tuple(map(str, t.values)), round(t.degree, 12)) for t in relation)


def span_names(tracer):
    return [span.name for span in tracer.walk()]


# ----------------------------------------------------------------------
# SQL normalization
# ----------------------------------------------------------------------
class TestNormalizeSql:
    def test_collapses_whitespace(self):
        assert normalize_sql("SELECT  R.K\n FROM\tR") == "SELECT R.K FROM R"

    def test_preserves_quoted_literals(self):
        text = "SELECT R.K FROM R WHERE R.U = 'very  tall'"
        assert "'very  tall'" in normalize_sql(text)
        assert normalize_sql(text) != normalize_sql(text.replace("  tall", " tall"))


# ----------------------------------------------------------------------
# The cache data structure itself
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_hit_miss_and_lru_eviction(self):
        cache = PlanCache(capacity=2)
        tokens = {"R": 1}
        current = lambda keys: {k: tokens[k] for k in keys}
        assert cache.lookup("a", current) == (None, "miss")
        cache.store("a", "plan-a", dict(tokens))
        assert cache.lookup("a", current) == ("plan-a", "hit")
        cache.store("b", "plan-b", dict(tokens))
        cache.store("c", "plan-c", dict(tokens))  # evicts "a" (LRU)
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert cache.hits == 1

    def test_stale_tokens_invalidate(self):
        cache = PlanCache()
        tokens = {"R": 1}
        cache.store("q", "plan", dict(tokens))
        tokens["R"] = 2
        value, outcome = cache.lookup("q", lambda keys: {k: tokens[k] for k in keys})
        assert value is None and outcome == "invalidated"
        assert cache.invalidations == 1
        assert "q" not in cache  # stale entries are evicted, not kept


# ----------------------------------------------------------------------
# One statement lifecycle: every entry form is plan -> artifact -> run
# ----------------------------------------------------------------------
#: One ``(template, params)`` per nesting type of the paper's taxonomy.
LIFECYCLE = {
    "N": ("SELECT R.K FROM R WHERE R.U > ? AND R.V IN (SELECT S.V FROM S)", [1.0]),
    "J": (
        "SELECT R.K FROM R WHERE R.U > ? AND R.V IN "
        "(SELECT S.V FROM S WHERE S.U = R.U)",
        [1.0],
    ),
    "JX": (
        "SELECT R.K FROM R WHERE R.U > ? AND R.V NOT IN "
        "(SELECT S.V FROM S WHERE S.U = R.U)",
        [1.0],
    ),
    "JA": (
        "SELECT R.K FROM R WHERE R.U > ? AND R.V > "
        "(SELECT MAX(S.V) FROM S WHERE S.U = R.U)",
        [1.0],
    ),
    "chain": (
        "SELECT R.K FROM R WHERE R.K > ? AND R.U IN "
        "(SELECT S.V FROM S WHERE S.K IN (SELECT S2.V FROM S S2 WHERE S2.U = R.V))",
        [3.0],
    ),
}

#: Spans of the front end; what follows them is the execution itself.
FRONT_END = {"parse", "bind", "rewrite", "compile", "bind-params"}

#: JALL, two JA shapes the Section 6 pipeline does not cover (they run
#: naive), and a thresholded JX — beside one statement per LIFECYCLE type.
OFF_SWEEP = {
    "JALL": SWEEP[3],
    "JA-inequality": (
        "SELECT R.K FROM R WHERE R.V > (SELECT MAX(S.V) FROM S WHERE S.U < R.U)"
    ),
    "JA-two-correlations": (
        "SELECT R.K FROM R WHERE R.V > "
        "(SELECT MAX(S.V) FROM S WHERE S.U = R.U AND S.K > R.K)"
    ),
    "JX-threshold": (
        "SELECT R.K FROM R WHERE R.V NOT IN "
        "(SELECT S.V FROM S WHERE S.U = R.U) WITH D >= 0.5"
    ),
}


def literal(template, params):
    for value in params:
        template = template.replace("?", str(value), 1)
    return template


class TestOneLifecycle:
    @pytest.mark.parametrize("nesting", sorted(LIFECYCLE))
    def test_every_entry_form_takes_the_same_path(self, nesting):
        template, params = LIFECYCLE[nesting]
        sql = literal(template, params)

        def no_cache(session, tracer):
            session.plan_cache = None
            return session.query(sql, tracer=tracer)

        forms = {
            "text": lambda s, t: s.query(sql, tracer=t),
            "parsed": lambda s, t: s.query(parse(sql), tracer=t),
            "no cache": no_cache,
            "prepared": lambda s, t: s.prepare(sql).execute(tracer=t),
            "prepared ?": lambda s, t: s.prepare(template).execute(params, tracer=t),
        }
        seen = {}
        for form, run in forms.items():
            _, session = build()
            tracer = SpanTracer()
            answer = run(session, tracer)
            seen[form] = (
                canonical(answer),
                session.last_strategy,
                session.last_stats.total,
                # scratch-file names carry a process-wide serial number
                [re.sub(r"\d+", "#", name) for name in span_names(tracer)],
            )
        want = seen["text"]
        assert not want[1].startswith("naive/")
        for form, got in seen.items():
            assert got[:3] == want[:3], form
            executed = [name for name in got[3] if name not in FRONT_END]
            assert executed == [n for n in want[3] if n not in FRONT_END], form
        # The un-prepared forms also share the front end, span for span.
        assert seen["parsed"][3] == seen["no cache"][3] == want[3]

    @pytest.mark.parametrize("shape", sorted(LIFECYCLE) + sorted(OFF_SWEEP))
    def test_explain_names_the_strategy_the_run_takes(self, shape):
        from repro.storage.stats import Counters, OperationStats

        sql = OFF_SWEEP.get(shape) or literal(*LIFECYCLE[shape])
        _, session = build()
        before, probe = session.last_stats, OperationStats()
        with session.disk.use_stats(probe):
            explained = session.explain(sql)
        assert session.last_stats is before
        assert before.total == probe.total == Counters()  # EXPLAIN moves no counter
        session.query(sql)
        assert f"strategy: {session.last_strategy}" in explained.splitlines()

    @pytest.mark.parametrize(
        "options", [{"shards": 2, "shard_on": "V"}, {"workers": 2}], ids=["shards2", "workers2"]
    )
    def test_prepared_execution_uses_the_session_budgets(self, options):
        """``prepare().execute()`` and ``query()`` resolve workers/shards alike."""
        rng = random.Random(17)

        def spread(base):  # crisp join values: both budgets find boundaries
            rows = [
                FuzzyTuple([N(base + i), rng.choice(POOL), N(rng.randrange(12))], 1.0)
                for i in range(60)
            ]
            return FuzzyRelation(SCHEMA, rows)

        session = StorageSession(buffer_pages=16, page_size=512, **options)
        session.register("R", spread(0))
        session.register("S", spread(1000))
        sql = SWEEP[1]

        def fan_out(metrics):
            return (
                metrics.parallel_workers,
                metrics.requested_shards,
                [(p.index, p.outer_tuples, p.inner_tuples, p.rows_out) for p in metrics.partitions],
                [(p.index, p.outer_tuples, p.inner_tuples, p.rows_out) for p in metrics.shards],
            )

        adhoc, prepared = QueryMetrics(), QueryMetrics()
        a = session.query(sql, metrics=adhoc)
        adhoc_total = session.last_stats.total
        b = session.prepare(sql).execute(metrics=prepared)
        assert canonical(a) == canonical(b)
        assert session.last_stats.total == adhoc_total
        assert fan_out(prepared) == fan_out(adhoc)
        assert adhoc.partitions or adhoc.shards  # the budget really fanned out


# ----------------------------------------------------------------------
# Prepared statements on the storage session
# ----------------------------------------------------------------------
class TestSessionPrepared:
    def test_prepare_twice_parses_once(self):
        """The acceptance criterion: two executions, one parse/bind/rewrite."""
        _, session = build()
        registry = MetricsRegistry()
        session.registry = registry
        sql = SWEEP[1]  # type J
        prepared = session.prepare(sql)

        first, second = SpanTracer(), SpanTracer()
        a = prepared.execute(tracer=first)
        b = prepared.execute(tracer=second)
        assert canonical(a) == canonical(b)
        for tracer in (first, second):
            names = span_names(tracer)
            assert "parse" not in names
            assert "bind" not in names
            assert "rewrite" not in names
        assert prepared.executions == 2
        assert registry.statements_prepared_total == 1
        assert registry.prepared_executions_total == 2

    def test_prepared_matches_adhoc(self):
        catalog, session = build()
        for sql in SWEEP:
            expected = NaiveEvaluator(catalog).evaluate(sql)
            got = session.prepare(sql).execute()
            assert expected.same_as(got, 1e-9), sql

    def test_parameter_binding_matches_literal_query(self):
        catalog, session = build()
        template = "SELECT R.K FROM R WHERE R.U > ? AND R.V < ?"
        prepared = session.prepare(template)
        assert prepared.param_count == 2
        for lo, hi in ((1, 8), (2, 6), (0, 12)):
            expected = NaiveEvaluator(catalog).evaluate(
                f"SELECT R.K FROM R WHERE R.U > {lo} AND R.V < {hi}"
            )
            got = prepared.execute((lo, hi))
            assert expected.same_as(got, 1e-9), (lo, hi)

    def test_parameter_in_subquery_and_threshold(self):
        catalog, session = build()
        template = (
            "SELECT R.K FROM R WHERE R.V IN "
            "(SELECT S.V FROM S WHERE S.U > ?) WITH D >= ?"
        )
        prepared = session.prepare(template)
        assert prepared.param_count == 2
        for bound, threshold in ((2, 0.5), (4, 0.25)):
            expected = NaiveEvaluator(catalog).evaluate(
                "SELECT R.K FROM R WHERE R.V IN "
                f"(SELECT S.V FROM S WHERE S.U > {bound}) WITH D >= {threshold}"
            )
            got = prepared.execute((bound, threshold))
            assert expected.same_as(got, 1e-9), (bound, threshold)

    def test_arity_errors(self):
        _, session = build()
        prepared = session.prepare("SELECT R.K FROM R WHERE R.U > ?")
        with pytest.raises(ParameterError):
            prepared.execute(())
        with pytest.raises(ParameterError):
            prepared.execute((1, 2))

    def test_query_rejects_placeholders(self):
        _, session = build()
        with pytest.raises(ParameterError):
            session.query("SELECT R.K FROM R WHERE R.U > ?")

    def test_parser_numbers_placeholders_left_to_right(self):
        query = parse(
            "SELECT R.K FROM R WHERE R.U > ? AND R.V IN "
            "(SELECT S.V FROM S WHERE S.U < ?) WITH D >= ?"
        )
        from repro.sql import collect_parameters

        assert [p.index for p in collect_parameters(query)] == [0, 1, 2]
        assert isinstance(query.with_threshold, Parameter)


# ----------------------------------------------------------------------
# The session plan cache
# ----------------------------------------------------------------------
class TestSessionPlanCache:
    def test_second_run_is_a_hit_with_no_parse_span(self):
        _, session = build()
        sql = SWEEP[1]
        cold, warm = SpanTracer(), SpanTracer()
        first = session.query(sql, tracer=cold)
        second = session.query(sql, tracer=warm)
        assert canonical(first) == canonical(second)
        assert "parse" in span_names(cold)
        assert "rewrite" in span_names(cold)
        assert "parse" not in span_names(warm)
        assert "rewrite" not in span_names(warm)
        assert session.plan_cache.hits == 1
        assert session.plan_cache.misses == 1

    def test_whitespace_variants_share_one_entry(self):
        _, session = build()
        session.query("SELECT R.K FROM R WHERE R.U > 2")
        session.query("SELECT  R.K\nFROM R   WHERE R.U > 2")
        assert session.plan_cache.hits == 1
        assert len(session.plan_cache) == 1

    def test_reregister_invalidates(self):
        _, session = build()
        sql = SWEEP[0]
        session.query(sql)  # populate the cache
        rng = random.Random(99)
        session.register("R", make_relation(rng, 25, 0))
        metrics = QueryMetrics()
        session.query(sql, metrics=metrics)
        assert metrics.plan_cache == "invalidated"
        assert session.plan_cache.invalidations == 1
        # and the refreshed plan answers for the *new* data
        catalog = Catalog()
        catalog.register("R", make_relation(random.Random(99), 25, 0))
        expected = NaiveEvaluator(catalog).evaluate(sql)
        got = session.query(sql)
        assert expected.same_as(got, 1e-9)

    def test_reshard_invalidates_without_stats_bump(self):
        """Changing a relation's shard layout drops its cached plans.

        ``reshard()`` deliberately leaves the statistics version alone —
        the *layout token* half of the plan-cache validation pair is what
        must catch the stale placement.
        """
        rng = random.Random(23)
        r, s = make_relation(rng, 25, 0), make_relation(rng, 25, 1000)
        session = StorageSession(
            buffer_pages=32, page_size=1024, shards=4, shard_on="V"
        )
        session.register("R", r)
        session.register("S", s)
        sql = SWEEP[1]
        first = session.query(sql)  # populate the cache
        warm = QueryMetrics()
        session.query(sql, metrics=warm)
        assert warm.plan_cache == "hit"

        versions_before = session.stats_versions.snapshot(["R", "S"])
        session.reshard("R", boundaries=[2.0, 5.0, 8.0])
        assert session.stats_versions.snapshot(["R", "S"]) == versions_before

        stale = QueryMetrics()
        got = session.query(sql, metrics=stale)
        assert stale.plan_cache == "invalidated"
        assert session.plan_cache.invalidations == 1
        # same data, new layout: the refreshed plan answers identically
        assert first.same_as(got, 0.0)
        # and the re-planned entry is immediately warm again
        rewarmed = QueryMetrics()
        session.query(sql, metrics=rewarmed)
        assert rewarmed.plan_cache == "hit"

    def test_explain_analyze_leaves_the_plan_cache_alone(self):
        """Observing a query is not a write: after a benign UPDATE kept
        the cached plan, EXPLAIN ANALYZE moves no statistics version, so
        the next plain query is still a hit."""
        _, session = build()
        sql = SWEEP[1]
        session.query(sql)
        session.explain_analyze(sql)
        # 20 of S's 25 join values change; the row count does not.
        session.execute([
            "UPDATE S SET V = 50 WHERE K < 1010",
            "UPDATE S SET V = 60 WHERE K >= 1010 AND K < 1020",
        ])
        before, after = QueryMetrics(), QueryMetrics()
        session.query(sql, metrics=before)
        versions = session.stats_versions.snapshot(["R", "S"])
        session.explain_analyze(sql)
        assert session.stats_versions.snapshot(["R", "S"]) == versions
        session.query(sql, metrics=after)
        assert (before.plan_cache, after.plan_cache) == ("hit", "hit")

    def test_metrics_and_registry_record_outcomes(self):
        _, session = build()
        registry = MetricsRegistry()
        session.registry = registry
        sql = SWEEP[0]
        miss, hit = QueryMetrics(), QueryMetrics()
        session.query(sql, metrics=miss)
        session.query(sql, metrics=hit)
        assert miss.plan_cache == "miss"
        assert hit.plan_cache == "hit"
        assert registry.plan_cache_hits_total == 1
        assert registry.plan_cache_misses_total == 1
        text = registry.render_prometheus()
        assert "plan_cache_hits_total 1" in text
        assert "plan_cache_misses_total 1" in text

    def test_explain_analyze_reports_cache_outcome(self):
        _, session = build()
        sql = SWEEP[1]
        session.query(sql)
        report = session.explain_analyze(sql)
        assert "plan cache: hit" in report

    def test_disabled_cache_still_answers(self):
        catalog, session = build()
        session.plan_cache = None
        for sql in SWEEP:
            expected = NaiveEvaluator(catalog).evaluate(sql)
            assert expected.same_as(session.query(sql), 1e-9)


# ----------------------------------------------------------------------
# Concurrent batch execution
# ----------------------------------------------------------------------
class TestRunBatch:
    def test_session_parallel_matches_serial(self):
        """The acceptance sweep: workers=4 bit-identical to workers=1."""
        queries = SWEEP * 3
        _, serial_session = build()
        _, parallel_session = build()
        serial = serial_session.run_batch(queries, workers=1)
        parallel = parallel_session.run_batch(queries, workers=4)
        assert [canonical(r) for r in serial] == [canonical(r) for r in parallel]

    def test_parallel_matches_oracle(self):
        catalog, session = build()
        results = session.run_batch(SWEEP, workers=4)
        for sql, got in zip(SWEEP, results):
            expected = NaiveEvaluator(catalog).evaluate(sql)
            assert expected.same_as(got, 1e-9), sql

    def test_order_preserved(self):
        _, session = build()
        queries = [
            "SELECT R.K FROM R WHERE R.U > 2",
            "SELECT R.K FROM R WHERE R.U > 100",  # empty
        ]
        results = session.run_batch(queries, workers=2)
        assert len(results[0]) > 0
        assert len(results[1]) == 0


# ----------------------------------------------------------------------
# The in-memory engine gets the same service surface
# ----------------------------------------------------------------------
class TestDatabaseService:
    def make_db(self):
        db = FuzzyDatabase()
        db.execute("CREATE TABLE M (ID NUMERIC, AGE NUMERIC)")
        for i, age in enumerate((20, 25, 30, 35, 40)):
            db.execute(f"INSERT INTO M VALUES ({i}, {age})")
        return db

    def test_execute_path_uses_plan_cache(self):
        # The shell calls db.execute(sql), which pre-parses the statement;
        # the cache must still engage on the carried SQL text.
        db = self.make_db()
        sql = "SELECT M.ID FROM M WHERE M.AGE > 28"
        first = db.execute(sql)
        second = db.execute(sql)
        assert db.plan_cache.misses == 1
        assert db.plan_cache.hits == 1
        assert second.same_as(first, 1e-12)

    def test_prepared_parameter_binding(self):
        db = self.make_db()
        prepared = db.prepare("SELECT M.ID FROM M WHERE M.AGE > ?")
        assert len(prepared.execute((28,))) == 3
        assert len(prepared.execute((38,))) == 1

    def test_insert_invalidates_cache(self):
        db = self.make_db()
        sql = "SELECT M.ID FROM M WHERE M.AGE > 28"
        assert len(db.query(sql)) == 3
        db.execute("INSERT INTO M VALUES (9, 50)")
        metrics = QueryMetrics()
        result = db.query(sql, metrics=metrics)
        assert metrics.plan_cache == "invalidated"
        assert len(result) == 4

    def test_define_invalidates_cache(self):
        db = self.make_db()
        db.execute("DEFINE 'old' AS '[30, 35, 100, 100]'")
        sql = "SELECT M.ID FROM M WHERE M.AGE = 'old' WITH D >= 0.9"
        before = len(db.query(sql))
        db.execute("DEFINE 'old' AS '[90, 95, 100, 100]'")
        metrics = QueryMetrics()
        after = db.query(sql, metrics=metrics)
        assert metrics.plan_cache == "invalidated"
        assert len(after) < before

    def test_run_batch_parity(self):
        db = self.make_db()
        queries = [
            "SELECT M.ID FROM M WHERE M.AGE > 22",
            "SELECT M.ID FROM M WHERE M.AGE < 33",
            "SELECT M.ID FROM M WHERE M.AGE > 28 AND M.AGE < 38",
        ] * 2
        serial = db.run_batch(queries, workers=1)
        parallel = db.run_batch(queries, workers=4)
        assert [canonical(r) for r in serial] == [canonical(r) for r in parallel]


# ----------------------------------------------------------------------
# Statistics versions drive invalidation
# ----------------------------------------------------------------------
class TestStatisticsVersions:
    def test_cardinality_changes_bump(self):
        from repro.engine.statistics import StatisticsVersions

        versions = StatisticsVersions()
        assert versions.observe_cardinality("R", 10)  # from nothing
        assert not versions.observe_cardinality("R", 10)
        assert not versions.observe_cardinality("R", 12)  # +20 %: within a quarter
        assert versions.observe_cardinality("R", 13)  # +30 % of the count at the bump
        assert not versions.observe_cardinality("R", 10)  # -23 % of 13
        assert versions.version("R") == 2

    def test_snapshot_is_a_validity_token(self):
        from repro.engine.statistics import StatisticsVersions

        versions = StatisticsVersions()
        versions.observe_cardinality("R", 5)
        token = versions.snapshot(["R", "S"])
        assert token == {"R": 1, "S": 0}
        versions.observe_cardinality("S", 3)
        assert versions.snapshot(["R", "S"]) != token
