"""The PR-7 observability surface: fingerprints, flight recorder,
windowed time series, and the health report.

Covers statement canonicalization and template fingerprinting (shared
with the plan cache, so cache / log / analytics can never disagree about
statement identity), the bounded :class:`FlightRecorder` ring and its
JSONL export, per-fingerprint top-K aggregation, the snapshot-delta
:class:`TimeSeries` and its derived rates, the threshold rules of
:func:`evaluate_health`, the query-log ring and slow-boundary semantics,
Prometheus exposition completeness and prefix filtering, and the new
shell meta-commands ``\\top`` / ``\\health`` / ``\\events``.
"""

import json
import random

import pytest

from repro import normalize_sql
from repro.data import FuzzyRelation, FuzzyTuple, Schema
from repro.db import DatabaseError, FuzzyDatabase
from repro.errors import FuzzyQueryError
from repro.faults import FaultPlan, FaultyDisk
from repro.fuzzy import CrispNumber, TrapezoidalNumber
from repro.observe import (
    FlightRecorder,
    HealthThresholds,
    MetricsRegistry,
    QueryLog,
    QueryMetrics,
    TimeSeries,
    canonicalize_sql,
    evaluate_health,
    fingerprint,
    fingerprint_sql,
    lifetime_window,
    statement_template,
)
from repro.observe.timeseries import Window
from repro.session import StorageSession
from repro.shell import FuzzyShell
from repro.storage import SimulatedDisk

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


def build_session(seed=11, n=30, tables=("R", "S")):
    rng = random.Random(seed)
    session = StorageSession(buffer_pages=16, page_size=512)
    for i, name in enumerate(tables):
        session.register(name, make_relation(rng, n, 1000 * i))
    return session


def build_sharded_chaos(seed=11, n=40, shards=4, dead=(1,)):
    """A sharded session whose nodes in ``dead`` fail every read.

    Same shape as the chaos-suite helper: the faulty disks stay disarmed
    while the relations are placed, then arm, so every injected fault
    lands on the query path and the replica failover machinery engages.
    """
    rng = random.Random(seed)
    r = make_relation(rng, n, 0)
    s = make_relation(rng, n, 1000)
    disks, faulty = [], []
    for i in range(shards):
        if i in dead:
            plan = FaultPlan(transient_read_rate=1.0, transient_burst=8)
            disk = FaultyDisk(plan, page_size=512, armed=False)
            faulty.append(disk)
        else:
            disk = SimulatedDisk(page_size=512)
        disks.append(disk)
    session = StorageSession(
        buffer_pages=16, page_size=512, shards=shards, shard_on="V",
        shard_disks=disks,
    )
    session.register("R", r)
    session.register("S", s)
    for disk in faulty:
        disk.armed = True
    return session


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_canonicalize_collapses_whitespace_outside_literals(self):
        assert (
            canonicalize_sql("  SELECT   R.K \n FROM\tR  ")
            == "SELECT R.K FROM R"
        )
        # Whitespace inside a quoted literal is data, not formatting.
        assert (
            canonicalize_sql("SELECT R.K FROM R WHERE R.V = 'very  tall'")
            == "SELECT R.K FROM R WHERE R.V = 'very  tall'"
        )

    def test_plan_cache_normalizer_is_the_shared_canonicalizer(self):
        # One scanner, two consumers: the plan cache's normalize_sql IS
        # canonicalize_sql, so cache keys and log text cannot diverge.
        assert normalize_sql is canonicalize_sql

    def test_template_replaces_literals_with_placeholders(self):
        sql = "SELECT R.K FROM R WHERE R.V > 3.5 AND R.U = 'tall'"
        assert (
            statement_template(sql)
            == "SELECT R.K FROM R WHERE R.V > ? AND R.U = ?"
        )

    def test_template_leaves_identifiers_and_placeholders_alone(self):
        # Digits embedded in identifiers are names, not literals; existing
        # ? placeholders stay put, so a prepared template and a statement
        # executing it with inline constants render identically.
        assert (
            statement_template("SELECT R1.K FROM R1 WHERE R1.V > ?")
            == "SELECT R1.K FROM R1 WHERE R1.V > ?"
        )
        assert statement_template("SELECT R.K FROM R WHERE R.V > 12") == \
            statement_template("SELECT R.K FROM R WHERE R.V > ?")

    def test_template_consumes_scientific_notation(self):
        assert (
            statement_template("SELECT R.K FROM R WHERE R.V > 1.5e-3")
            == "SELECT R.K FROM R WHERE R.V > ?"
        )

    def test_same_shape_different_literals_share_a_fingerprint(self):
        a = fingerprint("SELECT R.K FROM R WHERE R.V > 3")
        b = fingerprint("SELECT R.K FROM R WHERE   R.V > 150")
        assert a.id == b.id and a.template == b.template
        assert fingerprint_sql("SELECT R.K FROM R WHERE R.U > 3") != a.id

    def test_fingerprint_id_is_a_short_stable_hex_digest(self):
        fp = fingerprint(TYPE_J_SQL)
        assert len(fp.id) == 12
        int(fp.id, 16)  # hex or raise
        assert fp.id == fingerprint(TYPE_J_SQL).id

    def test_log_recorder_and_fingerprint_agree_on_identity(self):
        session = build_session()
        session.query_log = QueryLog()
        session.recorder = FlightRecorder()
        session.query(TYPE_J_SQL + "  ")  # trailing whitespace canonicalizes
        entry = session.query_log.entries[-1]
        event = session.recorder.events()[-1]
        expected = fingerprint_sql(TYPE_J_SQL)
        assert entry.fingerprint == event.fingerprint == expected
        assert entry.sql == event.sql == canonicalize_sql(TYPE_J_SQL)


# ----------------------------------------------------------------------
# The flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_evicts_oldest_but_totals_survive(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(7):
            recorder.record(f"SELECT R.K FROM R WHERE R.V > {i}")
        assert len(recorder) == 3
        assert recorder.recorded_total == 7
        assert [e.seq for e in recorder.events()] == [5, 6, 7]
        assert len(recorder.events(last=2)) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_jsonl_round_trips_and_ends_with_a_newline(self):
        recorder = FlightRecorder()
        assert recorder.to_jsonl() == ""  # empty ring, no stray newline
        recorder.record("SELECT R.K FROM R WHERE R.V > 1")
        recorder.record("SELECT R.K FROM R WHERE R.V > 2")
        text = recorder.to_jsonl()
        assert text.endswith("\n")
        payloads = [json.loads(line) for line in text.splitlines()]
        assert [p["seq"] for p in payloads] == [1, 2]
        assert all(p["template"].endswith("R.V > ?") for p in payloads)

    def test_dump_jsonl_writes_every_retained_event(self, tmp_path):
        session = build_session()
        session.recorder = FlightRecorder()
        for _ in range(3):
            session.query(TYPE_J_SQL)
        path = tmp_path / "events.jsonl"
        assert session.recorder.dump_jsonl(path) == 3
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        event = json.loads(lines[-1])
        assert event["strategy"] and event["fingerprint"]

    def test_session_events_carry_plan_and_cache_details(self):
        session = build_session()
        session.recorder = FlightRecorder()
        session.query(TYPE_J_SQL)
        session.query(TYPE_J_SQL)
        first, second = session.recorder.events()
        assert first.plan_cache == "miss" and second.plan_cache == "hit"
        assert first.strategy == second.strategy != ""
        assert first.nesting == "J"
        assert first.page_reads > 0
        assert first.modelled_seconds > 0.0
        assert first.q_errors  # the session stamps per-join q-errors

    def test_top_groups_same_statement_across_literals(self):
        # The \top acceptance shape: four literal bindings of one
        # statement shape land in a single per-fingerprint row.
        session = build_session()
        session.recorder = FlightRecorder()
        for i in range(4):
            session.query(f"SELECT R.K FROM R WHERE R.V > {i}")
        summaries = session.recorder.top()
        assert len(summaries) == 1
        (summary,) = summaries
        assert summary.count == 4
        assert summary.template == "SELECT R.K FROM R WHERE R.V > ?"
        rendered = session.recorder.render_top()
        assert "4 recorded" in rendered
        assert "n=4" in rendered and summary.fingerprint in rendered

    def test_top_orders_by_modelled_cost(self):
        session = build_session()
        session.recorder = FlightRecorder()
        session.query("SELECT R.K FROM R WHERE R.V > 1")
        for _ in range(3):
            session.query(TYPE_J_SQL)  # join: strictly more modelled I/O
        top = session.recorder.top(k=2)
        assert len(top) == 2
        assert top[0].template == statement_template(TYPE_J_SQL)
        assert top[0].total_modelled_seconds >= top[1].total_modelled_seconds

    def test_failed_query_records_the_typed_error_name(self):
        # A disk that fails every read past the retry budget: the query
        # escapes with a typed storage error, and the recorder keeps the
        # exception class name on the event.
        plan = FaultPlan(transient_read_rate=1.0, transient_burst=8)
        disk = FaultyDisk(plan, page_size=512, armed=False)
        rng = random.Random(11)
        session = StorageSession(buffer_pages=16, page_size=512, disk=disk)
        session.register("R", make_relation(rng, 30, 0))
        session.register("S", make_relation(rng, 30, 1000))
        disk.armed = True
        session.recorder = FlightRecorder()
        with pytest.raises(FuzzyQueryError):
            session.query(TYPE_J_SQL)
        event = session.recorder.events()[-1]
        assert event.outcome != "ok"
        assert event.error == "TransientIOError"
        summary = session.recorder.by_fingerprint()[event.fingerprint]
        assert summary.errors == 1

    def test_recorder_alone_forces_collection_without_perturbing_counters(self):
        # Zero-overhead contract, recorder edition: attaching only a
        # recorder turns collection on (events carry real counters) and
        # the counters match a plain session's collector exactly.
        plain, recorded = build_session(), build_session()
        recorded.recorder = FlightRecorder()
        baseline = QueryMetrics()
        plain.query(TYPE_J_SQL, metrics=baseline)
        recorded.query(TYPE_J_SQL)
        event = recorded.recorder.events()[-1]
        total = baseline.stats.total
        assert (
            event.page_reads, event.page_writes, event.crisp_comparisons,
            event.fuzzy_evaluations, event.tuple_moves, event.io_retries,
        ) == (
            total.page_reads, total.page_writes, total.crisp_comparisons,
            total.fuzzy_evaluations, total.tuple_moves, total.io_retries,
        )


# ----------------------------------------------------------------------
# The windowed time series
# ----------------------------------------------------------------------
class TestTimeSeries:
    def test_snapshot_diffs_the_registry_between_windows(self):
        session = build_session()
        session.registry = MetricsRegistry()
        ts = TimeSeries(session.registry, at=0.0)
        for _ in range(5):
            session.query(TYPE_J_SQL)
        first = ts.snapshot(at=10.0)
        assert first.queries == 5
        assert first.queries_per_second == pytest.approx(0.5)
        assert first.delta("plan_cache_misses_total") == 1
        assert first.delta("plan_cache_hits_total") == 4
        second = ts.snapshot(at=12.0)
        assert second.queries == 0  # nothing ran in the second window
        merged = ts.merged()
        assert merged.queries == 5
        assert merged.start == 0.0 and merged.end == 12.0

    def test_ring_keeps_the_last_capacity_windows(self):
        registry = MetricsRegistry()
        ts = TimeSeries(registry, capacity=2, at=0.0)
        for i in range(1, 4):
            ts.snapshot(at=float(i))
        assert len(ts) == 2
        assert ts.snapshots_total == 3
        assert [w.end for w in ts.windows()] == [2.0, 3.0]
        assert len(ts.windows(last=1)) == 1

    def test_window_rates_from_synthetic_deltas(self):
        window = Window(0.0, 60.0, {
            "queries": 120.0,
            "queries_degraded_total": 6.0,
            "shard_failovers_total": 30.0,
            "queries_failed_total": 2.0,
            "queries_timeout_total": 1.0,
            "plan_cache_hits_total": 90.0,
            "plan_cache_misses_total": 30.0,
            "join_q_error_sum": 240.0,
            "join_q_error_count": 120.0,
        })
        assert window.duration == 60.0
        assert window.queries_per_second == pytest.approx(2.0)
        assert window.degraded_rate == pytest.approx(0.05)
        assert window.failover_rate == pytest.approx(0.25)
        assert window.error_rate == pytest.approx(0.025)
        assert window.cache_hit_rate == pytest.approx(0.75)
        assert window.mean_q_error == pytest.approx(2.0)

    def test_empty_window_rates_are_zero_or_undefined(self):
        window = Window(5.0, 5.0, {})
        assert window.queries_per_second == 0.0
        assert window.degraded_rate == 0.0
        assert window.cache_hit_rate is None
        assert window.mean_q_error is None
        assert window.shard_skew == 1.0
        assert window.latency_quantile(0.95) == 0.0

    def test_shard_io_and_skew_fold_reads_and_writes(self):
        window = Window(0.0, 1.0, {
            "shard_page_reads:0": 10.0,
            "shard_page_writes:0": 10.0,
            "shard_page_reads:1": 30.0,
            "shard_page_writes:1": 30.0,
        })
        assert window.shard_io() == {"0": 20.0, "1": 60.0}
        assert window.shard_skew == pytest.approx(1.5)  # 60 / mean(40)
        # One active shard: skew undefined, reported as balanced.
        single = Window(0.0, 1.0, {"shard_page_reads:0": 10.0})
        assert single.shard_skew == 1.0

    def test_latency_quantile_interpolates_bucket_deltas(self):
        registry = MetricsRegistry()
        ts = TimeSeries(registry, at=0.0)
        for wall in (0.001, 0.001, 0.001, 0.009):
            registry.observe(QueryMetrics(), wall_seconds=wall)
        window = ts.snapshot(at=1.0)
        # Three of four observations sit at or below the 1ms bound.
        assert window.latency_quantile(0.5) <= 0.001
        assert 0.001 < window.latency_quantile(0.99) <= 0.01

    def test_lifetime_window_exposes_raw_totals(self):
        session = build_session()
        session.registry = MetricsRegistry()
        for _ in range(3):
            session.query(TYPE_J_SQL)
        window = lifetime_window(session.registry)
        assert window.queries == 3
        assert window.duration == 0.0
        assert window.delta("page_reads_total") > 0


# ----------------------------------------------------------------------
# Health rules
# ----------------------------------------------------------------------
def healthy_window(**overrides):
    deltas = {
        "queries": 100.0,
        "plan_cache_hits_total": 90.0,
        "plan_cache_misses_total": 10.0,
    }
    deltas.update(overrides)
    return Window(0.0, 60.0, deltas)


class TestHealthRules:
    def test_clean_window_is_ok_on_every_signal(self):
        report = evaluate_health(healthy_window())
        assert report.ok and report.level == "ok"
        assert {s.level for s in report.signals} == {"ok"}
        assert report.queries == 100.0 and report.duration == 60.0

    def test_degraded_rate_warns_then_goes_critical(self):
        warn = evaluate_health(healthy_window(queries_degraded_total=10.0))
        assert warn.signal("degraded-rate").level == "warn"
        assert warn.level == "warn"
        critical = evaluate_health(healthy_window(queries_degraded_total=60.0))
        assert critical.signal("degraded-rate").level == "critical"
        assert critical.level == "critical"

    def test_any_failover_warns(self):
        report = evaluate_health(healthy_window(shard_failovers_total=1.0))
        assert report.signal("failover-rate").level == "warn"

    def test_error_rate_counts_failures_timeouts_and_cancellations(self):
        report = evaluate_health(healthy_window(
            queries_failed_total=10.0,
            queries_timeout_total=10.0,
            queries_cancelled_total=10.0,
        ))
        signal = report.signal("error-rate")
        assert signal.value == pytest.approx(0.3)
        assert signal.level == "critical"  # above the 25% default

    def test_shard_skew_thresholds(self):
        hot = healthy_window(**{
            "shard_page_reads:0": 10.0, "shard_page_reads:1": 90.0,
        })
        report = evaluate_health(hot)
        assert report.signal("shard-skew").value == pytest.approx(1.8)
        assert report.signal("shard-skew").level == "ok"
        report = evaluate_health(
            hot, HealthThresholds(shard_skew_warn=1.5)
        )
        assert report.signal("shard-skew").level == "warn"

    def test_q_error_drift_grades_the_window_mean(self):
        drifted = healthy_window(
            join_q_error_sum=2000.0, join_q_error_count=100.0
        )
        report = evaluate_health(drifted)
        assert report.signal("q-error-drift").level == "critical"
        silent = evaluate_health(healthy_window())
        assert silent.signal("q-error-drift").level == "ok"
        assert "no q-error observations" in silent.signal("q-error-drift").message

    def test_cache_floor_needs_enough_lookups_to_judge(self):
        # 4 lookups < the default minimum of 8: not judged, stays ok.
        sparse = Window(0.0, 1.0, {
            "queries": 4.0,
            "plan_cache_hits_total": 0.0,
            "plan_cache_misses_total": 4.0,
        })
        report = evaluate_health(sparse)
        assert report.signal("cache-hit-floor").level == "ok"
        assert "too few" in report.signal("cache-hit-floor").message
        cold = healthy_window(
            plan_cache_hits_total=2.0, plan_cache_misses_total=8.0
        )
        assert evaluate_health(cold).signal("cache-hit-floor").level == "warn"
        frozen = healthy_window(
            plan_cache_hits_total=0.0, plan_cache_misses_total=20.0
        )
        assert (
            evaluate_health(frozen).signal("cache-hit-floor").level
            == "critical"
        )

    def test_render_leads_with_the_folded_level(self):
        report = evaluate_health(healthy_window(queries_degraded_total=10.0))
        text = report.render()
        assert text.startswith("health: warn (100 queries over 60.0s)")
        assert "[    warn] degraded-rate:" in text
        assert text.count("\n") == 6  # header + six rule lines


# ----------------------------------------------------------------------
# Health end to end: clean vs chaos (the acceptance pair)
# ----------------------------------------------------------------------
class TestHealthEndToEnd:
    def test_clean_repeated_workload_reports_ok(self):
        session = build_session()
        session.registry = MetricsRegistry()
        for _ in range(10):
            session.query(TYPE_J_SQL)
        report = session.health()
        assert report.ok, report.render()
        # Enough lookups that the cache floor was actually judged.
        assert "hit rate" in report.signal("cache-hit-floor").message

    def test_chaos_workload_flags_degraded_and_failover(self):
        session = build_sharded_chaos(dead=(1,))
        session.registry = MetricsRegistry()
        session.recorder = FlightRecorder()
        for _ in range(3):
            session.query(TYPE_J_SQL)
        report = session.health()
        assert not report.ok
        assert report.signal("degraded-rate").level in ("warn", "critical")
        assert report.signal("failover-rate").level in ("warn", "critical")
        # The flight recorder saw the same story, per shard.
        event = session.recorder.events()[-1]
        assert event.degraded and event.shard_failovers > 0
        assert any(sh.failovers > 0 for sh in event.shards)

    def test_health_uses_the_timeseries_when_attached(self):
        session = build_session()
        session.registry = MetricsRegistry()
        session.timeseries = TimeSeries(session.registry, at=0.0)
        for _ in range(4):
            session.query(TYPE_J_SQL)
        session.timeseries.snapshot(at=30.0)
        report = session.health()
        assert report.queries == 4
        assert report.duration == 30.0  # window span, not lifetime

    def test_health_without_sinks_raises_a_typed_error(self):
        session = build_session()
        with pytest.raises(FuzzyQueryError):
            session.health()

    def test_db_facade_records_failed_queries(self):
        # The DB twin of the session's failed-query test: the shared
        # lifecycle folds a raising query into the registry and the
        # recorder, so health() counts it.
        db = FuzzyDatabase()
        db.execute("CREATE TABLE R (K NUMERIC, V NUMERIC)")
        db.execute("INSERT INTO R VALUES (1, 5), (2, 6)")
        db.registry = MetricsRegistry()
        db.recorder = FlightRecorder()
        db.query("SELECT R.K FROM R WHERE R.V > 5")
        with pytest.raises(DatabaseError) as raised:
            db.query("DROP TABLE R")
        assert isinstance(raised.value, FuzzyQueryError)
        assert db.registry.queries_failed_total == 1
        text = db.registry.render_prometheus()
        assert 'fuzzysql_errors_total{type="DatabaseError"} 1' in text
        event = db.recorder.events()[-1]
        assert event.outcome == "error" and event.error == "DatabaseError"
        report = db.health()
        assert report.queries == 2
        assert "R" in db  # the rejected statement did not run

    def test_db_facade_health_and_recorder(self):
        db = FuzzyDatabase()
        db.execute("CREATE TABLE R (K NUMERIC, V NUMERIC)")
        db.execute("INSERT INTO R VALUES (1, 5), (2, 6)")
        with pytest.raises(DatabaseError):
            db.health()
        db.registry = MetricsRegistry()
        db.recorder = FlightRecorder()
        for i in range(3):
            db.query(f"SELECT R.K FROM R WHERE R.V > {i}")
        report = db.health()
        assert report.queries == 3
        assert report.signal("error-rate").level == "ok"
        assert len(db.recorder.top()) == 1  # one template, three literals


# ----------------------------------------------------------------------
# Query log: ring, slow boundary, fingerprint groups
# ----------------------------------------------------------------------
class TestQueryLogRing:
    def test_ring_wraps_at_capacity_and_totals_survive(self):
        log = QueryLog(capacity=4)
        for i in range(10):
            log.record(f"SELECT R.K FROM R WHERE R.K = {i}", rows=1)
        assert len(log) == 4
        assert log.recorded_total == 10
        # Oldest evicted first: the retained tail is the last four.
        kept = [e.sql for e in log.entries]
        assert kept == [
            f"SELECT R.K FROM R WHERE R.K = {i}" for i in (6, 7, 8, 9)
        ]
        assert "10 recorded (4 retained)" in log.summarize()

    def test_slow_threshold_boundary_is_inclusive(self):
        log = QueryLog(slow_threshold_seconds=0.1)
        log.record("SELECT R.K FROM R", wall_seconds=0.0999)
        assert log.slow_total == 0
        log.record("SELECT R.K FROM R", wall_seconds=0.1)  # exactly at
        assert log.slow_total == 1
        log.record("SELECT R.K FROM R", wall_seconds=0.3)
        assert log.slow_total == 2
        assert [e.wall_seconds for e in log.slow()] == [0.3, 0.1]

    def test_summarize_groups_statements_by_fingerprint(self):
        log = QueryLog()
        for i in range(3):
            log.record(f"SELECT R.K FROM R WHERE R.V > {i}", wall_seconds=0.01)
        log.record("SELECT R.K FROM R", wall_seconds=0.001)
        groups = log.by_fingerprint()
        assert len(groups) == 2
        assert sorted(len(v) for v in groups.values()) == [1, 3]
        text = log.summarize()
        assert "top 2 statements by total wall time:" in text
        # The repeated shape dominates total wall time, so it leads.
        lines = text.splitlines()
        top_line = lines[lines.index("top 2 statements by total wall time:") + 1]
        assert "n=3" in top_line


# ----------------------------------------------------------------------
# Exposition completeness and the prefix filter
# ----------------------------------------------------------------------
class TestExposition:
    def test_every_scalar_counter_is_exposed_with_help_and_type(self):
        registry = MetricsRegistry()
        text = registry.render_prometheus()
        scalars = [
            name for name, value in vars(registry).items()
            if isinstance(value, (int, float)) and not name.startswith("_")
        ]
        assert "shard_failovers_total" in scalars  # sanity: new counters seen
        assert "queries_degraded_total" in scalars
        for name in scalars:
            qualified = f"fuzzysql_{name}"
            assert f"# HELP {qualified} " in text, name
            assert f"# TYPE {qualified} counter" in text, name
            assert f"\n{qualified} " in text, name

    def test_every_taxonomy_error_renders_in_the_errors_family(self):
        import repro.errors as errors_module

        registry = MetricsRegistry()
        for name in errors_module.__all__:
            registry.count_error(name)
        text = registry.render_prometheus()
        assert "# HELP fuzzysql_errors_total " in text
        for name in errors_module.__all__:
            assert f'fuzzysql_errors_total{{type="{name}"}} 1' in text, name

    def test_labelled_families_and_histogram_are_exposed(self):
        registry = MetricsRegistry()
        text = registry.render_prometheus()
        for family in (
            "queries_total", "nesting_total", "rewrites_total",
            "operator_rows_total", "shard_page_reads_total",
            "shard_page_writes_total",
        ):
            assert f"# HELP fuzzysql_{family} " in text, family
        assert "# TYPE fuzzysql_query_seconds histogram" in text
        assert 'fuzzysql_query_seconds_bucket{le="+Inf"} 0' in text
        assert "fuzzysql_query_seconds_count 0" in text

    def test_name_prefix_filter_slices_the_exposition(self):
        session = build_session()
        session.registry = MetricsRegistry()
        session.query(TYPE_J_SQL)
        filtered = session.registry.render_prometheus(name_prefix="shard")
        assert filtered.strip()
        for line in filtered.splitlines():
            name = line.split(" ", 2)[2].split(" ", 1)[0] if line.startswith("#") \
                else line.split("{", 1)[0].split(" ", 1)[0]
            assert name.startswith("fuzzysql_shard"), line
        # The namespace-qualified spelling selects the same slice.
        assert filtered == session.registry.render_prometheus(
            name_prefix="fuzzysql_shard"
        )
        assert "fuzzysql_page_reads_total" in session.registry.render_prometheus()
        assert "fuzzysql_page_reads_total" not in filtered


# ----------------------------------------------------------------------
# Shell meta-commands
# ----------------------------------------------------------------------
class TestShellMetaCommands:
    def build_shell(self):
        shell = FuzzyShell(build_session())
        for i in range(3):
            shell.execute(f"SELECT R.K FROM R WHERE R.V > {i}")
        return shell

    def test_top_groups_by_fingerprint(self):
        shell = self.build_shell()
        out = shell.execute("\\top")
        assert out.startswith("flight recorder: 3 recorded")
        assert "n=3" in out and "R.V > ?" in out
        assert len(out.splitlines()) == 2  # header + the single group

    def test_top_honours_the_k_argument(self):
        shell = self.build_shell()
        shell.execute("SELECT R.K FROM R")
        assert "top 1 by modelled cost" in shell.execute("\\top 1")

    def test_health_renders_the_report(self):
        shell = self.build_shell()
        out = shell.execute("\\health")
        assert out.startswith("health: ")
        assert "degraded-rate" in out and "cache-hit-floor" in out

    def test_events_returns_parseable_jsonl(self):
        shell = self.build_shell()
        lines = shell.execute("\\events 2").splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["seq"] for line in lines] == [2, 3]

    def test_metrics_accepts_a_prefix_argument(self):
        shell = self.build_shell()
        out = shell.execute("\\metrics plan_cache")
        assert "fuzzysql_plan_cache_hits_total" in out
        assert "fuzzysql_page_reads_total" not in out

    def test_help_lists_the_new_commands(self):
        shell = FuzzyShell(build_session())
        out = shell.execute("\\help")
        for command in ("\\top", "\\health", "\\events", "\\metrics"):
            assert command in out
