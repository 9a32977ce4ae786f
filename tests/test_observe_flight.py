"""The workload observability surface: fingerprints, flight recorder,
event rates, and the health report.

Covers statement canonicalization and template fingerprinting (shared
with the plan cache, so cache / recorder / analytics can never disagree
about statement identity), the bounded :class:`FlightRecorder` ring and
its JSONL export, per-fingerprint top-K aggregation, the rates
:func:`evaluate_health` computes from a list of query events and its
threshold rules, the slow-query report's ring and slow-boundary
semantics, Prometheus exposition completeness and prefix filtering, and
the shell meta-commands ``\\top`` / ``\\health`` / ``\\events``.
"""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import normalize_sql
from repro.data import FuzzyRelation, FuzzyTuple, Schema
from repro.db import DatabaseError, FuzzyDatabase
from repro.errors import FuzzyQueryError, QueryCancelledError
from repro.faults import FaultPlan, FaultyDisk
from repro.fuzzy import CrispNumber, TrapezoidalNumber
from repro.observe import (
    FlightRecorder,
    HealthThresholds,
    MetricsRegistry,
    QueryMetrics,
    ShardIO,
    build_event,
    canonicalize_sql,
    evaluate_health,
    fingerprint,
    fingerprint_sql,
    statement_template,
)
from repro.resilience import CancelToken
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
        # The slow-query report and \\top read the recorder's events, so
        # the event's identity is the only one there is.
        session = build_session()
        session.recorder = FlightRecorder()
        session.query(TYPE_J_SQL + "  ")  # trailing whitespace canonicalizes
        event = session.recorder.events()[-1]
        assert event.fingerprint == fingerprint_sql(TYPE_J_SQL)
        assert event.sql == canonicalize_sql(TYPE_J_SQL)
        assert event.template == statement_template(TYPE_J_SQL)
        summary = session.recorder.by_fingerprint()[event.fingerprint]
        assert summary.template in session.recorder.summarize()


# ----------------------------------------------------------------------
# The flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_evicts_oldest_but_totals_survive(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(7):
            recorder.record(build_event(f"SELECT R.K FROM R WHERE R.V > {i}"))
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
        recorder.record(build_event("SELECT R.K FROM R WHERE R.V > 1"))
        recorder.record(build_event("SELECT R.K FROM R WHERE R.V > 2"))
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
        assert dict(first.operator_rows)["MaxFold"] > 0  # counted per operator kind

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

    def test_run_batch_events_carry_their_own_plans_counts(self):
        # Under run_batch(workers=4) other threads replace the session's
        # shared last_plan mid-query; every event must still carry the
        # counts of the plan that produced it, as the serial run does.
        shapes = [
            TYPE_J_SQL,
            "SELECT R.K FROM R WHERE R.U IN (SELECT S.V FROM S WHERE S.K = R.K)",
            "SELECT R.K FROM R WHERE R.V NOT IN (SELECT S.V FROM S WHERE S.U = R.U)",
            "SELECT R.K FROM R WHERE R.V > 3",  # no join
        ]

        def counts(event):
            return event.strategy, event.operator_rows, event.page_reads

        serial = build_session()
        serial.recorder = FlightRecorder()
        for sql in shapes:
            serial.query(sql)
        expected = {e.sql: counts(e) for e in serial.recorder.events()}
        assert len(set(expected.values())) == len(shapes)
        batch = build_session()
        batch.recorder = FlightRecorder()
        batch.run_batch(shapes * 75, workers=4)
        events = batch.recorder.events()
        assert len(events) == 300
        assert [e.sql for e in events if counts(e) != expected[e.sql]] == []

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
# Two sinks, one event: registry and recorder agree by construction
# ----------------------------------------------------------------------
#: Each operation runs one statement on the FaultyDisk session of
#: :func:`agreement_session` with the given fault plan armed (``None``:
#: disarmed) and ends with the given outcome.
AGREEMENT_OPS = {
    "ok": (None, "ok"),
    "cached": (None, "ok"),
    "prepared": (None, "ok"),
    "retried": (lambda: FaultPlan(seed=3, transient_read_rate=0.2, transient_burst=2), "ok"),
    "degraded": (lambda: FaultPlan(disk_capacity_pages=1), "ok"),
    "failed": (lambda: FaultPlan(torn_write_rate=1.0), "error"),
    "timeout": (lambda: FaultPlan(latency_spike_rate=1.0, latency_spike_seconds=5.0), "timeout"),
}


def agreement_session():
    disk = FaultyDisk(FaultPlan(), page_size=512, armed=False)
    rng = random.Random(11)
    session = StorageSession(buffer_pages=16, page_size=512, disk=disk)
    session.register("R", make_relation(rng, 20, 0))
    session.register("S", make_relation(rng, 20, 1000))
    session.registry = MetricsRegistry()
    session.recorder = FlightRecorder()
    return session


def run_agreement_op(session, prepared, op, i):
    make_plan, outcome = AGREEMENT_OPS[op]
    if make_plan is not None:
        session.disk.plan = make_plan()
        session.disk.armed = True
    try:
        if op == "ok":
            session.query(f"SELECT R.K FROM R WHERE R.V > {i}")
        elif op == "prepared":
            prepared.execute()
        elif op == "timeout":
            session.query(TYPE_J_SQL, timeout_ms=20)
        else:
            session.query(TYPE_J_SQL)
    except FuzzyQueryError:
        assert outcome != "ok", op
    else:
        assert outcome == "ok", op
    finally:
        session.disk.armed = False


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(sorted(AGREEMENT_OPS)), min_size=1, max_size=8))
def test_registry_and_recorder_agree_by_construction(ops):
    session = agreement_session()
    prepared = session.prepare(TYPE_J_SQL)
    for i, op in enumerate(ops):
        run_agreement_op(session, prepared, op, i)
    registry, events = session.registry, session.recorder.events()
    assert registry.queries_total == session.recorder.recorded_total == len(ops)
    assert [e.outcome for e in events] == [AGREEMENT_OPS[op][1] for op in ops]
    totals = {
        "page_reads_total": sum(e.page_reads for e in events),
        "page_writes_total": sum(e.page_writes for e in events),
        "fuzzy_evaluations_total": sum(e.fuzzy_evaluations for e in events),
        "io_retries_total": sum(e.io_retries for e in events),
        "queries_degraded_total": sum(e.degraded for e in events),
        "queries_failed_total": sum(e.outcome == "error" for e in events),
        "queries_timeout_total": sum(e.outcome == "timeout" for e in events),
        "prepared_executions_total": sum(e.prepared for e in events),
        "plan_cache_hits_total": sum(e.plan_cache == "hit" for e in events),
    }
    assert {name: getattr(registry, name) for name in totals} == totals
    if "degraded" in ops:
        assert registry.queries_degraded_total > 0
    if "retried" in ops:
        assert registry.io_retries_total > 0


# ----------------------------------------------------------------------
# Rates over a window of events
# ----------------------------------------------------------------------
def event(**fields):
    """A synthetic query event: an empty statement's with ``fields`` set."""
    return replace(build_event("SELECT R.K FROM R"), **fields)


def healthy_window(n=100, hits=90, misses=10):
    """``n`` clean events, the first ``hits + misses`` of them cache lookups."""
    caches = ["hit"] * hits + ["miss"] * misses
    return [event(plan_cache=caches[i] if i < len(caches) else "") for i in range(n)]


def mark(events, count, **fields):
    """``events`` with ``fields`` set on the first ``count`` of them."""
    return [replace(e, **fields) if i < count else e for i, e in enumerate(events)]


def shard_event(*io):
    """An event whose shard ``i`` read and wrote ``io[i]`` pages each."""
    return event(shards=tuple(ShardIO(i, 0, n, n, 0) for i, n in enumerate(io)))


class TestTimeSeries:
    """The recorder's ring is the workload's time series: a window is a
    run of its events, and every rate is computed from the events."""

    def test_window_rates_from_synthetic_deltas(self):
        outcomes = ["error"] * 2 + ["timeout"]
        events = healthy_window(n=120, hits=90, misses=30)
        events = [
            replace(
                e,
                degraded=i < 6,
                shard_failovers=1 if i < 30 else 0,
                outcome=outcomes[i] if i < len(outcomes) else "ok",
            )
            for i, e in enumerate(events)
        ]
        report = evaluate_health(events)
        assert report.queries == 120
        assert report.signal("degraded-rate").value == pytest.approx(0.05)
        assert report.signal("failover-rate").value == pytest.approx(0.25)
        assert report.signal("error-rate").value == pytest.approx(0.025)
        assert report.signal("cache-hit-floor").value == pytest.approx(0.75)

    def test_empty_window_rates_are_zero_or_undefined(self):
        report = evaluate_health([])
        assert report.queries == 0 and report.ok
        assert report.signal("degraded-rate").value == 0.0
        assert report.signal("error-rate").value == 0.0
        assert report.signal("shard-skew").value == 1.0
        assert "too few" in report.signal("cache-hit-floor").message

    def test_shard_io_and_skew_fold_reads_and_writes(self):
        # Shard 0 moved 10 + 10 pages, shard 1 30 + 30, over two events.
        skewed = [shard_event(10, 0), shard_event(0, 30)]
        assert evaluate_health(skewed).signal("shard-skew").value == pytest.approx(1.5)
        # One active shard: skew undefined, reported as balanced.
        single = [shard_event(10)]
        assert evaluate_health(single).signal("shard-skew").value == 1.0


# ----------------------------------------------------------------------
# Health rules
# ----------------------------------------------------------------------
class TestHealthRules:
    def test_clean_window_is_ok_on_every_signal(self):
        report = evaluate_health(healthy_window())
        assert report.ok and report.level == "ok"
        assert {s.level for s in report.signals} == {"ok"}
        assert report.queries == 100

    def test_degraded_rate_warns_then_goes_critical(self):
        warn = evaluate_health(mark(healthy_window(), 10, degraded=True))
        assert warn.signal("degraded-rate").level == "warn"
        assert warn.level == "warn"
        critical = evaluate_health(mark(healthy_window(), 60, degraded=True))
        assert critical.signal("degraded-rate").level == "critical"
        assert critical.level == "critical"

    def test_any_failover_warns(self):
        report = evaluate_health(mark(healthy_window(), 1, shard_failovers=1))
        assert report.signal("failover-rate").level == "warn"

    def test_error_rate_counts_failures_timeouts_and_cancellations(self):
        outcomes = ["error"] * 10 + ["timeout"] * 10 + ["cancelled"] * 10
        events = [
            replace(e, outcome=outcomes[i] if i < len(outcomes) else "ok")
            for i, e in enumerate(healthy_window())
        ]
        signal = evaluate_health(events).signal("error-rate")
        assert signal.value == pytest.approx(0.3)
        assert signal.level == "critical"  # above the 25% default

    def test_shard_skew_thresholds(self):
        hot = [shard_event(5, 45), *healthy_window()]
        report = evaluate_health(hot)
        assert report.signal("shard-skew").value == pytest.approx(1.8)
        assert report.signal("shard-skew").level == "ok"
        report = evaluate_health(
            hot, HealthThresholds(shard_skew_warn=1.5)
        )
        assert report.signal("shard-skew").level == "warn"

    def test_cache_floor_needs_enough_lookups_to_judge(self):
        # 4 lookups < the default minimum of 8: not judged, stays ok.
        sparse = healthy_window(n=4, hits=0, misses=4)
        report = evaluate_health(sparse)
        assert report.signal("cache-hit-floor").level == "ok"
        assert "too few" in report.signal("cache-hit-floor").message
        cold = healthy_window(hits=2, misses=8)
        assert evaluate_health(cold).signal("cache-hit-floor").level == "warn"
        frozen = healthy_window(hits=0, misses=20)
        assert (
            evaluate_health(frozen).signal("cache-hit-floor").level
            == "critical"
        )

    def test_render_leads_with_the_folded_level(self):
        report = evaluate_health(mark(healthy_window(), 10, degraded=True))
        text = report.render()
        assert text.startswith("health: warn (100 queries)")
        assert "[    warn] degraded-rate:" in text
        assert text.count("\n") == 5  # header + five rule lines


# ----------------------------------------------------------------------
# Health end to end: clean vs chaos (the acceptance pair)
# ----------------------------------------------------------------------
def signals(report):
    return [(s.name, s.level, pytest.approx(s.value)) for s in report.signals]


class TestHealthEndToEnd:
    def test_clean_repeated_workload_reports_ok(self):
        session = build_session()
        session.recorder = FlightRecorder()
        for _ in range(10):
            session.query(TYPE_J_SQL)
        report = session.health()
        assert report.ok, report.render()
        # Enough lookups that the cache floor was actually judged.
        assert "hit rate" in report.signal("cache-hit-floor").message
        assert report.queries == 10
        assert signals(report) == [
            ("degraded-rate", "ok", 0.0),
            ("failover-rate", "ok", 0.0),
            ("error-rate", "ok", 0.0),
            ("shard-skew", "ok", 1.0),
            ("cache-hit-floor", "ok", 0.9),
        ]

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
        assert signals(report) == [
            ("degraded-rate", "critical", 1.0),
            ("failover-rate", "critical", 6.0),
            ("error-rate", "ok", 0.0),
            ("shard-skew", "ok", 1.1172413793103448),
            ("cache-hit-floor", "ok", 1.0),
        ]
        # The flight recorder saw the same story, per shard.
        event = session.recorder.events()[-1]
        assert event.degraded and event.shard_failovers > 0
        assert any(sh.failovers > 0 for sh in event.shards)

    def test_health_judges_the_last_n_events(self):
        session = build_session()
        session.recorder = FlightRecorder()
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            session.query(TYPE_J_SQL, cancel=token)
        for _ in range(4):
            session.query(TYPE_J_SQL)
        whole = session.health()
        assert whole.queries == 5
        assert whole.signal("error-rate").value == pytest.approx(0.2)
        recent = session.health(last=4)
        assert recent.queries == 4
        assert recent.signal("error-rate").value == 0.0

    def test_health_without_sinks_raises_a_typed_error(self):
        session = build_session()
        with pytest.raises(FuzzyQueryError):
            session.health()
        # Lifetime counters alone are not judged: health reads the events.
        session.registry = MetricsRegistry()
        session.query(TYPE_J_SQL)
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
# The slow-query report: ring, slow boundary, fingerprint groups
# ----------------------------------------------------------------------
class TestQueryLogRing:
    def test_ring_wraps_at_capacity_and_totals_survive(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record(build_event(f"SELECT R.K FROM R WHERE R.K = {i}", rows=1))
        assert len(recorder) == 4
        assert recorder.recorded_total == 10
        # Oldest evicted first: the retained tail is the last four.
        kept = [e.sql for e in recorder.events()]
        assert kept == [
            f"SELECT R.K FROM R WHERE R.K = {i}" for i in (6, 7, 8, 9)
        ]
        assert "10 recorded (4 retained)" in recorder.summarize()

    def test_slow_threshold_boundary_is_inclusive(self):
        recorder = FlightRecorder()
        for wall in (0.0999, 0.1, 0.3):  # below, exactly at, above
            recorder.record(build_event("SELECT R.K FROM R", wall_seconds=wall))
        assert [e.wall_seconds for e in recorder.slow(0.1)] == [0.3, 0.1]
        assert "2 slow (>= 100ms)" in recorder.summarize(slow_threshold=0.1)
        assert recorder.slow(0.3001) == []

    def test_summarize_groups_statements_by_fingerprint(self):
        recorder = FlightRecorder()
        for i in range(3):
            recorder.record(
                build_event(f"SELECT R.K FROM R WHERE R.V > {i}", wall_seconds=0.01)
            )
        recorder.record(build_event("SELECT R.K FROM R", wall_seconds=0.001))
        groups = recorder.by_fingerprint()
        assert len(groups) == 2
        assert sorted(s.count for s in groups.values()) == [1, 3]
        text = recorder.summarize()
        assert "top 2 statements by total wall time:" in text
        # The repeated shape dominates total wall time, so it leads.
        lines = text.splitlines()
        top_line = lines[lines.index("top 2 statements by total wall time:") + 1]
        assert "n=3" in top_line and "R.V > ?" in top_line


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
