#!/usr/bin/env python
"""Benchmark-regression harness: one JSON trajectory per run, gated in CI.

Runs a fixed, deterministic workload set —

* paper experiments (Table 1 @ 1 MB, Fig. 3 @ C=16, Table 4 @ 512 B) on
  both evaluation methods, and
* one storage-session query per nesting type (J / JX / JALL / JA / chain)
  at a fixed seed —

and writes ``BENCH_observe.json``: per-workload *modelled* cost (the
deterministic cost-model response time), raw event counters, answer
cardinality, and wall time, plus the collector- and flight-recorder
overhead measurements (the latter hard-fails unless counters are exactly
identical with the recorder detached and attached).

``--check`` compares the fresh run against a committed baseline
(``benchmarks/BENCH_observe.json``).  Modelled cost and counters are
deterministic at a given scale, so the gate is tight; wall time is
recorded for trend plots but never gated (CI machines are noisy).

    python benchmarks/run_bench.py                      # write BENCH_observe.json
    python benchmarks/run_bench.py --check              # gate against the baseline
    python benchmarks/run_bench.py --update-baseline    # refresh the baseline
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.bench.methods import run_merge_join, run_nested_loop  # noqa: E402
from repro.bench.experiments import (  # noqa: E402
    PAGE_SIZE,
    TUPLES_PER_MB,
    _buffer_pages,
    _scaled,
    default_scale,
)
from repro.data import FuzzyRelation, FuzzyTuple, Schema  # noqa: E402
from repro.observe import FlightRecorder, MetricsRegistry, QueryMetrics  # noqa: E402
from repro.session import StorageSession  # noqa: E402
from repro.storage.costs import PAPER_1992  # noqa: E402
from repro.workload.generator import WorkloadSpec, build_workload  # noqa: E402

VERSION = 1

#: The committed baseline the ``--check`` gate compares against.
BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_observe.json")

#: Modelled seconds may drift this factor before the gate fails (they are
#: deterministic at fixed scale, so any drift is a real behaviour change;
#: the slack only absorbs intentional small cost-model adjustments).
DEFAULT_TOLERANCE = 1.5

#: Counters are gated at +/-10%.
COUNTER_TOLERANCE = 0.10

COUNTER_KEYS = (
    "page_reads",
    "page_writes",
    "crisp_comparisons",
    "fuzzy_evaluations",
    "tuple_moves",
    "io_retries",
    "index_pages_read",
)

#: One query per nesting type, over the fixed R/S/W session.
SESSION_QUERIES = {
    "session_J": "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.U = R.U)",
    "session_JX": "SELECT R.K FROM R WHERE R.V NOT IN (SELECT S.V FROM S WHERE S.U = R.U)",
    "session_JALL": "SELECT R.K FROM R WHERE R.V < ALL (SELECT S.V FROM S WHERE S.U = R.U)",
    "session_JA": "SELECT R.K FROM R WHERE R.V > (SELECT MAX(S.V) FROM S WHERE S.U = R.U)",
    "session_chain": (
        "SELECT R.K FROM R WHERE R.V IN "
        "(SELECT S.V FROM S WHERE S.K IN (SELECT W.V FROM W WHERE W.U = R.U))"
    ),
}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _counters(stats) -> dict:
    total = stats.total
    return {key: getattr(total, key) for key in COUNTER_KEYS}


def _method_workloads(scale: int) -> dict:
    """The paper-experiment slice: three shapes, both methods where sensible."""
    buffer_pages = _buffer_pages(scale)
    out = {}

    def run(name, spec, nested_loop=True):
        workload = build_workload(spec, page_size=PAGE_SIZE)
        mj = run_merge_join(workload, buffer_pages)
        out[f"{name}/merge_join"] = {
            "modelled_seconds": mj.response_seconds,
            "wall_seconds": mj.wall_seconds,
            "rows": mj.n_answers,
            "counters": _counters(mj.stats),
        }
        if nested_loop:
            nl = run_nested_loop(workload, buffer_pages)
            out[f"{name}/nested_loop"] = {
                "modelled_seconds": nl.response_seconds,
                "wall_seconds": nl.wall_seconds,
                "rows": nl.n_answers,
                "counters": _counters(nl.stats),
            }

    n_1mb = _scaled(TUPLES_PER_MB, scale)
    run("table1_1mb", WorkloadSpec(n_outer=n_1mb, n_inner=n_1mb, join_fanout=7, tuple_size=128))
    n_8mb = _scaled(8 * TUPLES_PER_MB, scale)
    run(
        "fig3_c16",
        WorkloadSpec(n_outer=n_8mb, n_inner=n_8mb, join_fanout=16, tuple_size=128),
        nested_loop=False,
    )
    n_t4 = _scaled(8000, scale)
    run("table4_512b", WorkloadSpec(n_outer=n_t4, n_inner=n_t4, join_fanout=1, tuple_size=512))
    return out


def build_session(
    seed: int = 23, n: int = 60, disk=None, shards: int = 1
) -> StorageSession:
    """The fixed R/S/W session every ``session_*`` workload runs against.

    With ``shards >= 2`` the relations are additionally placed across
    that many simulated shard disks on ``V`` (the ``sharded_J`` slice).
    """
    from repro.fuzzy import CrispNumber as N
    from repro.fuzzy import TrapezoidalNumber as T

    schema = Schema(["K", "U", "V"])
    pool = [N(0), N(5), T(0, 1, 2, 4), T(3, 5, 5, 7), T(4, 6, 8, 12)]
    rng = random.Random(seed)

    def rel(base):
        out = FuzzyRelation(schema)
        for i in range(n):
            out.add(
                FuzzyTuple(
                    [N(base + i), rng.choice(pool), rng.choice(pool)],
                    rng.choice([0.3, 0.6, 1.0]),
                )
            )
        return out

    session = StorageSession(
        buffer_pages=16, page_size=1024, disk=disk, shards=shards, shard_on="V"
    )
    session.register("R", rel(0))
    session.register("S", rel(1000))
    session.register("W", rel(2000))
    return session


def _session_workloads() -> dict:
    out = {}
    for name, sql in SESSION_QUERIES.items():
        session = build_session()
        metrics = QueryMetrics()
        started = time.perf_counter()
        result = session.query(sql, metrics=metrics)
        wall = time.perf_counter() - started
        out[name] = {
            "modelled_seconds": PAPER_1992.response_time(session.last_stats),
            "wall_seconds": wall,
            "rows": len(result),
            "strategy": session.last_strategy,
            "counters": _counters(session.last_stats),
        }
    return out


def _service_workloads() -> dict:
    """Plan-cache and concurrency slices: cached-vs-cold and 1-vs-N workers.

    ``service_cold_J`` and ``service_cached_J`` run the same type-J query
    twice on one session — the second run must be a plan-cache hit, and
    both runs are gated on identical answers and I/O counters (the cache
    must never change what a query computes).  The ``service_batch_*``
    slices run the five nesting-type queries through ``run_batch`` with 1
    and 4 workers; modelled cost and counters come from a serial
    reference pass since the parallel run does the same work.
    """
    out = {}
    sql = SESSION_QUERIES["session_J"]

    session = build_session()
    for name in ("service_cold_J", "service_cached_J"):
        metrics = QueryMetrics()
        started = time.perf_counter()
        result = session.query(sql, metrics=metrics)
        wall = time.perf_counter() - started
        counters = _counters(session.last_stats)
        counters["plan_cache_hits"] = session.plan_cache.hits
        counters["plan_cache_misses"] = session.plan_cache.misses
        out[name] = {
            "modelled_seconds": PAPER_1992.response_time(session.last_stats),
            "wall_seconds": wall,
            "rows": len(result),
            "plan_cache": metrics.plan_cache,
            "counters": counters,
        }

    batch = list(SESSION_QUERIES.values())
    reference = build_session()
    reference_counters = {key: 0 for key in COUNTER_KEYS}
    modelled = 0.0
    for query in batch:
        reference.query(query)
        modelled += PAPER_1992.response_time(reference.last_stats)
        for key, value in _counters(reference.last_stats).items():
            reference_counters[key] += value
    for name, workers in (("service_batch_w1", 1), ("service_batch_w4", 4)):
        session = build_session()
        started = time.perf_counter()
        results = session.run_batch(batch, workers=workers)
        wall = time.perf_counter() - started
        out[name] = {
            "modelled_seconds": modelled,
            "wall_seconds": wall,
            "rows": sum(len(result) for result in results),
            "counters": dict(reference_counters),
        }
    return out


def _parallel_workloads() -> dict:
    """The intra-query parallelism slice: type-J serial vs ``workers=4``.

    Both runs must return the identical answer; the ``workers=4`` run must
    actually execute the range-partitioned plan (non-empty
    ``metrics.partitions`` — a silent degrade to serial would make this
    slice meaningless).  The gated modelled cost is the *parallel*
    response time — coordinator work plus the slowest partition, via
    :meth:`CostModel.parallel_response_time` — and the partition count is
    gated as a counter, so ``--check`` fails if the partitioned plan stops
    running or its shape drifts.  Wall time is recorded, never gated.
    """
    sql = SESSION_QUERIES["session_J"]
    serial_session = build_session()
    serial = serial_session.query(sql)
    serial_modelled = PAPER_1992.response_time(serial_session.last_stats)

    session = build_session()
    metrics = QueryMetrics()
    started = time.perf_counter()
    result = session.query(sql, metrics=metrics, workers=4)
    wall = time.perf_counter() - started
    if not result.same_as(serial, 0.0):
        raise AssertionError("parallel_J: workers=4 answer differs from serial")
    if not metrics.partitions:
        raise AssertionError(
            f"parallel_J: partitioned plan did not run "
            f"(degraded: {metrics.degraded_reason})"
        )
    partition_stats = [p.stats for p in metrics.partitions if p.stats is not None]
    modelled = PAPER_1992.parallel_response_time(session.last_stats, partition_stats)
    counters = _counters(session.last_stats)
    counters["partitions"] = len(metrics.partitions)
    counters["partition_rows"] = sum(p.rows_out for p in metrics.partitions)
    # The planner's cost trajectory over partition counts: the serial cost
    # divided by n plus the measured partitioning overhead added back —
    # the curve EXPERIMENTS.md plots.  At this benchmark's deliberately
    # tiny scale the overhead term dominates (recorded, not judged);
    # the curve's *shape* is what the artifact documents.
    from repro.engine.optimizer import parallel_join_cost

    partition_phase = session.last_stats.phases.get("partition")
    overhead = (
        PAPER_1992.response_seconds(partition_phase)
        if partition_phase is not None
        else 0.0
    )
    planner_costs = {
        str(n): parallel_join_cost(serial_modelled, n, overhead)
        for n in (1, 2, 4, 8)
    }
    return {
        "parallel_J": {
            "modelled_seconds": modelled,
            "serial_modelled_seconds": serial_modelled,
            "planner_costs": planner_costs,
            "wall_seconds": wall,
            "rows": len(result),
            "strategy": session.last_strategy,
            "counters": counters,
        }
    }


def _sharded_workloads() -> dict:
    """The scatter-gather slice: type-J serial vs a 4-node sharded session.

    Both runs must return the identical answer; the sharded run must
    actually execute shard tasks (non-empty ``metrics.shards`` — a silent
    degrade to local execution would make this slice meaningless) with
    zero failovers (all nodes are healthy here; the failover path is the
    chaos suite's job).  The gated modelled cost is
    :meth:`CostModel.parallel_response_time` — coordinator work plus the
    slowest shard — and the shard count, spliced rows, and the summed
    per-shard page reads are gated as counters, so ``--check`` fails if
    the scatter-gather plan stops running or its I/O shape drifts.  Wall
    time is recorded, never gated.
    """
    sql = SESSION_QUERIES["session_J"]
    serial_session = build_session()
    serial = serial_session.query(sql)

    session = build_session(shards=4)
    metrics = QueryMetrics()
    started = time.perf_counter()
    result = session.query(sql, metrics=metrics)
    wall = time.perf_counter() - started
    if not result.same_as(serial, 0.0):
        raise AssertionError("sharded_J: shards=4 answer differs from serial")
    if not metrics.shards:
        raise AssertionError(
            f"sharded_J: scatter-gather plan did not run "
            f"(degraded: {metrics.degraded_reason})"
        )
    if metrics.shard_failovers:
        raise AssertionError(
            f"sharded_J: {metrics.shard_failovers} failover(s) on healthy nodes"
        )
    shard_stats = [sh.stats for sh in metrics.shards if sh.stats is not None]
    modelled = PAPER_1992.parallel_response_time(session.last_stats, shard_stats)
    counters = _counters(session.last_stats)
    counters["shards"] = len(metrics.shards)
    counters["shard_rows"] = sum(sh.rows_out for sh in metrics.shards)
    counters["shard_page_reads"] = sum(ws.total.page_reads for ws in shard_stats)
    return {
        "sharded_J": {
            "modelled_seconds": modelled,
            "serial_modelled_seconds": PAPER_1992.response_time(
                serial_session.last_stats
            ),
            "wall_seconds": wall,
            "rows": len(result),
            "strategy": session.last_strategy,
            "counters": counters,
        }
    }


def _fault_workloads() -> dict:
    """The retry-path slice: the type-J query under an absorbed fault schedule.

    A seeded ``FaultPlan`` injects transient read faults in bursts of 2 —
    strictly below the disk's 4-attempt retry budget — so every fault is
    absorbed and the answer must match the fault-free ``session_J`` slice.
    The schedule is deterministic, so the ``io_retries`` counter and the
    modelled cost (which charges each retried transfer at the full
    page-I/O rate) gate the retry path's overhead tightly; wall time is
    recorded but, as everywhere in this harness, never gated.
    """
    from repro.faults import FaultPlan, FaultyDisk

    plan = FaultPlan(seed=11, transient_read_rate=0.08, transient_burst=2)
    disk = FaultyDisk(plan, page_size=1024, armed=False)
    session = build_session(disk=disk)
    disk.armed = True
    started = time.perf_counter()
    result = session.query(SESSION_QUERIES["session_J"])
    wall = time.perf_counter() - started
    counters = _counters(session.last_stats)
    if counters["io_retries"] != plan.injected.transient_reads:
        raise AssertionError(
            "faulted_J: io_retries does not match the injected fault count"
        )
    return {
        "faulted_J": {
            "modelled_seconds": PAPER_1992.response_time(session.last_stats),
            "wall_seconds": wall,
            "rows": len(result),
            "strategy": session.last_strategy,
            "counters": counters,
        }
    }


#: The index slices: ``(n per relation, tables, SQL)``.
COLUMNAR_QUERIES = {
    "columnar_J": (240, ("R",), "SELECT R.K FROM R WHERE R.V = 0 WITH D >= 0.5"),
    "indexed_J": (
        60,
        ("R", "S"),
        "SELECT R.K, S.K FROM R, S WHERE R.V = S.V AND R.U = S.U WITH D >= 0.6",
    ),
}


def _columnar_session(n: int, tables, index_attr=None, seed: int = 23):
    """A session clustered on ``V`` for the columnar slices.

    Rows are inserted in support-interval order of ``V`` so the heap is
    clustered on the indexed attribute — the layout the support-interval
    index is designed for.  The row baseline is built from the *same*
    generator sequence (indexes are simply not created), so the two runs
    see byte-identical heaps and the counter comparison is fair.
    """
    from repro.fuzzy import CrispNumber as N
    from repro.fuzzy import TrapezoidalNumber as T

    schema = Schema(["K", "V", "U"])
    pool = [N(0.0), N(5.0), T(0, 1, 2, 4), T(3, 5, 5, 7), T(4, 6, 8, 12)]
    rng = random.Random(seed)

    def rel():
        rows = [
            FuzzyTuple(
                [N(float(i)), rng.choice(pool), rng.choice(pool)],
                rng.choice([0.3, 0.6, 1.0]),
            )
            for i in range(n)
        ]
        rows.sort(key=lambda t: t[1].interval())
        return FuzzyRelation(schema, rows)

    session = StorageSession(buffer_pages=16, page_size=1024)
    for name in tables:
        session.register(name, rel())
    if index_attr is not None:
        for name in tables:
            session.create_index(name, index_attr)
    return session


def _columnar_workloads() -> dict:
    """The index slices: index path vs row path, gated on what the copy does.

    ``columnar_J`` runs a selective ``WITH D >=`` threshold scan: it must
    range-scan the clustered copy (``index_pages_read`` > 0) and read
    fewer pages than the row path.  ``indexed_J`` runs a two-predicate
    band join over two clustered copies: it must write no sort page.  Each
    slice hard-fails unless the indexed answer is *bit-identical* to the
    row path's.  The row baseline's counters are committed alongside so
    the artifact records the delta; wall time is recorded, never gated.
    """
    out = {}
    for name, (n, tables, sql) in COLUMNAR_QUERIES.items():
        row_session = _columnar_session(n, tables)
        row_result = row_session.query(sql)
        row_counters = _counters(row_session.last_stats)

        session = _columnar_session(n, tables, index_attr="V")
        started = time.perf_counter()
        result = session.query(sql)
        wall = time.perf_counter() - started
        if not result.same_as(row_result, 0.0):
            raise AssertionError(f"{name}: indexed answer differs from the row path")
        counters = _counters(session.last_stats)
        sort = session.last_stats.phases.get("sort")
        counters["sort_page_writes"] = sort.page_writes if sort is not None else 0
        if name == "columnar_J" and not (
            counters["index_pages_read"] and counters["page_reads"] < row_counters["page_reads"]
        ):
            raise AssertionError(
                f"{name}: the range scan read {counters['index_pages_read']} index "
                f"pages and {counters['page_reads']} pages in all (row path: "
                f"{row_counters['page_reads']})"
            )
        if name == "indexed_J" and counters["sort_page_writes"]:
            raise AssertionError(
                f"{name}: {counters['sort_page_writes']} sort page writes over clustered copies"
            )
        counters["row_page_reads"] = row_counters["page_reads"]
        counters["row_fuzzy_evaluations"] = row_counters["fuzzy_evaluations"]
        out[name] = {
            "modelled_seconds": PAPER_1992.response_time(session.last_stats),
            "row_modelled_seconds": PAPER_1992.response_time(row_session.last_stats),
            "wall_seconds": wall,
            "rows": len(result),
            "strategy": session.last_strategy,
            "counters": counters,
        }
    return out


def measure_collector_overhead(repeats: int = 5) -> dict:
    """Wall time of the type-J query with and without a collector attached.

    Shared with ``benchmarks/test_bench_observe.py``, which emits the
    numbers into the benchmark log; here they land in the JSON artifact.
    Recorded, never gated — the structural zero-overhead *tests* are the
    gate.
    """
    sql = SESSION_QUERIES["session_J"]
    plain = build_session()
    watched = build_session()
    plain_seconds = watched_seconds = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        plain.query(sql)
        plain_seconds = min(plain_seconds, time.perf_counter() - started)
        started = time.perf_counter()
        watched.query(sql, metrics=QueryMetrics())
        watched_seconds = min(watched_seconds, time.perf_counter() - started)
    return {
        "plain_seconds": plain_seconds,
        "collector_seconds": watched_seconds,
        "overhead_ratio": watched_seconds / plain_seconds if plain_seconds else 1.0,
    }


def measure_recorder_overhead(repeats: int = 5) -> dict:
    """The flight recorder's cost: wall time with/without one attached.

    The zero-overhead-when-off proof this artifact carries: the plain
    run's event counters (page I/O, comparisons, moves) must be exactly
    equal to the recorder-attached run's — the recorder reads the
    collector at the query boundary only and never touches the execution
    path.  Counter inequality here is a hard failure, not a recorded
    number.  Wall times are recorded, never gated.
    """
    sql = SESSION_QUERIES["session_J"]
    plain = build_session()
    recorded = build_session()
    recorded.recorder = FlightRecorder()
    plain_seconds = recorded_seconds = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        plain.query(sql)
        plain_seconds = min(plain_seconds, time.perf_counter() - started)
        started = time.perf_counter()
        recorded.query(sql)
        recorded_seconds = min(recorded_seconds, time.perf_counter() - started)
    plain_counters = _counters(plain.last_stats)
    recorded_counters = _counters(recorded.last_stats)
    if plain_counters != recorded_counters:
        raise AssertionError(
            f"recorder overhead: counters diverged with a recorder attached "
            f"({plain_counters} != {recorded_counters})"
        )
    return {
        "plain_seconds": plain_seconds,
        "recorder_seconds": recorded_seconds,
        "overhead_ratio": recorded_seconds / plain_seconds if plain_seconds else 1.0,
        "counters_identical": True,
        "counters": plain_counters,
    }


def emit_events(events_path: str, health_path: str) -> StorageSession:
    """The observability artifact pass: run the differential sweep with
    both workload sinks attached, dump the flight-recorder events as
    JSONL, and render the health report judged over those events.

    Runs on its own sessions *after* the gated workloads, so the emitted
    events never perturb the regression numbers.  Every line of the JSONL
    must parse back, one per query the registry counted (checked here, so
    a malformed event fails the bench job, not a downstream consumer).
    Returns the session, its registry and recorder attached.
    """
    session = build_session()
    session.registry = MetricsRegistry()
    session.recorder = FlightRecorder()
    for sql in SESSION_QUERIES.values():
        session.query(sql)
        session.query(sql)  # the cached re-run, so hit rates are realistic
    count = session.recorder.dump_jsonl(events_path)
    with open(events_path) as handle:
        parsed = [json.loads(line) for line in handle if line.strip()]
    expected = 2 * len(SESSION_QUERIES)
    if not len(parsed) == count == session.registry.queries_total == expected:
        raise AssertionError(
            f"emit-events: expected {expected} parseable events, wrote {count}, "
            f"parsed {len(parsed)}, registry counted {session.registry.queries_total}"
        )
    report = session.health()
    with open(health_path, "w") as handle:
        handle.write(report.render())
        handle.write("\n")
    print(f"wrote {events_path} ({count} events) and {health_path} ({report.level})")
    return session


#: The ``fuzzysql_wal_*`` registry scalars gated by the write-path slice.
WAL_COUNTER_KEYS = (
    "wal_records_total",
    "wal_commits_total",
    "wal_syncs_total",
    "wal_group_commits_total",
    "wal_snapshots_total",
    "wal_recoveries_total",
    "wal_replayed_records_total",
)


def _wal_statements(n: int = 24, seed: int = 31) -> list:
    """A deterministic DML stream: inserts with a sprinkle of update/delete."""
    rng = random.Random(seed)
    pool = ["0", "2", "5", "9", "'[0, 1, 2, 4]'", "'[3, 5, 5, 7]'"]
    statements = []
    for i in range(n):
        if i and i % 8 == 5:
            statements.append(f"UPDATE T SET U = {rng.choice(pool)} WHERE K = {i - 3}")
        elif i and i % 8 == 7:
            statements.append(f"DELETE FROM T WHERE K = {i - 5}")
        else:
            statements.append(
                f"INSERT INTO T VALUES ({i}, {rng.choice(pool)}, {rng.choice(pool)}) "
                f"WITH D {rng.choice([0.3, 0.6, 1.0])}"
            )
    return statements


def _wal_workloads() -> dict:
    """The write-path slices: WAL ingest and crash recovery, counter-gated.

    ``wal_ingest`` runs a deterministic DML stream (statement-at-a-time,
    so each is one WAL transaction) through a session with an index to
    maintain; the gated modelled cost is the summed per-statement
    response time, and the ``fuzzysql_wal_*`` registry scalars are gated
    alongside the I/O counters — ``--check`` fails if the log stops
    framing records or group commit stops engaging on the final batched
    flush; every install also rewrites the index's clustered copy, whose
    page writes the I/O counters carry.  ``wal_recovery`` then
    restarts a fresh session over the same disk and replays the log; it
    hard-fails unless recovery restores the exact ingested row count.
    Wall time is recorded, never gated.
    """
    out = {}
    session = StorageSession(buffer_pages=16, page_size=1024)
    session.registry = MetricsRegistry()
    session.execute("CREATE TABLE T (K NUMERIC, U NUMERIC, V NUMERIC)")
    session.create_index("T", "V")
    statements = _wal_statements()
    totals = {key: 0 for key in COUNTER_KEYS}
    modelled = 0.0
    started = time.perf_counter()
    for sql in statements:
        session.execute(sql)
        modelled += PAPER_1992.response_time(session.last_stats)
        for key, value in _counters(session.last_stats).items():
            totals[key] += value
    # The batched flush: the tail of the stream again, as one list —
    # exactly one sync must cover all of its transactions.
    session.execute(statements[-4:])
    modelled += PAPER_1992.response_time(session.last_stats)
    for key, value in _counters(session.last_stats).items():
        totals[key] += value
    wall = time.perf_counter() - started
    state = session.registry.snapshot_state()
    for key in WAL_COUNTER_KEYS:
        totals[key] = state[key]
    if not totals["wal_group_commits_total"]:
        raise AssertionError("wal_ingest: the batched flush never group-committed")
    out["wal_ingest"] = {
        "modelled_seconds": modelled,
        "wall_seconds": wall,
        "rows": session.tables["T"].n_tuples,
        "counters": totals,
    }

    survivor = StorageSession(buffer_pages=16, page_size=1024, disk=session.disk)
    survivor.registry = MetricsRegistry()
    survivor.attach("T", session.tables["T"].schema)
    started = time.perf_counter()
    report = survivor.recover()
    wall = time.perf_counter() - started
    if survivor.tables["T"].n_tuples != session.tables["T"].n_tuples:
        raise AssertionError(
            f"wal_recovery: restored {survivor.tables['T'].n_tuples} rows, "
            f"ingested {session.tables['T'].n_tuples}"
        )
    counters = _counters(survivor.last_stats)
    recovery_state = survivor.registry.snapshot_state()
    for key in WAL_COUNTER_KEYS:
        counters[key] = recovery_state[key]
    counters["txns_replayed"] = report.txns_replayed
    out["wal_recovery"] = {
        "modelled_seconds": PAPER_1992.response_time(survivor.last_stats),
        "wall_seconds": wall,
        "rows": survivor.tables["T"].n_tuples,
        "counters": counters,
    }
    return out


def run_all(scale: int) -> dict:
    workloads = {}
    workloads.update(_method_workloads(scale))
    workloads.update(_session_workloads())
    workloads.update(_service_workloads())
    workloads.update(_parallel_workloads())
    workloads.update(_sharded_workloads())
    workloads.update(_fault_workloads())
    workloads.update(_columnar_workloads())
    workloads.update(_wal_workloads())
    return {
        "version": VERSION,
        "scale": scale,
        "workloads": workloads,
        "overhead": measure_collector_overhead(),
        "recorder_overhead": measure_recorder_overhead(),
    }


# ----------------------------------------------------------------------
# The regression gate
# ----------------------------------------------------------------------
def check(fresh: dict, baseline: dict, tolerance: float) -> list:
    """Compare a fresh run against the baseline; returns failure messages."""
    failures = []
    if fresh.get("scale") != baseline.get("scale"):
        return [
            f"scale mismatch: fresh run at {fresh.get('scale')} but baseline at "
            f"{baseline.get('scale')} — regenerate with --update-baseline"
        ]
    base_workloads = baseline.get("workloads", {})
    for name, base in sorted(base_workloads.items()):
        got = fresh["workloads"].get(name)
        if got is None:
            failures.append(f"{name}: missing from the fresh run")
            continue
        if got["rows"] != base["rows"]:
            failures.append(f"{name}: rows {got['rows']} != baseline {base['rows']}")
        base_cost, got_cost = base["modelled_seconds"], got["modelled_seconds"]
        if base_cost > 0 and not (1.0 / tolerance <= got_cost / base_cost <= tolerance):
            failures.append(
                f"{name}: modelled cost {got_cost:.4f}s vs baseline "
                f"{base_cost:.4f}s exceeds tolerance {tolerance}x"
            )
        for key, base_value in base["counters"].items():
            got_value = got["counters"].get(key, 0)
            slack = max(1.0, COUNTER_TOLERANCE * base_value)
            if abs(got_value - base_value) > slack:
                delta = got_value - base_value
                if base_value:
                    relative = f"{delta / base_value:+.1%}"
                else:
                    relative = "new"
                failures.append(
                    f"{name}: counter {key} = {got_value} vs baseline "
                    f"{base_value} (delta {delta:+g}, {relative}; "
                    f"allowed +/-{COUNTER_TOLERANCE:.0%})"
                )
    for name in sorted(set(fresh["workloads"]) - set(base_workloads)):
        failures.append(f"{name}: not in the baseline — run --update-baseline")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_observe.json", help="where to write the fresh run")
    parser.add_argument("--baseline", default=BASELINE_PATH, help="baseline JSON to gate against")
    parser.add_argument("--check", action="store_true", help="fail (exit 1) on regression vs the baseline")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE, help="modelled-cost drift factor allowed")
    parser.add_argument("--update-baseline", action="store_true", help="overwrite the baseline with this run")
    parser.add_argument(
        "--emit-events",
        metavar="PATH",
        help="additionally run the sweep with a flight recorder attached and "
        "write its events (JSONL) to PATH plus a rendered health report "
        "next to it (PATH's extension replaced by _health.txt)",
    )
    parser.add_argument(
        "--inject-slowdown",
        type=float,
        default=1.0,
        metavar="F",
        help="multiply this run's modelled costs by F (gate self-test)",
    )
    args = parser.parse_args(argv)

    scale = default_scale()
    results = run_all(scale)
    if args.inject_slowdown != 1.0:
        for workload in results["workloads"].values():
            workload["modelled_seconds"] *= args.inject_slowdown
            workload["wall_seconds"] *= args.inject_slowdown

    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output} ({len(results['workloads'])} workloads, scale {scale})")

    if args.emit_events:
        root, _ = os.path.splitext(args.emit_events)
        emit_events(args.emit_events, root + "_health.txt")

    if args.update_baseline:
        with open(args.baseline, "w") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if args.check:
        if not os.path.exists(args.baseline):
            print(f"no baseline at {args.baseline}; run --update-baseline first")
            return 2
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        failures = check(results, baseline, args.tolerance)
        if failures:
            print(f"REGRESSION: {len(failures)} check(s) failed")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(f"ok: {len(baseline.get('workloads', {}))} workloads within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
