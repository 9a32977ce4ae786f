"""Chaos suite: the differential sweep re-run under seeded fault schedules.

The resilience contract under injected storage faults is three-sided:

* a query either returns the **bit-identical** answer of a fault-free run
  (faults absorbed by retries or a degraded fallback), or raises a
  **typed** error from :mod:`repro.errors` — never a wrong answer and
  never a bare ``KeyError``/``IndexError``;
* no resources leak across the failure: no orphaned sort-run or scratch
  files on the disk;
* the failure is **observable**: retries, degradations, timeouts and
  cancellations land in the stats ledger, the metrics registry, the
  flight recorder's events, and EXPLAIN ANALYZE.

Fault schedules are deterministic (seeded :class:`~repro.faults.FaultPlan`),
so every failure here replays exactly.
"""

import random

import pytest

from repro.data import FuzzyRelation, FuzzyTuple, Schema
from repro.errors import (
    FuzzyQueryError,
    PageCorruptionError,
    QueryCancelledError,
    QueryTimeoutError,
    TransientIOError,
)
from repro.faults import FaultPlan, FaultyDisk
from repro.fuzzy import CrispNumber, TrapezoidalNumber
from repro.observe.metrics import QueryMetrics
from repro.observe.recorder import FlightRecorder
from repro.observe.registry import MetricsRegistry
from repro.resilience import CancelToken
from repro.session import StorageSession

N = CrispNumber
T = TrapezoidalNumber
SCHEMA = Schema(["K", "U", "V"])

POOL = [
    N(0), N(2), N(5), N(9),
    T(0, 1, 2, 4), T(1, 3, 4, 6), T(3, 5, 5, 7), T(4, 6, 8, 11),
]

#: The five nesting types of the paper's taxonomy — the same queries the
#: fault-free differential sweep (tests/test_differential.py) runs.
CASES = {
    "N": "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S)",
    "J": "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.U = R.U)",
    "JX": "SELECT R.K FROM R WHERE R.V NOT IN (SELECT S.V FROM S WHERE S.U = R.U)",
    "JA": "SELECT R.K FROM R WHERE R.V > (SELECT MAX(S.V) FROM S WHERE S.U = R.U)",
    "chain": (
        "SELECT R.K FROM R WHERE R.U IN "
        "(SELECT S.V FROM S WHERE S.K IN (SELECT S2.V FROM S S2 WHERE S2.U = R.V))"
    ),
}

#: Fault schedules the sweep crosses with every nesting type.  Bursts of
#: 2 sit under the default 4-attempt retry budget (absorbable); bursts of
#: 6 exceed it (must escape typed); torn writes corrupt spilled runs.
def fault_plans(seed):
    return [
        FaultPlan(seed=seed, transient_read_rate=0.08, transient_burst=2),
        FaultPlan(seed=seed, transient_read_rate=0.04, transient_burst=6),
        FaultPlan(seed=seed, torn_write_rate=0.2),
        FaultPlan(
            seed=seed,
            transient_read_rate=0.05,
            transient_burst=2,
            torn_write_rate=0.1,
        ),
    ]


def make_relation(rng, n, base):
    rel = FuzzyRelation(SCHEMA)
    for i in range(n):
        rel.add(
            FuzzyTuple(
                [N(base + i), rng.choice(POOL), rng.choice(POOL)],
                rng.choice([0.3, 0.6, 0.8, 1.0]),
            )
        )
    return rel


def build_session(seed, disk=None, n_low=4, n_high=10):
    rng = random.Random(seed)
    r = make_relation(rng, rng.randint(n_low, n_high), 0)
    s = make_relation(rng, rng.randint(n_low, n_high), 1000)
    session = StorageSession(buffer_pages=16, page_size=512, disk=disk)
    session.register("R", r)
    session.register("S", s)
    return session


def build_faulted(seed, plan, **kwargs):
    """A session on a :class:`FaultyDisk` that was disarmed while loading."""
    disk = FaultyDisk(plan, page_size=512, armed=False)
    session = build_session(seed, disk=disk, **kwargs)
    disk.armed = True
    return session


def assert_no_leaks(session):
    """No scratch/run files survive, however the query ended."""
    leftovers = [name for name in session.disk.files() if name.startswith("__")]
    assert leftovers == [], f"leaked scratch files: {leftovers}"


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 4], ids=["serial", "workers4"])
@pytest.mark.parametrize("label", sorted(CASES))
def test_fault_sweep_identical_or_typed(label, workers):
    """The resilience contract, in serial and parallel modes alike.

    With ``workers=4`` the flat strategies may run the range-partitioned
    parallel join; a fault inside one partition worker must cancel its
    siblings and surface as a single typed error — never a wrong answer,
    never a leak — and an absorbed schedule must still be invisible.
    """
    sql = CASES[label]
    for data_seed in range(4):
        expected = build_session(data_seed).query(sql)
        for fault_seed in range(3):
            for plan in fault_plans(fault_seed):
                session = build_faulted(data_seed, plan)
                try:
                    got = session.query(sql, workers=workers)
                except FuzzyQueryError:
                    pass  # a typed failure is an acceptable outcome
                else:
                    assert got.same_as(expected, 0.0), (
                        f"{label} data_seed={data_seed} workers={workers} "
                        f"plan={plan}: faulted run returned a different answer"
                    )
                assert_no_leaks(session)


def test_parallel_worker_faults_cancel_siblings_and_stay_typed():
    """Burst faults inside partition workers: typed error or exact answer.

    At this relation size the type-J query runs the range-partitioned
    join (asserted on a fault-free run first), so over-budget bursts land
    inside partition workers.  Every outcome must be a typed error — the
    root-cause fault, not a sibling's cancellation — or the bit-identical
    answer, with no scratch files left either way.
    """
    sql = CASES["J"]
    expected = build_session(0, n_low=40, n_high=40).query(sql)
    clean = build_session(0, n_low=40, n_high=40)
    metrics = QueryMetrics()
    got = clean.query(sql, workers=4, metrics=metrics)
    assert got.same_as(expected, 0.0)
    assert metrics.partitions, "partitioned plan must run at this size"

    failures = 0
    for fault_seed in range(6):
        plan = FaultPlan(seed=fault_seed, transient_read_rate=0.05, transient_burst=6)
        session = build_faulted(0, plan, n_low=40, n_high=40)
        try:
            got = session.query(sql, workers=4)
        except QueryCancelledError:  # pragma: no cover - would be a regression
            pytest.fail(
                f"seed={fault_seed}: a sibling cancellation escaped instead "
                "of the root-cause fault"
            )
        except FuzzyQueryError:
            failures += 1
        else:
            assert got.same_as(expected, 0.0), f"seed={fault_seed}"
        assert_no_leaks(session)
    assert failures > 0, "no schedule exceeded the retry budget; weaken the plan"


def test_parallel_timeout_stays_typed_and_leak_free():
    plan = FaultPlan().spike_read(2, seconds=5.0)
    session = build_faulted(0, plan, n_low=40, n_high=40)
    with pytest.raises(QueryTimeoutError):
        session.query(CASES["J"], timeout_ms=50, workers=4)
    assert_no_leaks(session)


def test_parallel_precancelled_token_aborts():
    session = build_session(0, n_low=40, n_high=40)
    token = CancelToken()
    token.cancel()
    with pytest.raises(QueryCancelledError):
        session.query(CASES["J"], cancel=token, workers=4)
    assert_no_leaks(session)


def test_parallel_disk_full_degrades_to_identical_answer():
    sql = CASES["J"]
    expected = build_session(0).query(sql)
    session, plan = degraded_session("J")
    metrics = QueryMetrics()
    got = session.query(sql, workers=4, metrics=metrics)
    assert got.same_as(expected, 0.0)
    assert metrics.degraded
    assert plan.injected.disk_full > 0
    assert_no_leaks(session)


def test_absorbed_faults_are_counted():
    sql = CASES["J"]
    expected = build_session(0).query(sql)
    plan = FaultPlan(seed=3, transient_read_rate=0.1, transient_burst=2)
    session = build_faulted(0, plan)
    session.registry = MetricsRegistry()
    session.recorder = FlightRecorder()
    got = session.query(sql)
    assert got.same_as(expected, 0.0)
    assert plan.injected.transient_reads > 0, "schedule injected nothing"
    retries = session.last_stats.total.io_retries
    assert retries == plan.injected.transient_reads
    assert session.registry.io_retries_total == retries
    event = session.recorder.events()[-1]
    assert event.outcome == "ok" and event.io_retries == retries
    assert "io_retries" in session.recorder.summarize()


def test_scripted_burst_beyond_budget_escapes_typed():
    plan = FaultPlan().fail_read(0, times=10)
    session = build_faulted(0, plan)
    session.registry = MetricsRegistry()
    with pytest.raises(TransientIOError):
        session.query(CASES["J"])
    assert session.registry.queries_failed_total == 1
    assert_no_leaks(session)


def test_rearming_forgets_an_escaped_burst():
    """A burst that escaped the retry budget does not outlive its plan:
    disarm, install a fault-free plan, re-arm, and the next query answers."""
    sql = CASES["J"]
    session = build_faulted(0, FaultPlan(transient_read_rate=1.0, transient_burst=8))
    with pytest.raises(TransientIOError):
        session.query(sql)
    session.disk.armed = False
    session.disk.plan = FaultPlan()
    session.disk.armed = True
    assert session.query(sql).same_as(build_session(0).query(sql), 0.0)
    assert_no_leaks(session)


class FetchCountingDisk(FaultyDisk):
    """A fault-free :class:`FaultyDisk` that counts its raw page fetches."""

    def __init__(self):
        super().__init__(FaultPlan(), page_size=512, armed=False)
        self.fetches = 0

    def _fetch(self, name, index):
        self.fetches += 1
        return super()._fetch(name, index)


@pytest.mark.parametrize("label", ["J", "chain"])
def test_explain_analyze_reads_exactly_what_the_query_reads(label):
    """Observing is free: EXPLAIN ANALYZE fetches the pages the same query
    under a collector fetches, so a seeded schedule after it is unmoved."""
    disk = FetchCountingDisk()
    session = build_session(0, disk=disk)
    disk.armed = True

    def fetches(run):
        before = disk.fetches
        run(CASES[label])
        return disk.fetches - before

    collected = fetches(lambda sql: session.query(sql, metrics=QueryMetrics()))
    assert collected > 0
    assert fetches(session.explain_analyze) == collected


# ----------------------------------------------------------------------
# Timeouts and cancellation
# ----------------------------------------------------------------------
def test_latency_spike_trips_timeout():
    plan = FaultPlan().spike_read(2, seconds=5.0)
    session = build_faulted(0, plan)
    session.registry = MetricsRegistry()
    session.recorder = FlightRecorder()
    with pytest.raises(QueryTimeoutError):
        session.query(CASES["J"], timeout_ms=50)
    # The spike sleep is capped to the guard's remaining deadline, so the
    # 5-second stall cannot make the query oversleep its 50 ms budget.
    assert plan.injected.latency_spikes == 1
    assert session.registry.queries_timeout_total == 1
    assert session.recorder.events()[-1].outcome == "timeout"
    assert_no_leaks(session)


def test_precancelled_token_aborts_immediately():
    session = build_session(0)
    session.registry = MetricsRegistry()
    token = CancelToken()
    token.cancel()
    with pytest.raises(QueryCancelledError):
        session.query(CASES["J"], cancel=token)
    assert session.registry.queries_cancelled_total == 1
    assert_no_leaks(session)


def test_run_batch_honours_shared_cancel_token():
    session = build_session(0)
    token = CancelToken()
    token.cancel()
    with pytest.raises(QueryCancelledError):
        session.run_batch([CASES["N"], CASES["J"]], cancel=token)
    assert_no_leaks(session)


def test_timeout_leaves_session_usable():
    plan = FaultPlan().spike_read(2, seconds=5.0)
    session = build_faulted(0, plan)
    with pytest.raises(QueryTimeoutError):
        session.query(CASES["J"], timeout_ms=50)
    expected = build_session(0).query(CASES["J"])
    assert session.query(CASES["J"]).same_as(expected, 0.0)


# ----------------------------------------------------------------------
# Torn writes
# ----------------------------------------------------------------------
def test_torn_spill_write_surfaces_as_corruption():
    # The first armed write is a sort-run page: its checksum mismatch must
    # surface typed when the run is read back, and the failed sort must
    # delete every partial run file.
    plan = FaultPlan(seed=4).tear_write(0)
    session = build_faulted(0, plan)
    with pytest.raises(PageCorruptionError):
        session.query(CASES["J"])
    assert plan.injected.torn_writes == 1
    assert_no_leaks(session)


# ----------------------------------------------------------------------
# Disk-full degradation
# ----------------------------------------------------------------------
def degraded_session(label, data_seed=0):
    plan = FaultPlan(disk_capacity_pages=1)
    session = build_faulted(data_seed, plan)
    # Capacity below what is already stored: every armed append (i.e.
    # every sort spill) raises DiskFullError immediately.
    assert session.disk.total_pages() >= 1
    return session, plan


@pytest.mark.parametrize("label", ["J", "JX", "JA"])
def test_disk_full_degrades_to_correct_nested_loop(label):
    sql = CASES[label]
    expected = build_session(0).query(sql)
    session, plan = degraded_session(label)
    session.registry = MetricsRegistry()
    session.recorder = FlightRecorder()
    metrics = QueryMetrics()
    got = session.query(sql, metrics=metrics)
    assert got.same_as(expected, 0.0)
    assert metrics.degraded and "nested-loop fallback" in metrics.degraded_reason
    assert plan.injected.disk_full > 0
    assert session.registry.queries_degraded_total == 1
    assert session.recorder.events()[-1].degraded
    assert_no_leaks(session)


def test_disk_full_degradation_shows_in_explain_analyze():
    session, _plan = degraded_session("J")
    report = session.explain_analyze(CASES["J"])
    assert any(line.startswith("degraded=True") for line in report.splitlines())
    prometheus = MetricsRegistry()
    session.registry = prometheus
    session.query(CASES["J"])
    assert "fuzzysql_queries_degraded_total 1" in prometheus.render_prometheus()


# ----------------------------------------------------------------------
# Shard-level chaos: dead disks, replica failover, double faults
# ----------------------------------------------------------------------
from repro.storage import SimulatedDisk  # noqa: E402  (section-local import)


def dead_disk_plan():
    """Every read fails, in bursts far beyond the retry budget: the disk
    is effectively dead from the moment it is armed."""
    return FaultPlan(transient_read_rate=1.0, transient_burst=8)


def build_sharded_chaos(seed, dead=(), plans=None, n=40, shards=4):
    """A 4-node sharded session whose nodes in ``dead`` are FaultyDisks.

    The faulty disks are disarmed while the relations are placed (loading
    is registration-time work) and armed afterwards, so every injected
    fault lands on the query path.  ``plans`` overrides the per-node
    fault plan (keyed by node index); the default is a dead disk.
    """
    rng = random.Random(seed)
    r = make_relation(rng, n, 0)
    s = make_relation(rng, n, 1000)
    disks, faulty = [], []
    for i in range(shards):
        if i in dead:
            plan = (plans or {}).get(i, dead_disk_plan())
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
    serial = StorageSession(buffer_pages=16, page_size=512)
    serial.register("R", r)
    serial.register("S", s)
    return session, serial


def assert_no_shard_leaks(session):
    """No scratch slices survive on the session disk or any shard node."""
    assert_no_leaks(session)
    for node in session.sharded.nodes:
        leftovers = [f for f in node.disk.files() if f.startswith("__")]
        assert leftovers == [], (
            f"shard {node.index} leaked scratch files: {leftovers}"
        )


def test_shard_single_fault_completes_from_replica():
    """One dead shard node: the query completes via the factor-2 mirror,
    flagged degraded, with the failovers counted in metrics and registry."""
    session, serial = build_sharded_chaos(0, dead={1})
    registry = MetricsRegistry()
    session.registry = registry
    expected = serial.query(CASES["J"])
    metrics = QueryMetrics()
    got = session.query(CASES["J"], metrics=metrics)
    assert expected.same_as(got, 0.0)
    assert metrics.shards, "sharded path did not engage"
    assert metrics.shard_failovers > 0
    assert metrics.degraded is True
    assert registry.shard_failovers_total == metrics.shard_failovers
    assert registry.queries_degraded_total == 1
    assert "fuzzysql_shard_failovers_total" in registry.render_prometheus()
    assert_no_shard_leaks(session)


def test_shard_dies_mid_scan_completes_from_replica():
    """A node that fails partway through its reads (not at the first page)
    still degrades to the replica instead of failing the query.

    The death is scripted ordinal by ordinal — the first two reads
    succeed, everything after fails beyond the retry budget — rather
    than as one burst, because concurrent shard tasks interleave reads
    on the node and a single burst could be absorbed between them.
    """
    died = FaultPlan()
    for ordinal in range(2, 512):
        died.fail_read(ordinal, times=16)
    session, serial = build_sharded_chaos(3, dead={2}, plans={2: died})
    metrics = QueryMetrics()
    got = session.query(CASES["J"], metrics=metrics)
    assert serial.query(CASES["J"]).same_as(got, 0.0)
    assert metrics.shard_failovers > 0
    assert metrics.degraded is True
    assert_no_shard_leaks(session)


def test_shard_double_fault_raises_one_typed_error():
    """A shard *and* its replica dead: exactly one typed error, no leaks.

    Node 2 mirrors node 1, so killing both leaves shard 1 with no copy;
    the contract is a typed ``FuzzyQueryError`` (never a wrong answer,
    never a bare exception, never a cancellation masquerading as the
    root cause), and a clean disk on every surviving node.
    """
    session, _serial = build_sharded_chaos(0, dead={1, 2})
    with pytest.raises(FuzzyQueryError) as excinfo:
        session.query(CASES["J"])
    assert not isinstance(excinfo.value, QueryCancelledError)
    assert_no_shard_leaks(session)
    # the session survives the failure and still answers on its own disk
    assert session.query(CASES["J"], shards=1) is not None


@pytest.mark.parametrize("label", ["N", "J", "JX", "JA", "chain"])
def test_shard_fault_sweep_identical_or_typed(label):
    """The resilience contract across every nesting type with a dead node:
    the bit-identical answer (failover or a path that never touches the
    shards) or a single typed error — and no scratch leaks either way."""
    for seed in range(3):
        session, serial = build_sharded_chaos(seed, dead={1})
        expected = serial.query(CASES[label])
        try:
            got = session.query(CASES[label])
        except FuzzyQueryError:
            pass  # a typed failure is an acceptable outcome
        else:
            assert expected.same_as(got, 0.0), (
                f"{label} seed={seed}: sharded faulted run diverged"
            )
        assert_no_shard_leaks(session)
