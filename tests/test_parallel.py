"""Unit tests for the intra-query parallelism layer.

Covers the pieces individually — range partitioner, comparison kernel,
ordered fan-out, linked cancellation, the partitioned band join's sampled
source and its degrade rules, the parallel cost model —
and then end-to-end through :class:`~repro.session.StorageSession` with
``workers=N``.  The randomized equivalence property over both slice
sources lives in ``tests/test_parallel_property.py``.
"""

import random
import threading

import pytest

from repro.data import FuzzyRelation, FuzzyTuple, Schema
from repro.errors import QueryCancelledError, TransientIOError
from repro.fuzzy import CrispLabel, CrispNumber, DiscreteDistribution, Op, TrapezoidalNumber
from repro.fuzzy.compare import ComparisonKernel, possibility
from repro.fuzzy.interval_order import sort_key
from repro.join import JoinPredicate, MergeJoin, join_degree
from repro.observe import QueryMetrics
from repro.observe.registry import MetricsRegistry
from repro.observe.trace import SpanTracer
from repro.parallel import (
    LinkedCancelToken,
    PartitionedBandJoin,
    RangePartitioner,
    gather_partitions,
    run_ordered,
)
from repro.resilience import CancelToken
from repro.session import StorageSession
from repro.storage import HeapFile, OperationStats, SimulatedDisk
from repro.storage.costs import PAPER_1992
from repro.engine.optimizer import parallel_join_cost

N = CrispNumber
T = TrapezoidalNumber
D = DiscreteDistribution
L = CrispLabel
SCHEMA = Schema(["ID", "X"])


def make_heap(disk, values, name="h", base=0, tuple_size=64):
    tuples = [
        FuzzyTuple([N(base + i), v], d if d is not None else 1.0)
        for i, (v, d) in enumerate(
            (v if isinstance(v, tuple) else (v, None)) for v in values
        )
    ]
    return HeapFile(name, SCHEMA, disk, fixed_tuple_size=tuple_size).load(tuples)


def random_values(rng, n, domain=60.0, width=5.0):
    out = []
    for _ in range(n):
        c = rng.uniform(0, domain)
        if rng.random() < 0.5:
            out.append((N(round(c, 1)), rng.choice([0.4, 0.7, 1.0])))
        else:
            w = rng.uniform(0.1, width)
            out.append((T(c - w, c, c, c + w), rng.choice([0.4, 0.7, 1.0])))
    return out


# ----------------------------------------------------------------------
# RangePartitioner
# ----------------------------------------------------------------------
class TestRangePartitioner:
    def test_specs_are_half_open_and_cover_the_axis(self):
        p = RangePartitioner([10.0, 20.0])
        assert p.n_partitions == 3
        s0, s1, s2 = p.specs()
        assert (s0.lower, s0.upper) == (None, 10.0)
        assert (s1.lower, s1.upper) == (10.0, 20.0)
        assert (s2.lower, s2.upper) == (20.0, None)
        # Boundary values land in the upper slice: [lower, upper).
        assert not s0.contains(10.0) and s1.contains(10.0)
        assert not s1.contains(20.0) and s2.contains(20.0)

    def test_partition_index_agrees_with_specs(self):
        p = RangePartitioner([5.0, 15.0])
        specs = p.specs()
        for value in [N(0), N(5), N(14.9), N(15), N(99), T(2, 3, 4, 6)]:
            i = p.partition_index(sort_key(value)[0])
            assert specs[i].contains(sort_key(value)[0])

    def test_from_sample_needs_two_workers(self):
        disk = SimulatedDisk(page_size=256)
        heap = make_heap(disk, [(N(i), 1.0) for i in range(20)])
        assert RangePartitioner.from_sample(heap, "X", 1) is None

    def test_from_sample_constant_attribute_degrades(self):
        disk = SimulatedDisk(page_size=256)
        heap = make_heap(disk, [(N(7), 1.0) for _ in range(20)])
        assert RangePartitioner.from_sample(heap, "X", 4) is None

    def test_from_sample_balances_slices(self):
        disk = SimulatedDisk(page_size=256)
        rng = random.Random(3)
        heap = make_heap(disk, random_values(rng, 64))
        p = RangePartitioner.from_sample(heap, "X", 4)
        assert p is not None and 2 <= p.n_partitions <= 4
        assert p.boundaries == sorted(p.boundaries)

    def test_from_sample_charges_the_sampling_reads(self):
        disk = SimulatedDisk(page_size=256)
        heap = make_heap(disk, [(N(i), 1.0) for i in range(64)])
        stats = OperationStats()
        RangePartitioner.from_sample(heap, "X", 4, stats=stats)
        assert stats.total.page_reads > 0


# ----------------------------------------------------------------------
# ComparisonKernel
# ----------------------------------------------------------------------
class TestComparisonKernel:
    def test_matches_unmemoized_possibility(self):
        kernel = ComparisonKernel()
        rng = random.Random(5)
        pairs = [
            (v1, v2)
            for v1, _ in random_values(rng, 12)
            for v2, _ in random_values(rng, 12)
        ]
        for left, right in pairs:
            assert kernel.possibility(left, Op.EQ, right) == possibility(
                left, Op.EQ, right
            )

    def test_memo_hit_counting(self):
        # The memo serves discrete and label operands; a crisp/trapezoid
        # pair is answered by the closed form and counts as neither.
        kernel = ComparisonKernel()
        left, right = D({1.0: 1.0, 2.0: 0.4}), D({2.0: 1.0, 3.0: 0.6})
        first = kernel.possibility(left, Op.EQ, right)
        second = kernel.possibility(left, Op.EQ, right)
        assert first == second == 0.4
        assert kernel.misses == 1 and kernel.hits == 1
        for _ in range(2):
            assert kernel.possibility(T(0, 1, 2, 3), Op.EQ, T(2, 3, 4, 5)) == 0.5
        assert kernel.misses == 1 and kernel.hits == 1 and len(kernel) == 1

    def test_batch_primes_the_memo(self):
        kernel = ComparisonKernel()
        probe = D({1.0: 1.0, 4.0: 0.5})
        candidates = [N(1), T(3, 5, 6, 7), D({4.0: 1.0}), L("x")]
        degrees = kernel.batch(probe, Op.EQ, candidates)
        assert degrees == [possibility(probe, Op.EQ, c) for c in candidates]
        hits_before = kernel.hits
        for c in candidates:
            kernel.possibility(probe, Op.EQ, c)
        assert kernel.hits == hits_before + len(candidates)

    def test_lru_eviction_bounds_the_memo(self):
        kernel = ComparisonKernel(capacity=4)
        for i in range(10):
            kernel.possibility(L(f"v{i}"), Op.EQ, L(f"v{i + 1}"))
        assert len(kernel) == 4
        # The most recent entries survive; the earliest were evicted.
        assert kernel.hits == 0
        kernel.possibility(L("v9"), Op.EQ, L("v10"))
        assert kernel.hits == 1

    def test_rejects_negative_capacity(self):
        # Capacity 0 is legal (memo disabled; see test_comparison_kernel);
        # only negative bounds are nonsense.
        with pytest.raises(ValueError):
            ComparisonKernel(capacity=-1)


# ----------------------------------------------------------------------
# run_ordered / gather_partitions
# ----------------------------------------------------------------------
class TestFanOut:
    def test_run_ordered_preserves_input_order(self):
        jobs = list(range(20))
        serial = run_ordered(jobs, lambda j: j * j, workers=1)
        threaded = run_ordered(jobs, lambda j: j * j, workers=4)
        assert serial == threaded == [j * j for j in jobs]

    def test_gather_returns_partition_order(self):
        out = gather_partitions(
            [lambda _t, i=i: i for i in range(8)], workers=4
        )
        assert out == list(range(8))

    def test_gather_prefers_root_cause_over_sibling_cancellations(self):
        def fails(_token):
            raise TransientIOError("root cause")

        def cancelled(_token):
            raise QueryCancelledError("sibling stopped")

        with pytest.raises(TransientIOError):
            gather_partitions([cancelled, fails, cancelled], workers=3)

    def test_gather_surfaces_outer_cancellation(self):
        outer = CancelToken()
        outer.cancel()

        def observes(token):
            if token.cancelled:
                raise QueryCancelledError("outer token fired")
            return "ran"

        with pytest.raises(QueryCancelledError):
            gather_partitions([observes, observes], workers=2, cancel=outer)

    def test_failure_cancels_the_linked_token_for_siblings(self):
        seen = {}
        release = threading.Event()

        def fails(token):
            try:
                raise TransientIOError("boom")
            finally:
                release.set()

        def watches(token):
            release.wait(timeout=5)
            # The sibling's failure must be observable through the token.
            for _ in range(1000):
                if token.cancelled:
                    break
            seen["cancelled"] = token.cancelled
            return "done"

        with pytest.raises(TransientIOError):
            gather_partitions([fails, watches], workers=2)
        assert seen["cancelled"] is True

    def test_linked_token_observes_outer(self):
        outer = CancelToken()
        linked = LinkedCancelToken(outer)
        assert not linked.cancelled
        outer.cancel()
        assert linked.cancelled


# ----------------------------------------------------------------------
# Partitioned merge-join
# ----------------------------------------------------------------------
EQ_PRED = [JoinPredicate(SCHEMA, "X", Op.EQ, SCHEMA, "X")]


def join_pairs_serial(disk, r, s, stats=None):
    stats = stats or OperationStats()
    degree = join_degree(EQ_PRED)
    return list(MergeJoin(disk, 8, stats).pairs(r, "X", s, "X", degree))


def as_triples(pairs):
    return sorted(
        (rt[0].value, st_[0].value, round(d, 12)) for rt, st_, d in pairs
    )


def partitioned(disk, r, s, **kwargs):
    """The pairs of a sampled-source band join and the reasons it degraded."""
    join = PartitionedBandJoin(disk, 8, OperationStats(), **kwargs)
    pairs = list(join.pairs(r, "X", s, "X", join_degree(EQ_PRED)))
    return pairs, join.fallback_reason.split("; then ") if join.fallback_reason else []


class TestPartitionedMergeJoin:
    def build(self, seed, n_r=40, n_s=40):
        rng = random.Random(seed)
        disk = SimulatedDisk(page_size=256)
        r = make_heap(disk, random_values(rng, n_r), name="R")
        s = make_heap(disk, random_values(rng, n_s), name="S", base=1000)
        return disk, r, s

    def test_matches_serial_pairs(self):
        for seed in range(6):
            disk, r, s = self.build(seed)
            expected = as_triples(join_pairs_serial(disk, r, s))
            metrics = QueryMetrics()
            pairs, reasons = partitioned(disk, r, s, workers=4, metrics=metrics)
            assert not reasons and metrics.partitions, reasons
            assert as_triples(pairs) == expected

    def test_overlap_band_replicates_boundary_straddlers(self):
        # One wide S value straddles the explicit boundary at 10: R-tuples
        # on both sides can reach it, so dropping the band would lose pairs.
        disk = SimulatedDisk(page_size=256)
        r = make_heap(disk, [(N(8), 1.0), (N(12), 1.0)], name="R")
        s = make_heap(disk, [(T(7, 9, 11, 13), 1.0)], name="S", base=1000)
        expected = as_triples(join_pairs_serial(disk, r, s))
        assert len(expected) == 2, "both R tuples must reach the straddler"
        pairs, reasons = partitioned(
            disk, r, s, workers=2, partitioner=RangePartitioner([10.0])
        )
        assert not reasons, reasons
        assert as_triples(pairs) == expected

    def test_degrades_below_two_workers(self):
        disk, r, s = self.build(1)
        metrics = QueryMetrics()
        pairs, reasons = partitioned(disk, r, s, workers=1, metrics=metrics)
        assert metrics.partitions == [] and reasons == []  # no source: serial
        assert as_triples(pairs) == as_triples(join_pairs_serial(disk, r, s))

    def test_degrades_without_boundaries(self):
        disk = SimulatedDisk(page_size=256)
        r = make_heap(disk, [(N(7), 1.0) for _ in range(20)], name="R")
        s = make_heap(disk, [(N(7), 1.0) for _ in range(20)], name="S", base=1000)
        pairs, reasons = partitioned(disk, r, s, workers=4)
        assert len(reasons) == 1 and "boundary" in reasons[0]
        assert as_triples(pairs) == as_triples(join_pairs_serial(disk, r, s))

    def test_degrades_on_skew(self):
        # All the mass in one slice: an explicit boundary at 1000 leaves
        # every tuple below it.
        disk, r, s = self.build(2)
        pairs, reasons = partitioned(
            disk, r, s, workers=2, partitioner=RangePartitioner([1000.0])
        )
        assert reasons and reasons[0].startswith("parallel join fell back to serial")
        assert as_triples(pairs) == as_triples(join_pairs_serial(disk, r, s))

    def test_no_partition_files_leak(self):
        disk, r, s = self.build(3)
        partitioned(disk, r, s, workers=4)
        leftovers = [name for name in disk.files() if name.startswith("__part")]
        assert leftovers == []

    def test_partition_metrics_and_spans_are_recorded(self):
        disk, r, s = self.build(4)
        metrics = QueryMetrics()
        with metrics.span("join"):
            pairs, reasons = partitioned(disk, r, s, workers=4, metrics=metrics)
        assert not reasons, reasons
        assert metrics.partitions, "partition metrics missing"
        assert sum(p.rows_out for p in metrics.partitions) == len(pairs)
        assert all(p.stats is not None for p in metrics.partitions)
        root = metrics.tracer.roots[0]
        names = [child.name for child in root.children]
        assert any(name.startswith("partition ") for name in names)

    def test_kernel_keeps_counters_bit_identical(self):
        disk, r, s = self.build(5)
        plain_stats = OperationStats()
        plain = MergeJoin(disk, 8, plain_stats).pairs(
            r, "X", s, "X", join_degree(EQ_PRED)
        )
        plain = as_triples(plain)
        kernel = ComparisonKernel()
        kernel_stats = OperationStats()
        with_kernel = MergeJoin(disk, 8, kernel_stats).pairs(
            r, "X", s, "X", join_degree(EQ_PRED, kernel)
        )
        assert as_triples(with_kernel) == plain
        assert kernel_stats.total.fuzzy_evaluations == plain_stats.total.fuzzy_evaluations
        assert kernel_stats.total.crisp_comparisons == plain_stats.total.crisp_comparisons
        assert kernel_stats.total.fuzzy_evaluations > 0, "the join evaluated nothing"
        # Numeric join values are answered by the closed forms: a join
        # through the kernel builds no memo key and stores nothing.
        assert len(kernel) == 0 and kernel.hits + kernel.misses == 0


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
class TestParallelCost:
    def test_parallel_response_time_is_serial_minus_overlap(self):
        stats = OperationStats()
        workers = []
        for reads in (10, 20, 30):
            ws = OperationStats()
            ws.current.page_reads += reads
            workers.append(ws)
            stats.merge(ws)
        serial = PAPER_1992.response_time(stats)
        parallel = PAPER_1992.parallel_response_time(stats, workers)
        slowest = max(PAPER_1992.response_time(ws) for ws in workers)
        assert parallel == pytest.approx(
            serial - sum(PAPER_1992.response_time(ws) for ws in workers) + slowest
        )
        assert parallel < serial

    def test_parallel_response_time_without_partitions_is_serial(self):
        stats = OperationStats()
        stats.current.page_reads += 5
        assert PAPER_1992.parallel_response_time(stats, []) == PAPER_1992.response_time(
            stats
        )

    def test_planner_cost_decreases_with_partition_count(self):
        costs = [parallel_join_cost(100.0, n, 5.0) for n in (1, 2, 4, 8)]
        assert costs == sorted(costs, reverse=True)
        assert parallel_join_cost(100.0, 1, 0.0) == 100.0

    def test_planner_cost_validates_inputs(self):
        with pytest.raises(ValueError):
            parallel_join_cost(1.0, 0, 0.0)
        with pytest.raises(ValueError):
            parallel_join_cost(1.0, 2, 0.0, skew=0.5)


# ----------------------------------------------------------------------
# End to end through the session
# ----------------------------------------------------------------------
POOL = [
    N(0), N(2), N(5), N(9),
    T(0, 1, 2, 4), T(1, 3, 4, 6), T(3, 5, 5, 7), T(4, 6, 8, 11),
]
J_SQL = "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.U = R.U)"


def build_session(seed=0, n=40):
    schema = Schema(["K", "U", "V"])
    rng = random.Random(seed)

    def rel(base):
        out = FuzzyRelation(schema)
        for i in range(n):
            out.add(
                FuzzyTuple(
                    [N(base + i), rng.choice(POOL), rng.choice(POOL)],
                    rng.choice([0.3, 0.6, 0.8, 1.0]),
                )
            )
        return out

    session = StorageSession(buffer_pages=16, page_size=512)
    session.register("R", rel(0))
    session.register("S", rel(1000))
    return session


class TestSessionParallelism:
    def test_workers_option_is_bit_identical(self):
        expected = build_session().query(J_SQL)
        for workers in (2, 4):
            got = build_session().query(J_SQL, workers=workers)
            assert expected.same_as(got, 0.0), f"workers={workers} diverged"

    def test_session_default_workers(self):
        schema_session = build_session()
        expected = schema_session.query(J_SQL)
        session = build_session()
        session.workers = 4
        assert expected.same_as(session.query(J_SQL), 0.0)

    def test_explain_analyze_reports_partitions(self):
        session = build_session()
        report = session.explain_analyze(J_SQL, workers=4)
        assert "parallel_workers=4" in report
        assert "partitions=" in report
        assert any(
            line.startswith("partition 0 ") for line in report.splitlines()
        ), report

    def test_registry_counts_partitions(self):
        session = build_session()
        session.registry = MetricsRegistry()
        session.query(J_SQL, workers=4)
        assert session.registry.parallel_queries_total == 1
        assert session.registry.partitions_total >= 2
        rendered = session.registry.render_prometheus()
        assert "fuzzysql_partitions_total" in rendered
        assert "fuzzysql_parallel_queries_total 1" in rendered

    def test_serial_queries_do_not_count_as_parallel(self):
        session = build_session()
        session.registry = MetricsRegistry()
        session.query(J_SQL)
        assert session.registry.parallel_queries_total == 0
        assert session.registry.partitions_total == 0

    def test_degrade_to_serial_is_observable(self):
        # Constant join attribute: no usable boundaries at any scale.
        schema = Schema(["K", "U", "V"])
        session = StorageSession(buffer_pages=16, page_size=512)

        def rel(base):
            out = FuzzyRelation(schema)
            for i in range(20):
                out.add(FuzzyTuple([N(base + i), N(1), N(5)], 1.0))
            return out

        session.register("R", rel(0))
        session.register("S", rel(1000))
        metrics = QueryMetrics()
        session.query(J_SQL, workers=4, metrics=metrics)
        assert not metrics.partitions
        assert metrics.degraded
        assert "fell back to serial" in metrics.degraded_reason

    def test_tracer_shows_partition_spans(self):
        session = build_session()
        tracer = SpanTracer()
        session.query(J_SQL, workers=4, tracer=tracer)
        rendered = tracer.render_tree()
        assert "partition 0" in rendered
