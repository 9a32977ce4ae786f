"""Property: a decided fold is the full fold, after the cut.

A fold may stop examining an outer tuple's pairs once ``decided(r, state)``
holds (``docs/possibility_semantics.md``).  Hypothesis draws relations on
the duplicate-heavy five-value pool, a fold shape (the max-fold, the pair
collector, the grouped NOT IN and ALL min-folds), a cut ``WITH D >= z``
and an execution path (the merge scan, the window rung, the spill rung,
the block nested loop, sampled slices and a shard placement), and checks
that the decided fold's ``(r, state)`` stream, once both are cut, is the
full fold's tuple for tuple — and, without a cut, equal outright.  The
work charged may only shrink, and only in pair evaluations and
nested-loop reads: the crisp comparisons, the sorts and the merge scan's
page reads are the full fold's.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.data import Catalog, FuzzyRelation, FuzzyTuple, Schema
from repro.engine import NaiveEvaluator
from repro.faults import FaultPlan, FaultyDisk
from repro.fuzzy import CrispNumber, Op, TrapezoidalNumber
from repro.fuzzy.logic import meets_threshold
from repro.join import (
    NL_PHASE,
    JoinPredicate,
    MergeJoin,
    NestedLoopJoin,
    all_quantifier_degree,
    antijoin_degree,
    join_degree,
)
from repro.join.merge_join import SPILL_RUNG, WINDOW_RUNG
from repro.join.predicates import MAX_FOLD, PAIRS, min_decided, under_cut
from repro.parallel import PartitionedBandJoin
from repro.observe import FlightRecorder, QueryMetrics
from repro.session import StorageSession
from repro.shard import ShardedStorage
from repro.storage import HeapFile, OperationStats, SimulatedDisk

N, T = CrispNumber, TrapezoidalNumber
SCHEMA = Schema(["ID", "X", "Y"])
POOL = [N(0), N(5), T(0, 1, 2, 4), T(3, 5, 5, 7), T(4, 6, 8, 12)]
BAND = JoinPredicate(SCHEMA, "X", Op.EQ, SCHEMA, "X")
LINK = JoinPredicate(SCHEMA, "Y", Op.EQ, SCHEMA, "Y")
BELOW = JoinPredicate(SCHEMA, "Y", Op.LT, SCHEMA, "Y")

rows = st.lists(
    st.tuples(st.sampled_from(POOL), st.sampled_from(POOL), st.sampled_from([0.3, 0.6, 1.0])),
    min_size=1,
    max_size=24,
)
CUTS = [None, 0.0, 0.3, 0.6, 1.0]
PATHS = ["merge", "window", "spill", "nested-loop", "workers=2", "shards=2"]


def fold_of(shape: str, z):
    """``(pair_degree, init, step, decided)`` of ``shape`` beneath ``WITH D >= z``."""
    cut = 0.0 if z is None else z
    if shape in ("max", "pairs"):
        return (join_degree([BAND]), *under_cut(MAX_FOLD if shape == "max" else PAIRS, cut))
    # The grouped min-folds: dangling pairs contribute mu_R(r) = init(r).
    pair = (
        antijoin_degree([BAND, LINK]) if shape == "not in"
        else all_quantifier_degree([BAND], BELOW)
    )
    return pair, lambda r: r.degree, lambda w, _s, d: d if d < w else w, min_decided(cut)


def relation(values, base):
    return FuzzyRelation(
        SCHEMA, [FuzzyTuple([N(base + i), x, y], d) for i, (x, y, d) in enumerate(values)]
    )


def run(path, r_values, s_values, shape, z, decided, buffer_pages):
    """One fold's ``(r.ID, state)`` stream, its stats and the join (for its rung)."""
    r_rel, s_rel = relation(r_values, 0), relation(s_values, 1000)
    if path == "spill":
        disk = FaultyDisk(FaultPlan(disk_capacity_pages=1), page_size=256, armed=False)
    else:
        disk = SimulatedDisk(page_size=256)
    r = HeapFile("R", SCHEMA, disk, fixed_tuple_size=96).load(r_rel.tuples())
    s = HeapFile("S", SCHEMA, disk, fixed_tuple_size=96).load(s_rel.tuples())
    stats = OperationStats()
    pair, init, step, decide = fold_of(shape, z)
    decide = decide if decided else None
    if path == "nested-loop":
        join = NestedLoopJoin(disk, buffer_pages, stats)
        folded = join.fold(r, s, pair, init, step, decide)
    else:
        if path == "workers=2":
            join = PartitionedBandJoin(disk, buffer_pages, stats, workers=2)
        elif path == "shards=2":
            storage = ShardedStorage(2, page_size=256, fixed_tuple_size=96)
            storage.place("R", r_rel, "X", "R")
            storage.place("S", s_rel, "X", "S")
            join = PartitionedBandJoin(
                disk, buffer_pages, stats, placement=storage, tables=("R", "S")
            )
        else:
            join = MergeJoin(disk, buffer_pages, stats)
        if path == "spill":
            disk.armed = True
        folded = join.fold(r, "X", s, "X", pair, init, step, decide)
    stream = [(int(rt[0].value), state) for rt, state in folded]
    return stream, stats, join


def after_cut(stream, shape, z):
    """The stream as the operator above the fold sees it after ``WITH D >= z``."""
    if z is None:
        return stream
    if shape == "pairs":
        return [
            (r_id, [(int(s[0].value), d) for s, d in matches if meets_threshold(d, z)])
            for r_id, matches in stream
        ]
    return [(r_id, state if meets_threshold(state, z) else None) for r_id, state in stream]


def phase_io(stats):
    """Page transfers per phase, the nested loop's left out."""
    return {
        name: (c.page_reads, c.page_writes) for name, c in stats.items() if name != NL_PHASE
    }


@settings(max_examples=300, deadline=None)
@given(
    r_values=rows,
    s_values=rows,
    shape=st.sampled_from(["max", "pairs", "not in", "all"]),
    z=st.sampled_from(CUTS),
    path=st.sampled_from(PATHS),
    window=st.sampled_from([3, 4]),
)
def test_decided_fold_equals_the_full_fold_after_the_cut(
    r_values, s_values, shape, z, path, window
):
    buffer_pages = window if path in ("window", "nested-loop") else 16
    full, full_stats, full_join = run(path, r_values, s_values, shape, z, False, buffer_pages)
    cut, cut_stats, cut_join = run(path, r_values, s_values, shape, z, True, buffer_pages)

    assert after_cut(cut, shape, z) == after_cut(full, shape, z)
    if z is None:
        assert cut == full  # no cut: the states themselves are equal
    if path == "spill":
        assert cut_join.fallback_reason == full_join.fallback_reason == SPILL_RUNG
    elif path != "nested-loop":
        # Decided tuples still walk the window: the rung fires at the same tuple.
        assert cut_join.fallback_reason == full_join.fallback_reason
    got, want = cut_stats.total, full_stats.total
    assert got.crisp_comparisons == want.crisp_comparisons
    assert phase_io(cut_stats) == phase_io(full_stats)
    assert got.fuzzy_evaluations <= want.fuzzy_evaluations
    assert got.page_reads <= want.page_reads
    assert want.decided_pairs == 0


def test_the_window_rung_and_the_spill_rung_are_both_drawn():
    """The pool and page geometry of the property reach both rungs."""
    rng = random.Random(3)
    values = [(rng.choice(POOL), rng.choice(POOL), 1.0) for _ in range(24)]
    _, _, window = run("window", values, values, "max", None, True, 3)
    _, _, spill = run("spill", values, values, "max", None, True, 16)
    assert window.fallback_reason == WINDOW_RUNG
    assert spill.fallback_reason == SPILL_RUNG


def test_a_max_fold_stops_at_mu_r_and_a_cut_decides_at_init():
    """On the pool every outer tuple meets an equal inner value, so the
    max-fold reaches ``mu_R`` and skips the rest of its window; under
    ``WITH D >= 0.6`` the tuples of degree 0.3 examine nothing."""
    values = [(POOL[i % 5], POOL[0], (0.3, 0.6, 1.0)[i % 3]) for i in range(15)]
    full, full_stats, _ = run("merge", values, values, "max", None, False, 16)
    cut, stats, _ = run("merge", values, values, "max", None, True, 16)
    assert cut == full and stats.total.decided_pairs > 0
    assert stats.total.fuzzy_evaluations < full_stats.total.fuzzy_evaluations
    low = {i for i, (_x, _y, d) in enumerate(values) if d < 0.6}
    sharp, sharp_stats, _ = run("merge", values, values, "max", 0.6, True, 16)
    assert all(state == 0.0 for r_id, state in sharp if r_id in low)
    assert sharp_stats.total.fuzzy_evaluations < stats.total.fuzzy_evaluations


@settings(max_examples=150, deadline=None)
@given(
    r_values=rows,
    s_values=rows,
    shape=st.sampled_from(["max", "not in", "all"]),
    z=st.sampled_from(CUTS),
    buffer_pages=st.sampled_from([2, 3, 4]),
)
def test_a_block_nested_loop_charges_every_pair_it_does_not_examine(
    r_values, s_values, shape, z, buffer_pages
):
    """Examined plus decided pairs are ``n_R × n_S``, also when a block
    stops reading S because every one of its tuples is decided."""
    disk = SimulatedDisk(page_size=256)
    r = HeapFile("R", SCHEMA, disk, fixed_tuple_size=96).load(relation(r_values, 0).tuples())
    s = HeapFile("S", SCHEMA, disk, fixed_tuple_size=96).load(relation(s_values, 1000).tuples())
    pair, init, step, decide = fold_of(shape, z)
    examined = []

    def counting(a, b, stats):
        examined.append(1)
        return pair(a, b, stats)

    stats = OperationStats()
    list(NestedLoopJoin(disk, buffer_pages, stats).fold(r, s, counting, init, step, decide))
    assert len(examined) + stats.total.decided_pairs == len(r_values) * len(s_values)


@pytest.mark.parametrize("shape, z", [("max", None), ("max", 0.6), ("not in", 0.6)])
def test_the_window_rung_charges_every_pair_of_its_tail(monkeypatch, shape, z):
    """On the window rung the nested loop's examined plus decided pairs are
    the remaining outer tuples times the S tuples from the rung's page on."""
    fold, seen = NestedLoopJoin.fold, {}

    def spy(self, outer, inner, pair_degree, init, step, decided, outer_start, inner_start,
            inner_rows):
        def rows_from(heap, first_page):
            return sum(len(heap.disk.read_page(heap.name, i)) for i in range(first_page, heap.n_pages))

        with outer.disk.use_stats(OperationStats()):
            n_outer = rows_from(outer, outer_start[0]) - outer_start[1]
            n_tail = rows_from(inner, inner_start)
        examined = []

        def counting(a, b, stats):
            examined.append(1)
            return pair_degree(a, b, stats)

        yield from fold(self, outer, inner, counting, init, step, decided,
                        outer_start, inner_start, inner_rows)
        seen.update(pairs=n_outer * n_tail, examined=len(examined))

    monkeypatch.setattr(NestedLoopJoin, "fold", spy)
    rng = random.Random(3)
    values = [(rng.choice(POOL), rng.choice(POOL), rng.choice([0.3, 0.6, 1.0])) for _ in range(24)]
    _, stats, join = run("window", values, values, shape, z, True, 3)
    assert join.fallback_reason == WINDOW_RUNG
    assert seen["examined"] < seen["pairs"]
    assert seen["examined"] + stats.phases[NL_PHASE].decided_pairs == seen["pairs"]


# ----------------------------------------------------------------------
# Through the planner: the cut reaches every fold beneath WITH D >= z
# ----------------------------------------------------------------------
STATEMENTS = {
    "J": "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.U = R.U)",
    "JX": "SELECT R.K FROM R WHERE R.V NOT IN (SELECT S.V FROM S WHERE S.U = R.U)",
    "JALL": "SELECT R.K FROM R WHERE R.V < ALL (SELECT S.V FROM S WHERE S.U = R.U)",
    "JA": "SELECT R.K FROM R WHERE R.V > (SELECT MAX(S.V) FROM S WHERE S.U = R.U)",
    "chain": "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.U IN "
             "(SELECT W.U FROM W WHERE W.V = R.V))",
}


def pool_tables(n: int, seed: int = 7):
    """``j_overflow``'s shape: K, U, V with U and V drawn from the five-value pool."""
    rng = random.Random(seed)
    schema = Schema(["K", "U", "V"])
    return {
        name: FuzzyRelation(schema, [
            FuzzyTuple([N(base * 1000 + i), rng.choice(POOL), rng.choice(POOL)],
                       rng.choice([0.3, 0.6, 1.0]))
            for i in range(n)
        ])
        for base, name in enumerate("RSW")
    }


def pool_session(tables, **options) -> StorageSession:
    session = StorageSession(page_size=1024, **options)
    for name, relation in tables.items():
        session.register(name, relation)
    return session


@pytest.mark.parametrize("z", [None, 0.6, 1.0])
@pytest.mark.parametrize("label", sorted(STATEMENTS))
def test_every_shape_answers_as_the_nested_statement_under_a_cut(label, z):
    """Duplicate outer values put decided and undecided tuples in one
    group, so the pipeline's memo and the chain's intermediate are both
    exercised; the answer is the naive evaluator's, tuple for tuple."""
    tables = pool_tables(40)
    sql = STATEMENTS[label] + ("" if z is None else f" WITH D >= {z}")
    catalog = Catalog()
    for name, relation in tables.items():
        catalog.register(name, relation)
    expected = NaiveEvaluator(catalog).evaluate(sql)
    for options in ({"buffer_pages": 16}, {"buffer_pages": 4}, {"workers": 2}):
        got = pool_session(tables, **options).query(sql)
        assert got.same_as(expected, 1e-12), (label, z, options)


def test_a_cut_examines_fewer_pairs_than_no_cut():
    tables = pool_tables(60)
    for label in ("J", "JX", "JA", "chain"):
        bare, cut = pool_session(tables), pool_session(tables)
        bare.query(STATEMENTS[label])
        cut.query(STATEMENTS[label] + " WITH D >= 0.6")
        assert cut.last_stats.total.fuzzy_evaluations < bare.last_stats.total.fuzzy_evaluations


def test_explain_analyze_shows_the_window_rung_and_the_decided_pairs():
    """On ``j_overflow``'s pool shape with a 4-page buffer the merge window
    overflows, and the max-fold still skips the pairs of decided tuples."""
    session = pool_session(pool_tables(100), buffer_pages=4)
    report = session.explain_analyze(STATEMENTS["J"])
    assert WINDOW_RUNG in report
    [fold] = [line for line in report.splitlines() if line.lstrip().startswith("MaxFold(")]
    decided = int(fold.split("decided=")[1].split(",")[0])
    assert decided > 0
    metrics = QueryMetrics()
    session.query(STATEMENTS["J"], metrics=metrics)
    assert decided == metrics.stats.total.decided_pairs


def test_a_refused_statement_says_which_rule_refused_it():
    session = pool_session(pool_tables(5))
    text = session.explain("SELECT R.K FROM R WHERE R.V > (SELECT MAX(S.V) FROM S)")
    assert "rewrite: none (naive fallback)" in text
    [refused] = [line for line in text.splitlines() if line.startswith("refused: ")]
    assert refused.endswith("not a single flat query")
    general = session.explain(
        "SELECT R.K FROM R WHERE EXISTS (SELECT S.K FROM S WHERE S.U = R.U)"
    )
    assert "refused: no rewrite for nesting type general" in general


def test_a_refused_statement_says_why_when_it_runs():
    """EXPLAIN ANALYZE and the flight-recorder event carry the planner's
    ``refused:`` reason of a statement that ran naive; ``last_strategy``
    reads as it always did."""
    session = pool_session(pool_tables(5))
    session.recorder = FlightRecorder()
    sql = "SELECT R.K FROM R WHERE R.V > (SELECT MAX(S.V) FROM S)"  # type A
    [refused] = [line for line in session.explain(sql).splitlines() if line.startswith("refused: ")]
    assert refused in session.explain_analyze(sql).splitlines()
    assert "refused: " + session.recorder.events()[-1].refused == refused
    assert session.last_strategy == "naive/A: in-memory nested evaluation"
