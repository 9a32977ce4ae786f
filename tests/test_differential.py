"""Differential sweep: every unnest type, three engines, many seeds.

For each nesting type of the paper's taxonomy (N, J, JX, JA, chain) the
same query runs through three independent execution paths —

* the **naive oracle** (:class:`~repro.engine.semantics.NaiveEvaluator`):
  per-outer-tuple nested-loop evaluation, straight off Definition 2.x
  semantics;
* the **storage session** (:class:`~repro.session.StorageSession`): the
  paper's disk-level strategies (extended merge-join plans, grouped
  anti-join folds, the pipelined T1/T2 pass);
* the **rewrite engine**: :func:`~repro.unnest.rewriter.unnest` followed
  by naive evaluation of the flat plan — the algebraic transformation
  alone, with none of the storage machinery.

All three must produce identical (tuple, degree) answer sets on randomized
small relations, across ~50 seeded cases per type.  Divergence pinpoints
the broken layer: oracle vs. rewrite isolates the theorem, rewrite vs.
session isolates the join algorithm.
"""

import random

import pytest

from repro.data import Catalog, FuzzyRelation, FuzzyTuple, Schema
from repro.engine import NaiveEvaluator
from repro.fuzzy import CrispNumber, Op, TrapezoidalNumber, possibility
from repro.join.merge_join import WINDOW_RUNG
from repro.observe import QueryMetrics
from repro.session import StorageSession
from repro.unnest import UnnestError, unnest

N = CrispNumber
T = TrapezoidalNumber
SCHEMA = Schema(["K", "U", "V"])

#: Deliberately overlapping values: partial matches, ties, and duplicates
#: are the regimes where the rewrites can silently drift from the oracle.
POOL = [
    N(0), N(2), N(5), N(9),
    T(0, 1, 2, 4), T(1, 3, 4, 6), T(3, 5, 5, 7), T(4, 6, 8, 11),
]

#: Proper trapezoids only, staggered so that neighbours' supports overlap
#: while their cores do not: every non-identical pair that joins at all
#: joins at a ramp crossing, the closed-form branch POOL's 0/1 shortcuts
#: (half crisp, wide cores) mostly bypass.
RAMP_POOL = [
    T(0, 3, 3.5, 7), T(2, 4, 4.5, 10), T(4, 7, 8, 11), T(6.5, 9, 9.25, 13),
    T(8, 12, 12, 14.5), T(10, 13, 13.5, 18), T(12.5, 15, 16, 19), T(14, 17, 17, 21),
]

#: The duplicate-heavy five-value pool of ``run_bench.build_session``: a
#: fifth of each relation shares every join value, so past a few dozen
#: rows the largest ``Rng(r)`` no longer fits a small buffer.
FIVE_POOL = [N(0), N(5), T(0, 1, 2, 4), T(3, 5, 5, 7), T(4, 6, 8, 12)]

CASES = {
    "N": (
        "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S)",
        "flat/",
    ),
    "J": (
        "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.U = R.U)",
        "flat/",
    ),
    "JX": (
        "SELECT R.K FROM R WHERE R.V NOT IN (SELECT S.V FROM S WHERE S.U = R.U)",
        "grouped/",
    ),
    "JA": (
        "SELECT R.K FROM R WHERE R.V > (SELECT MAX(S.V) FROM S WHERE S.U = R.U)",
        "pipelined/",
    ),
    "chain": (
        "SELECT R.K FROM R WHERE R.U IN "
        "(SELECT S.V FROM S WHERE S.K IN (SELECT S2.V FROM S S2 WHERE S2.U = R.V))",
        "flat/",
    ),
}

#: Joins that no equality links: the compiler's block nested-loop operator,
#: alone and on top of a band join.
NESTED_LOOP_CASES = {
    "flat <": ("SELECT R.K FROM R, S WHERE R.V < S.V", "flat/"),
    "< SOME": ("SELECT R.K FROM R WHERE R.V < SOME (SELECT S.V FROM S)", "flat/"),
    "band + non-equi": (
        "SELECT R.K FROM R, S, S S2 WHERE R.U = S.U AND S.V < S2.V AND R.V <= S2.U",
        "flat/",
    ),
}

N_CASES = 50


def make_relation(rng: random.Random, n: int, base: int, pool=POOL) -> FuzzyRelation:
    rel = FuzzyRelation(SCHEMA)
    for i in range(n):
        rel.add(
            FuzzyTuple(
                [N(base + i), rng.choice(pool), rng.choice(pool)],
                rng.choice([0.3, 0.6, 0.8, 1.0]),
            )
        )
    return rel


def build(seed: int, pool=POOL, sizes=(2, 8), buffer_pages=16):
    rng = random.Random(seed)
    r = make_relation(rng, rng.randint(*sizes), 0, pool)
    s = make_relation(rng, rng.randint(*sizes), 1000, pool)
    catalog = Catalog()
    catalog.register("R", r)
    catalog.register("S", s)
    session = StorageSession(buffer_pages=buffer_pages, page_size=512)
    session.register("R", r)
    session.register("S", s)
    return catalog, session


def rewrite_answer(sql: str, catalog: Catalog) -> FuzzyRelation:
    plan = unnest(sql, catalog)
    return plan.execute(catalog, NaiveEvaluator)


def test_ramp_pool_joins_at_ramp_crossings():
    degrees = [possibility(x, Op.EQ, y) for x in RAMP_POOL for y in RAMP_POOL if x is not y]
    assert all(d < 1.0 for d in degrees)
    assert sum(0.0 < d for d in degrees) >= len(degrees) // 2


def check_three_engines_agree(label, pool, cases=CASES, operator=None):
    """Oracle, session and rewrite agree; ``operator`` must be in the plan."""
    sql, strategy_prefix = cases[label]
    for seed in range(N_CASES):
        catalog, session = build(1000 * hash(label) % 7919 + seed, pool)
        oracle = NaiveEvaluator(catalog).evaluate(sql)

        stored = session.query(sql)
        assert session.last_strategy.startswith(strategy_prefix), (
            f"{label} seed={seed}: ran {session.last_strategy}"
        )
        if operator is not None:
            assert operator in session.last_plan.explain(), label
        assert oracle.same_as(stored, 1e-9), (
            f"{label} seed={seed} [{session.last_strategy}]\n"
            f"oracle:\n{oracle.pretty()}\nsession:\n{stored.pretty()}"
        )

        rewritten = rewrite_answer(sql, catalog)
        assert oracle.same_as(rewritten, 1e-9), (
            f"{label} seed={seed} [rewrite]\n"
            f"oracle:\n{oracle.pretty()}\nrewrite:\n{rewritten.pretty()}"
        )


@pytest.mark.parametrize("label", sorted(CASES))
def test_three_engines_agree(label):
    check_three_engines_agree(label, POOL)


@pytest.mark.parametrize("label", sorted(CASES))
def test_three_engines_agree_on_ramp_crossings(label):
    check_three_engines_agree(label, RAMP_POOL)


@pytest.mark.parametrize("label", sorted(NESTED_LOOP_CASES))
def test_three_engines_agree_on_nested_loop_joins(label):
    check_three_engines_agree(label, POOL, NESTED_LOOP_CASES, "NestedLoop")


@pytest.mark.parametrize("label", sorted(CASES))
def test_three_engines_agree_past_the_window_boundary(label):
    """One size past the boundary: the band join's window outgrows the
    buffer, the plan keeps its strategy, finishes on the ladder's
    nested-loop rung (``docs/robustness.md``) and still equals the oracle."""
    sql, strategy_prefix = CASES[label]
    catalog, session = build(1995, FIVE_POOL, sizes=(40, 40), buffer_pages=4)
    metrics = QueryMetrics()
    stored = session.query(sql, metrics=metrics)
    assert session.last_strategy.startswith(strategy_prefix)
    assert metrics.degraded and WINDOW_RUNG in metrics.degraded_reason
    oracle = NaiveEvaluator(catalog).evaluate(sql)
    assert oracle.same_as(stored, 1e-9)
    assert oracle.same_as(rewrite_answer(sql, catalog), 1e-9)


@pytest.mark.parametrize("workers", [1, 2, 4], ids=["workers1", "workers2", "workers4"])
@pytest.mark.parametrize("label", sorted(CASES))
def test_stored_engine_parallel_workers_agree(label, workers):
    """The ``workers=N`` option never changes an answer, for any nesting type.

    The storage session may run the range-partitioned parallel join, or
    degrade to the serial path (tiny relations often yield no usable
    boundaries) — either way the answer must be bit-identical to the
    serial run, across the same seed sweep as the engine-vs-engine test.
    """
    sql, _ = CASES[label]
    for seed in range(N_CASES):
        _catalog, session = build(1000 * hash(label) % 7919 + seed)
        serial = session.query(sql)
        _catalog, parallel_session = build(1000 * hash(label) % 7919 + seed)
        got = parallel_session.query(sql, workers=workers)
        assert serial.same_as(got, 0.0), (
            f"{label} seed={seed} workers={workers}: parallel answer diverged\n"
            f"serial:\n{serial.pretty()}\nparallel:\n{got.pretty()}"
        )


@pytest.mark.parametrize("shards", [1, 2, 4], ids=["shards1", "shards2", "shards4"])
@pytest.mark.parametrize("label", sorted(CASES))
def test_stored_engine_sharded_agree(label, shards):
    """The ``shards=N`` option never changes an answer, for any nesting type.

    A sharded session places every registered relation across N simulated
    disks on ``V``; every band join — flat, and the JX / JA folds — may run
    on the placement, or decline to the local join (tiny relations often
    yield no usable shard boundaries, and the folds band on the
    correlation ``U``, not on ``V``) — either way the answer set,
    *including degrees*, must be bit-identical to the serial run across
    the same seed sweep.
    """
    sql, _ = CASES[label]
    for seed in range(N_CASES):
        _catalog, session = build(1000 * hash(label) % 7919 + seed)
        serial = session.query(sql)

        rng = random.Random(1000 * hash(label) % 7919 + seed)
        r = make_relation(rng, rng.randint(2, 8), 0)
        s = make_relation(rng, rng.randint(2, 8), 1000)
        sharded = StorageSession(
            buffer_pages=16, page_size=512, shards=shards, shard_on="V"
        )
        sharded.register("R", r)
        sharded.register("S", s)
        got = sharded.query(sql)
        assert serial.same_as(got, 0.0), (
            f"{label} seed={seed} shards={shards}: sharded answer diverged\n"
            f"serial:\n{serial.pretty()}\nsharded:\n{got.pretty()}"
        )


#: Every ``(table, attribute)`` the indexed differential sweep indexes —
#: both join attributes on both relations, so any index-eligible access
#: path the planner can pick is actually on offer.
INDEXED_ATTRS = (("R", "V"), ("R", "U"), ("S", "V"), ("S", "U"))

#: Indexed sweeps build four indexes per seed, so they run a reduced seed
#: count; the index paths themselves are deterministic, so breadth in the
#: data pool matters more than seed volume here.
N_INDEXED_CASES = 20


def build_indexed(seed: int, shards: int = 1) -> StorageSession:
    """The same relations as :func:`build`, with every attr indexed.

    The generator sequence is identical to :func:`build`'s, so the heaps
    are byte-for-byte the same and any divergence is the index path's.
    """
    rng = random.Random(seed)
    r = make_relation(rng, rng.randint(2, 8), 0)
    s = make_relation(rng, rng.randint(2, 8), 1000)
    if shards > 1:
        session = StorageSession(
            buffer_pages=16, page_size=512, shards=shards, shard_on="V"
        )
    else:
        session = StorageSession(buffer_pages=16, page_size=512)
    session.register("R", r)
    session.register("S", s)
    for table, attribute in INDEXED_ATTRS:
        session.create_index(table, attribute)
    return session


@pytest.mark.parametrize("shards", [1, 2, 4], ids=["shards1", "shards2", "shards4"])
@pytest.mark.parametrize("label", sorted(CASES))
def test_indexed_session_agrees(label, shards):
    """Support-interval indexes never change an answer, for any nesting type.

    With every join attribute indexed the planner is free to pick the
    index-assisted access paths wherever its cost model says they win —
    and free to decline them.  Either way the answer, *including
    degrees*, must be bit-identical to the plain session's, across
    nesting types and shard counts (sharded execution delegates the join
    back to the row path; the index must not interfere).
    """
    sql, _ = CASES[label]
    for seed in range(N_INDEXED_CASES):
        base_seed = 1000 * hash(label) % 7919 + seed
        _catalog, session = build(base_seed)
        serial = session.query(sql)
        indexed = build_indexed(base_seed, shards=shards)
        got = indexed.query(sql)
        assert serial.same_as(got, 0.0), (
            f"{label} seed={seed} shards={shards}: indexed answer diverged\n"
            f"plain:\n{serial.pretty()}\nindexed:\n{got.pretty()}"
        )


@pytest.mark.parametrize("workers", [1, 2, 4], ids=["workers1", "workers2", "workers4"])
@pytest.mark.parametrize("label", sorted(CASES))
def test_indexed_session_parallel_workers_agree(label, workers):
    """Indexes plus ``workers=N`` still never change an answer."""
    sql, _ = CASES[label]
    for seed in range(N_INDEXED_CASES):
        base_seed = 1000 * hash(label) % 7919 + seed
        _catalog, session = build(base_seed)
        serial = session.query(sql)
        indexed = build_indexed(base_seed)
        got = indexed.query(sql, workers=workers)
        assert serial.same_as(got, 0.0), (
            f"{label} seed={seed} workers={workers}: indexed answer diverged\n"
            f"plain:\n{serial.pretty()}\nindexed:\n{got.pretty()}"
        )


def test_sharded_path_actually_engages():
    """On inputs large enough to yield boundaries, shard tasks really run.

    The matrix above tolerates degradation (bit-identical either way);
    this test pins that the scatter-gather path is not silently dead by
    checking the per-shard counters on a relation big enough to split.
    """
    from repro.observe import QueryMetrics

    rng = random.Random(7)
    r = make_relation(rng, 40, 0)
    s = make_relation(rng, 40, 1000)
    session = StorageSession(buffer_pages=16, page_size=512, shards=4, shard_on="V")
    session.register("R", r)
    session.register("S", s)
    serial = StorageSession(buffer_pages=16, page_size=512)
    serial.register("R", r)
    serial.register("S", s)

    sql = CASES["J"][0]
    metrics = QueryMetrics()
    got = session.query(sql, metrics=metrics)
    assert serial.query(sql).same_as(got, 0.0)
    assert metrics.shards, "scatter-gather join never engaged on a 40-tuple split"
    assert metrics.requested_shards == 4
    assert sum(sh.rows_out for sh in metrics.shards) >= len(got)


#: The fold statements: each one band joins on the correlation ``S.U = R.U``.
FOLD_CASES = {
    "JX": CASES["JX"][0],
    "JALL": "SELECT R.K FROM R WHERE R.V > ALL (SELECT S.V FROM S WHERE S.U = R.U)",
    "JA": CASES["JA"][0],
}


@pytest.mark.parametrize("label", sorted(FOLD_CASES))
def test_fold_statements_partition(label):
    """JX / JALL / JA run the same partitioned band join as J.

    With ``workers=4``, and on a ``shards=4`` session placed on the fold's
    band attribute ``U``, slices really run, and the answer equals the
    serial one bit for bit and the oracle's.
    """
    sql = FOLD_CASES[label]
    rng = random.Random(7)
    r = make_relation(rng, 40, 0)
    s = make_relation(rng, 40, 1000)
    catalog = Catalog()
    catalog.register("R", r)
    catalog.register("S", s)

    def session(**options):
        out = StorageSession(buffer_pages=16, page_size=512, **options)
        out.register("R", r)
        out.register("S", s)
        return out

    serial = session().query(sql)
    assert NaiveEvaluator(catalog).evaluate(sql).same_as(serial, 1e-9)
    for options, query_options in (({}, {"workers": 4}), ({"shards": 4, "shard_on": "U"}, {})):
        metrics = QueryMetrics()
        got = session(**options).query(sql, metrics=metrics, **query_options)
        assert metrics.partitions or metrics.shards, (
            f"{label} {options or query_options}: no slice ran "
            f"({metrics.degraded_reason})"
        )
        assert got.same_as(serial, 0.0), f"{label} {options or query_options}"


def test_unnest_never_silently_skipped():
    """Every differential case actually exercises its rewrite."""
    for label, (sql, _) in CASES.items():
        catalog, _session = build(1)
        try:
            plan = unnest(sql, catalog)
        except UnnestError as exc:  # pragma: no cover - would be a regression
            pytest.fail(f"{label}: rewrite refused: {exc}")
        assert plan.rule, f"{label}: plan carries no rewrite rule"
