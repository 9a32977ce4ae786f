"""What ``adaptive=True`` left behind: one plan-cache rule, and an inert flag.

Two contracts, each pinned here:

* **The one cache rule** — on every session a write keeps cached plans
  while the table's row count stays within a quarter of the count at its
  last statistics-version bump, and invalidates them past it.  Ingest
  into one table never evicts another table's plans, and a kept plan —
  flat, grouped or pipelined — reads the live (post-write) rows, because
  its scan leaves rebind to the live heap version at execution.  Every
  answer equals :class:`~repro.engine.NaiveEvaluator`'s.
* **The inert flag** — ``StorageSession(adaptive=True)`` is still
  accepted (the wall benchmark passes it) and answers bit-identically to
  a default session across the nesting-type × shards × workers matrix.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data import Catalog, FuzzyRelation, FuzzyTuple, Schema
from repro.engine import NaiveEvaluator
from repro.fuzzy import CrispNumber, TrapezoidalNumber
from repro.observe import QueryMetrics
from repro.session import StorageSession
from repro.shell import FuzzyShell
from repro.storage import BufferPool

N = CrispNumber
T = TrapezoidalNumber
SCHEMA = Schema(["K", "U", "V"])
POOL = [
    N(0), N(2), N(5), N(9),
    T(0, 1, 2, 4), T(1, 3, 4, 6), T(3, 5, 5, 7), T(4, 6, 8, 11),
]

#: The flat nesting-type cases of the differential sweep, reused here so
#: the inert-flag matrix covers the same query shapes.
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

N_CASES = 10


def make_relation(rng: random.Random, n: int, base: int) -> FuzzyRelation:
    rel = FuzzyRelation(SCHEMA)
    for i in range(n):
        rel.add(
            FuzzyTuple(
                [N(base + i), rng.choice(POOL), rng.choice(POOL)],
                rng.choice([0.3, 0.6, 0.8, 1.0]),
            )
        )
    return rel


def build(seed: int, adaptive: bool = False, shards: int = 1) -> StorageSession:
    rng = random.Random(seed)
    r = make_relation(rng, rng.randint(2, 8), 0)
    s = make_relation(rng, rng.randint(2, 8), 1000)
    kwargs = dict(buffer_pages=16, page_size=512)
    if shards > 1:
        kwargs.update(shards=shards, shard_on="V")
    if adaptive:
        kwargs.update(adaptive=True)
    session = StorageSession(**kwargs)
    session.register("R", r)
    session.register("S", s)
    return session


def oracle(session: StorageSession, sql: str) -> FuzzyRelation:
    """``NaiveEvaluator`` over the session's current table contents."""
    catalog = Catalog(session.vocabulary)
    pool = BufferPool(session.disk, 8)
    for name, heap in session.tables.items():
        catalog.register(name, heap.to_relation(pool))
    return NaiveEvaluator(catalog).evaluate(sql)


# ----------------------------------------------------------------------
# The adaptive differential matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 4], ids=["workers1", "workers4"])
@pytest.mark.parametrize("shards", [1, 2], ids=["shards1", "shards2"])
@pytest.mark.parametrize("label", sorted(CASES))
def test_adaptive_matrix_bit_identical(label, shards, workers):
    """``adaptive=True`` never changes an answer, for any nesting type.

    The flag is accepted and inert; the answer set, *including degrees*,
    must be bit-identical to the plain session's across the nesting
    taxonomy, shard counts, and worker counts.
    """
    sql = CASES[label]
    for seed in range(N_CASES):
        base_seed = 1000 * hash(label) % 7919 + seed
        plain = build(base_seed)
        want = plain.query(sql, workers=workers)
        adaptive = build(base_seed, adaptive=True, shards=shards)
        got = adaptive.query(sql, workers=workers)
        assert want.same_as(got, 0.0), (
            f"{label} seed={seed} shards={shards} workers={workers}: "
            f"adaptive answer diverged\n"
            f"plain:\n{want.pretty()}\nadaptive:\n{got.pretty()}"
        )


# ----------------------------------------------------------------------
# The one plan-cache rule
# ----------------------------------------------------------------------
def cache_session() -> StorageSession:
    session = StorageSession()
    for name in ("A", "B"):
        rel = FuzzyRelation(SCHEMA)
        for i in range(20):
            rel.add(FuzzyTuple([N(i), N(i % 5), N(i % 7)], 1.0))
        session.register(name, rel)
    return session


A_SQL = "SELECT A.K FROM A WHERE A.V = 0 WITH D >= 0.5"
B_SQL = "SELECT B.K FROM B WHERE B.V = 0 WITH D >= 0.5"


def insert_into_a(session: StorageSession, rows: int, value: int = 3, first: int = 100) -> None:
    session.execute(
        [f"INSERT INTO A VALUES ({first + i}, {value}, {value})" for i in range(rows)]
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    rows=st.integers(min_value=0, max_value=30),
    value=st.integers(min_value=0, max_value=6),
)
def test_drift_evicts_exactly_the_dependent_entries(rows, value):
    """Ingest into ``A`` evicts A's cached plan past the growth rule, and
    never B's.

    ``rows`` rows go into the 20-row ``A``: up to 5 (a quarter) the plan
    over ``A`` stays a *hit*, from 6 on it is ``invalidated``.  Either way
    the plan over ``B`` is a hit and the served answer is the oracle's.
    """
    session = cache_session()
    session.query(A_SQL)
    session.query(B_SQL)
    if rows:
        insert_into_a(session, rows, value)

    a_metrics, b_metrics = QueryMetrics(), QueryMetrics()
    a_answer = session.query(A_SQL, metrics=a_metrics)
    session.query(B_SQL, metrics=b_metrics)
    assert b_metrics.plan_cache == "hit", "ingest into A must not evict B's plan"
    assert a_metrics.plan_cache == ("invalidated" if 4 * rows > 20 else "hit")
    assert oracle(session, A_SQL).same_as(a_answer, 1e-9)


def test_one_cache_rule_on_a_default_session():
    """Hit up to a quarter of growth, invalidated past it, and measured
    against the count at the last bump, not the last write."""
    session = cache_session()
    session.query(A_SQL)
    outcomes = []
    for rows, first in ((5, 100), (2, 200), (1, 300)):  # 20 -> 25 -> 27 -> 28
        insert_into_a(session, rows, value=0, first=first)
        metrics = QueryMetrics()
        answer = session.query(A_SQL, metrics=metrics)
        outcomes.append(metrics.plan_cache)
        assert oracle(session, A_SQL).same_as(answer, 1e-9)
        assert {t[0] for t in answer} >= {N(first + i) for i in range(rows)}
    assert outcomes == ["hit", "invalidated", "hit"]


def test_heavy_skew_certainly_rebuilds():
    """A pin that the growth rule is crossable: after +150 % rows the
    cached plan over ``A`` is invalidated and rebuilt."""
    session = cache_session()
    session.query(A_SQL)
    insert_into_a(session, 30)
    metrics = QueryMetrics()
    answer = session.query(A_SQL, metrics=metrics)
    assert metrics.plan_cache == "invalidated"
    assert oracle(session, A_SQL).same_as(answer, 1e-9)


def test_shrinking_past_a_quarter_invalidates():
    session = cache_session()
    session.query(A_SQL)
    session.execute("DELETE FROM A WHERE A.K <= 5")  # 20 -> 14 rows
    metrics = QueryMetrics()
    answer = session.query(A_SQL, metrics=metrics)
    assert metrics.plan_cache == "invalidated"
    assert oracle(session, A_SQL).same_as(answer, 1e-9)


def test_benign_ingest_stays_hit():
    """A pin that one uniform row keeps the plan over ``A``."""
    session = cache_session()
    session.query(A_SQL)
    session.execute("INSERT INTO A VALUES (100, 1, 1)")
    metrics = QueryMetrics()
    answer = session.query(A_SQL, metrics=metrics)
    assert metrics.plan_cache == "hit"
    assert oracle(session, A_SQL).same_as(answer, 1e-9)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT A.K FROM A WHERE A.V NOT IN (SELECT B.V FROM B WHERE B.U = A.U)",
        "SELECT A.K FROM A WHERE A.K > (SELECT MAX(B.K) FROM B WHERE B.U = A.U)",
    ],
    ids=["JX", "JA"],
)
def test_benign_ingest_keeps_fold_plans_and_they_read_the_live_table(sql):
    """Grouped / pipelined artifacts are operator trees too: their scan
    leaves rebind, so a benign install is a hit — on the new rows."""
    session = cache_session()
    session.query(sql)
    session.execute("INSERT INTO A VALUES (100, 1, 3)")  # no B row has U=1, V=3
    session.execute("INSERT INTO B VALUES (101, 2, 2)")
    metrics = QueryMetrics()
    cached = session.query(sql, metrics=metrics)
    assert metrics.plan_cache == "hit"
    assert oracle(session, sql).same_as(cached, 1e-9)
    assert N(100) in {t[0] for t in cached}


# ----------------------------------------------------------------------
# Shell surfaces
# ----------------------------------------------------------------------
class TestShellStats:
    def test_explain_shows_cached_plan_tokens(self):
        session = cache_session()
        shell = FuzzyShell(session)
        shell.execute(A_SQL)
        out = shell.execute("\\explain " + A_SQL)
        assert "cached plan tokens:" in out
        assert "A: stats_version=" in out
        assert "layout_token=0" in out

    def test_explain_without_cache_entry_is_plain(self):
        session = cache_session()
        shell = FuzzyShell(session)
        out = shell.execute("\\explain " + A_SQL)
        assert "cached plan tokens:" not in out
