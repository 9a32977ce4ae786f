"""One binding rule: every plan reads the live catalog.

A leaf the planner builds remembers its catalog name and binds to that
table's current heap epoch — and its current index — when the plan runs
(:func:`repro.engine.operators.live_heap`).  The rule is the same for a
fresh plan, a plan-cache hit and a ``prepare()``d statement, on default
sessions and on ``adaptive=True`` ones (an accepted, inert keyword the
wall benchmark still passes); these tests pin the three places where
three disagreeing rules used to return wrong answers or silently change
strategy after DML.
"""

import random

import pytest

from repro.data import Catalog, FuzzyRelation, FuzzyTuple, Schema
from repro.engine import NaiveEvaluator
from repro.errors import FuzzyQueryError
from repro.fuzzy import CrispNumber as N
from repro.observe import QueryMetrics
from repro.session import StorageSession
from repro.storage import BufferPool

SCHEMA = Schema(["K", "U", "V"])


def oracle(session: StorageSession, sql: str) -> FuzzyRelation:
    """``NaiveEvaluator`` over the session's current table contents."""
    catalog = Catalog(session.vocabulary)
    pool = BufferPool(session.disk, 8)
    for name, heap in session.tables.items():
        catalog.register(name, heap.to_relation(pool))
    return NaiveEvaluator(catalog).evaluate(sql)


# ----------------------------------------------------------------------
# Prepared closed statements after DML
# ----------------------------------------------------------------------
STATEMENTS = {
    "flat": "SELECT R.K FROM R WHERE R.V = 5",
    "N": "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S)",
    "grouped": "SELECT R.K FROM R WHERE R.V NOT IN (SELECT S.V FROM S WHERE S.U = R.U)",
    "ja": "SELECT R.K FROM R WHERE R.V > (SELECT MAX(S.V) FROM S WHERE S.U = R.U)",
}

#: Each pair changes the answer of every statement above.
DML = {
    "insert": ["INSERT INTO R VALUES (4, 3, 5)", "INSERT INTO S VALUES (1003, 3, 4)"],
    "update": ["UPDATE R SET V = 5 WHERE K = 1", "UPDATE S SET V = 6 WHERE K = 1002"],
    "delete": ["DELETE FROM R WHERE K = 2", "DELETE FROM S WHERE K = 1000"],
}


def small_session(adaptive: bool) -> StorageSession:
    session = StorageSession(adaptive=adaptive)
    session.register(
        "R", FuzzyRelation.from_rows(SCHEMA, [(0, 1, 5), (1, 1, 6), (2, 2, 5), (3, 2, 7)])
    )
    session.register(
        "S", FuzzyRelation.from_rows(SCHEMA, [(1000, 1, 5), (1001, 2, 9), (1002, 2, 7)])
    )
    return session


@pytest.mark.parametrize("adaptive", [False, True], ids=["default", "adaptive"])
@pytest.mark.parametrize("verb", sorted(DML))
@pytest.mark.parametrize("label", sorted(STATEMENTS))
def test_prepared_closed_statement_reads_the_live_tables(label, verb, adaptive):
    sql = STATEMENTS[label]
    session = small_session(adaptive)
    prepared = session.prepare(sql)
    before = prepared.execute()
    for statement in DML[verb]:
        session.execute(statement)  # one epoch each
    after = prepared.execute()
    assert not after.same_as(before, 0.0), "the DML must matter to this statement"
    assert after.same_as(session.query(sql), 0.0)
    assert oracle(session, sql).same_as(after, 1e-9)


def test_prepared_statement_outlives_the_retained_epochs():
    """The issue's reproduction, run past the snapshot retention window."""
    session = StorageSession()
    session.register("R", FuzzyRelation.from_rows(Schema(["K", "V"]), [(1, 5), (2, 6)]))
    prepared = session.prepare("SELECT R.K FROM R WHERE R.V = 5")
    for key in (3, 4, 5, 6):
        session.execute(f"INSERT INTO R VALUES ({key}, 5)")
    assert sorted(t[0].value for t in prepared.execute()) == [1, 3, 4, 5, 6]


def test_prepared_statement_over_a_dropped_table_fails_typed():
    session = small_session(False)
    prepared = session.prepare(STATEMENTS["flat"])
    session.execute("DROP TABLE R")
    with pytest.raises(FuzzyQueryError, match="dropped after this statement was planned"):
        prepared.execute()


# ----------------------------------------------------------------------
# A cached index merge-join across DML (benign installs keep hits)
# ----------------------------------------------------------------------
IN_SQL = "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S)"


def indexed_pair() -> StorageSession:
    rng = random.Random(0)
    session = StorageSession(buffer_pages=8, page_size=1024)
    schema = Schema(["K", "V"])
    for name, base in (("R", 0), ("S", 1000)):
        session.register(
            name,
            FuzzyRelation(
                schema,
                [FuzzyTuple([N(base + i), N(rng.randrange(400))], 1.0) for i in range(300)],
            ),
        )
        session.create_index(name, "V")
    return session


@pytest.mark.parametrize(
    "dml",
    [
        ["DELETE FROM R WHERE R.K = 0", "INSERT INTO R VALUES (5000, 123)"],
        ["DELETE FROM S WHERE S.K = 1000", "DELETE FROM R WHERE R.K = 0"],
    ],
    ids=["delete+insert", "delete both sides"],
)
def test_cached_index_merge_join_follows_both_indexes(dml):
    session = indexed_pair()
    assert "Scan(R, filter=true, clustered on V)" in session.explain(IN_SQL)
    assert oracle(session, IN_SQL).same_as(session.query(IN_SQL), 1e-9)
    session.execute(dml)
    metrics = QueryMetrics()
    cached = session.query(IN_SQL, metrics=metrics)
    assert metrics.plan_cache == "hit"
    assert "Scan(R, filter=true, clustered on V)" in session.last_plan.explain()
    assert oracle(session, IN_SQL).same_as(cached, 1e-9)


# ----------------------------------------------------------------------
# Index access paths survive DML (looked up by catalog name, not file name)
# ----------------------------------------------------------------------
def test_index_paths_survive_dml_and_checkpoint():
    rng = random.Random(1)
    session = StorageSession()
    session.register(
        "R",
        FuzzyRelation(
            Schema(["K", "V"]),
            [FuzzyTuple([N(i), N(rng.randrange(400))], 1.0) for i in range(2000)],
        ),
    )
    session.create_index("R", "V")
    scans = ["SELECT R.K FROM R WHERE R.V = 17", "SELECT R.K FROM R WHERE R.V <= 3"]

    def check(stage):
        for sql in scans:
            assert "IndexScan(" in session.explain(sql), (stage, sql)
            assert oracle(session, sql).same_as(session.query(sql), 1e-9), (stage, sql)

    check("before DML")
    session.execute("INSERT INTO R VALUES (9999, 17)")
    check("after INSERT")
    session.execute(["DELETE FROM R WHERE R.K = 5", "UPDATE R SET V = 2 WHERE K = 7"])
    check("after DELETE + UPDATE")
    session.checkpoint()
    check("after checkpoint")
