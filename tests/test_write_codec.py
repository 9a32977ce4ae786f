"""The write path decodes and encodes only the rows a statement changes.

A plain session (no index, no shards) applies DML and
recovers on record bytes: a one-row INSERT encodes its one WAL row and
decodes nothing, ``recover()`` decodes nothing, and an UPDATE / DELETE
decodes only the rows whose ``K`` support meets the literal — the rest are
skipped on the bytes.  Sessions whose consumers read values (an index,
a sharded placement) decode lazily, and a session built with the inert
``adaptive=True`` keyword is a plain one: all must keep the
same answers and the same heap files.  Also pinned here: one DML ledger
per ``execute()`` call, and a multi-row DELETE that is linear in the rows.
"""

import pytest

from repro.data import FuzzyRelation, FuzzyTuple, Schema
from repro.fuzzy import CrispNumber, TrapezoidalNumber
from repro.session import StorageSession
from repro.storage.serializer import TupleSerializer

SCHEMA = Schema(["K", "U", "V"])
N_ROWS = 120
J = "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.U = R.U)"


def rows(base: int):
    """``K`` is crisp on even rows and a trapezoid of support width 3 on odd ones."""
    out = []
    for i in range(N_ROWS):
        key = base + i
        k = CrispNumber(key) if i % 2 == 0 else TrapezoidalNumber(key - 1.5, key, key, key + 1.5)
        u = CrispNumber(100.0 * (i % 9))
        v = TrapezoidalNumber(100.0 * (i % 7) - 2, 100.0 * (i % 7), 100.0 * (i % 7), 100.0 * (i % 7) + 2)
        out.append(FuzzyTuple([k, u, v], 0.5 + (i % 5) / 10.0))
    return FuzzyRelation(SCHEMA, out)


def session_of(**options) -> StorageSession:
    session = StorageSession(page_size=1024, buffer_pages=16, fixed_tuple_size=96, **options)
    session.register("R", rows(0))
    session.register("S", rows(1000))
    return session


@pytest.fixture
def codec(monkeypatch):
    """Counts of ``TupleSerializer.decode`` / ``.encode`` calls."""
    counts = {"decode": 0, "encode": 0}
    for name in counts:
        original = getattr(TupleSerializer, name)

        def counted(self, arg, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, arg)

        monkeypatch.setattr(TupleSerializer, name, counted)
    return counts


def meeting(c: float) -> int:
    """Rows of ``rows()`` whose ``K`` support meets ``c``."""
    return sum(1 for t in rows(0) if t[0].interval()[0] <= c <= t[0].interval()[1])


def test_one_row_insert_encodes_once_and_decodes_nothing(codec):
    session = session_of()
    codec.update(decode=0, encode=0)
    session.execute("INSERT INTO R VALUES (9999, 5, 7) WITH D 0.5")
    assert codec == {"decode": 0, "encode": 1}
    assert session.tables["R"].n_tuples == N_ROWS + 1


@pytest.mark.parametrize("c", [4.0, 5.0, 7.5, 500.0])
def test_delete_decodes_only_rows_whose_support_meets_the_literal(codec, c):
    session = session_of()
    codec.update(decode=0, encode=0)
    status = session.execute(f"DELETE FROM R WHERE K = {c}")
    victims = int(status.split()[0])
    assert codec == {"decode": meeting(c), "encode": victims}


def test_update_decodes_only_rows_whose_support_meets_the_literal(codec):
    session = session_of()
    codec.update(decode=0, encode=0)
    session.execute("UPDATE R SET V = 300 WHERE K = 5")
    assert codec == {"decode": meeting(5.0), "encode": 2 * meeting(5.0)}


def test_recovery_decodes_nothing(codec):
    session = session_of()
    session.execute(["INSERT INTO R VALUES (9999, 5, 7)", "DELETE FROM R WHERE K = 4",
                     "UPDATE S SET U = 100 WHERE K = 1006"])
    survivor = StorageSession(page_size=1024, buffer_pages=16, fixed_tuple_size=96, disk=session.disk)
    for name in ("R", "S"):
        survivor.attach(name, SCHEMA)
    codec.update(decode=0, encode=0)
    report = survivor.recover()
    assert report.txns_replayed == 3
    assert codec == {"decode": 0, "encode": 0}


BATCH = [
    "INSERT INTO R VALUES (5000, 100, 200) WITH D 0.7",
    "DELETE FROM R WHERE K = 4",
    "UPDATE R SET V = 300 WHERE K = 5000",
    "INSERT INTO S VALUES (6000, 0, 0)",
    "DELETE FROM S WHERE K >= 1100",
    "UPDATE R SET U = 200 WHERE K = 7",
]


def heap_bytes(session, name):
    disk, heap = session.disk, session.tables[name]
    return heap.name, [disk.read_blob(heap.name, i) for i in range(heap.n_pages)]


@pytest.mark.parametrize(
    "options",
    [{"shards": 2, "shard_on": "V"}, {"adaptive": True}, {"index": True}],
    ids=["sharded", "adaptive", "indexed"],
)
def test_value_reading_sessions_keep_answers_and_files(options):
    plain = session_of()
    options = dict(options)
    index = options.pop("index", False)
    other = session_of(**options)
    if index:
        other.create_index("R", "V")
        other.create_index("S", "V")
    assert plain.execute(BATCH) == other.execute(BATCH)
    assert other.query(J).same_as(plain.query(J), 0.0)
    for name in ("R", "S"):
        assert heap_bytes(other, name) == heap_bytes(plain, name)


def test_one_ledger_per_execute_call():
    """Every flush of a batch lands in ``last_stats``, not only the last."""
    whole = session_of()
    whole.execute(BATCH)
    parts = session_of()
    reads = writes = 0
    # The batch flushes before each UPDATE / DELETE on a table with pending ops.
    for chunk in (BATCH[0:1], BATCH[1:2], BATCH[2:4], BATCH[4:]):
        parts.execute(chunk)
        reads += parts.last_stats.total.page_reads
        writes += parts.last_stats.total.page_writes
    total = whole.last_stats.total
    assert (total.page_reads, total.page_writes) == (reads, writes)
    assert writes > parts.last_stats.total.page_writes


def test_multi_row_delete_removes_every_row():
    session = session_of()
    session.execute("DELETE FROM R WHERE K >= 0")
    assert session.tables["R"].n_tuples == 0
    assert len(session.query("SELECT R.K FROM R")) == 0
