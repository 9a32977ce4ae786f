"""Recovery chaos suite: crash at every WAL byte offset, and prove it.

The durability contract of the write path is replayed under four crash
shapes, each deterministic and each checked against a fault-free
reference ingest:

* **torn tail at every byte offset** — the durable WAL image is cut at
  every possible byte boundary; recovery must restore exactly the
  committed transaction prefix and cleanly truncate the tail — never a
  torn row, a stale index entry, or a checksum panic;
* **scripted crash mid-append** — :meth:`FaultPlan.crash_write` kills
  the process partway through the WAL blob write (power loss during
  ``write()``); the un-synced transaction must vanish whole;
* **lost fsync** — :meth:`FaultPlan.lose_sync` makes the durability
  barrier lie; a crash then drops the acknowledged-but-volatile tail
  and recovery must not panic;
* **torn write that reached the platter** — a corrupted blob *is*
  synced; scan must stop at the bad frame and truncate everything after
  it, including later well-formed transactions.

Every recovered state is verified two ways: row-for-row against the
reference prefix ingest, and differentially — the five nesting types of
the paper's taxonomy return bit-identical answers on the recovered and
the reference session.  Recovery is idempotent (byte-identical disk
after a second run) and leaks no files beyond the heap versions, the
index files, and the log itself.
"""

import pytest

from repro.faults import CrashPointError, FaultPlan, FaultyDisk
from repro.session import StorageSession
from repro.wal import KIND_COMMIT, WAL_FILE, scan
from tests.test_wal_property import stale_copies

#: DDL executed before arming any fault schedule (bases become durable).
DDL = [
    "CREATE TABLE R (K NUMERIC, U NUMERIC, V NUMERIC)",
    "CREATE TABLE S (K NUMERIC, U NUMERIC, V NUMERIC)",
]

#: One WAL transaction per entry: inserts (crisp and trapezoidal, with
#: and without degrees), an update, and a delete.
DML = [
    "INSERT INTO R VALUES (1, 2, 5), (2, '[1, 3, 4, 6]', 9) WITH D 0.8",
    "INSERT INTO S VALUES (1001, 2, 5), (1002, 5, '[3, 5, 5, 7]')",
    "INSERT INTO R VALUES (3, '[0, 1, 2, 4]', 2) WITH D 0.6",
    "INSERT INTO S VALUES (1003, '[4, 6, 8, 11]', 9) WITH D 0.3",
    "UPDATE R SET V = 0 WHERE K = 2",
    "DELETE FROM S WHERE K = 1001",
]

#: The five nesting types of the paper's taxonomy (same shapes as the
#: fault-free differential sweep in tests/test_differential.py).
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

SHARD_CONFIGS = [1, 2]


def make_session(disk=None, shards=1):
    return StorageSession(page_size=512, buffer_pages=16, disk=disk, shards=shards)


def ingest(session, n_statements=None):
    """Run the DDL, index S.V, then the first ``n_statements`` DML txns."""
    session.execute(DDL)
    session.create_index("S", "V")
    for sql in DML[: len(DML) if n_statements is None else n_statements]:
        session.execute(sql)
    return session


def rows_of(session, name):
    """Decoded heap contents as a sorted, comparable list."""
    heap = session.tables[name]
    out = []
    for page_index in range(heap.n_pages):
        page = session.disk.read_page(heap.name, page_index)
        for record in page.records():
            t = heap.serializer.decode(record)
            out.append((repr(t.values), round(t.degree, 12)))
    return sorted(out)


def state_of(session):
    return {name: rows_of(session, name) for name in ("R", "S")}


_REFERENCES = {}


def reference(n_statements):
    """A fault-free session holding the first ``n_statements`` DML txns."""
    if n_statements not in _REFERENCES:
        _REFERENCES[n_statements] = ingest(make_session(), n_statements)
    return _REFERENCES[n_statements]


def assert_matches_reference(session, n_committed, cases=()):
    """Row-for-row and differential equality with the reference prefix."""
    ref = reference(n_committed)
    assert state_of(session) == state_of(ref)
    for label in cases:
        got = session.query(CASES[label])
        assert got.same_as(ref.query(CASES[label])), (label, n_committed)


def assert_no_stale_index(session):
    """Every clustered copy is the external sort of its live heap, byte for byte."""
    assert stale_copies(session) == []


def assert_no_leaks(session):
    """Only heaps, their versions, index files, and the WAL may exist."""
    for name in session.disk.files():
        base = name.split("@", 1)[0]
        assert (
            name == WAL_FILE
            or name.startswith("__idx_")
            or base in session.tables
        ), f"leaked file {name!r}"


def committed_in(image):
    return sum(
        1 for e in scan(image).entries if e.record.kind == KIND_COMMIT
    )


def survivor_of(disk, schemas, shards=1):
    """A fresh session attached to the crashed disk's durable tables."""
    session = make_session(disk=disk, shards=shards)
    for name, schema in schemas.items():
        session.attach(name, schema)
    return session


# ----------------------------------------------------------------------
# Torn tail at every byte offset
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_CONFIGS)
def test_recovery_at_every_wal_byte_offset(shards):
    """Cut the durable log at every byte; recovery restores the prefix.

    The committed-transaction count is checked at *every* offset; the
    full five-type differential sweep runs once per distinct committed
    prefix (the only points where the recovered state changes).
    """
    base = ingest(make_session(shards=shards))
    image = base.writes.wal.image()
    schemas = {name: base.tables[name].schema for name in ("R", "S")}
    assert committed_in(image) == len(DML)
    swept = set()
    for cut in range(len(image) + 1):
        torn = image[:cut]
        expected = committed_in(torn)
        session = make_session(shards=shards)
        session.execute(DDL)
        session.create_index("S", "V")
        if torn:
            session.disk.create(WAL_FILE)
            session.disk.append_blob(WAL_FILE, torn)
            session.disk.sync(WAL_FILE)
        report = session.recover()
        assert report.txns_replayed == expected, cut
        good = scan(torn).good_length
        assert report.truncated_bytes == cut - good, cut
        # The log is clean after recovery: no torn tail survives.
        assert session.writes.wal.image() == torn[:good], cut
        first_time = expected not in swept
        swept.add(expected)
        assert_matches_reference(
            session, expected, cases=sorted(CASES) if first_time else ()
        )
        if first_time:
            assert_no_stale_index(session)
            assert_no_leaks(session)
    assert swept == set(range(len(DML) + 1))


# ----------------------------------------------------------------------
# Scripted crash points mid-append
# ----------------------------------------------------------------------
def wal_blob_extents(shards):
    """Discover each DML txn's WAL write ordinal and blob length."""
    disk = FaultyDisk(FaultPlan(seed=0), page_size=512, armed=False)
    session = make_session(disk=disk, shards=shards)
    session.execute(DDL)
    session.create_index("S", "V")
    disk.armed = True
    extents = []
    for sql in DML:
        ordinal = disk._write_ordinal
        before = len(session.writes.wal.image())
        session.execute(sql)
        extents.append((ordinal, len(session.writes.wal.image()) - before))
    return extents, {name: session.tables[name].schema for name in ("R", "S")}


@pytest.mark.parametrize("shards", SHARD_CONFIGS)
def test_scripted_crash_during_every_wal_append(shards):
    """Power loss mid-``write()`` of any txn's blob loses that txn whole."""
    extents, schemas = wal_blob_extents(shards)
    for j, (ordinal, blob_len) in enumerate(extents):
        for keep in sorted({0, 1, blob_len // 2, blob_len - 1}):
            plan = FaultPlan(seed=0).crash_write(ordinal, keep_bytes=keep)
            disk = FaultyDisk(plan, page_size=512, armed=False)
            session = make_session(disk=disk, shards=shards)
            session.execute(DDL)
            session.create_index("S", "V")
            disk.armed = True
            for sql in DML[:j]:
                session.execute(sql)
            with pytest.raises(CrashPointError):
                session.execute(DML[j])
            assert plan.injected.crash_points == 1
            disk.crash()
            survivor = survivor_of(disk, schemas)
            report = survivor.recover()
            assert report.txns_replayed == j, (j, keep)
            assert_matches_reference(survivor, j, cases=("J",))
            assert_no_leaks(survivor)


# ----------------------------------------------------------------------
# Lost fsyncs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_CONFIGS)
@pytest.mark.parametrize("lost", range(len(DML)))
def test_lost_fsync_drops_the_acknowledged_txn(lost, shards):
    """An fsync that lied + a crash loses exactly the un-durable txn."""
    plan = FaultPlan(seed=0).lose_sync(lost)
    disk = FaultyDisk(plan, page_size=512, armed=False)
    session = make_session(disk=disk, shards=shards)
    session.execute(DDL)
    session.create_index("S", "V")
    disk.armed = True
    for sql in DML[: lost + 1]:
        session.execute(sql)  # the last txn's barrier silently fails
    assert plan.injected.lost_syncs == 1
    schemas = {name: session.tables[name].schema for name in ("R", "S")}
    disk.crash()
    survivor = survivor_of(disk, schemas)
    report = survivor.recover()
    assert report.txns_replayed == lost
    assert_matches_reference(survivor, lost, cases=("N",))


# ----------------------------------------------------------------------
# Torn writes that reached the platter
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_CONFIGS)
@pytest.mark.parametrize("torn", range(len(DML)))
def test_durably_torn_blob_truncates_everything_after_it(torn, shards):
    """A synced-but-corrupt frame ends the committed prefix at scan time.

    Transactions appended *after* the torn blob are well-formed but
    unreachable — recovery must truncate them too, never replay across
    the damage.
    """
    plan = FaultPlan(seed=0)
    extents, schemas = wal_blob_extents(shards)
    plan.tear_write(extents[torn][0])
    disk = FaultyDisk(plan, page_size=512, armed=False)
    session = make_session(disk=disk, shards=shards)
    session.execute(DDL)
    session.create_index("S", "V")
    disk.armed = True
    for sql in DML:
        session.execute(sql)
    assert plan.injected.torn_writes == 1
    survivor = survivor_of(disk, schemas)
    report = survivor.recover()
    assert report.txns_replayed == torn
    assert report.truncated_bytes > 0
    assert_matches_reference(survivor, torn, cases=("JA",))


# ----------------------------------------------------------------------
# Idempotence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_CONFIGS)
def test_recovery_is_byte_idempotent(shards):
    """A second recovery leaves every disk file byte-identical."""
    base = ingest(make_session(shards=shards))
    image = base.writes.wal.image()
    cut = len(image) - 3  # a torn tail, so the first run truncates
    session = make_session(shards=shards)
    session.execute(DDL)
    session.create_index("S", "V")
    session.disk.create(WAL_FILE)
    session.disk.append_blob(WAL_FILE, image[:cut])
    session.disk.sync(WAL_FILE)
    first = session.recover()
    files_after_one = {
        name: list(session.disk._files[name]) for name in session.disk.files()
    }
    second = session.recover()
    files_after_two = {
        name: list(session.disk._files[name]) for name in session.disk.files()
    }
    assert first.tables == second.tables
    assert second.truncated_bytes == 0
    assert files_after_one == files_after_two
