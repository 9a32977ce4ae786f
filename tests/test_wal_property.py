"""Property tests: crash recovery is idempotent, at any workload and cut.

Hypothesis draws a random DML workload (inserts with random values and
degrees, updates, deletes — in random order) and a random byte offset to
tear the durable log at.  Whatever it draws:

* replaying the torn log twice yields **byte-identical** disk contents —
  heap versions, index files, and the truncated log itself;
* recovery after a *mid-replay crash* (a version file the first run
  installed goes missing before the second run) still converges to the
  same state: replay starts from the epoch-0 bases every time, so a
  half-finished install is simply overwritten.

The write path replays record bytes, not tuples.  Two more properties
hold it to the tuple semantics it replaced:

* replay over records equals :class:`TupleModel` (value-key identity,
  fuzzy-OR duplicates, deletes by value) for histories over crisp,
  trapezoid, label and discrete values including ``±0.0``, and every file
  of the live session equals the file ``recover()`` writes for it;
* the victim scan's support skip returns exactly the victims of a full
  decode-and-match scan.

And one for indexes: an indexed session and a plain one, run through the
same history of DML batches, checkpoints and crashes, answer every J / N /
JX statement alike after every step, and every index's clustered copy is
byte-identical to :class:`ExternalSorter`'s output over the live heap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import FuzzyRelation, FuzzyTuple, Schema
from repro.data.schema import Attribute
from repro.data.types import AttributeType
from repro.engine.executor import DmlColumns, compile_conjunction
from repro.faults import FaultPlan, FaultyDisk
from repro.fuzzy import CrispLabel, CrispNumber, DiscreteDistribution, TrapezoidalNumber
from repro.observe import QueryMetrics
from repro.session import StorageSession
from repro.sort.external import ExternalSorter
from repro.sql.statements import parse_statement
from repro.storage.serializer import TupleSerializer
from repro.storage.stats import OperationStats
from repro.wal import WAL_FILE, TableState, replay_record
from repro.wal.record import KIND_DELETE, KIND_INSERT, WalRecord

DDL = [
    "CREATE TABLE R (K NUMERIC, U NUMERIC, V NUMERIC)",
]

VALUES = ["0", "2", "5", "9", "'[0, 1, 2, 4]'", "'[1, 3, 4, 6]'", "'[3, 5, 5, 7]'"]


def statements_from(draws):
    """Map Hypothesis draws onto a deterministic DML statement list."""
    statements = []
    for kind, a, b, degree in draws:
        if kind == 0:
            statements.append(
                f"INSERT INTO R VALUES ({a}, {VALUES[b % len(VALUES)]}, "
                f"{VALUES[(a + b) % len(VALUES)]}) WITH D {degree}"
            )
        elif kind == 1:
            statements.append(
                f"UPDATE R SET V = {VALUES[b % len(VALUES)]} WHERE K = {a}"
            )
        else:
            statements.append(f"DELETE FROM R WHERE K = {a}")
    return statements


def build_image(statements):
    """Ingest the workload and return its durable WAL image + schema."""
    session = StorageSession(page_size=512, buffer_pages=16)
    session.execute(DDL)
    session.create_index("R", "V")
    for sql in statements:
        session.execute(sql)
    return session.writes.wal.image()


def recovered_session(image, cut):
    """A fresh session whose disk holds the bases plus ``image[:cut]``."""
    session = StorageSession(page_size=512, buffer_pages=16)
    session.execute(DDL)
    session.create_index("R", "V")
    if cut:
        session.disk.create(WAL_FILE)
        session.disk.append_blob(WAL_FILE, image[:cut])
        session.disk.sync(WAL_FILE)
    return session


def disk_bytes(session):
    return {
        name: list(session.disk._files[name]) for name in session.disk.files()
    }


DRAW = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),    # insert / update / delete
        st.integers(min_value=1, max_value=9),    # key
        st.integers(min_value=0, max_value=9),    # value selector
        st.sampled_from([0.3, 0.6, 1.0]),         # membership degree
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=25, deadline=None)
@given(draws=DRAW, cut_fraction=st.floats(min_value=0.0, max_value=1.0))
def test_double_recovery_is_byte_identical(draws, cut_fraction):
    image = build_image(statements_from(draws))
    cut = round(len(image) * cut_fraction)
    session = recovered_session(image, cut)
    first = session.recover()
    after_one = disk_bytes(session)
    second = session.recover()
    assert first.tables == second.tables
    assert second.truncated_bytes == 0
    assert disk_bytes(session) == after_one


@settings(max_examples=15, deadline=None)
@given(draws=DRAW, cut_fraction=st.floats(min_value=0.5, max_value=1.0))
def test_recovery_converges_after_a_mid_replay_crash(draws, cut_fraction):
    """Losing an installed version file between runs changes nothing."""
    image = build_image(statements_from(draws))
    cut = round(len(image) * cut_fraction)
    reference = recovered_session(image, cut)
    reference.recover()
    crashed = recovered_session(image, cut)
    crashed.recover()
    # The "crash": every non-base version the first replay installed is
    # torn away, as if the process died mid-install on its next run.
    for name in list(crashed.disk.files()):
        if "@e" in name:
            crashed.disk.delete(name)
    crashed.recover()
    assert disk_bytes(crashed) == disk_bytes(reference)


# ----------------------------------------------------------------------
# Record-level replay against the tuple-level model
# ----------------------------------------------------------------------
N, T, L, D = CrispNumber, TrapezoidalNumber, CrispLabel, DiscreteDistribution

#: Values whose bytes and keys disagree somewhere: signed zeros in every
#: float slot, and two discrete values that are equal only up to the sign
#: of a zero whose repr reorders their elements (so they are *not* equal).
POOL = [
    N(0.0), N(-0.0), N(2.5), N(-3.0),
    T(-1.0, 0.0, 0.0, 1.0), T(-1.0, -0.0, 0.0, 1.0), T(-0.0, 0.0, 1.0, 2.0), T(0.0, 0.0, 1.0, 2.0),
    L("a"), L("b"),
    D({-0.0: 0.5, 2.0: 1.0}), D({0.0: 0.5, 2.0: 1.0}),
    D({-0.0: 0.5, -1.0: 1.0}), D({0.0: 0.5, -1.0: 1.0}),
    D({"x": 0.4, "y": 1.0}),
]
PAIR_SCHEMA = Schema(["A", "B"])


class TupleModel:
    """The tuple-level replay the record-level ``TableState`` replaced.

    Rows are decoded tuples matched by ``value_key()``: an INSERT of an
    existing key keeps the max degree in place, a DELETE removes the
    match (if any) and later rows move up.
    """

    def __init__(self, serializer):
        self.serializer = serializer
        self.tuples = []

    def _find(self, key):
        return next((i for i, t in enumerate(self.tuples) if t.value_key() == key), None)

    def apply(self, record: WalRecord) -> None:
        t = self.serializer.decode(record.row)
        at = self._find(t.value_key())
        if record.kind == KIND_DELETE:
            if at is not None:
                del self.tuples[at]
        elif at is None:
            self.tuples.append(t)
        elif t.degree > self.tuples[at].degree:
            self.tuples[at] = FuzzyTuple(self.tuples[at].values, t.degree)


def row_of(a: int, b: int, degree: float) -> FuzzyTuple:
    return FuzzyTuple([POOL[a], POOL[b]], degree)


def swapped(t: FuzzyTuple) -> FuzzyTuple:
    """An UPDATE's new row: the old one with its two columns swapped."""
    return FuzzyTuple(t.values[::-1], t.degree)


def row_records(verb: str, t: FuzzyTuple):
    """``(kind, tuple)`` of the WAL rows one op logs for ``t`` (UPDATE = DELETE + INSERT)."""
    if verb == "update":
        return [(KIND_DELETE, t), (KIND_INSERT, swapped(t))]
    return [(KIND_INSERT if verb == "insert" else KIND_DELETE, t)]


PICK = st.integers(min_value=0, max_value=len(POOL) - 1)
ROWS = st.lists(st.tuples(PICK, PICK, st.sampled_from([0.2, 0.5, 1.0])), min_size=1, max_size=4)
#: One transaction: insert, delete (present or absent, one or many) or update rows.
TXNS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "update"]), ROWS), min_size=1, max_size=8
)


@settings(max_examples=60, deadline=None)
@given(txns=TXNS, fixed=st.sampled_from([None, 128]))
def test_record_replay_equals_the_tuple_model(txns, fixed):
    serializer = TupleSerializer(PAIR_SCHEMA, fixed)
    model, records = TupleModel(serializer), []
    for verb, rows in txns:
        state = TableState(serializer, records)
        for row in rows:
            for kind, t in row_records(verb, row_of(*row)):
                record = WalRecord(kind, 1, "R", serializer.encode(t))
                replay_record(state, record)
                model.apply(record)
        records = state.records()
        assert records == [serializer.encode(t) for t in model.tuples]
        assert state.tuples == model.tuples
        assert [t.degree for t in state.tuples] == [t.degree for t in model.tuples]


@settings(max_examples=30, deadline=None)
@given(initial=ROWS, txns=TXNS, fixed=st.sampled_from([None, 128]))
def test_live_files_equal_the_files_recovery_writes(initial, txns, fixed):
    geometry = dict(page_size=512, buffer_pages=16, fixed_tuple_size=fixed)
    session = StorageSession(**geometry)
    relation = FuzzyRelation(PAIR_SCHEMA, [row_of(*row) for row in initial])
    session.register("R", relation)
    model = TupleModel(session.tables["R"].serializer)
    model.tuples.extend(relation)
    for verb, rows in txns:
        tuples = [row_of(*row) for row in rows]
        payload = [(t, swapped(t)) for t in tuples] if verb == "update" else tuples
        session.writes.apply_ops([(verb, "R", payload)])
        for t in tuples:
            for kind, u in row_records(verb, t):
                model.apply(WalRecord(kind, 1, "R", model.serializer.encode(u)))
    heap = session.tables["R"]
    live = disk_bytes(session)
    assert heap_records(session, heap.name) == [model.serializer.encode(t) for t in model.tuples]
    survivor = StorageSession(disk=session.disk, **geometry)
    survivor.attach("R", PAIR_SCHEMA)
    survivor.recover()
    recovered = disk_bytes(survivor)
    assert survivor.tables["R"].name == heap.name
    assert recovered == {name: live[name] for name in recovered}


def heap_records(session, name):
    """Every record of file ``name``, in storage order."""
    return list(session.disk.records(name))


# ----------------------------------------------------------------------
# The victim scan's support skip
# ----------------------------------------------------------------------
SKIP_SCHEMA = Schema([
    Attribute("K"),
    Attribute("U", domain="DOM"),
    Attribute("L", AttributeType.LABEL),
    Attribute("X"),
])
U_POOL = [N(1.0), N(2.0), N(5.0), T(0.0, 1.0, 2.0, 4.0), T(3.0, 5.0, 5.0, 7.0), T(2.0, 2.0, 2.0, 2.0)]
L_POOL = [L("a"), L("b")]
X_POOL = [D({1.0: 0.5, 2.0: 1.0}), D({5.0: 1.0}), D({"a": 1.0}), N(2.0)]
CONJUNCTS = [
    "K = 2", "K = 7", "K < 3", "K <> 4", "U = 2", "U = 'near2'", "U = 'far'",
    "U < 2", "L = 'a'", "L = 2", "X = 2", "X = 5", "2 = K",
]
THRESHOLDS = ["", " WITH D >= 0", " WITH D >= 0.0", " WITH D >= 0.4", " WITH D >= 0.9"]


def full_scan_victims(session, stmt):
    """Every row decoded and matched: the scan before the support skip."""
    heap = session.tables["R"]
    columns = DmlColumns({None, "R", heap.name}, heap.schema)
    match = compile_conjunction(stmt.where, columns, columns, session.vocabulary)
    victims = []
    for t in map(heap.serializer.decode, heap_records(session, heap.name)):
        d = min(t.degree, match(t))
        if (d >= stmt.threshold) if stmt.threshold is not None else (d > 0.0):
            victims.append(t)
    return victims


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 8), st.sampled_from(U_POOL), st.sampled_from(L_POOL),
            st.sampled_from(X_POOL), st.sampled_from([0.2, 0.5, 1.0]),
        ),
        min_size=1, max_size=12,
    ),
    where=st.lists(st.sampled_from(CONJUNCTS), min_size=1, max_size=3),
    threshold=st.sampled_from(THRESHOLDS),
)
def test_support_skip_returns_the_full_scan_victims(rows, where, threshold):
    session = StorageSession(page_size=512, buffer_pages=16)
    session.vocabulary.define("near2", T(1.0, 2.0, 2.0, 3.0), "DOM")
    session.vocabulary.define("far", T(40.0, 50.0, 50.0, 60.0), "DOM")
    session.register("R", FuzzyRelation(
        SKIP_SCHEMA, [FuzzyTuple([N(k), u, lab, x], d) for k, u, lab, x, d in rows]
    ))
    stmt = parse_statement(f"DELETE FROM R WHERE {' AND '.join(where)}{threshold}")
    got = session._dml_victims("R", "R", stmt.where, stmt.threshold)
    want = full_scan_victims(session, stmt)
    assert [(t.value_key(), t.degree) for t in got] == [(t.value_key(), t.degree) for t in want]


# ----------------------------------------------------------------------
# Indexed sessions under writes
# ----------------------------------------------------------------------
def page_images(disk, name):
    """Every page of file ``name`` as raw bytes."""
    return [disk.read_page(name, i).to_bytes() for i in range(disk.n_pages(name))]


def stale_copies(session):
    """The indexes whose clustered copy is not, page for page,
    :class:`ExternalSorter`'s output over the table's live heap."""
    disk, stale = session.disk, []
    with disk.use_stats(OperationStats()):
        for (table, attribute), copy in sorted(session.indexes.items()):
            check = ExternalSorter(disk, 3, OperationStats()).sort(
                session.tables[table], attribute, "__check"
            )
            if page_images(disk, copy.name) != page_images(disk, check.name):
                stale.append((table, attribute))
            disk.delete(check.name)
    return stale


INDEX_DDL = DDL + ["CREATE TABLE S (K NUMERIC, U NUMERIC, V NUMERIC)"]
INDEXED = (("R", "V"), ("S", "V"), ("R", "U"))
READS = [
    "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S)",
    "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.U = R.U)",
    "SELECT R.K FROM R WHERE R.V NOT IN (SELECT S.V FROM S WHERE S.U = R.U)",
]
ROW = st.tuples(
    st.sampled_from("RS"),
    st.integers(min_value=1, max_value=6),   # key
    st.integers(min_value=0, max_value=9),   # value selector
    st.sampled_from([0.3, 0.6, 1.0]),
)
STEP = st.one_of(
    st.tuples(st.just("dml"), st.lists(st.tuples(st.integers(0, 2), ROW), min_size=1, max_size=4)),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("crash")),
)


def dml_batch(ops):
    """One ``execute`` batch of INSERT / UPDATE / DELETE statements."""
    batch = []
    for kind, (table, key, b, degree) in ops:
        v, u = VALUES[b % len(VALUES)], VALUES[(key + b) % len(VALUES)]
        if kind == 0:
            batch.append(f"INSERT INTO {table} VALUES ({key}, {u}, {v}) WITH D {degree}")
        elif kind == 1:
            batch.append(f"UPDATE {table} SET V = {v} WHERE K = {key}")
        else:
            batch.append(f"DELETE FROM {table} WHERE K = {key}")
    return batch


def fresh(disk, indexed):
    """A session on ``disk`` with six rows per table in its base files (and indexed)."""
    session = StorageSession(page_size=256, buffer_pages=8, disk=disk)
    session.execute(INDEX_DDL)
    session.execute(dml_batch([(0, (t, k, k, 0.6)) for t in "RS" for k in range(1, 7)]))
    session.checkpoint()
    if indexed:
        for table, attribute in INDEXED:
            session.create_index(table, attribute)
    return session


def survivor(disk, session):
    """A new session attached to ``disk`` after a crash, recovered."""
    after = StorageSession(page_size=256, buffer_pages=8, disk=disk)
    for name in ("R", "S"):
        after.attach(name, session.tables[name].schema)
    after.recover()
    return after


@settings(max_examples=20, deadline=None)
@given(
    steps=st.lists(STEP, min_size=1, max_size=6),
    z=st.sampled_from([0.3, 0.6]),
)
def test_indexed_sessions_answer_alike_under_writes(steps, z):
    """Both sessions answer alike after every step; a batch of UPDATEs
    keeps every row count, so the reads after it are plan-cache hits."""
    disks = {indexed: FaultyDisk(FaultPlan(seed=0), page_size=256, armed=False) for indexed in (True, False)}
    sessions = {indexed: fresh(disk, indexed) for indexed, disk in disks.items()}
    texts = [text for sql in READS for text in (sql, f"{sql} WITH D >= {z}")]
    for session in sessions.values():
        for text in texts:
            session.query(text)
    for disk in disks.values():
        disk.armed = True
    for step in steps:
        for indexed, session in list(sessions.items()):
            if step[0] == "dml":
                session.execute(dml_batch(step[1]))
            elif step[0] == "checkpoint":
                session.checkpoint()
            else:
                disks[indexed].crash()
                sessions[indexed] = survivor(disks[indexed], session)
        updates_only = step[0] == "dml" and all(kind == 1 for kind, _row in step[1])
        indexed, plain = sessions[True], sessions[False]
        assert sorted(indexed.indexes) == sorted(INDEXED)
        assert stale_copies(indexed) == []
        for text in texts:
            metrics = QueryMetrics()
            assert indexed.query(text, metrics=metrics).same_as(plain.query(text), 0.0), (step, text)
            if updates_only:
                assert metrics.plan_cache == "hit", (step, text)
