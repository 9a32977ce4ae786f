"""The index as a clustered copy, its range scan, and the column kernels.

Three layers, three contracts:

* the clustered copy ``create_index(T, X)`` writes is T's records in
  X's interval order, byte-identical to :class:`ExternalSorter`'s output,
  with fences that bound their pages;
* the batch kernels in :mod:`repro.columnar.kernel` are *bit-identical*
  to the scalar library — pinned on structured edge cases and hammered
  by Hypothesis across random crisp/trapezoid pairs;
* the access paths — :class:`IndexScan` and a band join over copies —
  answer exactly what the row path answers: the scan reads only the
  pages the planner priced, the join skips its sorts and never deletes
  the copy it read, and both fall back the row path's way (window rung,
  sharded execution).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import (
    IndexScan,
    UnsupportedIndexError,
    batch_eq_necessity,
    clustered_copy,
    batch_eq_possibility,
    fenced_pages,
    index_file_name,
)
from repro.data import FuzzyRelation, FuzzyTuple, Schema
from repro.engine.context import ExecutionContext
from repro.errors import StorageFaultError
from repro.faults import FaultPlan, FaultyDisk
from repro.fuzzy import CrispNumber, DiscreteDistribution, TrapezoidalNumber
from repro.fuzzy.compare import Op, necessity, possibility
from repro.join.merge_join import WINDOW_RUNG
from repro.observe import QueryMetrics
from repro.session import StorageSession
from repro.sort.external import ExternalSorter
from repro.storage import BufferPool
from repro.storage.stats import OperationStats
from repro.testing import trapezoids

N = CrispNumber
T = TrapezoidalNumber
SCHEMA = Schema(["K", "V", "U"])
POOL = [N(0.0), N(5.0), T(0, 1, 2, 4), T(3, 5, 5, 7), T(4, 6, 8, 12)]


def clustered_session(
    n=60, tables=("R", "S"), index_attr=None, seed=23, page_size=1024, buffer_pages=16,
    disk=None,
):
    """A session whose heaps arrive clustered on ``V``'s interval order.

    Mirrors the benchmark's ``columnar_J``/``indexed_J`` sessions: the
    indexed and plain variants consume the identical generator sequence,
    so any divergence between them is the index path's fault.
    """
    rng = random.Random(seed)
    session = StorageSession(page_size=page_size, buffer_pages=buffer_pages, disk=disk)

    def rel():
        rows = [
            FuzzyTuple(
                [N(float(i)), rng.choice(POOL), rng.choice(POOL)],
                rng.choice([0.3, 0.6, 1.0]),
            )
            for i in range(n)
        ]
        rows.sort(key=lambda t: t[1].interval())
        return FuzzyRelation(SCHEMA, rows)

    for name in tables:
        session.register(name, rel())
    if index_attr is not None:
        for name in tables:
            session.create_index(name, index_attr)
    return session


def answers(relation):
    """Hashable (values, degree) set with exact float repr for bit checks."""
    return sorted(
        (tuple(repr(v) for v in t.values), t.degree) for t in relation.tuples()
    )


# ----------------------------------------------------------------------
# Pages of the clustered copy
# ----------------------------------------------------------------------
class TestColumnarPage:
    def test_round_trip_is_bit_exact(self):
        session = StorageSession(page_size=1024, buffer_pages=16)
        rows = [
            FuzzyTuple([N(0.0), T(0.5, 1.25, 2.75, 4.0), N(-0.0)], 0.3),
            FuzzyTuple([N(1.0), T(-3.5, -1.0, 0.0, 2.0), N(1e-300)], 0.6),
            FuzzyTuple([N(2.0), N(7.0), T(0.1, 0.2, 0.3, 0.7)], 0.125),
        ]
        session.register("R", FuzzyRelation(SCHEMA, rows))
        copy = session.create_index("R", "V")
        back = list(copy.to_relation(BufferPool(session.disk, 4)))
        expected = sorted(rows, key=lambda t: t[1].interval())
        # repr pins every float's bits (and the sign of -0.0).
        assert [(tuple(map(repr, t.values)), t.degree) for t in back] == [
            (tuple(map(repr, t.values)), t.degree) for t in expected
        ]

    def test_fence_key_properties(self):
        session = StorageSession(page_size=1024, buffer_pages=16)
        rows = [
            FuzzyTuple([N(1.0), T(2, 3, 4, 5), N(0.0)], 1.0),
            FuzzyTuple([N(0.0), T(0, 1, 2, 9), N(0.0)], 1.0),
        ]
        session.register("R", FuzzyRelation(SCHEMA, rows))
        copy = session.create_index("R", "V")
        with session.disk.use_stats(OperationStats()):
            assert keys_of(copy) == [(0.0, 9.0), (2.0, 5.0)]
        # One page: its first support begin, and the largest support end
        # on it (not the last row's), over its two rows.
        assert copy.fences == [(0.0, 9.0, 2)]


# ----------------------------------------------------------------------
# Vectorized kernels vs the scalar library
# ----------------------------------------------------------------------
def as_columns(values):
    """Lower a list of crisp/trapezoid values into kernel columns."""
    cols = ([], [], [], [])
    for v in values:
        if isinstance(v, TrapezoidalNumber):
            entry = (v.a, v.b, v.c, v.d)
        else:
            entry = (v.value, v.value, v.value, v.value)
        for col, x in zip(cols, entry):
            col.append(x)
    return cols


#: Narrow range so random supports overlap often — the core-overlap and
#: ramp-intersection branches are the ones worth hammering.
kernel_values = st.one_of(
    st.floats(min_value=-5, max_value=5, allow_nan=False).map(CrispNumber),
    trapezoids(min_value=-5, max_value=5),
)


class TestKernelBitIdenticality:
    def check_batch(self, probe, values):
        got = batch_eq_possibility(probe, *as_columns(values))
        for v, degree in zip(values, got):
            want = possibility(v, Op.EQ, probe)
            assert repr(degree) == repr(want), (probe, v, degree, want)

    def test_structured_cases(self):
        probe = T(0, 1, 2, 4)
        values = [
            N(0.0),            # point on the left ramp
            N(1.5),            # point in the core
            N(4.0),            # point at the support edge
            N(9.0),            # point outside
            T(0, 1, 2, 4),     # identical trapezoid
            T(3, 5, 5, 7),     # ramp intersection (cores disjoint)
            T(5, 6, 7, 8),     # disjoint supports
            T(1, 2, 2, 3),     # core inside probe's core
            T(2, 2, 2, 2),     # degenerate trapezoid == point
        ]
        self.check_batch(probe, values)
        self.check_batch(N(1.0), values)
        self.check_batch(T(2, 2, 2, 2), values)  # degenerate probe

    @given(kernel_values, st.lists(kernel_values, min_size=1, max_size=8))
    @settings(deadline=None, max_examples=300)
    def test_possibility_matches_scalar_bitwise(self, probe, values):
        self.check_batch(probe, values)

    @given(kernel_values, st.lists(kernel_values, min_size=1, max_size=8))
    @settings(deadline=None, max_examples=200)
    def test_probe_on_left_matches_flipped_scalar(self, probe, values):
        got = batch_eq_possibility(probe, *as_columns(values), probe_on_left=True)
        for v, degree in zip(values, got):
            assert repr(degree) == repr(possibility(probe, Op.EQ, v))

    @given(kernel_values, st.lists(kernel_values, min_size=1, max_size=8))
    @settings(deadline=None, max_examples=200)
    def test_necessity_matches_scalar_bitwise(self, probe, values):
        got = batch_eq_necessity(probe, *as_columns(values))
        for v, degree in zip(values, got):
            assert repr(degree) == repr(necessity(v, Op.EQ, probe))

    def test_rejects_non_numeric_probe(self):
        with pytest.raises(TypeError):
            batch_eq_possibility(DiscreteDistribution({1.0: 1.0}), [], [], [], [])


# ----------------------------------------------------------------------
# The clustered copy
# ----------------------------------------------------------------------
def page_images(disk, name):
    """Every page of file ``name`` as raw bytes."""
    return [disk.read_page(name, i).to_bytes() for i in range(disk.n_pages(name))]


def keys_of(copy):
    """``(b, e)`` of the clustered attribute for every record, in file order."""
    column = copy.schema.index_of(copy.order)
    return [copy.serializer.key_at(r, column) for r in copy.disk.records(copy.name)]


class TestSupportIntervalIndex:
    def build(self, n=60):
        session = clustered_session(n=n, tables=("R",), seed=5)
        rng = random.Random(3)
        # Shuffle the heap: the copy must sort, not inherit, its order.
        rows = list(session.tables["R"].to_relation(BufferPool(session.disk, 4)))
        rng.shuffle(rows)
        session.register("R", FuzzyRelation(SCHEMA, rows))
        copy = session.create_index("R", "V")
        return session, copy

    def test_entries_come_back_in_interval_order(self):
        session, copy = self.build()
        with session.disk.use_stats(OperationStats()):
            keys = keys_of(copy)
        assert copy.name == index_file_name("R", "V") and copy.order == "V"
        assert len(keys) == copy.n_tuples == 60
        assert keys == sorted(keys)

    def test_copy_is_the_sorters_output_byte_for_byte(self):
        session, copy = self.build()
        disk = session.disk
        with disk.use_stats(OperationStats()):
            # A 3-page buffer forces several runs and merge passes.
            sorted_heap = ExternalSorter(disk, 3, OperationStats()).sort(
                session.tables["R"], "V", "__check"
            )
            assert page_images(disk, copy.name) == page_images(disk, sorted_heap.name)
            assert copy.n_pages > 3

    def test_directory_matches_pages(self):
        session, copy = self.build()
        assert len(copy.fences) == copy.n_pages
        assert sum(rows for _, _, rows in copy.fences) == copy.n_tuples
        column = copy.schema.index_of("V")
        with session.disk.use_stats(OperationStats()):
            for i, (first_b, max_e, rows) in enumerate(copy.fences):
                keys = [
                    copy.serializer.key_at(r, column)
                    for r in session.disk.read_page(copy.name, i).records()
                ]
                assert rows == len(keys)
                assert first_b == keys[0][0]
                assert max_e == max(e for _, e in keys)  # not the last row's

    def test_overlapping_pages_prunes_but_never_drops(self):
        session, copy = self.build(n=240)
        assert copy.n_pages > 3
        hits = fenced_pages(copy, Op.EQ, 0.0, 0.0)
        assert 0 < len(hits) < copy.n_pages  # a selective probe prunes pages
        # Soundness: every row overlapping the probe lives on a hit page.
        column = copy.schema.index_of("V")
        with session.disk.use_stats(OperationStats()):
            for i in range(copy.n_pages):
                for record in session.disk.read_page(copy.name, i).records():
                    b, e = copy.serializer.key_at(record, column)
                    if b <= 0.0 <= e:
                        assert i in hits
        # A probe past every support touches nothing.
        assert fenced_pages(copy, Op.EQ, 1e9, 2e9) == []
        assert fenced_pages(copy, Op.LE, -1e9, -1e9) == []
        assert fenced_pages(copy, Op.GE, 1e9, 1e9) == []

    def test_fetch_charges_tagged_index_reads(self):
        session = clustered_session(n=240, tables=("R",), index_attr="V")
        session.query(SCAN_SQL)
        total = session.last_stats.total
        assert "IndexScan(" in session.last_plan.explain()
        assert total.index_pages_read == total.page_reads > 0

    def test_unindexable_attribute_refused_cleanly(self):
        session = StorageSession(page_size=1024, buffer_pages=16)
        rel = FuzzyRelation(SCHEMA)
        rel.add(FuzzyTuple([N(1), DiscreteDistribution({1.0: 1.0}), N(2)], 1.0))
        session.register("R", rel)
        with pytest.raises(UnsupportedIndexError):
            session.create_index("R", "V")
        assert ("R", "V") not in session.indexes
        assert not session.disk.exists(index_file_name("R", "V"))

    def test_register_rebuilds_existing_indexes(self):
        session = clustered_session(n=30, tables=("R",), index_attr="V")
        before = session.indexes[("R", "V")].n_tuples
        rng = random.Random(99)
        fresh = FuzzyRelation(SCHEMA)
        for i in range(50):
            fresh.add(FuzzyTuple([N(i), rng.choice(POOL), rng.choice(POOL)], 1.0))
        session.register("R", fresh)
        after = session.indexes[("R", "V")]
        assert before == 30 and after.n_tuples == 50


# ----------------------------------------------------------------------
# Access paths: the row path's answer, less work
# ----------------------------------------------------------------------
SCAN_SQL = "SELECT R.K FROM R WHERE R.V = 0 WITH D >= 0.5"
JOIN_SQL = "SELECT R.K, S.K FROM R, S WHERE R.V = S.V AND R.U = S.U WITH D >= 0.6"


def indexed_session(n=30, indexed=True) -> StorageSession:
    """A 30-row ``R`` over ``(K, U, V)``, with or without its ``V`` index."""
    rng = random.Random(17)
    rel = FuzzyRelation(Schema(["K", "U", "V"]))
    for i in range(n):
        rel.add(FuzzyTuple([N(i), rng.choice(POOL), rng.choice(POOL)], 1.0))
    session = StorageSession()
    session.register("R", rel)
    if indexed:
        session.create_index("R", "V")
    return session


class TestIndexPatch:
    """After a single-row write the index's clustered copy is byte-identical
    to one built afresh from the live heap."""

    def test_patched_image_bit_identical_to_full_rebuild(self):
        session = indexed_session()
        session.execute("UPDATE R SET U = 99 WHERE K = 5")
        live = session.indexes[("R", "V")]
        check = clustered_copy(session.tables["R"], "V", "__idx_check")
        assert page_images(session.disk, live.name) == page_images(session.disk, check.name)
        assert live.fences == check.fences
        assert live.n_tuples == check.n_tuples

    def test_queries_identical_after_patch(self):
        patched = indexed_session()
        patched.execute("UPDATE R SET U = 99 WHERE K = 5")
        plain = indexed_session(indexed=False)
        plain.execute("UPDATE R SET U = 99 WHERE K = 5")
        sql = "SELECT R.K FROM R WHERE R.V = 0 WITH D >= 0.5"
        assert plain.query(sql).same_as(patched.query(sql), 0.0)


def index_scan_of(session):
    """The :class:`IndexScan` node of the session's last plan."""
    node = session.last_plan
    while not isinstance(node, IndexScan):
        [node] = node.children()
    return node


class TestIndexScanPath:
    def test_bit_identical_and_strictly_cheaper(self):
        plain = clustered_session(n=240, tables=("R",))
        want = plain.query(SCAN_SQL)
        row = plain.last_stats.total

        indexed = clustered_session(n=240, tables=("R",), index_attr="V")
        got = indexed.query(SCAN_SQL)
        idx = indexed.last_stats.total

        assert answers(got) == answers(want)
        assert "IndexScan(" in indexed.last_plan.explain()
        assert idx.page_reads < row.page_reads
        assert idx.fuzzy_evaluations < row.fuzzy_evaluations
        assert idx.index_pages_read > 0

    def test_zero_threshold_still_bit_identical(self):
        sql = "SELECT R.K FROM R WHERE R.V = 0"
        plain = clustered_session(n=240, tables=("R",))
        indexed = clustered_session(n=240, tables=("R",), index_attr="V")
        assert answers(indexed.query(sql)) == answers(plain.query(sql))

    def test_planner_declines_when_seq_scan_is_cheaper(self):
        # A probe every page can match: the fences prune nothing, so the
        # range scan would read what the sequential scan reads.
        sql = "SELECT R.K FROM R WHERE R.V >= 0 WITH D >= 0.5"
        indexed = clustered_session(n=60, tables=("R",), index_attr="V")
        indexed.query(sql)
        assert "IndexScan(" not in indexed.last_plan.explain()

    def test_explain_analyze_reports_index_counters(self):
        indexed = clustered_session(n=240, tables=("R",), index_attr="V")
        report = indexed.explain_analyze(SCAN_SQL)
        assert "index pages read=" in report

        plain = clustered_session(n=240, tables=("R",))
        assert "index pages read=" not in plain.explain_analyze(SCAN_SQL)

    @pytest.mark.parametrize("sql", [
        "SELECT R.K FROM R WHERE R.V = 17", "SELECT R.K FROM R WHERE R.V <= 3",
    ])
    def test_priced_pages_are_the_pages_read(self, sql):
        rng = random.Random(1)
        session = StorageSession()
        session.register("R", FuzzyRelation(
            Schema(["K", "V"]),
            [FuzzyTuple([N(i), N(rng.randrange(400))], 1.0) for i in range(2000)],
        ))
        session.create_index("R", "V")
        session.query(sql)
        scan = index_scan_of(session)
        assert 0 < scan.pages < session.tables["R"].n_pages
        assert f"pages={scan.pages}" in scan.describe()
        assert session.last_stats.total.page_reads == scan.pages


class TestIndexMergeJoinPath:
    def test_bit_identical_and_strictly_cheaper(self):
        plain = clustered_session(n=60)
        want = plain.query(JOIN_SQL)
        row = plain.last_stats.total

        indexed = clustered_session(n=60, index_attr="V")
        got = indexed.query(JOIN_SQL)
        idx = indexed.last_stats.total

        assert answers(got) == answers(want)
        plan = indexed.last_plan.explain()
        assert "Scan(R, filter=true, clustered on V)" in plan
        assert "Scan(S, filter=true, clustered on V)" in plan
        assert idx.page_reads < row.page_reads
        assert idx.page_writes == 0  # no external sort, no scratch writes
        # The same fold: every pair degree the row path evaluates.
        assert idx.fuzzy_evaluations == row.fuzzy_evaluations
        assert "sort" not in indexed.last_stats.phases

    def test_window_overflow_falls_back_bit_identically(self):
        # Every V identical: the merge window must span the whole copy,
        # which cannot fit in a tiny buffer — the fold must step down its
        # window rung, not fail and not change the answer.
        def build(indexed):
            rng = random.Random(5)
            session = StorageSession(page_size=1024, buffer_pages=4)

            def rel(base):
                rows = [
                    FuzzyTuple(
                        [N(base + i), T(0, 1, 2, 4), rng.choice([N(0), N(5)])],
                        rng.choice([0.3, 0.6, 1.0]),
                    )
                    for i in range(120)
                ]
                return FuzzyRelation(SCHEMA, rows)

            session.register("R", rel(0))
            session.register("S", rel(1000))
            if indexed:
                session.create_index("R", "V")
                session.create_index("S", "V")
            return session

        want = build(False).query(JOIN_SQL)
        indexed = build(True)
        metrics = QueryMetrics()
        got = indexed.query(JOIN_SQL, metrics=metrics)
        assert "clustered on V" in indexed.last_plan.explain()
        assert WINDOW_RUNG in (metrics.degraded_reason or "")
        assert answers(got) == answers(want)

    def test_sharded_execution_delegates_bit_identically(self):
        serial = clustered_session(n=60)
        want = serial.query(JOIN_SQL)

        rng = random.Random(23)

        def rel():
            rows = [
                FuzzyTuple(
                    [N(float(i)), rng.choice(POOL), rng.choice(POOL)],
                    rng.choice([0.3, 0.6, 1.0]),
                )
                for i in range(60)
            ]
            rows.sort(key=lambda t: t[1].interval())
            return FuzzyRelation(SCHEMA, rows)

        sharded = StorageSession(
            page_size=1024, buffer_pages=16, shards=4, shard_on="V"
        )
        sharded.register("R", rel())
        sharded.register("S", rel())
        sharded.create_index("R", "V")
        sharded.create_index("S", "V")
        metrics = QueryMetrics()
        got = sharded.query(JOIN_SQL, metrics=metrics)
        assert answers(got) == answers(want)
        # The copies hold the placed heaps' records: the placed join runs.
        assert [entry.kind for entry in metrics.slices] == ["shard"] * len(metrics.slices)
        assert metrics.slices
        assert "not a placed relation" not in (metrics.degraded_reason or "")

    def test_a_fault_in_the_join_phase_leaves_the_copies(self):
        """The fold never deletes an input it did not sort."""
        plan = FaultPlan()
        disk = FaultyDisk(plan, page_size=1024, armed=False)
        indexed = clustered_session(n=120, index_attr="V", disk=disk)
        want = clustered_session(n=120).query(JOIN_SQL)
        assert answers(indexed.query(JOIN_SQL)) == answers(want)
        assert "sort" not in indexed.last_stats.phases
        query_plan = indexed.last_plan
        files = sorted(disk.files())
        copies = {key: page_images(disk, c.name) for key, c in indexed.indexes.items()}

        # Every read of the indexed J is in its join phase; the third one
        # fails past the retry budget.
        plan.fail_read(disk._read_ordinal + 2, times=10)
        disk.armed = True
        with pytest.raises(StorageFaultError):
            indexed.query(JOIN_SQL)
        plan.fail_read(disk._read_ordinal + 2, times=10)
        ctx = ExecutionContext(disk, indexed.buffer_pages, catalog=indexed)
        with pytest.raises(StorageFaultError):
            query_plan.to_relation(ctx)
        disk.armed = False

        assert sorted(disk.files()) == files
        for key, copy in indexed.indexes.items():
            assert page_images(disk, copy.name) == copies[key]
        assert answers(indexed.query(JOIN_SQL)) == answers(want)
