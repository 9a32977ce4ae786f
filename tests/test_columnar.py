"""Columnar pages, the vectorized kernel, and the support-interval index.

Three layers, three contracts:

* :class:`~repro.columnar.pages.ColumnarPage` round-trips every column
  bit-for-bit through its serialized form (the kernel's inputs must be
  the exact floats the row path decodes);
* the vectorized kernels in :mod:`repro.columnar.kernel` are
  *bit-identical* to the scalar library — pinned on structured edge
  cases and hammered by Hypothesis across random crisp/trapezoid pairs;
* the index-assisted access paths (:class:`IndexScan`,
  :class:`IndexMergeJoinOp`) answer exactly what the row path answers,
  while doing strictly less I/O and fuzzy work on selective probes, and
  degrade safely (window overflow, sharded execution) back to the row
  path.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import (
    ColumnarPage,
    IndexMergeJoinOp,
    IndexScan,
    KIND_POINT,
    KIND_TRAPEZOID,
    SupportIntervalIndex,
    UnsupportedIndexError,
    batch_eq_necessity,
    batch_eq_possibility,
    index_file_name,
)
from repro.columnar.pages import ENTRY_BYTES
from repro.data import FuzzyRelation, FuzzyTuple, Schema
from repro.fuzzy import CrispNumber, DiscreteDistribution, TrapezoidalNumber
from repro.fuzzy.compare import Op, necessity, possibility
from repro.observe import QueryMetrics
from repro.session import StorageSession
from repro.storage.stats import OperationStats
from repro.testing import trapezoids

N = CrispNumber
T = TrapezoidalNumber
SCHEMA = Schema(["K", "V", "U"])
POOL = [N(0.0), N(5.0), T(0, 1, 2, 4), T(3, 5, 5, 7), T(4, 6, 8, 12)]


def clustered_session(
    n=60, tables=("R", "S"), index_attr=None, seed=23, page_size=1024, buffer_pages=16
):
    """A session whose heaps arrive clustered on ``V``'s interval order.

    Mirrors the benchmark's ``columnar_J``/``indexed_J`` sessions: the
    indexed and plain variants consume the identical generator sequence,
    so any divergence between them is the index path's fault.
    """
    rng = random.Random(seed)
    session = StorageSession(page_size=page_size, buffer_pages=buffer_pages)

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
# ColumnarPage
# ----------------------------------------------------------------------
class TestColumnarPage:
    def entries(self):
        return [
            (0.0, 0.0, 0.0, 0.0, 1.0, 0, 0, KIND_POINT),
            (0.5, 1.25, 2.75, 4.0, 0.3, 1, 7, KIND_TRAPEZOID),
            (-3.5, -1.0, 0.0, 2.0, 0.6, 4_000_000_000, 65_535, KIND_TRAPEZOID),
            (7.0, 7.0, 7.0, 7.0, 0.125, 2, 3, KIND_POINT),
        ]

    def test_round_trip_is_bit_exact(self):
        page = ColumnarPage()
        for entry in self.entries():
            page.append(*entry)
        back = ColumnarPage.from_bytes(page.to_bytes())
        assert len(back) == len(page)
        for i, entry in enumerate(self.entries()):
            assert back.entry(i) == entry  # == on floats is the bit check here

    def test_capacity_matches_entry_bytes(self):
        from repro.storage.page import Page

        usable = 1024 - Page.HEADER_SIZE - Page.RECORD_OVERHEAD - 2
        assert ColumnarPage.capacity(1024) == usable // ENTRY_BYTES
        # Degenerate page sizes still admit one entry, so builds terminate.
        assert ColumnarPage.capacity(16) == 1

    def test_fits_is_the_capacity_boundary(self):
        page = ColumnarPage()
        cap = ColumnarPage.capacity(1024)
        for i in range(cap):
            assert page.fits(1024)
            page.append(float(i), float(i), float(i), float(i), 1.0, 0, i, KIND_POINT)
        assert not page.fits(1024)

    def test_fence_key_properties(self):
        page = ColumnarPage()
        page.append(0.0, 1.0, 2.0, 9.0, 1.0, 0, 0, KIND_TRAPEZOID)
        page.append(2.0, 3.0, 4.0, 5.0, 1.0, 0, 1, KIND_TRAPEZOID)
        assert page.min_a == 0.0
        assert page.max_a == 2.0
        assert page.max_d == 9.0  # largest support end, not the last entry's
        assert list(page.supports()) == [(0.0, 9.0), (2.0, 5.0)]

    def test_serialized_page_fits_its_carrier(self):
        page = ColumnarPage()
        for i in range(ColumnarPage.capacity(1024)):
            page.append(float(i), float(i), float(i), float(i), 1.0, 0, i, KIND_POINT)
        from repro.storage.page import Page

        carrier = Page(1024)
        assert carrier.fits(page.to_bytes())


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
# SupportIntervalIndex
# ----------------------------------------------------------------------
class TestSupportIntervalIndex:
    def build(self, n=60):
        session = clustered_session(n=n, tables=("R",))
        index = session.create_index("R", "V")
        return session, index

    def test_entries_come_back_in_interval_order(self):
        session, index = self.build()
        with session.disk.use_stats(OperationStats()):
            entries = list(index.scan_entries(session.disk))
        assert len(entries) == index.n_entries == 60
        keys = [(e.a, e.d) for e in entries]
        assert keys == sorted(keys)

    def test_directory_matches_pages(self):
        session, index = self.build()
        assert index.n_pages == len(index.directory)
        assert sum(d[3] for d in index.directory) == index.n_entries
        # Fence keys really bound their pages.
        with session.disk.use_stats(OperationStats()):
            for i, (first_a, last_a, max_d, count) in enumerate(index.directory):
                page = index.fetch(session.disk, i)
                assert len(page) == count
                assert page.min_a == first_a
                assert page.max_a == last_a
                assert page.max_d == max_d

    def test_overlapping_pages_prunes_but_never_drops(self):
        session, index = self.build(n=240)
        assert index.n_pages > 3
        hits = index.overlapping_pages(0.0, 0.0)
        assert 0 < len(hits) < index.n_pages  # a selective probe prunes pages
        # Soundness: every entry overlapping the probe lives on a hit page.
        with session.disk.use_stats(OperationStats()):
            for e in index.scan_entries(session.disk):
                if e.a <= 0.0 <= e.d:
                    assert e.idx_page in hits
        assert index.candidate_entries(0.0, 0.0) == sum(
            index.directory[i][3] for i in hits
        )
        # A probe past every support touches nothing.
        assert index.overlapping_pages(1e9, 2e9) == []
        assert index.candidate_entries(1e9, 2e9) == 0

    def test_fetch_charges_tagged_index_reads(self):
        session, index = self.build()
        stats = OperationStats()
        with session.disk.use_stats(stats):
            index.fetch(session.disk, 0)
        assert stats.total.page_reads == 1
        assert stats.total.index_pages_read == 1

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
        before = session.indexes[("R", "V")].n_entries
        rng = random.Random(99)
        fresh = FuzzyRelation(SCHEMA)
        for i in range(50):
            fresh.add(FuzzyTuple([N(i), rng.choice(POOL), rng.choice(POOL)], 1.0))
        session.register("R", fresh)
        after = session.indexes[("R", "V")]
        assert before == 30 and after.n_entries == 50


# ----------------------------------------------------------------------
# Access paths: bit-identity and strictly-less work
# ----------------------------------------------------------------------
SCAN_SQL = "SELECT R.K FROM R WHERE R.V = 0 WITH D >= 0.5"
JOIN_SQL = "SELECT R.K, S.K FROM R, S WHERE R.V = S.V AND R.U = S.U WITH D >= 0.6"


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
        assert idx.columns_scanned > 0
        assert idx.kernel_batches > 0

    def test_zero_threshold_still_bit_identical(self):
        sql = "SELECT R.K FROM R WHERE R.V = 0"
        plain = clustered_session(n=240, tables=("R",))
        indexed = clustered_session(n=240, tables=("R",), index_attr="V")
        assert answers(indexed.query(sql)) == answers(plain.query(sql))

    def test_planner_declines_when_seq_scan_is_cheaper(self):
        # At n=60 the fixed-pool probe overlaps most pages; the cost model
        # correctly keeps the sequential scan.
        indexed = clustered_session(n=60, tables=("R",), index_attr="V")
        indexed.query(SCAN_SQL)
        assert "IndexScan(" not in indexed.last_plan.explain()

    def test_explain_analyze_reports_index_counters(self):
        indexed = clustered_session(n=240, tables=("R",), index_attr="V")
        report = indexed.explain_analyze(SCAN_SQL)
        assert "index pages read=" in report
        assert "columns scanned=" in report
        assert "kernel batches=" in report

        plain = clustered_session(n=240, tables=("R",))
        assert "index pages read=" not in plain.explain_analyze(SCAN_SQL)


class TestIndexMergeJoinPath:
    def test_bit_identical_and_strictly_cheaper(self):
        plain = clustered_session(n=60)
        want = plain.query(JOIN_SQL)
        row = plain.last_stats.total

        indexed = clustered_session(n=60, index_attr="V")
        got = indexed.query(JOIN_SQL)
        idx = indexed.last_stats.total

        assert answers(got) == answers(want)
        assert "IndexMergeJoin(" in indexed.last_plan.explain()
        assert idx.page_reads < row.page_reads
        assert idx.page_writes == 0  # no external sort, no scratch writes
        assert idx.fuzzy_evaluations < row.fuzzy_evaluations
        assert idx.index_pages_read > 0

    def test_window_overflow_falls_back_bit_identically(self):
        # Every V identical: the entry window must span the whole index,
        # which cannot fit in a tiny buffer — the operator must degrade to
        # the sort-merge plan, not fail and not change the answer.
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
        assert "IndexMergeJoin(" in indexed.last_plan.explain()
        assert "sort-merge fallback" in (metrics.degraded_reason or "")
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
        got = sharded.query(JOIN_SQL)
        assert answers(got) == answers(want)
