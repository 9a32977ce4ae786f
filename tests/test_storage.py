"""Tests for the paged storage engine: serializer, pages, disk, buffer, heap."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import FuzzyRelation, FuzzyTuple, Schema
from repro.fuzzy import CrispLabel, CrispNumber, DiscreteDistribution, TrapezoidalNumber
from repro.fuzzy.interval_order import sort_key
from repro.storage import (
    BufferExhaustedError,
    BufferPool,
    HeapFile,
    OperationStats,
    Page,
    PageFullError,
    SerializationError,
    SimulatedDisk,
    TupleSerializer,
)

N = CrispNumber
L = CrispLabel
T = TrapezoidalNumber
D = DiscreteDistribution

SCHEMA = Schema(["ID", "X"])


@st.composite
def distributions(draw):
    kind = draw(st.sampled_from(["num", "label", "trap", "disc_num", "disc_label"]))
    if kind == "num":
        return N(draw(st.floats(allow_nan=False, allow_infinity=False)))
    if kind == "label":
        return L(draw(st.text(max_size=20)))
    if kind == "trap":
        xs = sorted(
            draw(
                st.lists(
                    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
                    min_size=4,
                    max_size=4,
                )
            )
        )
        return T(*xs)
    if kind == "disc_num":
        items = draw(
            st.dictionaries(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                st.floats(min_value=0.01, max_value=1.0),
                min_size=1,
                max_size=4,
            )
        )
        return D(items)
    items = draw(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.floats(min_value=0.01, max_value=1.0),
            min_size=1,
            max_size=4,
        )
    )
    return D(items)


class TestSerializer:
    def test_roundtrip_basic(self):
        ser = TupleSerializer(SCHEMA)
        t = FuzzyTuple([N(42), T(1, 2, 3, 4)], 0.75)
        assert ser.decode(ser.encode(t)) == t
        assert ser.decode(ser.encode(t)).degree == 0.75

    def test_fuzzy_costs_more_bytes_than_crisp(self):
        ser = TupleSerializer(SCHEMA)
        crisp = FuzzyTuple([N(1), N(2)], 1.0)
        fuzzy = FuzzyTuple([N(1), T(1, 2, 3, 4)], 1.0)
        assert ser.size_of(fuzzy) > ser.size_of(crisp)

    def test_fixed_size_pads(self):
        ser = TupleSerializer(SCHEMA, fixed_size=128)
        t = FuzzyTuple([N(1), N(2)], 1.0)
        assert len(ser.encode(t)) == 128
        assert ser.decode(ser.encode(t)) == t

    def test_fixed_size_overflow(self):
        ser = TupleSerializer(SCHEMA, fixed_size=16)
        with pytest.raises(SerializationError):
            ser.encode(FuzzyTuple([N(1), T(1, 2, 3, 4)], 1.0))

    def test_arity_mismatch(self):
        ser = TupleSerializer(SCHEMA)
        with pytest.raises(SerializationError):
            ser.encode(FuzzyTuple([N(1)], 1.0))

    def test_label_roundtrip(self):
        schema = Schema(["NAME", "TAG"])
        ser = TupleSerializer(schema)
        t = FuzzyTuple([L("Ann Müller"), D({"y1": 1.0, "y2": 0.8})], 0.5)
        back = ser.decode(ser.encode(t))
        assert back == t

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(distributions(), min_size=1, max_size=4),
        st.floats(min_value=0.001, max_value=1.0),
        st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    )
    @example([N(-0.0), T(-0.0, 0.0, 0.0, 1.0), L("x"), D({-0.0: 1.0, 2.0: 0.5})], 1.0, None)
    @example([L("Ann"), D({"y1": 1.0, "y2": 0.8}), N(-0.0), T(-1, 0, 0, 1)], 0.5, 17)
    def test_roundtrip_property(self, values, degree, padding):
        """Decode and re-encode reproduce a record byte for byte (padded or
        not), and ``key_at`` reads every column's ``sort_key`` from it: the
        sort and the slice spills move records on exactly these two facts."""
        schema = Schema([f"C{i}" for i in range(len(values))])
        t = FuzzyTuple(values, degree)
        fixed = None
        if padding is not None:
            fixed = len(TupleSerializer(schema).encode(t)) + padding
        ser = TupleSerializer(schema, fixed)
        record = ser.encode(t)
        back = ser.decode(record)
        assert back == t
        assert back.degree == pytest.approx(degree)
        assert ser.encode(back) == record
        for i in range(len(values)):
            # repr, so a negative zero must keep its sign
            assert repr(ser.key_at(record, i)) == repr(sort_key(back[i]))


class TestPage:
    def test_append_and_read(self):
        p = Page(256)
        p.append(b"hello")
        p.append(b"world")
        assert list(p.records()) == [b"hello", b"world"]

    def test_fits_accounting(self):
        p = Page(64)
        record = b"x" * 30
        assert p.fits(record)
        p.append(record)
        assert not p.fits(record)
        with pytest.raises(PageFullError):
            p.append(record)

    def test_wire_roundtrip(self):
        p = Page(128)
        p.append(b"abc")
        p.append(b"\x00\x01\x02")
        data = p.to_bytes()
        assert len(data) == 128
        back = Page.from_bytes(data, 128)
        assert list(back.records()) == [b"abc", b"\x00\x01\x02"]

    def test_empty_page_roundtrip(self):
        p = Page(64)
        back = Page.from_bytes(p.to_bytes(), 64)
        assert len(back) == 0


class TestDisk:
    def test_charges_reads_and_writes(self):
        stats = OperationStats()
        disk = SimulatedDisk(page_size=128, stats=stats)
        disk.create("f")
        p = Page(128)
        p.append(b"data")
        disk.append_page("f", p)
        disk.read_page("f", 0)
        assert stats.total.page_writes == 1
        assert stats.total.page_reads == 1

    def test_use_stats_redirects(self):
        base = OperationStats()
        disk = SimulatedDisk(page_size=128, stats=base)
        disk.create("f")
        other = OperationStats()
        with disk.use_stats(other):
            disk.append_page("f", Page(128))
        disk.append_page("f", Page(128))
        assert other.total.page_writes == 1
        assert base.total.page_writes == 1

    def test_create_twice_fails(self):
        disk = SimulatedDisk()
        disk.create("f")
        with pytest.raises(FileExistsError):
            disk.create("f")

    def test_delete_is_idempotent(self):
        disk = SimulatedDisk()
        disk.create("f")
        disk.delete("f")
        disk.delete("f")
        assert not disk.exists("f")


class TestBufferPool:
    def _disk_with_pages(self, n):
        disk = SimulatedDisk(page_size=64)
        disk.create("f")
        for i in range(n):
            p = Page(64)
            p.append(bytes([i]))
            disk.append_page("f", p)
        return disk

    def test_hit_after_miss(self):
        disk = self._disk_with_pages(2)
        pool = BufferPool(disk, capacity=2)
        pool.get_page("f", 0)
        pool.get_page("f", 0)
        assert pool.hits == 1 and pool.misses == 1
        assert disk.stats.total.page_reads == 1

    def test_lru_eviction(self):
        disk = self._disk_with_pages(3)
        pool = BufferPool(disk, capacity=2)
        pool.get_page("f", 0)
        pool.get_page("f", 1)
        pool.get_page("f", 2)  # evicts page 0
        assert not pool.resident("f", 0)
        pool.get_page("f", 0)  # re-read
        assert disk.stats.total.page_reads == 4

    def test_pinned_pages_survive(self):
        disk = self._disk_with_pages(3)
        pool = BufferPool(disk, capacity=2)
        pool.get_page("f", 0, pin=True)
        pool.get_page("f", 1)
        pool.get_page("f", 2)  # must evict page 1, not pinned page 0
        assert pool.resident("f", 0)
        assert not pool.resident("f", 1)

    def test_all_pinned_raises(self):
        disk = self._disk_with_pages(3)
        pool = BufferPool(disk, capacity=2)
        pool.get_page("f", 0, pin=True)
        pool.get_page("f", 1, pin=True)
        with pytest.raises(BufferExhaustedError):
            pool.get_page("f", 2)

    def test_unpin_allows_eviction(self):
        disk = self._disk_with_pages(3)
        pool = BufferPool(disk, capacity=2)
        pool.get_page("f", 0, pin=True)
        pool.get_page("f", 1, pin=True)
        pool.unpin("f", 0)
        pool.get_page("f", 2)
        assert not pool.resident("f", 0)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BufferPool(SimulatedDisk(), 0)


class TestHeapFile:
    def _tuples(self, n):
        return [FuzzyTuple([N(i), T(i, i + 1, i + 2, i + 3)], 0.5 + (i % 5) / 10) for i in range(n)]

    def test_load_and_scan(self):
        disk = SimulatedDisk(page_size=256)
        heap = HeapFile("h", SCHEMA, disk, fixed_tuple_size=64).load(self._tuples(20))
        pool = BufferPool(disk, 4)
        back = list(heap.scan(pool))
        assert back == self._tuples(20)
        assert heap.n_tuples == 20
        assert heap.n_pages == (20 + 2) // 3  # 3 x 64B records per 256B page

    def test_scan_charges_one_read_per_page(self):
        stats = OperationStats()
        disk = SimulatedDisk(page_size=256, stats=stats)
        heap = HeapFile("h", SCHEMA, disk, fixed_tuple_size=64).load(self._tuples(20))
        reads_before = stats.total.page_reads
        pool = BufferPool(disk, 4)
        list(heap.scan(pool))
        assert stats.total.page_reads - reads_before == heap.n_pages

    def test_oversized_record_rejected(self):
        disk = SimulatedDisk(page_size=64)
        heap = HeapFile("h", SCHEMA, disk, fixed_tuple_size=128)
        with pytest.raises(PageFullError):
            heap.load(self._tuples(1))

    def test_from_relation_roundtrip(self):
        disk = SimulatedDisk(page_size=256)
        relation = FuzzyRelation(SCHEMA, self._tuples(10))
        heap = HeapFile.from_relation("h", relation, disk, fixed_tuple_size=64)
        pool = BufferPool(disk, 4)
        assert heap.to_relation(pool).same_as(relation)

    def test_variable_size_records(self):
        disk = SimulatedDisk(page_size=256)
        schema = Schema(["V"])
        tuples = [
            FuzzyTuple([N(1)], 1.0),
            FuzzyTuple([T(1, 2, 3, 4)], 1.0),
            FuzzyTuple([D({1.0: 1.0, 2.0: 0.5})], 0.7),
        ]
        heap = HeapFile("h", schema, disk).load(tuples)
        pool = BufferPool(disk, 4)
        assert list(heap.scan(pool)) == tuples
