"""Tests for the external merge sort on the interval order."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import FuzzyTuple, Schema
from repro.fuzzy import CrispNumber, TrapezoidalNumber
from repro.fuzzy.interval_order import sort_key
from repro.sort import SORT_PHASE, ExternalSorter
from repro.storage import BufferPool, HeapFile, OperationStats, SimulatedDisk

N = CrispNumber
T = TrapezoidalNumber
SCHEMA = Schema(["ID", "X"])


def make_heap(values, page_size=256, tuple_size=64, name="h"):
    disk = SimulatedDisk(page_size=page_size)
    tuples = [FuzzyTuple([N(i), v], 1.0) for i, v in enumerate(values)]
    heap = HeapFile(name, SCHEMA, disk, fixed_tuple_size=tuple_size).load(tuples)
    return disk, heap


def sorted_values(disk, heap):
    pool = BufferPool(disk, 8)
    return [t[1] for t in heap.scan(pool)]


def page_images(disk, name):
    """Every stored page of a file, byte for byte (checksums included)."""
    return [disk._fetch(name, i) for i in range(disk.n_pages(name))]


def ledger_values():
    """90 keys over a narrow range: crisp points, trapezoids sharing left
    endpoints, and repeats of earlier keys, so ties on ``b`` and on the
    whole key are frequent."""
    rng = random.Random(26)
    values = []
    for _ in range(90):
        roll = rng.random()
        b = float(rng.randint(0, 12))
        if values and roll < 0.25:
            values.append(rng.choice(values))
        elif roll < 0.5:
            values.append(N(b))
        else:
            values.append(T(b, b + 1, b + 2, b + rng.randint(2, 4)))
    return values


#: buffer pages -> sort-phase (crisp comparisons, tuple moves, page reads,
#: page writes) for ``ledger_values()`` on 30 pages.
LEDGER = {
    3: (1181, 414, 138, 138),
    4: (1263, 270, 90, 90),
    64: (647, 180, 60, 60),
}


class TestSorting:
    def test_crisp_values(self):
        rng = random.Random(7)
        values = [N(rng.uniform(0, 100)) for _ in range(50)]
        disk, heap = make_heap(values)
        out = ExternalSorter(disk, 4, OperationStats()).sort(heap, "X")
        keys = [sort_key(v) for v in sorted_values(disk, out)]
        assert keys == sorted(keys)
        assert out.n_tuples == 50

    def test_mixed_fuzzy_values(self):
        rng = random.Random(11)
        values = []
        for _ in range(80):
            c = rng.uniform(0, 100)
            if rng.random() < 0.5:
                values.append(N(c))
            else:
                w = rng.uniform(0.1, 5)
                values.append(T(c - w, c, c, c + w))
        disk, heap = make_heap(values)
        out = ExternalSorter(disk, 4, OperationStats()).sort(heap, "X")
        keys = [sort_key(v) for v in sorted_values(disk, out)]
        assert keys == sorted(keys)

    def test_tie_break_on_right_endpoint(self):
        values = [T.rectangular(10, 30), T.rectangular(10, 12), T.rectangular(10, 20)]
        disk, heap = make_heap(values)
        out = ExternalSorter(disk, 4, OperationStats()).sort(heap, "X")
        ends = [v.interval()[1] for v in sorted_values(disk, out)]
        assert ends == [12, 20, 30]

    def test_single_page(self):
        disk, heap = make_heap([N(3), N(1), N(2)])
        out = ExternalSorter(disk, 4, OperationStats()).sort(heap, "X")
        assert [v.value for v in sorted_values(disk, out)] == [1, 2, 3]

    def test_empty_relation(self):
        disk, heap = make_heap([])
        out = ExternalSorter(disk, 4, OperationStats()).sort(heap, "X")
        assert out.n_tuples == 0
        assert sorted_values(disk, out) == []

    def test_multi_pass_merge(self):
        """Enough runs to force a second merge pass (fan-in = buffer - 1)."""
        rng = random.Random(13)
        values = [N(rng.uniform(0, 1000)) for _ in range(300)]
        disk, heap = make_heap(values, page_size=256)  # 3 tuples/page, 100 pages
        stats = OperationStats()
        out = ExternalSorter(disk, 3, stats).sort(heap, "X")  # runs of 3 pages, fan-in 2
        keys = [sort_key(v) for v in sorted_values(disk, out)]
        assert keys == sorted(keys)
        assert out.n_tuples == 300

    def test_buffer_minimum(self):
        disk, heap = make_heap([N(1)])
        with pytest.raises(ValueError):
            ExternalSorter(disk, 2, OperationStats())

    def test_scratch_runs_cleaned_up(self):
        rng = random.Random(5)
        disk, heap = make_heap([N(rng.random()) for _ in range(100)])
        ExternalSorter(disk, 4, OperationStats()).sort(heap, "X")
        leftovers = [f for f in disk.files() if f.startswith("__run_")]
        assert leftovers == []


class TestSortAccounting:
    def test_all_charges_in_sort_phase(self):
        rng = random.Random(3)
        disk, heap = make_heap([N(rng.random()) for _ in range(60)])
        stats = OperationStats()
        ExternalSorter(disk, 4, stats).sort(heap, "X")
        assert set(stats.phases) == {SORT_PHASE}
        sort = stats.phase(SORT_PHASE)
        assert sort.page_reads > 0
        assert sort.page_writes > 0
        assert sort.crisp_comparisons > 0
        assert sort.tuple_moves > 0

    def test_two_pass_io_is_about_4x_pages(self):
        """Read + write for run generation, read + write for the merge."""
        rng = random.Random(3)
        disk, heap = make_heap([N(rng.random()) for _ in range(120)], page_size=256)
        stats = OperationStats()
        ExternalSorter(disk, 8, stats).sort(heap, "X")
        pages = heap.n_pages
        ios = stats.total.page_ios
        assert 2 * pages <= ios <= 4 * pages + 4

    @pytest.mark.parametrize("buffer_pages", sorted(LEDGER))
    def test_ledger_and_pages_are_pinned(self, buffer_pages):
        """The sort moves records as bytes: its output pages are exactly a
        load of the stably sorted tuples, and its per-phase ledger is the
        one the tuple-boxing sort charged (3 and 4 pages merge in several
        passes, 64 in one)."""
        tuples = [FuzzyTuple([N(i), v], 1.0) for i, v in enumerate(ledger_values())]
        disk = SimulatedDisk(page_size=256)
        heap = HeapFile("h", SCHEMA, disk, fixed_tuple_size=64).load(tuples)
        assert heap.n_pages == 30
        stats = OperationStats()
        out = ExternalSorter(disk, buffer_pages, stats).sort(heap, "X")

        expected_disk = SimulatedDisk(page_size=256)
        expected = HeapFile("e", SCHEMA, expected_disk, fixed_tuple_size=64).load(
            sorted(tuples, key=lambda t: sort_key(t[1]))
        )
        assert page_images(disk, out.name) == page_images(expected_disk, expected.name)
        assert out.n_tuples == len(tuples)

        assert set(stats.phases) == {SORT_PHASE}
        sort = stats.phase(SORT_PHASE)
        ledger = (sort.crisp_comparisons, sort.tuple_moves, sort.page_reads, sort.page_writes)
        assert ledger == LEDGER[buffer_pages]

    def test_comparison_count_is_n_log_n_ish(self):
        rng = random.Random(9)
        n = 200
        disk, heap = make_heap([N(rng.random()) for _ in range(n)])
        stats = OperationStats()
        ExternalSorter(disk, 8, stats).sort(heap, "X")
        comparisons = stats.total.crisp_comparisons
        # Each key comparison charges 1-2 crisp comparisons.
        assert n <= comparisons <= 6 * n * 8  # generous n log n bound
