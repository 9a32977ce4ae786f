"""Tests for the extended merge-join and the block nested-loop join."""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import FuzzyTuple, Schema
from repro.fuzzy import CrispNumber, Op, TrapezoidalNumber
from repro.join import (
    JOIN_PHASE,
    JoinPredicate,
    MergeJoin,
    NestedLoopJoin,
    all_quantifier_degree,
    antijoin_degree,
    join_degree,
)
from repro.fuzzy.interval_order import sort_key
from repro.join.merge_join import WINDOW_RUNG
from repro.sort import SORT_PHASE, ExternalSorter
from repro.storage import HeapFile, OperationStats, SimulatedDisk

N = CrispNumber
T = TrapezoidalNumber
SCHEMA = Schema(["ID", "X"])


def build_pair(r_values, s_values, page_size=256, tuple_size=64):
    disk = SimulatedDisk(page_size=page_size)
    r = HeapFile("R", SCHEMA, disk, fixed_tuple_size=tuple_size).load(
        [FuzzyTuple([N(i), v], d) for i, (v, d) in enumerate(r_values)]
    )
    s = HeapFile("S", SCHEMA, disk, fixed_tuple_size=tuple_size).load(
        [FuzzyTuple([N(1000 + i), v], d) for i, (v, d) in enumerate(s_values)]
    )
    return disk, r, s


def random_values(rng, n, domain=200.0, fuzzy_share=0.5, width=4.0):
    out = []
    for _ in range(n):
        c = rng.uniform(0, domain)
        degree = rng.uniform(0.2, 1.0)
        if rng.random() < fuzzy_share:
            w = rng.uniform(0.1, width)
            cw = rng.uniform(0, w)
            out.append((T(c - w, c - cw, c + cw, c + w), degree))
        else:
            out.append((N(round(c, 1)), degree))
    return out


EQ_PRED = [JoinPredicate(SCHEMA, "X", Op.EQ, SCHEMA, "X")]


def run_both(disk, r, s, pair_degree, buffer_pages=16):
    mj_stats = OperationStats()
    mj = sorted(
        (rt[0].value, st_[0].value, round(d, 9))
        for rt, st_, d in MergeJoin(disk, buffer_pages, mj_stats).pairs(r, "X", s, "X", pair_degree)
    )
    nl_stats = OperationStats()
    nl = sorted(
        (rt[0].value, st_[0].value, round(d, 9))
        for rt, st_, d in NestedLoopJoin(disk, buffer_pages, nl_stats).pairs(r, s, pair_degree)
    )
    return mj, nl, mj_stats, nl_stats


class TestJoinEquivalence:
    def test_crisp_only(self):
        rng = random.Random(1)
        disk, r, s = build_pair(
            random_values(rng, 60, fuzzy_share=0.0),
            random_values(rng, 60, fuzzy_share=0.0),
        )
        mj, nl, _, _ = run_both(disk, r, s, join_degree(EQ_PRED))
        assert mj == nl

    def test_fuzzy_mix(self):
        rng = random.Random(2)
        disk, r, s = build_pair(random_values(rng, 80), random_values(rng, 80))
        mj, nl, _, _ = run_both(disk, r, s, join_degree(EQ_PRED))
        assert mj == nl
        assert len(mj) > 0  # sanity: something joined

    def test_wide_intervals_still_agree(self):
        rng = random.Random(3)
        disk, r, s = build_pair(
            random_values(rng, 40, width=40.0),
            random_values(rng, 40, width=40.0),
        )
        mj, nl, _, _ = run_both(disk, r, s, join_degree(EQ_PRED), buffer_pages=64)
        assert mj == nl

    def test_empty_inner(self):
        rng = random.Random(4)
        disk, r, s = build_pair(random_values(rng, 10), [])
        mj, nl, _, _ = run_both(disk, r, s, join_degree(EQ_PRED))
        assert mj == nl == []

    def test_empty_outer(self):
        rng = random.Random(5)
        disk, r, s = build_pair([], random_values(rng, 10))
        mj, nl, _, _ = run_both(disk, r, s, join_degree(EQ_PRED))
        assert mj == nl == []

    def test_identical_keys_cluster(self):
        values = [(N(5), 1.0)] * 10
        disk, r, s = build_pair(values, values)
        mj, nl, _, _ = run_both(disk, r, s, join_degree(EQ_PRED))
        assert len(mj) == 100
        assert mj == nl

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_seeds_agree(self, seed):
        rng = random.Random(seed)
        disk, r, s = build_pair(
            random_values(rng, 30), random_values(rng, 30)
        )
        mj, nl, _, _ = run_both(disk, r, s, join_degree(EQ_PRED), buffer_pages=32)
        assert mj == nl


class TestMergeJoinEfficiency:
    def test_fuzzy_evals_much_fewer_than_nested_loop(self):
        rng = random.Random(6)
        disk, r, s = build_pair(
            random_values(rng, 100, domain=2000.0),
            random_values(rng, 100, domain=2000.0),
        )
        _, _, mj_stats, nl_stats = run_both(disk, r, s, join_degree(EQ_PRED))
        assert nl_stats.total.fuzzy_evaluations == 100 * 100
        assert mj_stats.total.fuzzy_evaluations < 2000

    def test_s_pages_read_once_in_join_phase(self):
        rng = random.Random(7)
        disk, r, s = build_pair(
            random_values(rng, 90, domain=1000.0),
            random_values(rng, 90, domain=1000.0),
        )
        stats = OperationStats()
        list(MergeJoin(disk, 16, stats).pairs(r, "X", s, "X", join_degree(EQ_PRED)))
        join_reads = stats.phase(JOIN_PHASE).page_reads
        # Join phase reads each sorted relation exactly once.
        assert join_reads == r.n_pages + s.n_pages

    def test_sort_phase_recorded(self):
        rng = random.Random(8)
        disk, r, s = build_pair(random_values(rng, 30), random_values(rng, 30))
        stats = OperationStats()
        list(MergeJoin(disk, 16, stats).pairs(r, "X", s, "X", join_degree(EQ_PRED)))
        assert stats.phase(SORT_PHASE).page_ios > 0

    def test_window_overflow_detected(self):
        # Every S value overlaps every R value -> the window must hold all
        # of S, which cannot fit in a tiny buffer: the scan finishes as a
        # block nested loop over the sorted files and says so.
        values = [(T(0, 1, 2, 1000), 1.0) for _ in range(60)]
        disk, r, s = build_pair(values, values)
        stats = OperationStats()
        join = MergeJoin(disk, 3, stats)
        pairs = list(join.pairs(r, "X", s, "X", join_degree(EQ_PRED)))
        assert len(pairs) == 60 * 60
        assert join.fallback_reason == WINDOW_RUNG
        assert stats.phase(SORT_PHASE).page_writes > 0  # the sorts stay charged
        assert disk.files() == ["R", "S"]  # sorted temporaries deleted

    def test_nested_loop_io_formula(self):
        rng = random.Random(9)
        disk, r, s = build_pair(random_values(rng, 90), random_values(rng, 90))
        stats = OperationStats()
        join = NestedLoopJoin(disk, 4, stats)
        list(join.pairs(r, s, join_degree(EQ_PRED)))
        assert stats.total.page_reads == join.expected_page_ios(r, s)

    def test_nested_loop_needs_two_pages(self):
        disk = SimulatedDisk()
        with pytest.raises(ValueError):
            NestedLoopJoin(disk, 1, OperationStats())


# The duplicate-heavy five-value pool of ``run_bench.build_session`` and the
# support that overlaps everything: the two input families whose largest
# ``Rng(r)`` outgrows a small buffer.
POOL = [N(0), N(5), T(0, 1, 2, 4), T(3, 5, 5, 7), T(4, 6, 8, 12)]
WIDE = T(0, 1, 2, 1000)


def sorted_copy(disk, heap, buffer_pages, name):
    """``heap`` sorted exactly as the join will sort it, kept under ``name``."""
    with disk.use_stats(OperationStats()):
        return ExternalSorter(disk, buffer_pages, OperationStats()).sort(heap, "X", name)


def keyed_pages(disk, heap):
    """``(page index, sort key, tuple)`` of every tuple of ``heap`` in file order."""
    with disk.use_stats(OperationStats()):
        return [
            (index, sort_key(t[1]), t)
            for index in range(heap.n_pages)
            for t in map(heap.serializer.decode, disk.read_page(heap.name, index).records())
        ]


def widest_window(r_entries, s_entries):
    """The most S pages Section 3's scan ever holds at once (a reference model)."""
    window, widest, unread = deque(), 0, deque(s_entries)
    for _page, (rb, re_), _r in r_entries:
        while window and window[0][1][1] < rb:
            window.popleft()
        if window and window[-1][1][0] > re_:
            continue  # the scan for r stops inside the resident window
        while unread:
            entry = unread.popleft()
            window.append(entry)
            widest = max(widest, entry[0] - window[0][0] + 1)
            if entry[1][0] > re_:
                break
    return widest


class TestFallbackLadder:
    """One contract on both sides of the window boundary (docs/robustness.md)."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["pool", "wide"]),
        st.integers(1, 40),
        st.integers(1, 40),
        st.sampled_from([2, 3, 4, 8, 64]),
        st.sampled_from(["pairs", "min-fold"]),
        st.integers(0, 2**31 - 1),
    )
    def test_same_answer_order_and_charges_across_the_boundary(
        self, family, n_r, n_s, buffer_pages, shape, seed
    ):
        rng = random.Random(seed)

        def values(n):
            draws = [rng.choice(POOL) if family == "pool" else WIDE for _ in range(n)]
            return [(v, rng.choice([0.3, 0.6, 1.0])) for v in draws]

        disk, r, s = build_pair(values(n_r), values(n_s))
        stats = OperationStats()
        join = MergeJoin(disk, buffer_pages, stats)
        if shape == "pairs":
            def run(j, *inputs):
                return [(rt[0].value, st_[0].value, d) for rt, st_, d in j.pairs(*inputs)]
            fold = (join_degree(EQ_PRED),)
        else:
            def run(j, *inputs):
                return [(rt[0].value, worst) for rt, worst in j.fold(*inputs)]
            # Dangling pairs contribute mu_R(r) >= init(r): neutral for min.
            fold = (
                antijoin_degree(EQ_PRED),
                lambda rt: min(rt.degree, 0.75),
                lambda worst, _s, d: min(worst, d),
            )
        if buffer_pages < 3:
            # Below the external sort's minimum budget the join refuses;
            # the ladder starts where a sort is possible.
            with pytest.raises(ValueError):
                run(join, r, "X", s, "X", *fold)
            return
        got = run(join, r, "X", s, "X", *fold)

        sorted_r = sorted_copy(disk, r, buffer_pages, "R_ref")
        sorted_s = sorted_copy(disk, s, buffer_pages, "S_ref")
        nested_loop = NestedLoopJoin(disk, buffer_pages, OperationStats())
        expected = run(nested_loop, sorted_r, sorted_s, *fold)
        assert got == expected  # same pairs / states, same order
        widest = widest_window(keyed_pages(disk, sorted_r), keyed_pages(disk, sorted_s))
        assert (join.fallback_reason is not None) == (widest > buffer_pages - 1)
        # Work charged >= work done: at least one read of every sorted page.
        assert stats.total.page_reads >= sorted_r.n_pages + sorted_s.n_pages


class TestFoldSemantics:
    def test_fold_yields_every_outer_tuple(self):
        rng = random.Random(10)
        disk, r, s = build_pair(random_values(rng, 25), random_values(rng, 25))
        mj = MergeJoin(disk, 16, OperationStats())
        results = list(
            mj.fold(r, "X", s, "X", join_degree(EQ_PRED), lambda _r: 0.0,
                    lambda best, _s, d: max(best, d))
        )
        assert len(results) == 25

    def test_fold_max_matches_pairs_max(self):
        rng = random.Random(11)
        disk, r, s = build_pair(random_values(rng, 40), random_values(rng, 40))
        pair = join_degree(EQ_PRED)
        mj = MergeJoin(disk, 16, OperationStats())
        fold_result = {
            rt[0].value: round(best, 9)
            for rt, best in mj.fold(r, "X", s, "X", pair, lambda _r: 0.0,
                                    lambda b, _s, d: max(b, d))
            if best > 0
        }
        nl = NestedLoopJoin(disk, 16, OperationStats())
        expected = {}
        for rt, st_, d in nl.pairs(r, s, pair):
            key = rt[0].value
            expected[key] = max(expected.get(key, 0.0), round(d, 9))
        assert fold_result == expected


class TestPairDegrees:
    def setup_method(self):
        self.r = FuzzyTuple([N(1), N(10)], 0.9)
        self.s_match = FuzzyTuple([N(2), N(10)], 0.8)
        self.s_miss = FuzzyTuple([N(3), N(99)], 0.8)

    def test_join_degree_includes_memberships(self):
        d = join_degree(EQ_PRED)(self.r, self.s_match, None)
        assert d == pytest.approx(0.8)

    def test_join_degree_zero_on_mismatch(self):
        assert join_degree(EQ_PRED)(self.r, self.s_miss, None) == 0.0

    def test_join_degree_counts_fuzzy_evals(self):
        stats = OperationStats()
        join_degree(EQ_PRED)(self.r, self.s_match, stats)
        assert stats.total.fuzzy_evaluations == 1

    def test_antijoin_degree_matching_pair(self):
        # min(mu_R, 1 - min(mu_S, d(pred))) = min(0.9, 1 - 0.8) = 0.2
        d = antijoin_degree(EQ_PRED)(self.r, self.s_match, None)
        assert d == pytest.approx(0.2)

    def test_antijoin_degree_nonmatching_is_outer_degree(self):
        d = antijoin_degree(EQ_PRED)(self.r, self.s_miss, None)
        assert d == pytest.approx(0.9)

    def test_all_quantifier_degree(self):
        compare = JoinPredicate(SCHEMA, "X", Op.LT, SCHEMA, "X")
        # join matches (X=10 both), comparison 10 < 10 fails ->
        # inner = min(0.8, 1, 1 - 0) = 0.8 -> min(0.9, 0.2) = 0.2
        d = all_quantifier_degree(EQ_PRED, compare)(self.r, self.s_match, None)
        assert d == pytest.approx(0.2)

    def test_all_quantifier_degree_nonjoining(self):
        compare = JoinPredicate(SCHEMA, "X", Op.LT, SCHEMA, "X")
        d = all_quantifier_degree(EQ_PRED, compare)(self.r, self.s_miss, None)
        assert d == pytest.approx(0.9)

    def test_similar_needs_relation(self):
        with pytest.raises(ValueError):
            JoinPredicate(SCHEMA, "X", Op.SIMILAR, SCHEMA, "X")
