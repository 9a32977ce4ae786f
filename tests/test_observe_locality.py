"""The paper's locality claim, checked page by page.

Section 3 argues the extended merge-join reads each page of the (sorted)
inner relation exactly once during the join phase: the S-window slides
strictly forward, so once the merge scan passes a page it is never fetched
again.  The block nested-loop join, by contrast, re-reads the whole inner
relation once per outer block.  The :class:`~repro.observe.metrics
.QueryMetrics` page trace makes both facts checkable directly.
"""

import random

from repro.data import Attribute, FuzzyRelation, FuzzyTuple, Schema
from repro.fuzzy import CrispNumber, Op, TrapezoidalNumber
from repro.join import JoinPredicate, MergeJoin, NestedLoopJoin, join_degree
from repro.observe import QueryMetrics
from repro.session import StorageSession
from repro.storage import BufferPool, HeapFile, OperationStats, SimulatedDisk

N = CrispNumber
T = TrapezoidalNumber
SCHEMA = Schema([Attribute("ID"), Attribute("V")])
POOL = [N(0), N(3), N(7), T(0, 1, 2, 4), T(2, 4, 5, 7), T(5, 7, 8, 10)]


def build_pair(n=40, seed=9, page_size=512):
    rng = random.Random(seed)
    disk = SimulatedDisk(page_size=page_size)

    def tuples(base):
        return [
            FuzzyTuple([N(base + i), rng.choice(POOL)], rng.uniform(0.3, 1.0))
            for i in range(n)
        ]

    r = HeapFile("R", SCHEMA, disk, fixed_tuple_size=96).load(tuples(0))
    s = HeapFile("S", SCHEMA, disk, fixed_tuple_size=96).load(tuples(1000))
    return disk, r, s


PRED = join_degree([JoinPredicate(SCHEMA, "V", Op.EQ, SCHEMA, "V")])


class TestMergeJoinLocality:
    def test_no_inner_page_reread_in_join_phase(self):
        """Every page of sorted S is read exactly once by the merge scan."""
        disk, r, s = build_pair()
        assert s.n_pages > 1, "the claim is only interesting across pages"
        metrics = QueryMetrics()
        join = MergeJoin(disk, 16, OperationStats(), metrics=metrics)
        with metrics.watch_disk(disk):
            pairs = list(join.pairs(r, "V", s, "V", PRED))
        assert pairs, "the workload must actually join"
        reads = metrics.page_reads("S__sorted_V", phase="join")
        assert len(reads) == s.n_pages, "the merge scan must cover all of S"
        assert metrics.reread_pages("S__sorted_V", phase="join") == []
        # The outer side is sequential too.
        assert metrics.reread_pages("R__sorted_V", phase="join") == []

    def test_lru_replay_sees_no_refetch(self):
        """An LRU pool of the same budget would never re-fetch in the join
        phase — the access sequence itself is one-pass."""
        disk, r, s = build_pair()
        metrics = QueryMetrics()
        join = MergeJoin(disk, 16, OperationStats(), metrics=metrics)
        with metrics.watch_disk(disk):
            list(join.pairs(r, "V", s, "V", PRED))
        replay = metrics.buffer_replay(16, phase="join")
        assert replay.re_fetches == 0
        assert replay.misses == len(set(
            (a.file, a.index)
            for a in metrics.page_trace
            if a.kind == "read" and a.phase == "join"
        ))

    def test_session_query_is_one_pass_over_inner(self):
        """The same claim holds end to end through the session."""
        rng = random.Random(5)
        rel_r, rel_s = FuzzyRelation(SCHEMA), FuzzyRelation(SCHEMA)
        for i in range(40):
            rel_r.add(FuzzyTuple([N(i), rng.choice(POOL)], 1.0))
            rel_s.add(FuzzyTuple([N(1000 + i), rng.choice(POOL)], 1.0))
        session = StorageSession(buffer_pages=16, page_size=512, fixed_tuple_size=96)
        session.register("R", rel_r)
        session.register("S", rel_s)
        metrics = QueryMetrics()
        session.query(
            "SELECT R.ID FROM R WHERE R.V IN (SELECT S.V FROM S)", metrics=metrics
        )
        assert metrics.strategy.startswith("flat/")
        assert metrics.reread_pages("S__sorted_V", phase="join") == []


class TestNestedLoopContrast:
    def test_inner_relation_is_reread_per_block(self):
        """With more outer blocks than one, the nested loop re-reads S."""
        disk, r, s = build_pair()
        metrics = QueryMetrics()
        join = NestedLoopJoin(disk, 3, OperationStats())  # 2-page outer blocks
        with metrics.watch_disk(disk):
            list(join.pairs(r, s, PRED))
        assert r.n_pages > 2, "need multiple outer blocks"
        rereads = metrics.reread_pages("S", phase="nested-loop")
        assert rereads == list(range(s.n_pages))
        blocks = -(-r.n_pages // 2)  # ceil
        assert metrics.page_reads("S", phase="nested-loop")[0] == blocks


class TestBufferPoolReporting:
    def test_pool_reports_hits_misses_and_refetches(self):
        disk, r, _ = build_pair()
        metrics = QueryMetrics()
        pool = BufferPool(disk, 2)
        with metrics.watch_disk(disk):
            pool.get_page("R", 0)
            pool.get_page("R", 0)  # hit
            pool.get_page("R", 1)
            pool.get_page("R", 2)  # evicts page 0 (capacity 2, LRU)
            pool.get_page("R", 0)  # miss again: a re-fetch
        assert pool.hits == 1 and pool.misses == 4
        # Only the misses reach the disk; replaying them through a pool
        # of the same size finds the re-fetch.
        replay = metrics.buffer_replay(2)
        assert replay.misses == 4
        assert replay.re_fetches == 1

    def test_pool_without_metrics_unchanged(self):
        disk, r, _ = build_pair()
        pool = BufferPool(disk, 4)
        pool.get_page("R", 0)
        pool.get_page("R", 0)
        assert pool.hits == 1 and pool.misses == 1
