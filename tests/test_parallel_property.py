"""Property tests: partitioned execution is bit-identical to serial.

Hypothesis draws random relations (overlapping crisp and trapezoidal
values, duplicated keys, arbitrary degrees) *and* arbitrary partition
boundary lists, then checks the invariant the parallel layer rests on:
the partitioned merge-join returns the same pairs as the serial
merge-join — for any boundary choice — because the outer side is
partitioned disjointly (half-open ``b`` ranges are order-disjoint) while
the inner side is replicated into the ``Rng(r)`` overlap band of every
slice it can reach.  Folding the pairs into a
:class:`~repro.data.FuzzyRelation` then ``max``-merges duplicates
identically on both paths.

The boundaries here are adversarial on purpose: cuts straddling dense
value clusters, cuts outside the domain, duplicate-heavy relations.  The
sampled-boundary production path is exercised end-to-end by
``tests/test_parallel.py`` and the differential sweep.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import FuzzyRelation, FuzzyTuple, Schema
from repro.fuzzy import CrispNumber, Op, TrapezoidalNumber
from repro.join import JoinPredicate, MergeJoin, join_degree
from repro.parallel import PartitionedMergeJoin, RangePartitioner
from repro.storage import HeapFile, OperationStats, SimulatedDisk

N = CrispNumber
T = TrapezoidalNumber
SCHEMA = Schema(["ID", "X"])
EQ_PRED = [JoinPredicate(SCHEMA, "X", Op.EQ, SCHEMA, "X")]

#: A deliberately narrow domain: heavy overlap, many exact duplicates.
centers = st.integers(min_value=0, max_value=20)
widths = st.integers(min_value=1, max_value=5)
degrees = st.sampled_from([0.3, 0.6, 0.8, 1.0])


@st.composite
def fuzzy_values(draw):
    c = draw(centers)
    if draw(st.booleans()):
        return N(c)
    w = draw(widths)
    return T(c - w, c, c, c + w)


value_lists = st.lists(
    st.tuples(fuzzy_values(), degrees), min_size=2, max_size=24
)

#: Boundary cuts anywhere on (and beyond) the value domain, strictly
#: increasing after dedup; empty and degenerate lists are separate tests.
boundary_lists = st.lists(
    st.integers(min_value=-2, max_value=24), min_size=1, max_size=5
).map(lambda cuts: sorted(set(float(c) for c in cuts)))


def make_heap(disk, values, name, base=0):
    tuples = [
        FuzzyTuple([N(base + i), v], d) for i, (v, d) in enumerate(values)
    ]
    return HeapFile(name, SCHEMA, disk, fixed_tuple_size=64).load(tuples)


def as_triples(pairs):
    return sorted(
        (rt[0].value, st_[0].value, round(d, 12)) for rt, st_, d in pairs
    )


def fold(pairs):
    """The answer relation a session would build: max-merged duplicates."""
    out = FuzzyRelation(Schema(["RID"]))
    for rt, _st, d in pairs:
        out.add(FuzzyTuple([rt[0]], min(d, rt.degree)))
    return out


# ----------------------------------------------------------------------
# Join
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    r_values=value_lists,
    s_values=value_lists,
    boundaries=boundary_lists,
)
def test_partitioned_join_matches_serial_for_any_boundaries(
    r_values, s_values, boundaries
):
    disk = SimulatedDisk(page_size=256)
    r = make_heap(disk, r_values, "R")
    s = make_heap(disk, s_values, "S", base=1000)
    # Duplicate-heavy draws overflow even the *serial* merge window; both
    # sides then finish on the ladder's nested-loop rung and still agree.
    expected = list(
        MergeJoin(disk, 8, OperationStats()).pairs(
            r, "X", s, "X", join_degree(EQ_PRED)
        )
    )
    join = PartitionedMergeJoin(
        disk, 8, OperationStats(), workers=4,
        partitioner=RangePartitioner(boundaries),
    )
    pairs = join.run(r, "X", s, "X", join_degree(EQ_PRED))
    if pairs is None:
        # Legitimate degrades only: skew or a collapsed partitioning —
        # never an error, and never a wrong answer.
        assert join.fallback_reason is not None
        return
    # Pair-for-pair identical, and the overlap band never duplicates a
    # pair (R is partitioned disjointly).
    assert as_triples(pairs) == as_triples(expected)
    assert len(pairs) == len(expected)
    # The folded answer relations — what a query returns after the
    # max-merge of duplicate projected tuples — agree exactly.
    assert fold(pairs).same_as(fold(expected), 0.0)


@settings(max_examples=40, deadline=None)
@given(r_values=value_lists, s_values=value_lists)
def test_sampled_boundaries_join_identically(r_values, s_values):
    disk = SimulatedDisk(page_size=256)
    r = make_heap(disk, r_values, "R")
    s = make_heap(disk, s_values, "S", base=1000)
    expected = list(
        MergeJoin(disk, 8, OperationStats()).pairs(
            r, "X", s, "X", join_degree(EQ_PRED)
        )
    )
    join = PartitionedMergeJoin(disk, 8, OperationStats(), workers=4)
    pairs = join.run(r, "X", s, "X", join_degree(EQ_PRED))
    if pairs is None:
        assert join.fallback_reason is not None
        return
    assert as_triples(pairs) == as_triples(expected)


@settings(max_examples=40, deadline=None)
@given(
    r_values=value_lists,
    s_values=value_lists,
    boundaries=boundary_lists,
    workers=st.integers(min_value=2, max_value=6),
)
def test_worker_count_never_changes_the_answer(
    r_values, s_values, boundaries, workers
):
    """Same boundaries, any worker-pool width: identical pairs."""
    disk = SimulatedDisk(page_size=256)
    r = make_heap(disk, r_values, "R")
    s = make_heap(disk, s_values, "S", base=1000)
    reference = None
    for w in (2, workers):
        join = PartitionedMergeJoin(
            disk, 8, OperationStats(), workers=w,
            partitioner=RangePartitioner(boundaries),
        )
        pairs = join.run(r, "X", s, "X", join_degree(EQ_PRED))
        if pairs is None:
            return  # degrades identically regardless of pool width
        if reference is None:
            reference = as_triples(pairs)
        else:
            assert as_triples(pairs) == reference
