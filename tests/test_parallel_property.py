"""Property: the partitioned band join is the serial merge-join, for any slicing.

Hypothesis draws random relations (overlapping crisp and trapezoidal
values, duplicated keys, arbitrary degrees) and arbitrary boundaries, and
:func:`check_against_serial` checks, for both fold shapes — ``pairs``,
and a min-fold whose dangling pairs are neutral (the JX / JALL shape) —
the one invariant ``docs/parallelism.md`` argues: whatever the slicing,
the spliced output equals the serial ``MergeJoin.fold`` state for state
and in order, or the source declines with a reason and the serial fold
answers; and no disk is left holding a scratch file either way.

Each test below draws one slice source:

* explicit cuts — a :class:`~repro.parallel.RangePartitioner` on
  adversarial cuts (straddling dense clusters, outside the domain), at
  four workers and at pool widths of two to six;
* sampled — boundaries from a page sample of R, the production path;
* placed — R and S on a :class:`~repro.shard.ShardedStorage`, on shared
  or independent cuts (sometimes more cuts than nodes, the clamping
  path); those two tests live in ``tests/test_shard_property.py``
  beside the placement's own properties (partition, bands, mirrors).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import FuzzyRelation, FuzzyTuple, Schema
from repro.fuzzy import CrispNumber, Op, TrapezoidalNumber
from repro.join import JoinPredicate, MergeJoin, antijoin_degree, join_degree
from repro.observe import QueryMetrics
from repro.parallel import PartitionedBandJoin, RangePartitioner
from repro.shard import ShardedStorage
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
#: increasing after dedup.
boundary_lists = st.lists(
    st.integers(min_value=-2, max_value=24), min_size=1, max_size=5
).map(lambda cuts: sorted(set(float(c) for c in cuts)))


def make_relation(values, base=0):
    rel = FuzzyRelation(SCHEMA)
    for i, (v, d) in enumerate(values):
        rel.add(FuzzyTuple([N(base + i), v], d))
    return rel


def make_heap(disk, values, name, base=0):
    return HeapFile(name, SCHEMA, disk, fixed_tuple_size=64).load(
        make_relation(values, base).tuples()
    )


#: The two fold shapes every example runs: plain pairs, and a min-fold
#: whose dangling pairs are neutral (the JX / JALL shape).
SHAPES = ("pairs", "min-fold")


def run(join, shape, r, s):
    """The join's output as plain values, in the order it was produced."""
    if shape == "pairs":
        return [
            (rt[0].value, st_[0].value, d)
            for rt, st_, d in join.pairs(r, "X", s, "X", join_degree(EQ_PRED))
        ]
    # Dangling pairs contribute mu_R(r) >= init(r): neutral for min.
    return [
        (rt[0].value, worst)
        for rt, worst in join.fold(
            r, "X", s, "X", antijoin_degree(EQ_PRED),
            lambda rt: min(rt.degree, 0.75), lambda worst, _s, d: min(worst, d),
        )
    ]


def placement(r_values, s_values, nodes, r_cuts, s_cuts):
    """Options for the ``placed`` source: R and S on their own cuts."""
    storage = ShardedStorage(nodes, page_size=256, fixed_tuple_size=64)
    storage.place("R", make_relation(r_values), "X", "R", r_cuts)
    storage.place("S", make_relation(s_values, base=1000), "X", "S", s_cuts)
    return dict(placement=storage, tables=("R", "S"))


def check_against_serial(r_values, s_values, **options):
    """The property, for both fold shapes: the partitioned band join built
    with *options* (the slice source) produces the serial ``MergeJoin``
    output, or declines with one reason; no disk keeps a scratch file.
    Returns the outputs, one per shape."""
    disk = SimulatedDisk(page_size=256)
    r = make_heap(disk, r_values, "R")
    s = make_heap(disk, s_values, "S", base=1000)
    outputs = []
    for shape in SHAPES:
        # Duplicate-heavy draws overflow even the *serial* merge window;
        # both sides then finish on the ladder's nested-loop rung and
        # still agree.
        serial = MergeJoin(disk, 8, OperationStats())
        expected = run(serial, shape, r, s)
        metrics = QueryMetrics()
        join = PartitionedBandJoin(disk, 8, OperationStats(), metrics=metrics, **options)
        got = run(join, shape, r, s)

        assert got == expected  # same pairs / states, same order
        if metrics.slices:
            assert metrics.shard_failovers == 0
            if shape == "pairs":
                assert sum(sl.rows_out for sl in metrics.slices) == len(got)
        else:
            # Legitimate declines only (skew, a collapsed cut, a lone
            # non-empty slice): one reason, then the serial fold's own
            # rung if it took one — never an error or a wrong answer.
            decline, *rungs = join.fallback_reason.split("; then ")
            assert "fell back" in decline, decline
            assert rungs == ([serial.fallback_reason] if serial.fallback_reason else [])
        outputs.append(got)
    disks = [disk]
    if "placement" in options:
        disks += [node.disk for node in options["placement"].nodes]
    for each in disks:
        leaked = [f for f in each.files() if f.startswith("__")]
        assert leaked == [], f"scratch files leaked: {leaked}"
    return outputs


@settings(max_examples=60, deadline=None)
@given(r_values=value_lists, s_values=value_lists, cuts=boundary_lists)
def test_partitioned_join_matches_serial_for_any_boundaries(r_values, s_values, cuts):
    check_against_serial(r_values, s_values, workers=4, partitioner=RangePartitioner(cuts))


@settings(max_examples=40, deadline=None)
@given(r_values=value_lists, s_values=value_lists)
def test_sampled_boundaries_join_identically(r_values, s_values):
    check_against_serial(r_values, s_values, workers=4)


@settings(max_examples=40, deadline=None)
@given(
    r_values=value_lists,
    s_values=value_lists,
    cuts=boundary_lists,
    workers=st.integers(min_value=2, max_value=6),
)
def test_worker_count_never_changes_the_answer(r_values, s_values, cuts, workers):
    """Same boundaries (up to six slices), run two at a time and
    ``workers`` at a time: the serial answer both ways."""
    narrow, wide = (
        check_against_serial(
            r_values, s_values, workers=w, partitioner=RangePartitioner(cuts)
        )
        for w in (2, workers)
    )
    assert narrow == wide
