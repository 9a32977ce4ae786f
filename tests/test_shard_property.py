"""Property tests: the durable shard placement.

Hypothesis draws random relations (overlapping crisp and trapezoidal
values, duplicated keys, arbitrary degrees) *and* arbitrary shard
boundary lists, then checks the invariants the placement rests on:

* **Placement is a partition**: every tuple lands on exactly one primary
  shard — the one owning its left endpoint ``b(v)`` — so the union of
  the primary slices is the relation, with no duplicates.
* **Bands are exactly the adjacent-shard replicas**: shard ``j``'s band
  holds precisely the tuples whose primary shard is below ``j`` and
  whose support ``[b, e]`` crosses into shard ``j``'s range.
* **Mirrors are faithful**: node ``i+1`` carries byte-identical copies
  of node ``i``'s primary and band slices.

The boundaries are adversarial on purpose: cuts straddling dense value
clusters, cuts outside the domain, more cuts than the node count (the
clamping path).  That a join over a placement — on shared or on
independent R and S cuts — equals the serial join is the partitioned
band join's property, :func:`tests.test_parallel_property.check_against_serial`,
drawn here on the placed slice source.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import FuzzyRelation, FuzzyTuple, Schema
from repro.fuzzy import CrispNumber, TrapezoidalNumber
from repro.fuzzy.interval_order import sort_key
from repro.shard import ShardedStorage
from repro.storage import BufferPool
from tests.test_parallel_property import check_against_serial, placement

N = CrispNumber
T = TrapezoidalNumber
SCHEMA = Schema(["ID", "X"])

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
#: increasing after dedup — sometimes *more* cuts than shard nodes, which
#: exercises the replica-range clamping in placement.
boundary_lists = st.lists(
    st.integers(min_value=-2, max_value=24), min_size=1, max_size=5
).map(lambda cuts: sorted(set(float(c) for c in cuts)))

n_shard_choices = st.integers(min_value=2, max_value=4)


def make_relation(values, base=0):
    rel = FuzzyRelation(SCHEMA)
    for i, (v, d) in enumerate(values):
        rel.add(FuzzyTuple([N(base + i), v], d))
    return rel


def heap_ids(node, heap):
    """The ID column of one shard-resident heap, in storage order."""
    if heap is None:
        return []
    return [int(t[0].value) for t in heap.scan(BufferPool(node.disk, 8))]


def placed(values, boundaries, n_shards, name="R"):
    storage = ShardedStorage(n_shards, page_size=256, fixed_tuple_size=64)
    storage.place(name, make_relation(values), "X", name, boundaries)
    return storage


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(values=value_lists, boundaries=boundary_lists, n_shards=n_shard_choices)
def test_placement_is_a_partition(values, boundaries, n_shards):
    """Every tuple on exactly one primary — the shard owning its b(v)."""
    storage = placed(values, boundaries, n_shards)
    layout = storage.layout("R")
    seen = []
    for node in storage.nodes:
        ids = heap_ids(node, storage.primary(node.index, "R"))
        for tid in ids:
            v = values[tid][0]
            expected = min(layout.shard_of(v), storage.n_shards - 1)
            assert expected == node.index, (
                f"tuple {tid} (b={sort_key(v)[0]}) placed on shard "
                f"{node.index}, owner is {expected}"
            )
        seen.extend(ids)
    assert sorted(seen) == list(range(len(values)))


@settings(max_examples=60, deadline=None)
@given(values=value_lists, boundaries=boundary_lists, n_shards=n_shard_choices)
def test_band_replicas_reach_exactly_the_adjacent_shards(
    values, boundaries, n_shards
):
    """Shard j's band = tuples with primary < j whose support crosses in."""
    storage = placed(values, boundaries, n_shards)
    layout = storage.layout("R")
    last = storage.n_shards - 1
    expected_bands = [set() for _ in range(storage.n_shards)]
    for tid, (v, _d) in enumerate(values):
        first, reach = layout.replica_range(v)
        for j in range(min(first, last) + 1, min(reach, last) + 1):
            expected_bands[j].add(tid)
    for node in storage.nodes:
        got = sorted(heap_ids(node, storage.band(node.index, "R")))
        assert got == sorted(expected_bands[node.index]), (
            f"shard {node.index} band mismatch"
        )
    assert not expected_bands[0], "shard 0 can never receive band replicas"


@settings(max_examples=40, deadline=None)
@given(values=value_lists, boundaries=boundary_lists, n_shards=n_shard_choices)
def test_mirrors_are_faithful_copies(values, boundaries, n_shards):
    """Node i+1 mirrors node i's primary and band, tuple for tuple."""
    storage = placed(values, boundaries, n_shards)
    for node in storage.nodes:
        i = node.index
        mirror = storage.mirror_node(i)
        assert heap_ids(node, storage.primary(i, "R")) == heap_ids(
            mirror, storage.mirror_primary(i, "R")
        )
        assert heap_ids(node, storage.band(i, "R")) == heap_ids(
            mirror, storage.mirror_band(i, "R")
        )


# ----------------------------------------------------------------------
# Join — the partitioned band join's property, on the placed source
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    r_values=value_lists,
    s_values=value_lists,
    boundaries=boundary_lists,
    n_shards=n_shard_choices,
)
def test_scatter_gather_join_matches_serial_for_any_boundaries(
    r_values, s_values, boundaries, n_shards
):
    check_against_serial(
        r_values, s_values, **placement(r_values, s_values, n_shards, boundaries, boundaries)
    )


def test_window_rung_counts_each_slice_pair_once():
    """Shrunk counter-example: a slice's merge window outgrows the buffer
    part-way through an outer tuple, and the nested-loop rung refolds that
    tuple; its joining pairs still count once in ``rows_out``."""
    wide, point = (T(-1, 0, 0, 1), 0.3), (N(0), 0.3)
    r_values = [wide, point]
    s_values = [wide if c == "T" else point for c in "TTTTTTNTTNTTTNTNNNNTTT"]
    check_against_serial(r_values, s_values, **placement(r_values, s_values, 2, [0.0], [0.0]))


@settings(max_examples=40, deadline=None)
@given(
    r_values=value_lists,
    s_values=value_lists,
    r_cuts=boundary_lists,
    s_cuts=boundary_lists,
)
def test_mismatched_r_and_s_layouts_still_agree(r_values, s_values, r_cuts, s_cuts):
    """R and S may be placed on *different* cuts; the slice is rebuilt per
    shard from S's own layout, so the answer never depends on alignment."""
    check_against_serial(r_values, s_values, **placement(r_values, s_values, 3, r_cuts, s_cuts))
