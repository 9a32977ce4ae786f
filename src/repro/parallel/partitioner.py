"""Range partitioning on the ``b(v)`` left endpoints of the interval order.

A boundary list ``[c_1 < c_2 < ... < c_{k-1}]`` splits a relation into
``k`` half-open slices ``{t : c_i <= b(t.X) < c_{i+1}}`` (the first slice
is unbounded below, the last unbounded above).  Because every ``b`` in
slice ``i`` is strictly below every ``b`` in slice ``i+1``, the slices
are *order-disjoint* under Definition 3.1's ``(b, e)`` lexicographic
order: sorting each slice independently and concatenating them yields
exactly the globally sorted file, with no merge across slices.

The geometry is shared by a query's sampled boundaries
(:meth:`RangePartitioner.from_sample` — page-level sampling, so its cost
is a handful of charged page reads) and a relation's durable shard
placement (:class:`~repro.shard.catalog.ShardLayout`): both cut with
:func:`select_boundaries`, map endpoints to slices with :func:`slice_of`
and describe slices with :func:`range_specs`.
"""

from __future__ import annotations

import bisect
import random
from typing import List, NamedTuple, Optional, Sequence

from ..fuzzy.interval_order import sort_key
from ..storage.heap import HeapFile
from ..storage.stats import OperationStats

#: Default page-sample size for boundary selection.
DEFAULT_SAMPLE_SIZE = 64


def sample_tuples(heap: HeapFile, k: int, rng: random.Random, stats: Optional[OperationStats] = None):
    """Page-level sampling: draw ``k`` tuples by sampling pages uniformly.

    Charges one page read per distinct sampled page (cheaper and more
    realistic than row-level sampling on a paged store).
    """
    if heap.n_pages == 0 or k <= 0:
        return []
    out = []
    pages = list(range(heap.n_pages))
    rng.shuffle(pages)
    scratch = OperationStats()
    with heap.disk.use_stats(stats if stats is not None else scratch):
        for page_index in pages:
            page = heap.disk.read_page(heap.name, page_index)
            for record in page.records():
                out.append(heap.serializer.decode(record))
            if len(out) >= k:
                break
    rng.shuffle(out)
    return out[:k]


def select_boundaries(endpoints: List, n_slices: int) -> List:
    """Up to ``n_slices - 1`` strictly increasing quantile cuts of ``endpoints``.

    Cut ``i`` is the ``i/n_slices`` quantile of the sorted left endpoints,
    deduplicated, so the slices come out roughly equal in tuples (hence
    pages, under the fixed-size serializer).  An empty list — nothing to
    cut on — when there are fewer than two slices or endpoints, every
    endpoint is equal, or the endpoints are not mutually comparable (a
    mixed numeric/symbolic domain).
    """
    if n_slices < 2 or len(endpoints) < 2:
        return []
    try:
        endpoints = sorted(endpoints)
    except TypeError:
        return []  # mixed domains: b values not mutually comparable
    boundaries: List = []
    for i in range(1, n_slices):
        cut = endpoints[min(len(endpoints) - 1, i * len(endpoints) // n_slices)]
        if not boundaries or cut > boundaries[-1]:
            boundaries.append(cut)
    # A cut at the global minimum would leave the first slice empty.
    if boundaries and boundaries[0] <= endpoints[0]:
        boundaries = boundaries[1:]
    return boundaries


def slice_of(boundaries: Sequence, b) -> int:
    """The slice a left endpoint ``b`` falls in (a cut belongs to the right)."""
    return bisect.bisect_right(boundaries, b)


class PartitionSpec(NamedTuple):
    """One half-open slice ``[lower, upper)`` of the ``b(v)`` axis.

    ``lower is None`` means unbounded below; ``upper is None`` unbounded
    above.  Bounds are compared with the tuple's *left* endpoint only —
    the right endpoint never affects which slice a tuple lands in.
    """

    index: int
    lower: Optional[object]
    upper: Optional[object]

    def contains(self, b) -> bool:
        """Whether a left endpoint ``b`` falls inside this slice."""
        if self.lower is not None and b < self.lower:
            return False
        return self.upper is None or b < self.upper


def range_specs(boundaries: Sequence) -> List[PartitionSpec]:
    """The slices ``boundaries`` cut, as ``[lower, upper)`` specs in order."""
    bounds = [None, *boundaries, None]
    return [PartitionSpec(i, bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


class RangePartitioner:
    """Maps left endpoints to partition indices via sampled boundaries."""

    def __init__(self, boundaries: List):
        if not boundaries:
            raise ValueError("a range partitioner needs at least one boundary")
        self.boundaries = list(boundaries)

    @property
    def n_partitions(self) -> int:
        """Number of slices (one more than the boundary count)."""
        return len(self.boundaries) + 1

    def partition_index(self, b) -> int:
        """The slice a value whose left endpoint is ``b`` sorts into."""
        return slice_of(self.boundaries, b)

    def specs(self) -> List[PartitionSpec]:
        """The slices as explicit ``[lower, upper)`` specs, in order."""
        return range_specs(self.boundaries)

    @classmethod
    def from_sample(
        cls,
        heap: HeapFile,
        attribute: str,
        workers: int,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        seed: int = 0,
        stats: Optional[OperationStats] = None,
    ) -> Optional["RangePartitioner"]:
        """Pick up to ``workers - 1`` boundaries from a page sample of ``heap``.

        Returns ``None`` — degrade to serial — when ``workers < 2`` (nothing
        is sampled then) or :func:`select_boundaries` finds no cut in the
        sampled left endpoints.
        """
        if workers < 2:
            return None
        sample = sample_tuples(heap, sample_size, random.Random(seed), stats)
        index = heap.schema.index_of(attribute)
        boundaries = select_boundaries([sort_key(t[index])[0] for t in sample], workers)
        return cls(boundaries) if boundaries else None
