"""Join-order optimization for unnested chain queries (Section 8).

"To evaluate Query Q'_K, an optimal join order may be determined by
using, say, a dynamic programming method, to minimize the sizes of the
intermediate relations.  If, as assumed, each tuple of a relation joins
with a constant number of tuples of another relation, the size of an
intermediate relation will be proportional to a joining relation."

This module implements that: a Selinger-style dynamic program over
connected subsets of the join graph, minimizing the summed estimated
intermediate cardinalities.  Under the paper's constant-fan-out
assumption the estimate for joining a relation in through a predicate is
``rows(subset) * fanout``; a relation joined in with no connecting
predicate costs the full cross product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class TableEstimate:
    """Cardinality statistics for one relation."""

    rows: int

    def __post_init__(self):
        if self.rows < 0:
            raise ValueError("row estimate cannot be negative")


@dataclass(frozen=True)
class JoinEdge:
    """An (undirected) equi-join predicate between two bindings."""

    left: str
    right: str
    #: Estimated number of right-side tuples each left tuple joins (the
    #: paper's constant C); symmetric by assumption.
    fanout: float = 7.0

    def connects(self, subset: FrozenSet[str], binding: str) -> bool:
        """Whether this edge joins ``binding`` to a table already in ``subset``."""
        return (self.left in subset and self.right == binding) or (
            self.right in subset and self.left == binding
        )


@dataclass
class JoinPlan:
    """The DP result: an order and its estimated total intermediate size."""

    order: List[str]
    cost: float
    result_rows: float


def optimize_join_order(
    estimates: Dict[str, TableEstimate],
    edges: Sequence[JoinEdge],
) -> JoinPlan:
    """Left-deep join order minimizing summed intermediate cardinalities.

    Exhaustive dynamic programming over subsets — exact for the handful of
    relations a chain query produces (K-level chains have K relations).
    """
    bindings = sorted(estimates)
    if not bindings:
        raise ValueError("need at least one relation")
    n = len(bindings)
    if n > 14:
        raise ValueError("join-order DP supports at most 14 relations")

    # best[subset] = (cost, result_rows, order); every smaller subset is
    # solved before any larger one reads it.
    best: Dict[FrozenSet[str], Tuple[float, float, List[str]]] = {}
    for b in bindings:
        best[frozenset([b])] = (0.0, float(estimates[b].rows), [b])

    for size in range(2, n + 1):
        for combo in combinations(bindings, size):
            subset = frozenset(combo)
            candidate: Optional[Tuple[float, float, List[str]]] = None
            for newcomer in combo:
                rest = subset - {newcomer}
                rest_cost, rest_rows, rest_order = best[rest]
                rows = _join_rows(rest, rest_rows, newcomer, estimates, edges)
                cost = rest_cost + rows  # accumulate intermediate sizes
                if candidate is None or cost < candidate[0]:
                    candidate = (cost, rows, rest_order + [newcomer])
            best[subset] = candidate

    cost, rows, order = best[frozenset(bindings)]
    return JoinPlan(order=order, cost=cost, result_rows=rows)


def parallel_join_cost(
    serial_cost: float,
    n_partitions: int,
    partition_overhead: float,
    skew: float = 1.0,
) -> float:
    """Planner-side estimate of a range-partitioned join's cost.

    The partitions run concurrently, so the serial join cost divides by
    the partition count — inflated by ``skew`` (max partition size over
    mean partition size, >= 1) because response time is the *max* over
    partitions, not the mean — and the coordinator's partitioning pass
    (one read plus one write of both inputs, in the same cost unit as
    ``serial_cost``) is added back as serial work:

        cost = overhead + skew * serial_cost / n_partitions

    With one partition this is serial cost plus pure overhead — which is
    why the executor degrades to the serial path instead.
    """
    if n_partitions < 1:
        raise ValueError("need at least one partition")
    if skew < 1.0:
        raise ValueError("skew is max/mean partition size; it cannot be < 1")
    return partition_overhead + skew * serial_cost / n_partitions


def _join_rows(
    subset: FrozenSet[str],
    subset_rows: float,
    newcomer: str,
    estimates: Dict[str, TableEstimate],
    edges: Sequence[JoinEdge],
) -> float:
    connecting = [e for e in edges if e.connects(subset, newcomer)]
    if not connecting:
        # Cross product: the paper's DP exists precisely to avoid this.
        return subset_rows * estimates[newcomer].rows
    # Under the constant-fan-out assumption each connecting predicate
    # multiplies by its fan-out once and further predicates only filter.
    fanout = min(e.fanout for e in connecting)
    return max(1.0, subset_rows * fanout / max(1.0, len(connecting)))
