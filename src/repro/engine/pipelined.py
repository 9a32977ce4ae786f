"""The Section 6 pipelined evaluation of unnested aggregate queries.

"Although the unnested Query JA consists of three queries instead of one,
by pipelining the result of one query to another, the three flat queries
can be evaluated in parallel in the main memory. ... Since the operations
are pipelined, this process is essentially the extended merge-join."

This module implements that single-pass strategy over heap files: both
relations are sorted once (R on U, S on V); as the merge scan walks R, the
group ``T'(u)`` for each *distinct* outer join-value ``u`` is aggregated
exactly once (``A'(u)``, ``D(A'(u))``) and memoized, so later R-tuples
carrying the same value reuse it without touching S again — the paper's
"as soon as u1 is obtained, it is pipelined to Query T2 ... then, for all
R-tuples r with r.U = u1 ... the degree d_r is computed".

The COUNT left outer join (Query COUNT') falls out naturally: an R-tuple
whose group is empty compares against the constant 0.

Under an outer ``WITH D >= z`` an R-tuple with ``mu_R(r) < z`` is decided
before its scan: it collects no group and leaves the memo to a later one.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterator, Optional, Tuple

from ..data.tuples import FuzzyTuple
from ..fuzzy.compare import Op, intervals_intersect, possibility
from ..fuzzy.crisp import CrispNumber
from ..storage.heap import HeapFile
from ..storage.stats import OperationStats
from .aggregates import DegreePolicy, apply_aggregate
from .operators import BandFold, ExecutionContext

TupleDegree = Callable[[FuzzyTuple], float]


class JAPipeline(BandFold):
    """One-pass evaluation of

        SELECT R.<project> FROM R
        WHERE p1 AND R.<y> op1 (SELECT AGG(S.<z>) FROM S
                                WHERE p2 AND S.<v> = R.<u>)

    over heap files, per the Section 6 pipelining description.
    """

    def __init__(
        self,
        outer: HeapFile,
        inner: HeapFile,
        u_attr: str,
        v_attr: str,
        y_attr: str,
        op1: Op,
        agg_func: str,
        z_attr: str,
        project_attr=None,
        p1: Optional[TupleDegree] = None,
        p2: Optional[TupleDegree] = None,
        policy: DegreePolicy = DegreePolicy.ONE,
        project_attrs=None,
    ):
        if project_attrs is None:
            project_attrs = [project_attr] if project_attr is not None else ["ID"]
        super().__init__(outer, inner, project_attrs)
        self.u_index = outer.schema.index_of(u_attr)
        self.v_index = inner.schema.index_of(v_attr)
        self.y_index = outer.schema.index_of(y_attr)
        self.z_index = inner.schema.index_of(z_attr)
        self.u_attr, self.v_attr = u_attr, v_attr
        self.op1 = op1
        self.agg_func = agg_func.upper()
        self.p1 = p1
        self.p2 = p2
        self.policy = policy

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, ctx: ExecutionContext) -> Iterator[FuzzyTuple]:
        """The pipelined T1/T2/JA' merge pass on ``ctx``."""
        # A'(u) / D(A'(u)) memo, keyed by the value representation of u —
        # the binary-identity grouping Theorem 6.1 relies on.  The consumer
        # below fills it.  A partitioned band join (workers= / shards=)
        # runs every slice's scan before the consumer sees a state, so the
        # memo is empty during those scans: each outer tuple collects its
        # own group — extra degree evaluations, the same answer, since a
        # group's members do not depend on which outer tuple collected them.
        groups: Dict[Hashable, Optional[Tuple[object, float]]] = {}

        def pair(r: FuzzyTuple, s: FuzzyTuple, st: Optional[OperationStats]) -> float:
            u = r[self.u_index]
            if u.key() in groups:
                return 0.0  # group already aggregated; skip S work entirely
            if st is not None:
                st.count_fuzzy()
            if not intervals_intersect(u, s[self.v_index]):
                return 0.0
            degree = min(s.degree, possibility(s[self.v_index], Op.EQ, u))
            if degree > 0.0 and self.p2 is not None:
                if st is not None:
                    st.count_fuzzy()
                degree = min(degree, self.p2(s))
            return degree

        def init(_r: FuzzyTuple):
            return {}

        def step(members, s: FuzzyTuple, degree: float):
            if degree > 0.0:
                key = s[self.z_index].key()
                if key not in members or degree > members[key][1]:
                    members[key] = (s[self.z_index], degree)
            return members

        z = self.cut
        decided = (lambda r, _members: r.degree < z) if z > 0.0 else None

        def outer_degrees():
            # Whatever join yields the groups (the merge scan or, down the
            # ladder, a block of the nested loop), aggregation happens
            # once per distinct u: pairs outside Rng(r) contribute 0.
            for r, members in self._fold(
                ctx, (self.u_attr, self.v_attr), pair, init, step, decided
            ):
                if decided is not None and decided(r, members):
                    yield r, 0.0  # fails the cut; its empty group is not T'(u)
                    continue
                u_key = r[self.u_index].key()
                if u_key not in groups:
                    # Pipeline hand-off: T'(u) just completed; apply AGG once.
                    groups[u_key] = apply_aggregate(
                        self.agg_func, list(members.values()), self.policy
                    )
                yield r, self._outer_degree(r, groups[u_key], ctx.stats)

        yield from self._answers(ctx, outer_degrees())

    def describe(self) -> str:
        """One-line label: the two relations of the pipeline."""
        return f"JAPipeline({self.outer.heap.name} -> {self.inner.heap.name})"

    def _outer_degree(self, r: FuzzyTuple, aggregate, stats: Optional[OperationStats]) -> float:
        degree = r.degree
        if self.p1 is not None:
            if stats is not None:
                stats.count_fuzzy()
            degree = min(degree, self.p1(r))
        if degree == 0.0:
            return 0.0
        if aggregate is None:
            # Empty group: NULL for everything but COUNT...
            if self.agg_func != "COUNT":
                return 0.0
            value, agg_degree = CrispNumber(0.0), 1.0  # ...the outer-join ELSE branch
        else:
            value, agg_degree = aggregate
        if stats is not None:
            stats.count_fuzzy()
        return min(degree, agg_degree, possibility(r[self.y_index], self.op1, value))
