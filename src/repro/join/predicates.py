"""Join predicate evaluation and degree composition.

Every pair degree the unnesting rewrites need is a composition of
``min``/``1-x`` over predicate satisfaction degrees:

* plain join (Queries N', J'):   ``min(mu_R(r), mu_S(s), d(p1..pk))``
* anti join (Query JX'):          ``min(mu_R(r), 1 - min(mu_S(s), d(p1..pk)))``
* ALL-quantifier join (JALL'):    ``min(mu_R(r), 1 - min(mu_S(s), d(join), 1 - d(compare)))``

Each evaluated predicate charges one fuzzy evaluation to the stats object;
conjunctions short-circuit on 0 exactly like a real evaluator would.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..data.schema import Schema
from ..data.tuples import FuzzyTuple
from ..fuzzy.compare import ComparisonKernel, Op, possibility
from ..storage.stats import OperationStats


class JoinPredicate:
    """``R.attr op S.attr`` with positions resolved against both schemas."""

    __slots__ = ("left_attr", "op", "right_attr", "left_index", "right_index", "similarity")

    def __init__(
        self,
        left_schema: Schema,
        left_attr: str,
        op: Op,
        right_schema: Schema,
        right_attr: str,
        similarity=None,
    ):
        self.left_attr = left_attr
        self.op = op
        self.right_attr = right_attr
        self.left_index = left_schema.index_of(left_attr)
        self.right_index = right_schema.index_of(right_attr)
        self.similarity = similarity
        if op is Op.SIMILAR and similarity is None:
            raise ValueError("a SIMILAR predicate needs a similarity relation")

    def degree(
        self,
        r: FuzzyTuple,
        s: FuzzyTuple,
        stats: Optional[OperationStats] = None,
        kernel: Optional[ComparisonKernel] = None,
    ) -> float:
        """Fuzzy degree of the predicate on ``(r, s)``, counting one fuzzy evaluation.

        ``kernel`` routes the possibility computation through a memoizing
        :class:`~repro.fuzzy.compare.ComparisonKernel`; the fuzzy-evaluation
        counter is charged either way so accounting stays kernel-agnostic.
        """
        if stats is not None:
            stats.count_fuzzy()
        left = r[self.left_index]
        right = s[self.right_index]
        if self.op is Op.SIMILAR:
            return self.similarity.degree(left, right)
        if kernel is not None:
            return kernel.possibility(left, self.op, right)
        return possibility(left, self.op, right)

    def __repr__(self) -> str:
        return f"JoinPredicate(R.{self.left_attr} {self.op.value} S.{self.right_attr})"


PairDegree = Callable[[FuzzyTuple, FuzzyTuple, Optional[OperationStats]], float]


def _add_pair(matches: list, s: FuzzyTuple, degree: float) -> list:
    if degree > 0.0:
        matches.append((s, degree))
    return matches


#: ``(init, step, decided)`` of the fold collecting each outer tuple's
#: joining ``(s, degree)`` pairs; on its own it never decides.
PAIRS = (lambda _r: [], _add_pair, None)

#: ``(init, step, decided)`` of the max-fold: each outer tuple's largest
#: pair degree, 0 when nothing joins; decided at ``mu_R(r)``, which bounds
#: every pair degree (``docs/possibility_semantics.md``).
MAX_FOLD = (
    lambda _r: 0.0,
    lambda state, _s, degree: degree if degree > state else state,
    lambda r, state: state >= r.degree,
)


def under_cut(fold: tuple, z: float) -> tuple:
    """``fold`` beneath ``WITH D >= z``: a tuple whose ``mu_R`` fails the
    cut is decided at ``init``, as every answer from it is at most ``mu_R``."""
    init, step, decided = fold
    if z <= 0.0:
        return fold
    if decided is None:
        return init, step, lambda r, _state: r.degree < z
    return init, step, lambda r, state: r.degree < z or decided(r, state)


def join_degree(
    predicates: Sequence[JoinPredicate], kernel: Optional[ComparisonKernel] = None
) -> PairDegree:
    """``min(mu_R(r), mu_S(s), d(p1), ..., d(pk))`` with short-circuiting."""

    def degree(r: FuzzyTuple, s: FuzzyTuple, stats: Optional[OperationStats] = None) -> float:
        d = min(r.degree, s.degree)
        for p in predicates:
            if d == 0.0:
                return 0.0
            d = min(d, p.degree(r, s, stats, kernel))
        return d

    return degree


def antijoin_degree(
    predicates: Sequence[JoinPredicate], kernel: Optional[ComparisonKernel] = None
) -> PairDegree:
    """Query JX' pair degree: ``min(mu_R(r), 1 - min(mu_S(s), d(p1..pk)))``.

    The group aggregate over all S-tuples is MIN; pairs whose predicates
    are unsatisfiable contribute the neutral-maximal value ``mu_R(r)``.
    """

    def degree(r: FuzzyTuple, s: FuzzyTuple, stats: Optional[OperationStats] = None) -> float:
        inner = s.degree
        for p in predicates:
            if inner == 0.0:
                break
            inner = min(inner, p.degree(r, s, stats, kernel))
        return min(r.degree, 1.0 - inner)

    return degree


def all_quantifier_degree(
    join_predicates: Sequence[JoinPredicate],
    compare: JoinPredicate,
    kernel: Optional[ComparisonKernel] = None,
) -> PairDegree:
    """Query JALL' pair degree.

    ``min(mu_R(r), 1 - min(mu_S(s), d(join preds), 1 - d(r.Y op s.Z)))`` —
    the doubly negated form of Section 7, grouped by MIN over S.
    """

    def degree(r: FuzzyTuple, s: FuzzyTuple, stats: Optional[OperationStats] = None) -> float:
        inner = s.degree
        for p in join_predicates:
            if inner == 0.0:
                break
            inner = min(inner, p.degree(r, s, stats, kernel))
        if inner > 0.0:
            inner = min(inner, 1.0 - compare.degree(r, s, stats, kernel))
        return min(r.degree, 1.0 - inner)

    return degree


def min_decided(z: float) -> Callable[[FuzzyTuple, float], bool]:
    """``decided`` of a min-fold (JX', JALL') beneath ``WITH D >= z``: its
    state only falls, so once it fails the cut the tuple is no answer."""
    if z > 0.0:
        return lambda _r, worst: worst < z
    return lambda _r, worst: worst <= 0.0
