"""Storage-level evaluation of the grouped anti-join rewrites (JX/JALL).

Sections 5 and 7 evaluate the unnested forms JX' / JALL' with the extended
merge-join: "we join a tuple r with all S-tuples in Rng(r) while they are
in the main memory, compute d_r and retrieve r.X when d_r > 0".  The
degree of an outer tuple is a *min* fold over pair degrees

    NOT IN:  d'_{r,s} = min(mu_R(r), 1 - min(mu_S(s), p2, cross, d(Y = Z)))
    op ALL:  d'_{r,s} = min(mu_R(r), 1 - min(mu_S(s), p2, cross, 1 - d(Y op Z)))

seeded with ``min(mu_R(r), p1(r))`` (the value every pair outside Rng(r)
contributes, since its inner conjunction is 0).  The state only falls, so
the fold is decided once it fails the outer ``WITH D >= z`` (or is 0).

When one of the cross predicates (or the NOT-IN link) is a fuzzy equality
between attributes, it serves as the merge-join band; otherwise the fold
runs on the block nested loop — same answers, quadratic cost.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator, Optional, Sequence, Tuple

from ..data.tuples import FuzzyTuple
from ..fuzzy.compare import Op, possibility
from ..join.predicates import min_decided
from ..storage.heap import HeapFile
from .operators import BandFold, ExecutionContext

TupleDegree = Callable[[FuzzyTuple], float]

#: A cross predicate: (outer attribute, operator, inner attribute).
CrossSpec = Tuple[str, Op, str]


class GroupMode(enum.Enum):
    """Which quantifier the grouped evaluation folds: ``NOT IN`` or ``ALL``."""
    NOT_IN = "not in"
    ALL = "all"


class GroupedAntiJoin(BandFold):
    """One grouped anti-join query over heap files."""

    def __init__(
        self,
        outer: HeapFile,
        inner: HeapFile,
        mode: GroupMode,
        link: CrossSpec,
        cross: Sequence[CrossSpec] = (),
        p1: Optional[TupleDegree] = None,
        p2: Optional[TupleDegree] = None,
        project_attrs: Sequence[str] = ("ID",),
    ):
        """``link`` is the quantified comparison: ``(Y, EQ, Z)`` for NOT IN
        or ``(Y, op, Z)`` for op ALL.  ``cross`` holds the correlation
        predicates of the inner block, outer attribute first."""
        super().__init__(outer, inner, project_attrs)
        self.mode = mode
        self.link = link
        self.cross = list(cross)
        self.p1 = p1
        self.p2 = p2
        self._link_resolved = self._resolve(link)
        self._cross_resolved = [self._resolve(c) for c in self.cross]
        self.band = self._choose_band()

    def _resolve(self, spec: CrossSpec):
        outer_attr, op, inner_attr = spec
        return (
            self.outer.schema.index_of(outer_attr),
            op,
            self.inner.schema.index_of(inner_attr),
        )

    def _choose_band(self) -> Optional[Tuple[str, str]]:
        """An equality attribute pair usable as the merge-join band."""
        candidates = list(self.cross)
        if self.mode is GroupMode.NOT_IN:
            candidates.append(self.link)
        for outer_attr, op, inner_attr in candidates:
            if op is Op.EQ:
                return (outer_attr, inner_attr)
        return None

    # ------------------------------------------------------------------
    # Degrees
    # ------------------------------------------------------------------
    def _inner_degree(self, r: FuzzyTuple, s: FuzzyTuple, stats) -> float:
        degree = s.degree
        if self.p2 is not None and degree > 0.0:
            if stats is not None:
                stats.count_fuzzy()
            degree = min(degree, self.p2(s))
        for oi, op, ii in self._cross_resolved:
            if degree == 0.0:
                return 0.0
            if stats is not None:
                stats.count_fuzzy()
            degree = min(degree, possibility(r[oi], op, s[ii]))
        if degree == 0.0:
            return 0.0
        oi, op, ii = self._link_resolved
        if stats is not None:
            stats.count_fuzzy()
        link_degree = possibility(r[oi], op, s[ii])
        if self.mode is GroupMode.NOT_IN:
            return min(degree, link_degree)
        return min(degree, 1.0 - link_degree)

    def _pair_degree(self, r: FuzzyTuple, s: FuzzyTuple, stats) -> float:
        return min(r.degree, 1.0 - self._inner_degree(r, s, stats))

    def _init(self, r: FuzzyTuple) -> float:
        degree = r.degree
        if self.p1 is not None and degree > 0.0:
            degree = min(degree, self.p1(r))
        return degree

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, ctx: ExecutionContext) -> Iterator[FuzzyTuple]:
        """The min-fold over the band on ``ctx``: one answer per outer tuple
        whose worst pair degree stays positive (and meets the cut)."""
        step = lambda worst, _s, d: d if d < worst else worst
        yield from self._answers(ctx, self._fold(
            ctx, self.band, self._pair_degree, self._init, step, min_decided(self.cut)
        ))

    def describe(self) -> str:
        """One-line label: the quantifier and the two relations."""
        return (
            f"GroupedAntiJoin[{self.mode.value}]"
            f"({self.outer.heap.name} -> {self.inner.heap.name})"
        )
