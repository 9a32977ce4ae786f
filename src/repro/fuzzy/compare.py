"""Possibility degrees of fuzzy comparisons: ``d(X theta Y)``.

Implements the paper's satisfaction-degree semantics

    d(X theta Y) = sup_{x,y} min(mu_U(x), mu_V(y), mu_theta(x, y))

exactly, for every combination of crisp, trapezoidal, and discrete
distributions, and for ``theta`` in ``{=, !=, <, <=, >, >=}`` plus
tolerance-based similarity ("approximately equal", see
:mod:`repro.fuzzy.similarity`).

Binary operators admit closed forms:

* ``=``  — height of the highest intersection point of the two membership
  functions (sup-min of the piecewise-linear curves);
* ``<=`` — ``sup_x min(mu_U(x), sup_{y>=x} mu_V(y))``, computed with the
  nonincreasing right envelope of ``mu_V``;
* ``!=`` — degenerates to 1 unless one side is (effectively) a single point.

For the shapes every stored numeric value has — :class:`CrispNumber` and
:class:`TrapezoidalNumber` — those closed forms are four functions over
raw ``(a, b, c, d)`` abscissae (:func:`eq_degree`, :func:`le_degree`,
:func:`lt_degree`, :func:`ne_degree`); they are the only implementation
of the trapezoid-family comparators in the code base, shared by
:func:`possibility`, :class:`ComparisonKernel` and the column kernels of
:mod:`repro.columnar.kernel`.  Every other shape takes the general path
(points, discrete sets, :class:`~repro.fuzzy.membership.PiecewiseLinear`
sup-min), which the tests also use as the closed forms' oracle.
"""

from __future__ import annotations

import enum
import threading
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from .crisp import CrispLabel, CrispNumber
from .discrete import DiscreteDistribution
from .distribution import Distribution
from .trapezoid import TrapezoidalNumber


class Op(enum.Enum):
    """Comparison operators of the Fuzzy SQL WHERE clause."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    SIMILAR = "~="

    @classmethod
    def from_symbol(cls, symbol: str) -> "Op":
        """The :class:`Op` for a comparison symbol, accepting aliases like ``!=``."""
        for op in cls:
            if op.value == symbol:
                return op
        aliases = {"!=": cls.NE, "==": cls.EQ, "=~": cls.SIMILAR}
        if symbol in aliases:
            return aliases[symbol]
        raise ValueError(f"unknown comparison operator {symbol!r}")

    def flipped(self) -> "Op":
        """The operator with its operands swapped (x op y == y flip(op) x)."""
        table = {
            Op.EQ: Op.EQ,
            Op.NE: Op.NE,
            Op.SIMILAR: Op.SIMILAR,
            Op.LT: Op.GT,
            Op.LE: Op.GE,
            Op.GT: Op.LT,
            Op.GE: Op.LE,
        }
        return table[self]

    def negated(self) -> "Op":
        """The complementary crisp operator (used by rewrites like JALL)."""
        table = {
            Op.EQ: Op.NE,
            Op.NE: Op.EQ,
            Op.LT: Op.GE,
            Op.LE: Op.GT,
            Op.GT: Op.LE,
            Op.GE: Op.LT,
        }
        if self not in table:
            raise ValueError(f"{self} has no crisp negation")
        return table[self]


def possibility(left: Distribution, op: Op, right: Distribution) -> float:
    """``d(left op right)`` under the possibility measure.

    Comparing a numeric distribution with a symbolic one yields 0 for every
    operator except ``!=`` (they can never be equal, hence are certainly
    unequal at degree ``min(height, height)``).
    """
    degree = closed_form(left, op, right)
    if degree is not None:
        return degree
    return _general_possibility(left, op, right)


def _general_possibility(left: Distribution, op: Op, right: Distribution) -> float:
    """:func:`possibility` for any pair of shapes, never using the closed forms.

    The path for discrete and label operands and for new continuous
    shapes (through ``as_piecewise``), and the reference the closed forms
    are tested against.
    """
    if op is Op.SIMILAR:
        raise ValueError("similarity comparisons need a tolerance; use similar()")
    if left.is_numeric != right.is_numeric:
        if op is Op.NE:
            return min(left.height, right.height)
        return 0.0
    if op is Op.EQ:
        return _equality(left, right)
    if op is Op.NE:
        return _inequality(left, right)
    if op in (Op.GT, Op.GE):
        return _less_than(right, left, strict=(op is Op.GT))
    return _less_than(left, right, strict=(op is Op.LT))


def necessity(left: Distribution, op: Op, right: Distribution) -> float:
    """``Nec(left op right) = 1 - Poss(left  not-op  right)`` (Section 2).

    The paper's *discussion* measure: the double-measure system of
    Prade-Testemale evaluates every predicate to a (possibility,
    necessity) pair, which makes algebraic operations non-composable and
    unnesting impossible — the reason the paper (and this system) measures
    satisfaction by possibility alone.  Provided for analysis and tests;
    no query operator uses it.

    With convex normal distributions necessity never exceeds possibility.
    """
    return 1.0 - possibility(left, op.negated(), right)


def intervals_intersect(left: Distribution, right: Distribution) -> bool:
    """True when the support intervals overlap (necessary for ``d(=) > 0``)."""
    lb, le = left.interval()
    rb, re = right.interval()
    return not (le < rb or re < lb)


# ----------------------------------------------------------------------
# Closed forms for the crisp/trapezoid family
# ----------------------------------------------------------------------
# Operands are raw abscissae ``a <= b <= c <= d`` (support ``[a, d]``, core
# ``[b, c]``); a crisp number ``v`` is the degenerate ``(v, v, v, v)``, so
# object callers and column callers share the functions without building
# anything.

def _ramp_crossing(c, d, a, b) -> float:
    """Height at which the falling ramp ``c -> d`` meets the rising ramp ``a -> b``.

    Requires ``c < b`` (the flat tops do not meet).  0.0 when the ramps
    do not overlap (``d <= a``); the quotient is below 1 in exact
    arithmetic, and the clamp keeps three roundings from lifting it past.
    """
    if d <= a:
        return 0.0
    height = (d - a) / ((d - c) + (b - a))
    return height if height < 1.0 else 1.0


def eq_degree(a1, b1, c1, d1, a2, b2, c2, d2) -> float:
    """``Poss(X = Y)``: the height at which the two membership curves cross.

    1.0 when the cores share a point, 0.0 when the supports are disjoint,
    else ``(d1 - a2) / ((d1 - c1) + (b2 - a2))`` with X the operand whose
    core lies to the left.  Against a point this is the trapezoid
    membership formula, term for term.  Which operand plays X is decided
    by the data, not by the argument order, so the degree is bit-for-bit
    symmetric.
    """
    if c1 < b2:
        return _ramp_crossing(c1, d1, a2, b2)
    if c2 < b1:
        return _ramp_crossing(c2, d2, a1, b1)
    return 1.0


def le_degree(a1, b1, c1, d1, a2, b2, c2, d2) -> float:
    """``Poss(X <= Y)``: X's rising ramp against Y's falling ramp.

    1.0 when X's core begins no later than Y's core ends, 0.0 when X's
    support begins at or after the end of Y's, else
    ``(d2 - a1) / ((b1 - a1) + (d2 - c2))``.
    """
    if b1 <= c2:
        return 1.0
    return _ramp_crossing(c2, d2, a1, b1)


def lt_degree(a1, b1, c1, d1, a2, b2, c2, d2) -> float:
    """``Poss(X < Y)``; differs from :func:`le_degree` only at a point.

    Two continuous operands follow closure semantics (the fuzzy-database
    convention), so strictness only bites when a point meets a vertical
    edge exactly: ``sup_{x < v} mu(x)`` is then 0, not 1.
    """
    if b1 == c2 and a1 == b1 and c2 == d2 and (a1 == d1 or a2 == d2):
        return 0.0
    return le_degree(a1, b1, c1, d1, a2, b2, c2, d2)


def ne_degree(a1, b1, c1, d1, a2, b2, c2, d2) -> float:
    """``Poss(X != Y)``: 1.0 unless both operands are the same point."""
    return 0.0 if a1 == d1 == a2 == d2 else 1.0


def closed_form(left, op: Op, right) -> Optional[float]:
    """``d(left op right)`` for two crisp/trapezoid operands, else None.

    Dispatches on the exact type (a subclass may override ``membership``,
    so it takes the general path) and unpacks in place: this runs once
    per examined pair of every join.
    """
    kind = type(left)
    if kind is TrapezoidalNumber:
        a1, b1, c1, d1 = left.a, left.b, left.c, left.d
    elif kind is CrispNumber:
        a1 = b1 = c1 = d1 = left.value
    else:
        return None
    kind = type(right)
    if kind is TrapezoidalNumber:
        a2, b2, c2, d2 = right.a, right.b, right.c, right.d
    elif kind is CrispNumber:
        a2 = b2 = c2 = d2 = right.value
    else:
        return None
    if op is Op.EQ:
        return eq_degree(a1, b1, c1, d1, a2, b2, c2, d2)
    if op is Op.LE:
        return le_degree(a1, b1, c1, d1, a2, b2, c2, d2)
    if op is Op.LT:
        return lt_degree(a1, b1, c1, d1, a2, b2, c2, d2)
    if op is Op.GE:
        return le_degree(a2, b2, c2, d2, a1, b1, c1, d1)
    if op is Op.GT:
        return lt_degree(a2, b2, c2, d2, a1, b1, c1, d1)
    if op is Op.NE:
        return ne_degree(a1, b1, c1, d1, a2, b2, c2, d2)
    return None


# ----------------------------------------------------------------------
# Equality (general path)
# ----------------------------------------------------------------------

def _equality(left: Distribution, right: Distribution) -> float:
    crisp_l = _as_point(left)
    crisp_r = _as_point(right)
    if crisp_l is not None and crisp_r is not None:
        value_l, h_l = crisp_l
        value_r, h_r = crisp_r
        return min(h_l, h_r) if value_l == value_r else 0.0
    if crisp_l is not None:
        value, h = crisp_l
        return min(h, right.membership(value))
    if crisp_r is not None:
        value, h = crisp_r
        return min(h, left.membership(value))
    if isinstance(left, DiscreteDistribution) and isinstance(right, DiscreteDistribution):
        best = 0.0
        for value, p in left.items.items():
            q = right.items.get(value, 0.0)
            if q and min(p, q) > best:
                best = min(p, q)
        return best
    if isinstance(left, DiscreteDistribution):
        return max(min(p, right.membership(v)) for v, p in left.items.items())
    if isinstance(right, DiscreteDistribution):
        return max(min(p, left.membership(v)) for v, p in right.items.items())
    lpl, rpl = left.as_piecewise(), right.as_piecewise()
    if lpl is None or rpl is None:
        raise TypeError(f"cannot compare {type(left).__name__} with {type(right).__name__}")
    if not intervals_intersect(left, right):
        return 0.0
    return lpl.sup_min(rpl)


# ----------------------------------------------------------------------
# Strict/non-strict order
# ----------------------------------------------------------------------

def _less_than(left: Distribution, right: Distribution, strict: bool) -> float:
    """``Poss(left < right)`` or ``Poss(left <= right)``.

    Strictness is handled exactly whenever a *point* (crisp value, spike,
    or discrete element) is involved: ``Poss(u < v)`` against a point ``v``
    is the supremum of ``mu_u`` strictly below ``v``, which differs from
    the non-strict envelope at support boundaries of rectangular shapes.
    For two continuous non-point distributions, strict and non-strict
    possibilities coincide except on a measure-zero coincidence of jump
    boundaries, where we use closure semantics (the fuzzy-database
    convention).
    """
    if not left.is_numeric:
        return _less_than_labels(left, right, strict)
    crisp_l = _as_point(left)
    crisp_r = _as_point(right)
    if crisp_l is not None and crisp_r is not None:
        (vl, hl), (vr, hr) = crisp_l, crisp_r
        ok = vl < vr if strict else vl <= vr
        return min(hl, hr) if ok else 0.0
    if isinstance(left, DiscreteDistribution) and isinstance(right, DiscreteDistribution):
        best = 0.0
        for x, p in left.items.items():
            for y, q in right.items.items():
                if (x < y if strict else x <= y) and min(p, q) > best:
                    best = min(p, q)
        return best
    if isinstance(left, DiscreteDistribution):
        return max(
            min(p, _sup_above(right, x, strict)) for x, p in left.items.items()
        )
    if isinstance(right, DiscreteDistribution):
        return max(
            min(q, _sup_below(left, y, strict)) for y, q in right.items.items()
        )
    if crisp_l is not None:
        value, h = crisp_l
        return min(h, _sup_above(right, value, strict))
    if crisp_r is not None:
        value, h = crisp_r
        return min(h, _sup_below(left, value, strict))
    # Both continuous with nonempty interiors: closure semantics.
    lpl = left.as_piecewise()
    rpl = right.as_piecewise()
    return lpl.sup_min(rpl.running_max_right())


def _sup_below(dist: Distribution, v: float, strict: bool) -> float:
    """``sup_{x < v} mu(x)`` (or ``x <= v`` when non-strict)."""
    if isinstance(dist, DiscreteDistribution):
        degrees = [p for x, p in dist.items.items() if (x < v if strict else x <= v)]
        return max(degrees) if degrees else 0.0
    crisp = _as_point(dist)
    if crisp is not None:
        value, h = crisp
        return h if (value < v if strict else value <= v) else 0.0
    assert isinstance(dist, TrapezoidalNumber)
    if not strict:
        if v < dist.a:
            return 0.0
        if v >= dist.b:
            return 1.0
        return dist.membership(v)
    if v <= dist.a:
        return 0.0
    if v >= dist.b:
        return 1.0
    return (v - dist.a) / (dist.b - dist.a)


def _sup_above(dist: Distribution, v: float, strict: bool) -> float:
    """``sup_{y > v} mu(y)`` (or ``y >= v`` when non-strict)."""
    if isinstance(dist, DiscreteDistribution):
        degrees = [p for y, p in dist.items.items() if (y > v if strict else y >= v)]
        return max(degrees) if degrees else 0.0
    crisp = _as_point(dist)
    if crisp is not None:
        value, h = crisp
        return h if (value > v if strict else value >= v) else 0.0
    assert isinstance(dist, TrapezoidalNumber)
    if not strict:
        if v > dist.d:
            return 0.0
        if v <= dist.c:
            return 1.0
        return dist.membership(v)
    if v >= dist.d:
        return 0.0
    if v <= dist.c:
        return 1.0
    return (dist.d - v) / (dist.d - dist.c)


def _less_than_labels(left: Distribution, right: Distribution, strict: bool) -> float:
    """Lexicographic order comparison over symbolic domains."""
    best = 0.0
    for x, p in _label_items(left):
        for y, q in _label_items(right):
            if (x < y if strict else x <= y) and min(p, q) > best:
                best = min(p, q)
    return best


# ----------------------------------------------------------------------
# Inequality
# ----------------------------------------------------------------------

def _inequality(left: Distribution, right: Distribution) -> float:
    """``Poss(left != right) = sup_{x != y} min(mu_U(x), mu_V(y))``."""
    crisp_l = _as_point(left)
    crisp_r = _as_point(right)
    if crisp_l is not None and crisp_r is not None:
        (vl, hl), (vr, hr) = crisp_l, crisp_r
        return min(hl, hr) if vl != vr else 0.0
    if crisp_l is not None:
        value, h = crisp_l
        return min(h, _sup_excluding(right, value))
    if crisp_r is not None:
        value, h = crisp_r
        return min(h, _sup_excluding(left, value))
    if isinstance(left, DiscreteDistribution):
        best = 0.0
        for x, p in left.items.items():
            best = max(best, min(p, _sup_excluding(right, x)))
        return best
    if isinstance(right, DiscreteDistribution):
        best = 0.0
        for y, q in right.items.items():
            best = max(best, min(q, _sup_excluding(left, y)))
        return best
    # Two continuous distributions with nonempty interiors: one can always
    # pick x != y near the cores, so the degree is the min of the heights.
    return min(left.height, right.height)


def _sup_excluding(dist: Distribution, point) -> float:
    """``sup_{y != point} mu(y)`` — drops at most a single spike."""
    if isinstance(dist, DiscreteDistribution):
        degrees = [p for v, p in dist.items.items() if v != point]
        return max(degrees) if degrees else 0.0
    crisp = _as_point(dist)
    if crisp is not None:
        value, h = crisp
        return 0.0 if value == point else h
    # Continuous with nonempty interior: removing one point keeps the sup.
    return dist.height


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _as_point(dist: Distribution) -> Optional[Tuple[object, float]]:
    """``(value, height)`` when the distribution is a single point, else None.

    Covers :class:`CrispNumber`, :class:`CrispLabel`, degenerate trapezoids
    (``a == d``), and single-element discrete distributions.
    """
    if isinstance(dist, CrispNumber):
        return (dist.value, 1.0)
    if isinstance(dist, CrispLabel):
        return (dist.value, 1.0)
    if isinstance(dist, TrapezoidalNumber) and dist.a == dist.d:
        return (dist.a, 1.0)
    if isinstance(dist, DiscreteDistribution) and len(dist.items) == 1:
        ((value, p),) = dist.items.items()
        return (value, p)
    return None


def _label_items(dist: Distribution):
    if isinstance(dist, CrispLabel):
        return [(dist.value, 1.0)]
    if isinstance(dist, DiscreteDistribution) and not dist.is_numeric:
        return list(dist.items.items())
    raise TypeError(f"{type(dist).__name__} is not a symbolic distribution")


# ----------------------------------------------------------------------
# Memoized comparison-degree kernel
# ----------------------------------------------------------------------

class ComparisonKernel:
    """Evaluation of ``d(left op right)`` with a memo for small vocabularies.

    Crisp numbers and trapezoids go straight to the closed forms
    (:func:`closed_form`): their arithmetic is cheaper than building a
    memo key, so such pairs never take the lock or enter the memo, and
    :attr:`hits` / :attr:`misses` do not move.  Every other pair —
    discrete distributions and labels, where attribute values are drawn
    from a small vocabulary of linguistic terms and the general path is
    the expensive one — is looked up in a bounded LRU memo keyed on
    ``(left.key(), op, right.key())`` and computed once per query.

    The kernel is thread-safe (a single lock guards the memo) so one
    instance can be shared by all partition workers of a parallel join.
    It charges nothing: callers keep their own ``fuzzy_evaluations``
    accounting, so EXPLAIN ANALYZE output is the same with and without it.
    """

    __slots__ = ("capacity", "_memo", "_lock", "hits", "misses")

    def __init__(self, capacity: int = 4096):
        if capacity < 0:
            raise ValueError("kernel capacity must be non-negative")
        #: Memo bound; 0 disables memoization entirely (every memoizable
        #: call is a miss).
        self.capacity = capacity
        self._memo: "OrderedDict[Tuple, float]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def possibility(self, left: Distribution, op: Op, right: Distribution) -> float:
        """``possibility(left, op, right)``, memoized outside the closed forms."""
        degree = closed_form(left, op, right)
        if degree is not None:
            return degree
        key = (left.key(), op, right.key())
        with self._lock:
            cached = self._memo.get(key)
            if cached is not None:
                self._memo.move_to_end(key)
                self.hits += 1
                return cached
        degree = _general_possibility(left, op, right)
        self._store(key, degree)
        return degree

    def batch(
        self, probe: Distribution, op: Op, candidates: Sequence[Distribution]
    ) -> List[float]:
        """``[possibility(probe, op, c) for c in candidates]`` through the kernel."""
        return [self.possibility(probe, op, candidate) for candidate in candidates]

    def _store(self, key: Tuple, degree: float) -> None:
        with self._lock:
            self.misses += 1
            if self.capacity == 0:
                return
            self._memo[key] = degree
            self._memo.move_to_end(key)
            while len(self._memo) > self.capacity:
                self._memo.popitem(last=False)

    def __len__(self) -> int:
        return len(self._memo)
