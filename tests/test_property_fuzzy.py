"""Property-based tests for the interval order and comparison degrees.

The merge-join's correctness rests on two pillars the paper states but
never tests: the order of Definition 3.1 is a *linear* order consistent
with support intervals, and the possibility degree ``d(X theta Y)`` of
Section 2 behaves like a possibility measure (symmetric for ``=``,
monotone under support widening).  Hypothesis hammers both across crisp
numbers, trapezoids, and discrete distributions.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columnar import (
    batch_eq_necessity,
    batch_eq_possibility,
    batch_le_possibility,
    batch_lt_possibility,
)
from repro.fuzzy.compare import (
    Op,
    _general_possibility,
    closed_form,
    eq_degree,
    le_degree,
    necessity,
    possibility,
)
from repro.fuzzy.crisp import CrispNumber
from repro.fuzzy.interval_order import (
    begin,
    end,
    overlaps,
    precedes,
    precedes_eq,
    sort_key,
    strictly_before,
)
from repro.fuzzy.trapezoid import TrapezoidalNumber
from repro.testing import numeric_distributions
from tests.test_columnar import as_columns

values = numeric_distributions()

N = CrispNumber
T = TrapezoidalNumber


class TestIntervalOrderIsLinear:
    @given(values, values)
    @settings(deadline=None)
    def test_totality(self, v1, v2):
        """Any two values are comparable: exactly one of <, =, > holds."""
        outcomes = [
            precedes(v1, v2),
            precedes(v2, v1),
            sort_key(v1) == sort_key(v2),
        ]
        assert sum(outcomes) == 1

    @given(values, values, values)
    @settings(deadline=None)
    def test_transitivity(self, v1, v2, v3):
        if precedes(v1, v2) and precedes(v2, v3):
            assert precedes(v1, v3)
        if precedes_eq(v1, v2) and precedes_eq(v2, v3):
            assert precedes_eq(v1, v3)

    @given(values, values)
    @settings(deadline=None)
    def test_antisymmetry(self, v1, v2):
        if precedes(v1, v2):
            assert not precedes(v2, v1)


class TestOrderConsistentWithSupports:
    @given(values, values)
    @settings(deadline=None)
    def test_strictly_before_implies_precedes(self, v1, v2):
        """Disjoint supports sort the left interval first — the property
        that lets the merge scan retire passed S-tuples for good."""
        if strictly_before(v1, v2):
            assert precedes(v1, v2)
            assert not overlaps(v1, v2)

    @given(values, values)
    @settings(deadline=None)
    def test_disjoint_supports_have_zero_equality_degree(self, v1, v2):
        if not overlaps(v1, v2):
            assert possibility(v1, Op.EQ, v2) == 0.0

    @given(values)
    @settings(deadline=None)
    def test_support_interval_is_ordered(self, v):
        assert begin(v) <= end(v)
        assert sort_key(v) == (begin(v), end(v))


class TestComparisonDegrees:
    @given(values, values)
    @settings(deadline=None)
    def test_equality_is_symmetric(self, v1, v2):
        """d(X = Y) = d(Y = X): sup-min of the intersection is symmetric."""
        assert possibility(v1, Op.EQ, v2) == pytest.approx(
            possibility(v2, Op.EQ, v1), abs=1e-9
        )

    @given(values, values)
    @settings(deadline=None)
    def test_degrees_are_possibilities(self, v1, v2):
        for op in (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE):
            d = possibility(v1, op, v2)
            assert 0.0 <= d <= 1.0

    @given(values, values)
    @settings(deadline=None)
    def test_strict_below_weak(self, v1, v2):
        """x < y is at most as possible as x <= y (and same for >, >=)."""
        assert possibility(v1, Op.LT, v2) <= possibility(v1, Op.LE, v2) + 1e-9
        assert possibility(v1, Op.GT, v2) <= possibility(v1, Op.GE, v2) + 1e-9

    @given(
        values,
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    @settings(deadline=None)
    def test_equality_monotone_under_support_widening(self, x, a, b, c, d, delta):
        """Widening a trapezoid's support never lowers d(X = Y).

        The widened value admits every (value, membership) witness the
        original admits, so the sup-min can only grow.
        """
        a, b, c, d = sorted([a, b, c, d])
        y = TrapezoidalNumber(a, b, c, d)
        widened = TrapezoidalNumber(a - delta, b, c, d + delta)
        assert possibility(x, Op.EQ, widened) >= possibility(x, Op.EQ, y) - 1e-9


# ----------------------------------------------------------------------
# Closed forms of the crisp/trapezoid family
# ----------------------------------------------------------------------
COMPARISONS = (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE)
TINY = 5e-324  # the smallest denormal: a ramp one float wide


def family(abscissa):
    """Crisp numbers and trapezoids over one abscissa strategy."""
    return st.one_of(
        abscissa.map(N),
        st.lists(abscissa, min_size=4, max_size=4).map(lambda xs: T(*sorted(xs))),
    )


#: Quarter-grid abscissae: coincident endpoints — points, triangles,
#: rectangles, vertical edges, touching supports, identical operands —
#: come up constantly, and ramps at least 0.25 wide keep the reference's
#: own rounding (it solves for the crossing abscissa, then evaluates both
#: curves there) well inside the 1e-12 it is compared at.
on_grid = family(st.integers(-12, 12).map(lambda k: k / 4.0))

#: Any magnitudes and widths, denormal ones included.  The general path
#: is no reference here (two facing denormal ramps have infinite slopes,
#: and it loses their crossing), so these are held to exact arithmetic.
anywhere = family(
    st.one_of(
        st.integers(-3, 3).map(lambda k: k * TINY),
        st.integers(-12, 12).map(lambda k: k / 4.0),
        st.floats(min_value=-1e150, max_value=1e150),
    )
)


def abscissae(value):
    if isinstance(value, TrapezoidalNumber):
        return (value.a, value.b, value.c, value.d)
    return (value.value,) * 4


class TestClosedForms:
    @given(on_grid, on_grid)
    @example(N(1), N(1))                          # the same point
    @example(N(1), T(0, 1, 1, 3))                 # point on a triangle's peak
    @example(N(0), T(0, 0, 2, 2))                 # point on a rectangle's vertical edge
    @example(T(0, 0, 1, 1), T(1, 1, 2, 2))        # two vertical edges touching
    @example(T(0, 0, 1, 1), T(1, 2, 3, 4))        # touching supports, d1 == a2
    @example(T(0, 1, 2, 3), T(3, 4, 5, 6))        # touching supports, two ramps
    @example(T(0, 1, 2, 4), T(0, 3, 3, 4))        # shared endpoints, disjoint cores
    @example(T(0, 1, 2, 4), T(0, 1, 2, 4))        # identical operands
    @example(T(0, TINY, 1, 2), T(-2, -1, -1, 0.5))  # a denormal-width ramp, crossed
    @example(T(0, TINY, 1, 2), N(TINY))           # ... and met by a point
    @settings(deadline=None, max_examples=400)
    def test_agree_with_the_general_path(self, x, y):
        """The retained general path (``_as_point`` branches, ``sup_min``,
        ``running_max_right``) is the oracle for every operator."""
        for op in COMPARISONS:
            got = closed_form(x, op, y)
            assert got == possibility(x, op, y)   # possibility() tries it first
            assert abs(got - _general_possibility(x, op, y)) <= 1e-12, (x, op, y)

    @given(anywhere, anywhere)
    @settings(deadline=None, max_examples=400)
    def test_shortcut_cases_are_exact(self, x, y):
        a1, b1, c1, d1 = abscissae(x)
        a2, b2, c2, d2 = abscissae(y)
        if d1 < a2 or d2 < a1:                    # disjoint supports
            assert possibility(x, Op.EQ, y) == 0.0
        if max(b1, b2) <= min(c1, c2):            # the cores share a point
            assert possibility(x, Op.EQ, y) == 1.0
        if d1 < a2:                               # x wholly below y
            assert possibility(x, Op.LE, y) == possibility(x, Op.LT, y) == 1.0
            assert possibility(x, Op.GE, y) == possibility(x, Op.GT, y) == 0.0
        for op in COMPARISONS:
            assert 0.0 <= possibility(x, op, y) <= 1.0

    @given(anywhere, anywhere)
    @settings(deadline=None, max_examples=400)
    def test_equality_is_bit_symmetric(self, x, y):
        """The merge-join probes left to right, the index right to left."""
        assert possibility(x, Op.EQ, y).hex() == possibility(y, Op.EQ, x).hex()

    @given(anywhere, anywhere)
    @example(T(-1, 0, 0, 2 * TINY), T(0, TINY, 1, 2))   # two facing denormal ramps
    @settings(deadline=None, max_examples=400)
    def test_ramp_heights_solve_both_ramps(self, x, y):
        """In exact arithmetic a falling ramp ``c -> d`` and a rising ramp
        ``a -> b`` meet at the height ``h`` with ``h * ((d - c) + (b - a))
        == d - a``; the float answer satisfies it within 1e-12."""
        a1, b1, c1, d1 = map(Fraction, abscissae(x))
        a2, b2, c2, d2 = map(Fraction, abscissae(y))
        if c1 < b2 and a2 < d1:                   # equality: x's right ramp, y's left
            h = Fraction(eq_degree(*abscissae(x), *abscissae(y)))
            widths = (d1 - c1) + (b2 - a2)
            assert abs(h * widths - (d1 - a2)) <= Fraction(1, 10**12) * widths
        if b1 > c2 and a1 < d2:                   # order: y's right ramp, x's left
            h = Fraction(le_degree(*abscissae(x), *abscissae(y)))
            widths = (d2 - c2) + (b1 - a1)
            assert abs(h * widths - (d2 - a1)) <= Fraction(1, 10**12) * widths

    @given(anywhere, st.lists(anywhere, min_size=1, max_size=6))
    @settings(deadline=None, max_examples=300)
    def test_column_kernels_equal_the_scalar_call_bitwise(self, probe, entries):
        """Both ``probe_on_left`` orientations; ``>`` / ``>=`` are the
        flipped ``<`` / ``<=``, as ``IndexScan`` calls them."""
        columns = as_columns(entries)
        kernels = [
            (batch_eq_possibility, Op.EQ, Op.EQ),
            (batch_lt_possibility, Op.LT, Op.GT),
            (batch_le_possibility, Op.LE, Op.GE),
        ]
        for kernel, op, flipped in kernels:
            on_right = kernel(probe, *columns)
            on_left = kernel(probe, *columns, probe_on_left=True)
            for v, got_right, got_left in zip(entries, on_right, on_left):
                assert got_right.hex() == possibility(v, op, probe).hex()
                assert got_left.hex() == possibility(probe, op, v).hex()
                assert got_left.hex() == possibility(v, flipped, probe).hex()
        for v, got in zip(entries, batch_eq_necessity(probe, *columns)):
            assert got.hex() == necessity(v, Op.EQ, probe).hex()
