"""ComparisonKernel memo boundaries and batch/scalar agreement.

The kernel's LRU memo is an *optimization only*: its capacity — zero,
one, or anything larger — must never change a computed degree, and its
eviction order must be true LRU (hit-refreshed, oldest-out).  The memo
serves discrete and label operands; crisp numbers and trapezoids are
answered by the closed forms and never reach it.  These tests pin both
halves of that contract.
"""

from repro.fuzzy import CrispLabel, CrispNumber, DiscreteDistribution, TrapezoidalNumber
from repro.fuzzy.compare import ComparisonKernel, Op, possibility

import pytest

N = CrispNumber
T = TrapezoidalNumber
D = DiscreteDistribution

#: Values picked so equality degrees span {0, ramp, 1} and repeats occur.
VALUES = [N(0), N(5), T(0, 1, 2, 4), T(3, 5, 5, 7), T(4, 6, 8, 12)]

#: A small vocabulary of discrete terms — the operands the memo is for;
#: equality degrees against ``TERMS[0]`` span {0, 0.5, 1}.
TERMS = [
    D({0.0: 1.0, 5.0: 0.5}),
    D({5.0: 1.0, 6.0: 0.3}),
    D({0.0: 0.5, 2.0: 1.0}),
    D({2.0: 0.7, 9.0: 1.0}),
    D({7.0: 1.0, 8.0: 1.0}),
]


class TestClosedFormBypass:
    def test_crisp_and_trapezoid_operands_never_reach_the_memo(self):
        kernel = ComparisonKernel(capacity=1)
        for op in (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE):
            for probe in VALUES:
                assert kernel.batch(probe, op, VALUES) == [
                    possibility(probe, op, v) for v in VALUES
                ]
                for v in VALUES:
                    assert kernel.possibility(probe, op, v) == possibility(probe, op, v)
        assert len(kernel) == 0
        assert kernel.hits + kernel.misses == 0

    def test_one_memoizable_operand_sends_the_pair_to_the_memo(self):
        kernel = ComparisonKernel()
        kernel.possibility(T(0, 1, 2, 4), Op.EQ, TERMS[0])
        kernel.possibility(CrispLabel("a"), Op.EQ, CrispLabel("a"))
        assert (len(kernel), kernel.hits, kernel.misses) == (2, 0, 2)


class TestCapacityBoundaries:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ComparisonKernel(capacity=-1)

    def test_capacity_zero_disables_memo_but_not_answers(self):
        kernel = ComparisonKernel(capacity=0)
        probe = TERMS[0]
        for _ in range(2):  # the second pass must *also* be all misses
            got = kernel.batch(probe, Op.EQ, TERMS)
            assert got == [possibility(probe, Op.EQ, v) for v in TERMS]
        assert len(kernel) == 0
        assert kernel.hits == 0
        assert kernel.misses == 2 * len(TERMS)

    def test_capacity_one_keeps_only_the_latest_pair(self):
        kernel = ComparisonKernel(capacity=1)
        probe = TERMS[0]
        kernel.possibility(probe, Op.EQ, TERMS[0])   # miss, cached
        kernel.possibility(probe, Op.EQ, TERMS[0])   # hit
        kernel.possibility(probe, Op.EQ, TERMS[1])   # miss, evicts [0]
        kernel.possibility(probe, Op.EQ, TERMS[0])   # miss again
        assert len(kernel) == 1
        assert kernel.hits == 1
        assert kernel.misses == 3


class TestEvictionOrder:
    def test_lru_not_fifo(self):
        # Capacity 2; touch A, B, then A again — the next insert must
        # evict B (least recently used), not A (first in).
        kernel = ComparisonKernel(capacity=2)
        probe = TERMS[0]
        a, b, c = TERMS[0], TERMS[1], TERMS[2]
        kernel.possibility(probe, Op.EQ, a)  # miss
        kernel.possibility(probe, Op.EQ, b)  # miss
        kernel.possibility(probe, Op.EQ, a)  # hit: refreshes A
        kernel.possibility(probe, Op.EQ, c)  # miss: evicts B
        assert kernel.possibility(probe, Op.EQ, a) == possibility(probe, Op.EQ, a)
        assert kernel.hits == 2             # the refresh and the final A
        kernel.possibility(probe, Op.EQ, b)
        assert kernel.misses == 4           # A, B, C, and B's re-miss

    def test_batch_primes_the_memo_in_order(self):
        kernel = ComparisonKernel(capacity=len(TERMS))
        probe = TERMS[0]
        kernel.batch(probe, Op.EQ, TERMS)
        assert (kernel.hits, kernel.misses) == (0, len(TERMS))
        kernel.batch(probe, Op.EQ, TERMS)
        assert (kernel.hits, kernel.misses) == (len(TERMS), len(TERMS))
        assert len(kernel) == len(TERMS)


class TestBatchScalarAgreement:
    def test_batch_equals_scalar_loop_bitwise(self):
        # Mixed shapes: crisp + trapezoid pairs take the closed forms, a
        # discrete operand on either side sends the pair through the memo
        # inside the same block — both must match possibility().
        candidates = VALUES + [DiscreteDistribution({0.0: 1.0, 5.0: 0.5})]
        for probe in [N(0), T(0, 1, 2, 4), DiscreteDistribution({1.0: 1.0})]:
            for capacity in (0, 1, 4096):
                kernel = ComparisonKernel(capacity=capacity)
                got = kernel.batch(probe, Op.EQ, candidates)
                want = [possibility(probe, Op.EQ, c) for c in candidates]
                assert [repr(d) for d in got] == [repr(d) for d in want]

    def test_batch_agrees_for_non_eq_operators(self):
        kernel = ComparisonKernel()
        probe = T(0, 1, 2, 4)
        for op in (Op.LT, Op.LE, Op.GT, Op.GE, Op.NE):
            got = kernel.batch(probe, op, VALUES)
            assert got == [possibility(probe, op, v) for v in VALUES]

    def test_memo_hits_return_identical_floats(self):
        kernel = ComparisonKernel()
        candidates = TERMS + VALUES  # a discrete probe memoizes against every shape
        probe = TERMS[0]
        cold = kernel.batch(probe, Op.EQ, candidates)
        warm = kernel.batch(probe, Op.EQ, candidates)
        assert [repr(d) for d in cold] == [repr(d) for d in warm]
        assert kernel.hits == len(candidates)
