"""Trapezoid comparison kernels over column batches.

One probe distribution is compared against a whole columnar page in a
single pass over the ``(a, b, e, d)`` columns, instead of lifting each
entry back into a :class:`~repro.fuzzy.trapezoid.TrapezoidalNumber` and
dispatching through :func:`repro.fuzzy.compare.possibility` one value at
a time.

This module holds no comparison arithmetic of its own: every kernel is a
loop over the scalar closed forms of :mod:`repro.fuzzy.compare`
(:func:`~repro.fuzzy.compare.eq_degree` and friends), which take raw
abscissae, so ``batch_eq_possibility(probe, ...)[i]`` equals
``possibility(value_i, Op.EQ, probe)`` *bit for bit* by construction,
where ``value_i`` is the distribution the columns encode (f64 values
round-trip the columnar encoding exactly).  A point is the degenerate
entry ``a = b = e = d``, so the kernels take only the four abscissa
columns.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..fuzzy.compare import eq_degree, le_degree, lt_degree, ne_degree
from ..fuzzy.trapezoid import TrapezoidalNumber

__all__ = [
    "batch_eq_possibility",
    "batch_eq_necessity",
    "batch_lt_possibility",
    "batch_le_possibility",
]


def _probe_shape(probe) -> Tuple[float, float, float, float]:
    """``(a, b, e, d)`` of a numeric crisp or trapezoidal probe.

    Accepts :class:`~repro.fuzzy.crisp.CrispNumber` and
    :class:`TrapezoidalNumber` (the only shapes the support-interval index
    stores or is probed with).
    """
    if isinstance(probe, TrapezoidalNumber):
        return (probe.a, probe.b, probe.c, probe.d)
    value = getattr(probe, "value", None)
    if value is not None and probe.is_numeric:
        return (value, value, value, value)
    raise TypeError(
        f"column kernel expects a numeric crisp or trapezoidal probe, "
        f"got {type(probe).__name__}"
    )


def _batch(degree, probe, col_a, col_b, col_e, col_d, probe_on_left) -> List[float]:
    """``degree`` over every entry, the probe as its left or right operand."""
    shape = _probe_shape(probe)
    entries = zip(col_a, col_b, col_e, col_d)
    if probe_on_left:
        return [degree(*shape, *entry) for entry in entries]
    return [degree(*entry, *shape) for entry in entries]


def batch_eq_possibility(
    probe,
    col_a: Sequence[float],
    col_b: Sequence[float],
    col_e: Sequence[float],
    col_d: Sequence[float],
    probe_on_left: bool = False,
) -> List[float]:
    """``[possibility(value_i, Op.EQ, probe)]`` over a column batch.

    ``col_e`` is the core-end column (the row trapezoid's ``c``); the
    default operand order matches compiled predicates, which place the
    stored attribute on the left and the query literal on the right.
    ``probe_on_left=True`` computes ``possibility(probe, Op.EQ, value_i)``,
    which is the same float: equality is bit-symmetric.
    """
    return _batch(eq_degree, probe, col_a, col_b, col_e, col_d, probe_on_left)


def batch_lt_possibility(
    probe,
    col_a: Sequence[float],
    col_b: Sequence[float],
    col_e: Sequence[float],
    col_d: Sequence[float],
    probe_on_left: bool = False,
) -> List[float]:
    """``[possibility(value_i, Op.LT, probe)]`` over a column batch.

    ``probe_on_left=True`` computes ``possibility(probe, Op.LT, value_i)``
    instead.  ``GT`` needs no kernel of its own: ``x > y`` is ``y < x``,
    so a GT caller passes the *other* orientation flag
    (``possibility(value, Op.GT, probe)`` is exactly
    ``batch_lt_possibility(probe, ..., probe_on_left=True)``).
    """
    return _batch(lt_degree, probe, col_a, col_b, col_e, col_d, probe_on_left)


def batch_le_possibility(
    probe,
    col_a: Sequence[float],
    col_b: Sequence[float],
    col_e: Sequence[float],
    col_d: Sequence[float],
    probe_on_left: bool = False,
) -> List[float]:
    """``[possibility(value_i, Op.LE, probe)]`` over a column batch.

    ``probe_on_left=True`` computes ``possibility(probe, Op.LE, value_i)``;
    ``GE`` callers flip the flag, mirroring :func:`batch_lt_possibility`.
    """
    return _batch(le_degree, probe, col_a, col_b, col_e, col_d, probe_on_left)


def batch_eq_necessity(
    probe,
    col_a: Sequence[float],
    col_b: Sequence[float],
    col_e: Sequence[float],
    col_d: Sequence[float],
) -> List[float]:
    """``[necessity(value_i, Op.EQ, probe)]`` over a column batch.

    ``Nec(u = v) = 1 - Poss(u != v)``: 1.0 exactly when both sides are the
    same point and 0.0 otherwise (a continuous distribution always admits
    some ``x != y`` at full height).
    """
    return [1.0 - p for p in _batch(ne_degree, probe, col_a, col_b, col_e, col_d, False)]
