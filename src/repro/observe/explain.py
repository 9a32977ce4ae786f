"""EXPLAIN / EXPLAIN ANALYZE rendering for physical plans.

Two jobs:

* :func:`annotate_estimates` — bottom-up cardinality estimation over an
  operator tree under the paper's constant fan-out model (each outer
  tuple joins ``C`` inner tuples on average; selections filter by a fixed
  factor).  Estimates are stamped onto the operators as
  ``estimated_rows`` so the renderer — and anything else — can read them.
* :func:`render_plan` / :func:`render_report` — the indented plan tree,
  optionally annotated with a :class:`~repro.observe.metrics.QueryMetrics`
  collector's *measured* counters next to the estimates, so
  estimate-vs-actual drift is visible in one place.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..engine.operators import (
    BandFold,
    JoinOp,
    Materialize,
    Operator,
    Project,
    Scan,
    Select,
    Threshold,
)
from .metrics import QueryMetrics

#: Default join fan-out — the paper's constant C (Section 8 / Section 9).
DEFAULT_FANOUT = 7.0

#: Assumed filter factor of one pushed-down or residual fuzzy predicate.
PREDICATE_SELECTIVITY = 0.5


def estimate_rows(
    operator: Operator,
    fanout: float = DEFAULT_FANOUT,
    edge_fanouts: Optional[Dict[int, float]] = None,
) -> float:
    """Estimated output cardinality of one operator (children recursed).

    ``edge_fanouts`` maps ``id(join_operator)`` to a *per-edge* fan-out —
    typically a sampled :meth:`~repro.engine.statistics.FanoutEstimate.edge_fanout`
    — so each join can use its own measured C; joins without an entry fall
    back to the constant ``fanout``.
    """
    if isinstance(operator, Scan):
        base = float(operator.heap.n_tuples)
        return base * PREDICATE_SELECTIVITY ** len(operator.predicates)
    if isinstance(operator, JoinOp):
        left = estimate_rows(operator.left, fanout, edge_fanouts)
        right = estimate_rows(operator.right, fanout, edge_fanouts)
        c = fanout
        if edge_fanouts is not None:
            c = edge_fanouts.get(id(operator), fanout)
        # Constant fan-out: each left tuple joins C right tuples, bounded
        # by the cross product on tiny inputs; a max-fold emits each left
        # tuple at most once.
        rows = min(left * c, left * max(right, 1.0))
        return max(1.0, min(rows, left) if operator.folds else rows)
    if isinstance(operator, Select):
        child = estimate_rows(operator.child, fanout, edge_fanouts)
        return child * PREDICATE_SELECTIVITY ** len(operator.predicates)
    if isinstance(operator, Threshold):
        child = estimate_rows(operator.child, fanout, edge_fanouts)
        return child if operator.threshold <= 0.0 else child * PREDICATE_SELECTIVITY
    if isinstance(operator, (Project, Materialize)):
        return estimate_rows(operator.child, fanout, edge_fanouts)
    if isinstance(operator, BandFold):
        # At most one answer per outer tuple, filtered by the nesting
        # predicate (the anti-join fold / the aggregate comparison).
        outer = estimate_rows(operator.outer, fanout, edge_fanouts)
        return max(1.0, PREDICATE_SELECTIVITY * outer)
    children = operator.children()
    if len(children) == 1:
        return estimate_rows(children[0], fanout, edge_fanouts)
    raise TypeError(f"no cardinality estimate for {type(operator).__name__}")


def annotate_estimates(
    root: Operator,
    fanout: float = DEFAULT_FANOUT,
    edge_fanouts: Optional[Dict[int, float]] = None,
) -> Dict[int, float]:
    """Stamp ``estimated_rows`` on every node; returns ``{id(op): est}``."""
    estimates: Dict[int, float] = {}

    def walk(operator: Operator) -> None:
        estimates[id(operator)] = estimate_rows(operator, fanout, edge_fanouts)
        operator.estimated_rows = estimates[id(operator)]
        for child in operator.children():
            walk(child)

    walk(root)
    return estimates


def q_error(estimated: float, actual: float) -> float:
    """The q-error ``max(est/actual, actual/est)``, both sides floored at 1.

    1.0 means a perfect estimate; the factor says how far off the
    cardinality model was, symmetrically for over- and under-estimates.
    """
    est = max(1.0, float(estimated))
    act = max(1.0, float(actual))
    return max(est / act, act / est)


def join_q_errors(
    root: Operator,
    metrics: QueryMetrics,
    fanout: float = DEFAULT_FANOUT,
    edge_fanouts: Optional[Dict[int, float]] = None,
) -> List[float]:
    """Per-join q-errors of an executed plan, in plan order.

    Pure arithmetic over the cardinality model and the collector's
    measured ``rows_out`` — no sampling, no I/O — so the session can
    stamp these onto every instrumented query for the registry's q-error
    drift signal.  Joins the collector never touched (e.g. short-circuited
    subtrees) are skipped.
    """
    estimates = annotate_estimates(root, fanout, edge_fanouts)
    out: List[float] = []

    def walk(operator: Operator) -> None:
        if isinstance(operator, JoinOp):
            om = metrics.for_node(operator)
            if om is not None:
                out.append(q_error(estimates[id(operator)], om.rows_out))
        for child in operator.children():
            walk(child)

    walk(root)
    return out


def render_plan(
    root: Operator,
    metrics: Optional[QueryMetrics] = None,
    fanout: float = DEFAULT_FANOUT,
    edge_fanouts: Optional[Dict[int, float]] = None,
) -> str:
    """The indented plan tree, annotated ``(est=... [, rows=..., q=..., ...])``.

    Without a collector this is EXPLAIN (estimates only); with one it is
    the plan half of EXPLAIN ANALYZE (estimates next to actuals, and a
    q-error per join operator).  ``edge_fanouts`` feeds sampled per-edge
    fan-outs into the estimates (see :func:`estimate_rows`).
    """
    estimates = annotate_estimates(root, fanout, edge_fanouts)
    lines: List[str] = []

    def walk(operator: Operator, depth: int) -> None:
        notes = [f"est={estimates[id(operator)]:.0f}"]
        if metrics is not None:
            om = metrics.for_node(operator)
            if om is not None:
                notes.append(f"rows={om.rows_out}")
                if isinstance(operator, (JoinOp, BandFold)):
                    notes.append(
                        f"q={q_error(estimates[id(operator)], om.rows_out):.2f}"
                    )
                if om.rows_in:
                    notes.append(f"in={om.rows_in}")
                if om.prunes:
                    notes.append(f"prunes={om.prunes}")
                if om.decided:
                    notes.append(f"decided={om.decided}")
                notes.append(f"time={om.wall_seconds * 1000.0:.2f}ms")
        lines.append("  " * depth + operator.describe() + "  (" + ", ".join(notes) + ")")
        for child in operator.children():
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)


def _partition_bounds(lower, upper) -> str:
    """Render a partition's half-open ``b(v)`` range, ``[lo, hi)``."""
    lo = "-inf" if lower is None else f"{lower:g}"
    hi = "+inf" if upper is None else f"{upper:g}"
    return f"[{lo}, {hi})"


def render_report(
    metrics: QueryMetrics,
    plan: Optional[Operator] = None,
    n_answers: Optional[int] = None,
    buffer_pages: Optional[int] = None,
    fanout: float = DEFAULT_FANOUT,
    edge_fanouts: Optional[Dict[int, float]] = None,
) -> str:
    """The full EXPLAIN ANALYZE text: header, plan tree, counter footers."""
    lines: List[str] = []
    if metrics.nesting_type is not None:
        lines.append(f"nesting type: {metrics.nesting_type}")
    if metrics.rewrite is not None:
        lines.append(f"rewrite: {metrics.rewrite}")
    if metrics.refused:
        lines.append(f"refused: {metrics.refused}")
    if metrics.strategy is not None:
        lines.append(f"strategy: {metrics.strategy}")
    if metrics.plan_cache is not None:
        lines.append(f"plan cache: {metrics.plan_cache}")
    if metrics.parallel_workers > 1:
        lines.append(f"parallel_workers={metrics.parallel_workers}")
    if metrics.partitions:
        lines.append(f"partitions={len(metrics.partitions)}")
    if getattr(metrics, "requested_shards", 0) > 1:
        lines.append(f"requested_shards={metrics.requested_shards}")
    if getattr(metrics, "shards", None):
        lines.append(f"shards={len(metrics.shards)}")
    if getattr(metrics, "shard_failovers", 0):
        lines.append(f"shard failovers: {metrics.shard_failovers}")
    if metrics.degraded:
        reason = metrics.degraded_reason or "fallback strategy"
        lines.append(f"degraded=True ({reason})")
    if metrics.outcome != "ok":
        lines.append(f"outcome: {metrics.outcome}")
    if metrics.stats is not None and metrics.stats.total.io_retries:
        lines.append(f"io retries: {metrics.stats.total.io_retries}")

    if plan is not None:
        lines.append(render_plan(plan, metrics, fanout, edge_fanouts))
    elif metrics.operators:
        # Counters gathered without an operator tree (a storage-level
        # executor driven directly): list them flat.
        for _node, om in metrics.iter_nodes():
            notes = [f"rows={om.rows_out}"]
            if om.rows_in:
                notes.append(f"in={om.rows_in}")
            if om.prunes:
                notes.append(f"prunes={om.prunes}")
            if om.decided:
                notes.append(f"decided={om.decided}")
            notes.append(f"time={om.wall_seconds * 1000.0:.2f}ms")
            lines.append(f"{om.label}  (" + ", ".join(notes) + ")")

    for step in metrics.steps:
        lines.append(
            f"step {step.name}: rows={step.rows_out}, "
            f"time={step.wall_seconds * 1000.0:.2f}ms"
        )

    for part in metrics.partitions + metrics.shards:
        bounds = _partition_bounds(part.lower, part.upper)
        notes = [
            f"rows={part.rows_out}",
            f"outer={part.outer_tuples}t/{part.outer_pages}p",
            f"inner={part.inner_tuples}t/{part.inner_pages}p",
        ]
        if part.stats is not None:
            from ..storage.costs import PAPER_1992

            notes.append(f"model={PAPER_1992.response_time(part.stats):.3f}s")
        lines.append(f"{part.kind} {part.index} {bounds}: " + ", ".join(notes))

    for sort in metrics.sorts:
        lines.append(
            f"sort {sort.source} on {sort.attribute}: {sort.tuples} tuples, "
            f"{sort.runs} runs, {sort.merge_passes} merge passes"
        )

    buffer = metrics.buffer
    if buffer.accesses:
        lines.append(
            f"buffer: hits={buffer.hits}, misses={buffer.misses}, "
            f"re-fetches={buffer.re_fetches}"
        )
    elif buffer_pages is not None and metrics.page_trace:
        replay = metrics.buffer_replay(buffer_pages)
        lines.append(
            f"buffer (LRU replay, {buffer_pages} frames): "
            f"hits={replay.hits}, misses={replay.misses}, "
            f"re-fetches={replay.re_fetches}"
        )

    if metrics.stats is not None:
        for name, counters in metrics.stats.items():
            line = (
                f"io[{name}]: reads={counters.page_reads}, "
                f"writes={counters.page_writes}, "
                f"crisp={counters.crisp_comparisons}, "
                f"fuzzy={counters.fuzzy_evaluations}"
            )
            # Shown only when the phase range-scanned an index, so
            # row-path reports stay unchanged.
            if counters.index_pages_read:
                line += f", index pages read={counters.index_pages_read}"
            lines.append(line)

    for name, seconds in metrics.spans.items():
        lines.append(f"span {name}: {seconds * 1000.0:.2f}ms")

    if n_answers is not None:
        lines.append(f"answer: {n_answers} tuples")
    return "\n".join(lines)
