"""EXPLAIN / EXPLAIN ANALYZE rendering for physical plans.

:func:`render_plan` / :func:`render_report` show what ran: the indented
operator tree (:meth:`~repro.engine.operators.Operator.explain`) with each
operator's *counted* rows, inputs, prunes, decided outer tuples and time
from a :class:`~repro.observe.metrics.QueryMetrics` collector.  Nothing
here estimates or samples: the paper judges plans by counted events
(Section 9), and a sampler would read pages the query did not.
"""

from __future__ import annotations

from typing import List, Optional

from ..engine.operators import Operator
from .metrics import OperatorMetrics, QueryMetrics


def _notes(om: OperatorMetrics) -> str:
    """One operator's counters: ``rows=`` always, ``in=`` / ``prunes=`` /
    ``decided=`` when non-zero, then ``time=``."""
    notes = [f"rows={om.rows_out}"]
    if om.rows_in:
        notes.append(f"in={om.rows_in}")
    if om.prunes:
        notes.append(f"prunes={om.prunes}")
    if om.decided:
        notes.append(f"decided={om.decided}")
    notes.append(f"time={om.wall_seconds * 1000.0:.2f}ms")
    return "(" + ", ".join(notes) + ")"


def render_plan(root: Operator, metrics: QueryMetrics) -> str:
    """The indented plan tree, each node the collector touched followed by
    its counters: the plan half of EXPLAIN ANALYZE."""
    lines: List[str] = []

    def walk(operator: Operator, depth: int) -> None:
        line = "  " * depth + operator.describe()
        om = metrics.for_node(operator)
        if om is not None:
            line += "  " + _notes(om)
        lines.append(line)
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
    if metrics.requested_shards > 1:
        lines.append(f"requested_shards={metrics.requested_shards}")
    if metrics.shards:
        lines.append(f"shards={len(metrics.shards)}")
    if metrics.shard_failovers:
        lines.append(f"shard failovers: {metrics.shard_failovers}")
    if metrics.degraded:
        reason = metrics.degraded_reason or "fallback strategy"
        lines.append(f"degraded=True ({reason})")
    if metrics.outcome != "ok":
        lines.append(f"outcome: {metrics.outcome}")
    if metrics.stats is not None and metrics.stats.total.io_retries:
        lines.append(f"io retries: {metrics.stats.total.io_retries}")

    if plan is not None:
        lines.append(render_plan(plan, metrics))
    elif metrics.operators:
        # Counters gathered without an operator tree (a storage-level
        # executor driven directly): list them flat.
        for _node, om in metrics.iter_nodes():
            lines.append(f"{om.label}  {_notes(om)}")

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

    if buffer_pages is not None and metrics.page_trace:
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

    # The latest ``query`` span: a caller's tracer may hold earlier runs.
    query = [span for span in metrics.tracer.walk() if span.name == "query"]
    if query:
        lines.append(f"span query: {query[-1].seconds * 1000.0:.2f}ms")

    if n_answers is not None:
        lines.append(f"answer: {n_answers} tuples")
    return "\n".join(lines)
