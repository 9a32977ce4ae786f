"""Hierarchical span tracing, exportable as Chrome ``trace_event`` JSON.

:class:`SpanTracer` records begin/end events for named regions of a query
execution (parse / bind / rewrite / compile / sort / merge / probe /
operator streams) as a *tree*: a span opened while another is open becomes
its child.  The tree can be rendered as indented text
(:meth:`SpanTracer.render_tree`) or exported in the Chrome ``trace_event``
format (:meth:`SpanTracer.to_chrome` / :meth:`SpanTracer.export`), which
``chrome://tracing`` and Perfetto load directly.

A query's tracer is owned by its
:class:`~repro.observe.metrics.QueryMetrics` collector (``metrics.tracer``);
the layers below the front door open spans with :func:`maybe_span`, which
degrades to a no-op context when no collector is attached.  The write path
has no collector and takes a tracer directly.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: ``ph`` value of a Chrome "complete" event (one event = one whole span).
CHROME_COMPLETE = "X"


class Span:
    """One traced region: a name, a start/end pair, and child spans."""

    __slots__ = ("name", "start", "end", "args", "children")

    def __init__(self, name: str, start: float, args: Optional[Dict] = None):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.args = args or {}
        self.children: List["Span"] = []

    @property
    def seconds(self) -> float:
        """Duration; an unfinished span extends to its last finished child."""
        return max(0.0, self._effective_end() - self.start)

    def _effective_end(self) -> float:
        if self.end is not None:
            return self.end
        ends = [c._effective_end() for c in self.children]
        return max(ends) if ends else self.start

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (or self) whose name contains ``name``."""
        for span in self.walk():
            if name in span.name:
                return span
        return None

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.seconds * 1000.0:.2f}ms, {len(self.children)} children)"


class SpanTracer:
    """Builds a span tree; spans nest by the open-span stack at begin time."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._origin = clock()
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, **args) -> Span:
        """Open a span as a child of the innermost open span and return it."""
        span = Span(name, self._clock(), args or None)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span``, closing anything opened after it as well."""
        span.end = self._clock()
        # Tolerate out-of-order ends (an abandoned generator, say): close
        # everything opened after ``span`` too, so the stack stays sane.
        if span in self._stack:
            while self._stack:
                top = self._stack.pop()
                if top.end is None:
                    top.end = span.end
                if top is span:
                    break

    @contextmanager
    def span(self, name: str, **args):
        """Context manager: open a span around a block of work."""
        span = self.begin(name, **args)
        try:
            yield span
        finally:
            self.end(span)

    def record(self, name: str, start: float, end: float, **args) -> Span:
        """Append an already-finished span under the innermost open span.

        The tracer's open-span stack is not thread-safe, so partition
        workers cannot call :meth:`begin`/:meth:`end` concurrently.
        Instead each worker timestamps its own task with the tracer's
        clock and the *coordinator* records the completed spans after the
        gather — one span per partition task, correctly parented under
        the coordinator's open join span.
        """
        span = Span(name, start, args or None)
        span.end = end
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return span

    def now(self) -> float:
        """The tracer's clock, for worker threads timestamping their spans."""
        return self._clock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def walk(self) -> Iterator[Span]:
        """Depth-first iteration over every recorded span."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> Optional[Span]:
        """First span (depth first across roots) whose name contains ``name``."""
        for span in self.walk():
            if name in span.name:
                return span
        return None

    def render_tree(self) -> str:
        """The span tree as indented text with durations."""
        lines: List[str] = []

        def emit(span: Span, depth: int) -> None:
            lines.append("  " * depth + f"{span.name}  {span.seconds * 1000.0:.2f}ms")
            for child in span.children:
                emit(child, depth + 1)

        for root in self.roots:
            emit(root, 0)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Chrome trace_event export
    # ------------------------------------------------------------------
    def to_chrome(self) -> Dict:
        """The trace as a Chrome ``trace_event`` JSON object.

        Every span becomes one complete (``"ph": "X"``) event; nesting is
        implied by timestamp/duration containment on the shared track,
        which is how ``chrome://tracing`` and Perfetto stack them.
        """
        pid = os.getpid()
        events = []
        for span in self.walk():
            event = {
                "name": span.name,
                "cat": "fuzzy-sql",
                "ph": CHROME_COMPLETE,
                "ts": (span.start - self._origin) * 1e6,  # microseconds
                "dur": span.seconds * 1e6,
                "pid": pid,
                "tid": 1,
            }
            if span.args:
                event["args"] = dict(span.args)
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export(self, path) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle, indent=1)


@contextmanager
def maybe_span(instrument, name: str, **args):
    """``instrument.span(name)`` — a query's collector or the write path's
    tracer — when one is attached, else a no-op yielding ``None``."""
    if instrument is None:
        yield None
    else:
        with instrument.span(name, **args) as span:
            yield span
