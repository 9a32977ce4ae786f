"""A line-oriented shell over :class:`~repro.session.StorageSession`.

Plain lines are Fuzzy SQL and execute through the session (so they hit
the plan cache, the registry, and the flight recorder exactly like library
callers); lines starting with a backslash are meta-commands in the
``psql`` tradition:

========== ===========================================================
Command    Effect
========== ===========================================================
``\\log``     the slow-query report over the flight recorder (strategy
              rollup, failure outcomes, slowest statements)
``\\metrics`` the metrics registry in Prometheus text exposition
              (optional name-prefix filter: ``\\metrics fuzzysql_shard``)
``\\top``     per-fingerprint top-K from the flight recorder (count,
              modelled cost, page I/O, p50/p95 latency)
``\\health``  the health report: threshold rules over the recorded
              queries' rates
``\\events``  the flight recorder's last N events as JSONL
``\\explain`` EXPLAIN for the rest of the line (no execution); when the
              statement has a plan-cache entry, also the validation
              tokens (statistics version, layout) the cached plan
              was built against
``\\analyze`` EXPLAIN ANALYZE for the rest of the line (executes)
``\\trace``   span tree of the rest of the line (executes)
``\\timeout`` set/clear the per-query deadline in ms (no argument
              clears it)
``\\shards``  set/clear the per-query shard budget (no argument
              clears it back to the session default)
``\\wal``     write-ahead-log status: durable bytes, commits, group
              commits, index maintenance, per-table epochs, snapshots
``\\help``    list the meta-commands
========== ===========================================================

SQL lines beginning with CREATE / INSERT / UPDATE / DELETE / DEFINE /
DROP route through :meth:`~repro.session.StorageSession.execute` — DML
is WAL-logged, group-committed, and crash-recoverable; the shell prints
the status line of each statement.

The shell owns a :class:`~repro.observe.registry.MetricsRegistry` and a
:class:`~repro.observe.recorder.FlightRecorder` (attaching them to the
session unless it already has its own), so failure outcomes — timeouts,
cancellations, degraded fallbacks, retry counts — surface directly in
``\\log``, ``\\metrics``, ``\\top``, ``\\health``, and ``\\events``.
:meth:`FuzzyShell.execute` returns the rendered output instead of
printing, which keeps the shell fully scriptable and testable;
:meth:`FuzzyShell.run` is the interactive loop.
"""

from __future__ import annotations

import sys
from typing import Iterable, Optional

from .errors import FuzzyQueryError
from .observe.recorder import FlightRecorder
from .observe.registry import MetricsRegistry
from .session import StorageSession

#: One help line per meta-command, rendered by ``\help``.
HELP = """\
\\log        slow-query report: strategies, outcomes, slowest statements
\\metrics P  metrics registry (Prometheus text; optional name prefix P)
\\top K      top K statements by fingerprint (default 5)
\\health     health report: ok/warn/critical over the recorded queries
\\events N   last N flight-recorder events as JSONL (default 10)
\\explain Q  strategy and plan of query Q, without executing it (plus
            the cached plan's validation tokens when one exists)
\\analyze Q  EXPLAIN ANALYZE of query Q (executes it)
\\trace Q    span tree of query Q (executes it)
\\timeout N  set the per-query deadline to N ms (\\timeout alone clears it)
\\shards N   set the shard budget for queries (\\shards alone clears it)
\\wal        write-ahead-log status: durable bytes, epochs, snapshots
\\help       this list
anything else runs as Fuzzy SQL (DML is WAL-logged and recoverable)"""

#: First keywords that route a SQL line through ``session.execute()``.
DML_KEYWORDS = {"CREATE", "INSERT", "UPDATE", "DELETE", "DEFINE", "DROP"}


class FuzzyShell:
    """Dispatch SQL lines and backslash meta-commands against one session."""

    def __init__(self, session: StorageSession):
        self.session = session
        if session.registry is None:
            session.registry = MetricsRegistry()
        if session.recorder is None:
            session.recorder = FlightRecorder()
        #: Deadline applied to every SQL line, in milliseconds (``None``
        #: = unbounded); set interactively with ``\timeout``.
        self.timeout_ms: Optional[float] = None
        #: Shard budget applied to every SQL line (``None`` = the
        #: session's own default); set interactively with ``\shards``.
        self.shards: Optional[int] = None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def execute(self, line: str) -> str:
        """Run one input line — meta-command or SQL — and return its output.

        Typed query failures (timeouts, storage faults, …) are rendered
        as ``error: …`` lines rather than raised: a shell must survive a
        failing statement, and the failure is already recorded in the
        flight recorder and registry for ``\\log`` / ``\\metrics`` to show.
        """
        line = line.strip()
        if not line:
            return ""
        if line.startswith("\\"):
            return self._meta(line)
        return self._sql(line)

    def _meta(self, line: str) -> str:
        command, _, argument = line.partition(" ")
        argument = argument.strip()
        if command == "\\log":
            return self.session.recorder.summarize()
        if command == "\\metrics":
            return self.session.registry.render_prometheus(
                name_prefix=argument or None
            )
        if command == "\\top":
            k = int(argument) if argument else 5
            return self.session.recorder.render_top(k)
        if command == "\\health":
            return self.session.health().render()
        if command == "\\events":
            n = int(argument) if argument else 10
            return self.session.recorder.to_jsonl(last=n)
        if command == "\\explain":
            return self._explain(argument)
        if command == "\\analyze":
            return self.session.explain_analyze(argument, shards=self.shards)
        if command == "\\trace":
            return self.session.trace(argument).render_tree()
        if command == "\\timeout":
            if not argument:
                self.timeout_ms = None
                return "timeout cleared"
            self.timeout_ms = float(argument)
            return f"timeout set to {self.timeout_ms:.0f} ms"
        if command == "\\shards":
            if not argument:
                self.shards = None
                return "shard budget cleared (session default)"
            self.shards = max(1, int(argument))
            return f"shard budget set to {self.shards}"
        if command == "\\wal":
            return self.session.wal_status()
        if command == "\\help":
            return HELP
        return f"unknown command {command} (try \\help)"

    def _explain(self, sql: str) -> str:
        """EXPLAIN plus, for cached statements, the plan's token snapshot.

        The token lines show what the *cached* plan was built against;
        :meth:`~repro.service.plancache.PlanCache.peek` leaves the
        cache's counters and LRU order untouched.
        """
        rendered = self.session.explain(sql)
        cache = self.session.plan_cache
        if cache is None:
            return rendered
        from .service.plancache import normalize_sql

        entry = cache.peek(normalize_sql(sql))
        if entry is None:
            return rendered
        lines = [rendered, "cached plan tokens:"]
        for name in sorted(entry.tokens):
            version, layout = entry.tokens[name]
            lines.append(f"  {name}: stats_version={version} layout_token={layout}")
        return "\n".join(lines)

    def _sql(self, sql: str) -> str:
        first = sql.split(None, 1)[0].upper() if sql.split() else ""
        if first in DML_KEYWORDS:
            try:
                return str(self.session.execute(sql))
            except (FuzzyQueryError, ValueError) as exc:
                return f"error: {type(exc).__name__}: {exc}"
        try:
            result = self.session.query(
                sql, timeout_ms=self.timeout_ms, shards=self.shards
            )
        except FuzzyQueryError as exc:
            return f"error: {type(exc).__name__}: {exc}"
        lines = [
            "(" + ", ".join(str(v) for v in t.values) + f")  D={t.degree:g}"
            for t in result
        ]
        lines.append(f"({len(result)} tuples)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Interactive loop
    # ------------------------------------------------------------------
    def run(self, lines: Optional[Iterable[str]] = None, out=None) -> None:
        """Feed ``lines`` (default: stdin) through :meth:`execute`.

        Stops on end of input or a ``\\quit`` line.  Output goes to
        ``out`` (default: stdout).
        """
        out = out if out is not None else sys.stdout
        source = lines if lines is not None else sys.stdin
        for line in source:
            if line.strip() == "\\quit":
                break
            rendered = self.execute(line)
            if rendered:
                print(rendered, file=out)


__all__ = ["DML_KEYWORDS", "FuzzyShell", "HELP"]
