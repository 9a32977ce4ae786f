"""The query service layer: prepared statements and plan caching.

The paper's point is that nested fuzzy queries should not pay quadratic
cost twice — yet a naive server re-lexes, re-parses, re-classifies, and
re-applies the Theorem 4.1–8.1 rewrites for every call, even when the
SQL text is identical to the one it just ran.  This package makes the
compiled plan a reusable object:

* :class:`~repro.service.prepared.PreparedQuery` — parse + classify +
  rewrite (+ compile, when the statement has no ``?`` placeholders) done
  once, executable many times with per-call parameter bindings;
* :class:`~repro.service.lifecycle.StatementLifecycle` — the stages every
  SELECT goes through on both front doors (cache lookup → prepare →
  artifact → run → observe), written once;
* :class:`~repro.service.plancache.PlanCache` — an LRU cache of prepared
  queries keyed on normalized SQL text, validated against per-relation
  statistics versions (:class:`~repro.engine.statistics.StatisticsVersions`)
  so registration, DDL and writes past the cache rule invalidate stale
  plans.

See ``docs/query_service.md`` for the API walkthrough and the
thread-safety contract.
"""

from .lifecycle import StatementLifecycle
from .plancache import CacheEntry, PlanCache, normalize_sql
from .prepared import PlanArtifact, PreparedQuery

__all__ = [
    "CacheEntry",
    "PlanCache",
    "normalize_sql",
    "PlanArtifact",
    "PreparedQuery",
    "StatementLifecycle",
]
