"""Threshold rules over workload rates: the ``ok / warn / critical`` surface.

:func:`evaluate_health` computes its rates directly from a list of
:class:`~repro.observe.recorder.QueryEvent` — ``session.health()`` passes
the flight recorder's retained events, or the last N of them — and turns
them into an operational verdict.  Five rules, each over counted
events:

* **degraded-rate** — fraction of queries answered by a fallback
  strategy; any degradation warns, a majority is critical.
* **failover-rate** — replica failovers per query; any failover warns
  (a node is unhealthy), sustained failover on most queries is critical.
* **error-rate** — typed failures (errors, timeouts, cancellations) per
  query.
* **shard-skew** — max-over-mean per-shard page I/O; a hot shard warns,
  a pathological imbalance is critical.
* **cache-hit floor** — the plan-cache hit rate falling through a floor
  (judged only once enough lookups happened to be meaningful).

Each rule yields a :class:`HealthSignal`; the report's level is the worst
signal.  Thresholds are plain data (:class:`HealthThresholds`) so a
deployment can tighten or relax them without touching the rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .recorder import QueryEvent

#: Severity order used to fold signals into the report level.
LEVELS = ("ok", "warn", "critical")


@dataclass(frozen=True)
class HealthThresholds:
    """Rule thresholds; ``*_warn`` / ``*_critical`` are exclusive lower
    bounds (a value strictly above trips the level)."""

    degraded_warn: float = 0.0
    degraded_critical: float = 0.5
    failover_warn: float = 0.0
    failover_critical: float = 0.5
    error_warn: float = 0.0
    error_critical: float = 0.25
    shard_skew_warn: float = 2.0
    shard_skew_critical: float = 4.0
    #: Hit-rate floors (falling *below* trips the level) and the minimum
    #: lookup volume before the cache rule is judged at all.
    cache_hit_floor_warn: float = 0.5
    cache_hit_floor_critical: float = 0.1
    cache_min_lookups: int = 8


@dataclass(frozen=True)
class HealthSignal:
    """One rule's verdict."""

    name: str
    level: str
    value: float
    message: str


@dataclass(frozen=True)
class HealthReport:
    """The folded verdict over every rule, rendered for ``\\health``."""

    level: str
    signals: List[HealthSignal] = field(default_factory=list)
    queries: int = 0

    @property
    def ok(self) -> bool:
        """True when no rule tripped."""
        return self.level == "ok"

    def signal(self, name: str) -> Optional[HealthSignal]:
        """The named rule's signal, or ``None``."""
        for signal in self.signals:
            if signal.name == name:
                return signal
        return None

    def render(self) -> str:
        """The ``\\health`` text: overall level, then one line per rule."""
        lines = [f"health: {self.level} ({self.queries} queries)"]
        for signal in self.signals:
            lines.append(f"  [{signal.level:>8}] {signal.name}: {signal.message}")
        return "\n".join(lines)


def _grade(value: float, warn: float, critical: float) -> str:
    if value > critical:
        return "critical"
    if value > warn:
        return "warn"
    return "ok"


def evaluate_health(
    events: Sequence[QueryEvent], thresholds: Optional[HealthThresholds] = None
) -> HealthReport:
    """Apply every rule to the rates of ``events`` and fold the verdict."""
    t = thresholds if thresholds is not None else HealthThresholds()
    queries = len(events)

    def per_query(count: float) -> float:
        return count / queries if queries else 0.0

    signals: List[HealthSignal] = []

    degraded = per_query(sum(1 for e in events if e.degraded))
    signals.append(HealthSignal(
        "degraded-rate",
        _grade(degraded, t.degraded_warn, t.degraded_critical),
        degraded,
        f"{degraded:.1%} of queries answered degraded",
    ))

    failover = per_query(sum(e.shard_failovers for e in events))
    signals.append(HealthSignal(
        "failover-rate",
        _grade(failover, t.failover_warn, t.failover_critical),
        failover,
        f"{failover:.2f} replica failovers per query",
    ))

    errors = per_query(sum(1 for e in events if e.outcome != "ok"))
    signals.append(HealthSignal(
        "error-rate",
        _grade(errors, t.error_warn, t.error_critical),
        errors,
        f"{errors:.1%} of queries failed, timed out, or were cancelled",
    ))

    skew = _shard_skew(events)
    signals.append(HealthSignal(
        "shard-skew",
        _grade(skew, t.shard_skew_warn, t.shard_skew_critical),
        skew,
        f"hottest shard at {skew:.2f}x the mean page I/O",
    ))

    hits = sum(1 for e in events if e.plan_cache == "hit")
    lookups = hits + sum(1 for e in events if e.plan_cache in ("miss", "invalidated"))
    if not lookups or lookups < t.cache_min_lookups:
        signals.append(HealthSignal(
            "cache-hit-floor", "ok", 1.0,
            f"too few plan-cache lookups to judge ({lookups} < {t.cache_min_lookups})",
        ))
    else:
        hit_rate = hits / lookups
        if hit_rate < t.cache_hit_floor_critical:
            level = "critical"
        elif hit_rate < t.cache_hit_floor_warn:
            level = "warn"
        else:
            level = "ok"
        signals.append(HealthSignal(
            "cache-hit-floor", level, hit_rate,
            f"plan-cache hit rate {hit_rate:.1%} "
            f"(floors: warn <{t.cache_hit_floor_warn:.0%}, "
            f"critical <{t.cache_hit_floor_critical:.0%})",
        ))

    level = LEVELS[max(LEVELS.index(s.level) for s in signals)]
    return HealthReport(level=level, signals=signals, queries=queries)


def _shard_skew(events: Sequence[QueryEvent]) -> float:
    """Max-over-mean per-shard page I/O (reads + writes) over ``events``.

    1.0 (balanced) when fewer than two shards saw traffic: skew is
    undefined, not alarming, on an unsharded or idle workload.
    """
    io: Dict[int, int] = {}
    for event in events:
        for shard in event.shards:
            io[shard.index] = io.get(shard.index, 0) + shard.page_reads + shard.page_writes
    busy = [v for v in io.values() if v > 0]
    if len(busy) < 2:
        return 1.0
    mean = sum(busy) / len(busy)
    return max(busy) / mean


__all__ = [
    "HealthReport",
    "HealthSignal",
    "HealthThresholds",
    "LEVELS",
    "evaluate_health",
]
