"""Threshold rules over workload rates: the ``ok / warn / critical`` surface.

The time series (:mod:`repro.observe.timeseries`) turns the registry into
window rates; this module turns those rates into an operational verdict.
Five rules, each an input signal a statistics-driven planner could
consume:

* **degraded-rate** — fraction of queries answered by a fallback
  strategy; any degradation warns, a majority is critical.
* **failover-rate** — replica failovers per query; any failover warns
  (a node is unhealthy), sustained failover on most queries is critical.
* **error-rate** — typed failures (errors, timeouts, cancellations) per
  query.
* **shard-skew** — max-over-mean per-shard page I/O; a hot shard warns,
  a pathological imbalance is critical.
* **q-error drift** — mean per-join q-error; estimates drifting far from
  measured fan-outs mean plans are being chosen on stale statistics.
* **cache-hit floor** — the plan-cache hit rate falling through a floor
  (judged only once enough lookups happened to be meaningful).

Each rule yields a :class:`HealthSignal`; the report's level is the worst
signal.  Thresholds are plain data (:class:`HealthThresholds`) so a
deployment can tighten or relax them without touching the rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .timeseries import Window

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
    q_error_warn: float = 4.0
    q_error_critical: float = 16.0
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
    queries: float = 0.0
    duration: float = 0.0

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
        header = f"health: {self.level} ({self.queries:g} queries"
        if self.duration > 0:
            header += f" over {self.duration:.1f}s"
        header += ")"
        lines = [header]
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
    window: Window, thresholds: Optional[HealthThresholds] = None
) -> HealthReport:
    """Apply every rule to one window's rates and fold the verdict."""
    t = thresholds if thresholds is not None else HealthThresholds()
    signals: List[HealthSignal] = []

    degraded = window.degraded_rate
    signals.append(HealthSignal(
        "degraded-rate",
        _grade(degraded, t.degraded_warn, t.degraded_critical),
        degraded,
        f"{degraded:.1%} of queries answered degraded",
    ))

    failover = window.failover_rate
    signals.append(HealthSignal(
        "failover-rate",
        _grade(failover, t.failover_warn, t.failover_critical),
        failover,
        f"{failover:.2f} replica failovers per query",
    ))

    errors = window.error_rate
    signals.append(HealthSignal(
        "error-rate",
        _grade(errors, t.error_warn, t.error_critical),
        errors,
        f"{errors:.1%} of queries failed, timed out, or were cancelled",
    ))

    skew = window.shard_skew
    signals.append(HealthSignal(
        "shard-skew",
        _grade(skew, t.shard_skew_warn, t.shard_skew_critical),
        skew,
        f"hottest shard at {skew:.2f}x the mean page I/O",
    ))

    q = window.mean_q_error
    if q is None:
        signals.append(HealthSignal(
            "q-error-drift", "ok", 1.0, "no q-error observations this window"
        ))
    else:
        signals.append(HealthSignal(
            "q-error-drift",
            _grade(q, t.q_error_warn, t.q_error_critical),
            q,
            f"mean join q-error {q:.2f} (1.00 = perfect estimates)",
        ))

    hit_rate = window.cache_hit_rate
    lookups = (
        window.delta("plan_cache_hits_total")
        + window.delta("plan_cache_misses_total")
    )
    if hit_rate is None or lookups < t.cache_min_lookups:
        signals.append(HealthSignal(
            "cache-hit-floor", "ok", 1.0,
            f"too few plan-cache lookups to judge ({lookups:g} < {t.cache_min_lookups})",
        ))
    else:
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
    return HealthReport(
        level=level,
        signals=signals,
        queries=window.queries,
        duration=window.duration,
    )


__all__ = [
    "HealthReport",
    "HealthSignal",
    "HealthThresholds",
    "LEVELS",
    "evaluate_health",
]
