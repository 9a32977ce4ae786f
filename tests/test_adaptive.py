"""The adaptive feedback loop: histograms, drift eviction, re-planning.

Three contracts, each pinned here:

* **Statistics** — equi-depth histograms over support intervals record
  the distribution a plan was costed against; fingerprints move only on
  rebuild, live refreshes track drift without invalidating anything.
* **Drift eviction** — a Hypothesis property: ingest that pushes a
  table's histograms past the drift threshold evicts exactly the
  plan-cache entries costed against that table's fingerprints and no
  others, while benign ingest leaves every cached plan — flat, grouped
  or pipelined — a *hit* (its scan leaves rebind to the live heap
  version at execution).
* **Mid-query re-planning** — when observed join-input cardinality
  diverges from the estimate past the q-error threshold, the remaining
  edges re-cost and the executor may switch join method or worker
  count; every adapted run must stay bit-identical to the unadapted
  answer, across the full nesting-type × shards × workers matrix.
* **Index upkeep** — after a single-row update / delete the index's
  clustered copy is byte-identical to one built afresh from the live
  heap, and indexed queries answer what unindexed ones do.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.columnar import clustered_copy
from repro.data import FuzzyRelation, FuzzyTuple, Schema
from repro.engine.histogram import AttributeHistogram, HistogramStore
from repro.engine.adaptive import AdaptiveController, q_error
from repro.fuzzy import CrispNumber, TrapezoidalNumber
from repro.observe import QueryMetrics
from repro.observe.registry import MetricsRegistry
from repro.session import StorageSession
from repro.shell import FuzzyShell

N = CrispNumber
T = TrapezoidalNumber
SCHEMA = Schema(["K", "U", "V"])
POOL = [
    N(0), N(2), N(5), N(9),
    T(0, 1, 2, 4), T(1, 3, 4, 6), T(3, 5, 5, 7), T(4, 6, 8, 11),
]

#: The flat nesting-type cases of the differential sweep, reused here so
#: the adaptive matrix covers the same query shapes.
CASES = {
    "N": "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S)",
    "J": "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.U = R.U)",
    "JX": "SELECT R.K FROM R WHERE R.V NOT IN (SELECT S.V FROM S WHERE S.U = R.U)",
    "JA": "SELECT R.K FROM R WHERE R.V > (SELECT MAX(S.V) FROM S WHERE S.U = R.U)",
    "chain": (
        "SELECT R.K FROM R WHERE R.U IN "
        "(SELECT S.V FROM S WHERE S.K IN (SELECT S2.V FROM S S2 WHERE S2.U = R.V))"
    ),
}

N_CASES = 10


def make_relation(rng: random.Random, n: int, base: int) -> FuzzyRelation:
    rel = FuzzyRelation(SCHEMA)
    for i in range(n):
        rel.add(
            FuzzyTuple(
                [N(base + i), rng.choice(POOL), rng.choice(POOL)],
                rng.choice([0.3, 0.6, 0.8, 1.0]),
            )
        )
    return rel


def build(seed: int, adaptive: bool = False, shards: int = 1) -> StorageSession:
    rng = random.Random(seed)
    r = make_relation(rng, rng.randint(2, 8), 0)
    s = make_relation(rng, rng.randint(2, 8), 1000)
    kwargs = dict(buffer_pages=16, page_size=512)
    if shards > 1:
        kwargs.update(shards=shards, shard_on="V")
    if adaptive:
        # A hair-trigger q-error threshold so re-planning engages
        # wherever the estimates are even slightly off.
        kwargs.update(adaptive=True, adapt_threshold=1.05)
    session = StorageSession(**kwargs)
    session.register("R", r)
    session.register("S", s)
    return session


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------
class TestAttributeHistogram:
    def intervals(self, n=32):
        return [(float(i), float(i + 3)) for i in range(n)]

    def test_equi_depth_buckets_cover_all_rows(self):
        h = AttributeHistogram.build(self.intervals(), buckets=8)
        assert len(h.bounds) == 8
        assert h.n_base == 32
        assert h.live_counts == h.base_counts

    def test_fingerprint_stable_across_refresh(self):
        h = AttributeHistogram.build(self.intervals(), buckets=4)
        before = h.fingerprint
        h.refresh([(0.0, 1.0)] * 100)
        assert h.fingerprint == before
        assert h.drift() > 1.0  # massively reshaped and regrown

    def test_rebuild_changes_fingerprint(self):
        h = AttributeHistogram.build(self.intervals(), buckets=4)
        rebuilt = h.rebuild([(0.0, 1.0)] * 100, buckets=4)
        assert rebuilt.fingerprint != h.fingerprint
        assert rebuilt.drift() == 0.0

    def test_store_skips_label_columns(self):
        store = HistogramStore()
        schema = Schema(["NAME", "V"])
        from repro.fuzzy import CrispLabel

        rows = [FuzzyTuple([CrispLabel("x"), N(1)], 1.0)]
        built = store.build_table("L", schema, rows)
        assert built == 1  # V only; NAME has no interval support
        assert store.histogram("L", "V") is not None
        assert store.histogram("L", "NAME") is None

    def test_store_fingerprint_zero_without_histograms(self):
        store = HistogramStore()
        assert store.fingerprint("NOPE") == 0
        assert store.drift("NOPE") == 0.0


# ----------------------------------------------------------------------
# The adaptive controller
# ----------------------------------------------------------------------
class TestAdaptiveController:
    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveController(threshold=0.5)

    def test_q_error_is_symmetric_and_floored(self):
        assert q_error(10.0, 100) == pytest.approx(10.0)
        assert q_error(100.0, 10) == pytest.approx(10.0)
        assert q_error(50.0, 50) == 1.0
        assert q_error(None, 50) == 1.0


# ----------------------------------------------------------------------
# Mid-query re-planning: engagement and observability
# ----------------------------------------------------------------------
def three_table_session(adaptive: bool, threshold: float = 1.2) -> StorageSession:
    rng = random.Random(11)

    def rel(n):
        return FuzzyRelation(
            Schema(["K", "V", "U"]),
            [
                FuzzyTuple(
                    [N(float(i)), rng.choice(POOL), rng.choice(POOL)],
                    rng.choice([0.3, 0.6, 1.0]),
                )
                for i in range(n)
            ],
        )

    kwargs = dict(adaptive=True, adapt_threshold=threshold) if adaptive else {}
    session = StorageSession(**kwargs)
    session.register("R", rel(40))
    session.register("S", rel(40))
    session.register("W", rel(40))
    return session


THREE_WAY = "SELECT R.K FROM R, S, W WHERE R.V = S.V AND S.U = W.U WITH D >= 0.6"


class TestReplanEngages:
    def test_replan_fires_and_stays_bit_identical(self):
        want = three_table_session(False).query(THREE_WAY)
        session = three_table_session(True)
        session.registry = MetricsRegistry()
        metrics = QueryMetrics()
        got = session.query(THREE_WAY, metrics=metrics)
        assert want.same_as(got, 0.0)
        assert metrics.adapted
        assert metrics.replans >= 1
        assert metrics.adapt_reason and "q=" in metrics.adapt_reason
        assert session.registry.replans_total >= 1
        assert session.registry.queries_adapted_total == 1
        text = session.registry.render_prometheus()
        assert "fuzzysql_replans_total" in text
        assert "fuzzysql_histogram_builds_total" in text

    def test_explain_analyze_reports_the_switch(self):
        session = three_table_session(True)
        report = session.explain_analyze(THREE_WAY)
        assert "adapted=True" in report
        assert "replans=" in report

    def test_non_adaptive_session_never_adapts(self):
        session = three_table_session(False)
        metrics = QueryMetrics()
        session.query(THREE_WAY, metrics=metrics)
        assert not metrics.adapted
        assert metrics.replans == 0


# ----------------------------------------------------------------------
# The adaptive differential matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 4], ids=["workers1", "workers4"])
@pytest.mark.parametrize("shards", [1, 2], ids=["shards1", "shards2"])
@pytest.mark.parametrize("label", sorted(CASES))
def test_adaptive_matrix_bit_identical(label, shards, workers):
    """Adaptation on/off never changes an answer, for any nesting type.

    The adaptive session may re-plan mid-query; the answer set,
    *including degrees*, must be bit-identical to the plain session's across the
    nesting taxonomy, shard counts, and worker counts.
    """
    sql = CASES[label]
    for seed in range(N_CASES):
        base_seed = 1000 * hash(label) % 7919 + seed
        plain = build(base_seed)
        want = plain.query(sql, workers=workers)
        adaptive = build(base_seed, adaptive=True, shards=shards)
        got = adaptive.query(sql, workers=workers)
        assert want.same_as(got, 0.0), (
            f"{label} seed={seed} shards={shards} workers={workers}: "
            f"adaptive answer diverged\n"
            f"plain:\n{want.pretty()}\nadaptive:\n{got.pretty()}"
        )


# ----------------------------------------------------------------------
# Drift-gated plan-cache eviction (Hypothesis property)
# ----------------------------------------------------------------------
def drift_session() -> StorageSession:
    session = StorageSession(adaptive=True, drift_threshold=0.25)
    for name in ("A", "B"):
        rel = FuzzyRelation(SCHEMA)
        for i in range(20):
            rel.add(FuzzyTuple([N(i), N(i % 5), N(i % 7)], 1.0))
        session.register(name, rel)
    return session


A_SQL = "SELECT A.K FROM A WHERE A.V = 0 WITH D >= 0.5"
B_SQL = "SELECT B.K FROM B WHERE B.V = 0 WITH D >= 0.5"


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    rows=st.integers(min_value=0, max_value=30),
    value=st.integers(min_value=0, max_value=6),
)
def test_drift_evicts_exactly_the_dependent_entries(rows, value):
    """Skewed ingest evicts A's cached plans and only A's.

    The ingest inserts ``rows`` copies of one value into ``A``; whether
    that crosses the drift threshold is the session's call, observable as
    a changed histogram fingerprint.  Crossing must invalidate the
    cached plan over ``A`` and must not touch the plan over ``B``;
    staying below must leave both plans cache *hits*, with the surviving
    plan reading the live (post-ingest) data through its rebound scans.
    """
    session = drift_session()
    session.query(A_SQL)
    session.query(B_SQL)
    before = session.histograms.fingerprint("A")

    if rows:
        session.execute(
            [f"INSERT INTO A VALUES ({100 + i}, {value}, {value})" for i in range(rows)]
        )
    rebuilt = session.histograms.fingerprint("A") != before

    a_metrics, b_metrics = QueryMetrics(), QueryMetrics()
    a_answer = session.query(A_SQL, metrics=a_metrics)
    session.query(B_SQL, metrics=b_metrics)
    assert b_metrics.plan_cache == "hit", "ingest into A must not evict B's plan"
    if rebuilt:
        assert a_metrics.plan_cache == "invalidated"
    else:
        assert a_metrics.plan_cache == "hit"

    # Either way the served answer must match a from-scratch compile.
    session.plan_cache.invalidate()
    fresh = session.query(A_SQL)
    assert fresh.same_as(a_answer, 0.0)


def test_heavy_skew_certainly_rebuilds():
    """A pin that the drift threshold is actually crossable."""
    session = drift_session()
    session.query(A_SQL)
    before = session.histograms.fingerprint("A")
    session.execute([f"INSERT INTO A VALUES ({100 + i}, 3, 3)" for i in range(30)])
    assert session.histograms.fingerprint("A") != before
    metrics = QueryMetrics()
    session.query(A_SQL, metrics=metrics)
    assert metrics.plan_cache == "invalidated"


def test_benign_ingest_stays_hit():
    """A pin that one uniform row is below the drift threshold."""
    session = drift_session()
    session.query(A_SQL)
    before = session.histograms.fingerprint("A")
    session.execute("INSERT INTO A VALUES (100, 1, 1)")
    assert session.histograms.fingerprint("A") == before
    metrics = QueryMetrics()
    session.query(A_SQL, metrics=metrics)
    assert metrics.plan_cache == "hit"


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT A.K FROM A WHERE A.V NOT IN (SELECT B.V FROM B WHERE B.U = A.U)",
        "SELECT A.K FROM A WHERE A.K > (SELECT MAX(B.K) FROM B WHERE B.U = A.U)",
    ],
    ids=["JX", "JA"],
)
def test_benign_ingest_keeps_fold_plans_and_they_read_the_live_table(sql):
    """Grouped / pipelined artifacts are operator trees too: their scan
    leaves rebind, so a benign install is a hit — on the new rows."""
    session = drift_session()
    session.query(sql)
    session.execute("INSERT INTO A VALUES (100, 1, 3)")  # no B row has U=1, V=3
    session.execute("INSERT INTO B VALUES (101, 2, 2)")
    metrics = QueryMetrics()
    cached = session.query(sql, metrics=metrics)
    assert metrics.plan_cache == "hit"
    session.plan_cache.invalidate()
    assert session.query(sql).same_as(cached, 0.0)
    assert N(100) in {t[0] for t in cached}


# ----------------------------------------------------------------------
# Index upkeep on single-row update / delete
# ----------------------------------------------------------------------
def indexed_session(n=30, indexed=True) -> StorageSession:
    rng = random.Random(17)
    rel = FuzzyRelation(SCHEMA)
    for i in range(n):
        rel.add(FuzzyTuple([N(i), rng.choice(POOL), rng.choice(POOL)], 1.0))
    session = StorageSession()
    session.register("R", rel)
    if indexed:
        session.create_index("R", "V")
    return session


def index_image(session, file):
    disk = session.disk
    return [disk.read_page(file, i).to_bytes() for i in range(disk.n_pages(file))]


class TestIndexPatch:
    def test_patched_image_bit_identical_to_full_rebuild(self):
        session = indexed_session()
        session.execute("UPDATE R SET U = 99 WHERE K = 5")
        live = session.indexes[("R", "V")]
        check = clustered_copy(session.tables["R"], "V", "__idx_check")
        assert index_image(session, live.name) == index_image(session, check.name)
        assert live.fences == check.fences
        assert live.n_tuples == check.n_tuples

    def test_queries_identical_after_patch(self):
        patched = indexed_session()
        patched.execute("UPDATE R SET U = 99 WHERE K = 5")
        plain = indexed_session(indexed=False)
        plain.execute("UPDATE R SET U = 99 WHERE K = 5")
        sql = "SELECT R.K FROM R WHERE R.V = 0 WITH D >= 0.5"
        assert plain.query(sql).same_as(patched.query(sql), 0.0)


# ----------------------------------------------------------------------
# Shell surfaces
# ----------------------------------------------------------------------
class TestShellStats:
    def test_stats_dumps_histograms_and_drift(self):
        session = drift_session()
        shell = FuzzyShell(session)
        out = shell.execute("\\stats")
        assert "A: drift=" in out
        assert "fingerprint=0x" in out
        assert "(threshold 0.25)" in out

    def test_stats_without_histograms(self):
        shell = FuzzyShell(StorageSession())
        assert "no histograms" in shell.execute("\\stats")

    def test_explain_shows_cached_plan_tokens(self):
        session = drift_session()
        shell = FuzzyShell(session)
        shell.execute(A_SQL)
        out = shell.execute("\\explain " + A_SQL)
        assert "cached plan tokens:" in out
        assert "A: stats_version=" in out
        assert "histogram_fingerprint=0x" in out

    def test_explain_without_cache_entry_is_plain(self):
        session = drift_session()
        shell = FuzzyShell(session)
        out = shell.execute("\\explain " + A_SQL)
        assert "cached plan tokens:" not in out

    def test_help_lists_stats(self):
        shell = FuzzyShell(StorageSession())
        assert "\\stats" in shell.execute("\\help")
