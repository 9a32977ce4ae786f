"""Unit tests for the shard layer: catalog, placement, executor wiring.

The bit-identity and fault-tolerance contracts are covered by the
property suite (``tests/test_shard_property.py``), the differential
matrix (``tests/test_differential.py``), and the chaos suite; this file
pins the component behaviours those suites build on — boundary
selection, layout geometry, file naming, the cost model, and the
observability / session / shell / database surfaces.
"""

import random
import threading

import pytest

from repro.data import Catalog, FuzzyRelation, FuzzyTuple, Schema
from repro.db import FuzzyDatabase
from repro.engine import NaiveEvaluator
from repro.errors import FuzzyQueryError
from repro.fuzzy import CrispNumber, TrapezoidalNumber
from repro.observe import MetricsRegistry, QueryMetrics
from repro.session import StorageSession
from repro.parallel import select_boundaries
from repro.shard import ShardCatalog, ShardLayout, ShardedStorage
from repro.shard.storage import BAND_SUFFIX, MIRROR_BAND_SUFFIX, MIRROR_SUFFIX
from repro.shell import FuzzyShell
from repro.storage import BufferPool, OperationStats, SimulatedDisk
from repro.storage.costs import PAPER_1992

N = CrispNumber
T = TrapezoidalNumber
SCHEMA = Schema(["K", "U", "V"])
POOL = [N(0), N(5), T(0, 1, 2, 4), T(3, 5, 5, 7), T(4, 6, 8, 12)]

J_SQL = "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.U = R.U)"


def make_relation(rng, n, base):
    rel = FuzzyRelation(SCHEMA)
    for i in range(n):
        rel.add(
            FuzzyTuple(
                [N(base + i), rng.choice(POOL), rng.choice(POOL)],
                rng.choice([0.3, 0.6, 1.0]),
            )
        )
    return rel


def build_sharded(seed=11, n=40, shards=4, **kwargs):
    rng = random.Random(seed)
    r, s = make_relation(rng, n, 0), make_relation(rng, n, 1000)
    session = StorageSession(
        buffer_pages=16, page_size=512, shards=shards, shard_on="V", **kwargs
    )
    session.register("R", r)
    session.register("S", s)
    return r, s, session


# ----------------------------------------------------------------------
# Boundary selection and layout geometry
# ----------------------------------------------------------------------
class TestBoundaries:
    def test_quantile_cuts_are_strictly_increasing(self):
        cuts = select_boundaries([float(i) for i in range(100)], 4)
        assert cuts == sorted(set(cuts))
        assert len(cuts) == 3

    def test_duplicate_heavy_input_dedups(self):
        cuts = select_boundaries([1.0] * 50 + [2.0] * 50, 4)
        assert cuts == [2.0]

    def test_all_equal_collapses_to_no_cuts(self):
        assert select_boundaries([3.0] * 40, 4) == []

    def test_degenerate_inputs(self):
        assert select_boundaries([], 4) == []
        assert select_boundaries([1.0], 4) == []
        assert select_boundaries([1.0, 2.0], 1) == []

    def test_mixed_incomparable_domains_decline(self):
        assert select_boundaries([1.0, "a", 2.0], 4) == []

    def test_no_cut_at_the_global_minimum(self):
        cuts = select_boundaries([0.0] * 30 + [1.0, 2.0], 4)
        assert 0.0 not in cuts


class TestLayout:
    def layout(self, boundaries=(2.0, 5.0, 8.0)):
        return ShardLayout("R", "V", tuple(boundaries), "R", token=7)

    def test_shard_of_b_is_half_open(self):
        layout = self.layout()
        assert layout.shard_of_b(1.9) == 0
        assert layout.shard_of_b(2.0) == 1  # boundary belongs to the right
        assert layout.shard_of_b(7.9) == 2
        assert layout.shard_of_b(8.0) == 3

    def test_shard_of_uses_the_left_endpoint(self):
        layout = self.layout()
        assert layout.shard_of(T(1, 3, 4, 6)) == 0  # b=1 decides, not e=6
        assert layout.shard_of(N(5)) == 2

    def test_replica_range_spans_the_support(self):
        layout = self.layout()
        assert layout.replica_range(T(1, 3, 4, 6)) == (0, 2)
        assert layout.replica_range(N(5)) == (2, 2)  # crisp: no band copies

    def test_specs_cover_the_axis(self):
        specs = self.layout().specs()
        assert specs == [(0, None, 2.0), (1, 2.0, 5.0), (2, 5.0, 8.0), (3, 8.0, None)]
        assert self.layout().n_shards == 4

    def test_catalog_tokens_are_monotonic_per_replacement(self):
        catalog = ShardCatalog()
        first = catalog.record("R", "V", [2.0], "R")
        second = catalog.record("R", "V", [3.0], "R")
        assert second.token > first.token
        assert catalog.token("R") == second.token
        assert catalog.token("NEVER_PLACED") == 0
        assert catalog.names() == ["R"]
        assert catalog.get("r") is second  # lookups are case-insensitive


# ----------------------------------------------------------------------
# Placement and the sharded sort
# ----------------------------------------------------------------------
class TestPlacement:
    def test_node_file_naming(self):
        rng = random.Random(3)
        storage = ShardedStorage(3, page_size=512)
        storage.place("R", make_relation(rng, 30, 0), "V", "R")
        for node in storage.nodes:
            names = set(node.disk.files())
            assert "R" in names and "R" + BAND_SUFFIX in names
            assert "R" + MIRROR_SUFFIX in names
            assert "R" + MIRROR_BAND_SUFFIX in names
            assert not any(f.startswith("__") for f in names)

    def test_wrong_disk_count_is_rejected(self):
        with pytest.raises(ValueError):
            ShardedStorage(3, disks=[SimulatedDisk(), SimulatedDisk()])


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
class TestShardedCost:
    def ledger(self, reads):
        stats = OperationStats()
        with stats.enter_phase("shard"):
            stats.count_read(reads)
        return stats

    def test_coordinator_plus_slowest_shard(self):
        total = OperationStats()
        shard_ledgers = [self.ledger(10), self.ledger(40), self.ledger(20)]
        for ws in shard_ledgers:
            total.merge(ws)
        with total.enter_phase("splice"):
            total.count_read(5)
        expected = (5 + 40) * PAPER_1992.io_time
        got = PAPER_1992.parallel_response_time(total, shard_ledgers)
        assert got == pytest.approx(expected)

    def test_no_shards_degrades_to_response_time(self):
        stats = self.ledger(12)
        assert PAPER_1992.parallel_response_time(stats, []) == pytest.approx(
            PAPER_1992.response_time(stats)
        )


# ----------------------------------------------------------------------
# Session / observability surfaces
# ----------------------------------------------------------------------
class TestSessionSurfaces:
    def test_explain_analyze_lists_shard_tasks(self):
        _r, _s, session = build_sharded()
        report = session.explain_analyze(J_SQL)
        assert "requested_shards=4" in report
        assert "shard 0 [" in report
        assert "io[shard]" in report

    def test_registry_exports_shard_counters(self):
        _r, _s, session = build_sharded()
        registry = MetricsRegistry()
        session.registry = registry
        metrics = QueryMetrics()
        session.query(J_SQL, metrics=metrics)
        assert metrics.shards, "sharded path did not engage on n=40"
        assert registry.sharded_queries_total == 1
        assert registry.shards_total == len(metrics.shards)
        text = registry.render_prometheus()
        assert "fuzzysql_shards_total" in text
        assert "fuzzysql_sharded_queries_total 1" in text
        assert "fuzzysql_shard_failovers_total 0" in text

    def test_shards_one_pins_the_serial_path(self):
        _r, _s, session = build_sharded()
        sharded = session.query(J_SQL)
        metrics = QueryMetrics()
        serial = session.query(J_SQL, metrics=metrics, shards=1)
        assert metrics.shards == []
        assert metrics.requested_shards == 1  # budget stamped, no tasks ran
        assert serial.same_as(sharded, 0.0)

    def test_sharded_answers_match_the_oracle(self):
        r, s, session = build_sharded()
        catalog = Catalog()
        catalog.register("R", r)
        catalog.register("S", s)
        expected = NaiveEvaluator(catalog).evaluate(J_SQL)
        assert expected.same_as(session.query(J_SQL), 1e-9)

    def test_reshard_guards(self):
        serial = StorageSession(buffer_pages=16, page_size=512)
        with pytest.raises(FuzzyQueryError):
            serial.reshard("R")
        _r, _s, session = build_sharded()
        with pytest.raises(FuzzyQueryError):
            session.reshard("NEVER_REGISTERED")

    def test_reshard_changes_the_layout_token_only(self):
        _r, _s, session = build_sharded()
        before = session.sharded.catalog.token("R")
        versions = session.stats_versions.snapshot(["R"])
        session.reshard("R", boundaries=[1.0, 4.0])
        assert session.sharded.catalog.token("R") > before
        assert session.stats_versions.snapshot(["R"]) == versions
        layout = session.sharded.layout("R")
        assert layout.boundaries == (1.0, 4.0)


class TestPlacementAfterWrites:
    """A write installs a new heap epoch (``R@e1``) and places the table
    from it beside the old epoch's placement; the join finds the placement
    by catalog name, so it keeps scattering, and a join still running on
    the old epoch keeps reading the old epoch's files."""

    N_SQL = "SELECT R.K FROM R WHERE R.V IN (SELECT S.V FROM S)"
    WRITES = (
        "INSERT INTO R VALUES (5000, 1, 50)",
        "UPDATE R SET V = 20 WHERE K = 3",
        "DELETE FROM S WHERE K = 1007",
    )

    @staticmethod
    def relation(rng, base):
        rel = FuzzyRelation(SCHEMA)
        for i in range(200):
            c = rng.uniform(0, 100)
            v = T(c - 2, c, c + 1, c + 3)
            rel.add(FuzzyTuple([N(base + i), N(rng.randint(0, 5)), v], 1.0))
        return rel

    @staticmethod
    def oracle(session):
        catalog = Catalog()
        for name, heap in session.tables.items():
            catalog.register(name, heap.to_relation(BufferPool(session.disk, 8)))
        return NaiveEvaluator(catalog).evaluate(TestPlacementAfterWrites.N_SQL)

    def test_sharded_join_survives_insert_update_delete(self):
        rng = random.Random(1)
        r, s = self.relation(rng, 0), self.relation(rng, 1000)
        sharded = StorageSession(buffer_pages=16, page_size=1024, shards=2, shard_on="V")
        serial = StorageSession(buffer_pages=16, page_size=1024)
        for session in (sharded, serial):
            session.register("R", r)
            session.register("S", s)
        for write in self.WRITES:
            for session in (sharded, serial):
                session.execute([write])
            assert sharded.tables["R"].name.startswith("R@e")  # a new epoch
            metrics = QueryMetrics()
            got = sharded.query(self.N_SQL, metrics=metrics)
            assert metrics.shards, f"after {write!r}: {metrics.degraded_reason}"
            assert not metrics.degraded, metrics.degraded_reason
            assert got.same_as(serial.query(self.N_SQL), 0.0)
            assert got.same_as(self.oracle(serial), 1e-9)

    def test_a_write_landing_mid_gather_leaves_the_running_join_on_its_epoch(self):
        # The first node page read of the query blocks until an INSERT has
        # committed on another thread; every other slice task waits behind
        # it.  The join bound epoch 0, so it must still answer from epoch 0.
        rng = random.Random(2)
        r, s = self.relation(rng, 0), self.relation(rng, 1000)
        armed = threading.Event()
        lock = threading.Lock()

        def write_once():
            if not armed.is_set():
                return
            with lock:
                if armed.is_set():
                    armed.clear()
                    writer = threading.Thread(
                        target=sharded.execute, args=(["INSERT INTO R VALUES (5000, 1, 50)"],)
                    )
                    writer.start()
                    writer.join(timeout=60)
                    assert not writer.is_alive(), "the write did not finish"

        class WriteOnRead(SimulatedDisk):
            def read_page(self, name, index):
                write_once()
                return super().read_page(name, index)

        sharded = StorageSession(
            buffer_pages=16, page_size=1024, shards=2, shard_on="V",
            shard_disks=[WriteOnRead(page_size=1024) for _ in range(2)],
        )
        serial = StorageSession(buffer_pages=16, page_size=1024)
        for session in (sharded, serial):
            session.register("R", r)
            session.register("S", s)
        before = serial.query(self.N_SQL)

        metrics = QueryMetrics()
        armed.set()
        got = sharded.query(self.N_SQL, metrics=metrics)
        assert not armed.is_set(), "the write never ran"
        assert sharded.tables["R"].name == "R@e1"
        assert metrics.shards and not metrics.degraded, metrics.degraded_reason
        assert got.same_as(before, 0.0)

        serial.execute(["INSERT INTO R VALUES (5000, 1, 50)"])
        metrics = QueryMetrics()
        assert sharded.query(self.N_SQL, metrics=metrics).same_as(serial.query(self.N_SQL), 0.0)
        assert metrics.shards

    def test_placements_go_with_their_epochs(self):
        rng = random.Random(3)
        session = StorageSession(buffer_pages=16, page_size=1024, shards=2, shard_on="V")
        session.register("R", self.relation(rng, 0))
        for k in range(4):
            session.execute([f"INSERT INTO R VALUES ({5000 + k}, 1, 50)"])
        live = {name for name in session.disk.files() if name.startswith("R")}
        assert live == {"R", "R@e3", "R@e4"}  # the base plus the retained epochs
        for node in session.sharded.nodes:
            sources = {name.split("#")[0] for name in node.disk.files()}
            assert sources == live
        session.checkpoint()
        for node in session.sharded.nodes:
            assert {name.split("#")[0] for name in node.disk.files()} == {"R"}
        assert session.sharded.layout("R").source == "R"


class TestShellAndDatabase:
    def test_shell_shards_meta_command(self):
        _r, _s, session = build_sharded()
        shell = FuzzyShell(session)
        assert "shard budget set to 4" in shell.execute("\\shards 4")
        assert shell.shards == 4
        out = shell.execute(J_SQL)
        assert out.endswith("tuples)")
        assert "shard" in shell.execute("\\analyze " + J_SQL)
        assert "cleared" in shell.execute("\\shards")
        assert shell.shards is None

    def test_db_query_with_shards_matches_serial(self):
        rng = random.Random(21)
        db = FuzzyDatabase()
        db.register("R", make_relation(rng, 40, 0))
        db.register("S", make_relation(rng, 40, 1000))
        serial = db.query(J_SQL)
        metrics = QueryMetrics()
        sharded = db.query(J_SQL, shards=4, shard_on="V", metrics=metrics)
        assert serial.same_as(sharded, 1e-9)
        assert metrics.shards, "db sharded path did not engage"

    def test_db_explain_analyze_with_shards(self):
        rng = random.Random(22)
        db = FuzzyDatabase()
        db.register("R", make_relation(rng, 40, 0))
        db.register("S", make_relation(rng, 40, 1000))
        report = db.explain_analyze(J_SQL, shards=4, shard_on="V")
        assert "requested_shards=4" in report
        assert "shard 0 [" in report
