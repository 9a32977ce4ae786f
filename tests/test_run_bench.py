"""The benchmark-regression harness: JSON artifact, gate, self-test.

Runs ``benchmarks/run_bench.py`` as a subprocess (the way CI does) at a
large scale divisor so the whole cycle stays fast: write a baseline,
verify ``--check`` passes against an identical run, and verify the gate
*fails* when a 2x slowdown is injected.  Also validates the committed
seed baseline's shape, and the ``--emit-events`` artifact (JSONL events
plus the health report judged over them).
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "benchmarks", "run_bench.py")
COMMITTED_BASELINE = os.path.join(REPO, "benchmarks", "BENCH_observe.json")

#: Large divisor -> tiny relations -> the full harness runs in seconds.
FAST_ENV = {**os.environ, "REPRO_SCALE": "256"}


def run_bench(*args, cwd):
    return subprocess.run(
        [sys.executable, SCRIPT, *args],
        cwd=cwd,
        env=FAST_ENV,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def baseline_dir(tmp_path_factory):
    """One harness run shared by the module: baseline + fresh artifact."""
    path = tmp_path_factory.mktemp("bench")
    proc = run_bench(
        "--update-baseline",
        "--baseline", str(path / "baseline.json"),
        "--output", str(path / "BENCH_observe.json"),
        cwd=path,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return path


class TestArtifact:
    def test_json_is_written_and_well_formed(self, baseline_dir):
        with open(baseline_dir / "BENCH_observe.json") as handle:
            data = json.load(handle)
        assert data["version"] == 1
        assert data["scale"] == 256
        workloads = data["workloads"]
        assert set(workloads) >= {
            "table1_1mb/merge_join",
            "table1_1mb/nested_loop",
            "fig3_c16/merge_join",
            "table4_512b/merge_join",
            "session_J",
            "session_JX",
            "session_JALL",
            "session_JA",
            "session_chain",
        }
        for name, workload in workloads.items():
            assert workload["modelled_seconds"] > 0.0, name
            assert workload["wall_seconds"] >= 0.0
            assert workload["rows"] >= 0
            assert workload["counters"]["page_reads"] >= 0
        assert data["overhead"]["plain_seconds"] > 0.0
        assert data["overhead"]["overhead_ratio"] > 0.0

    def test_session_workloads_cover_every_strategy(self, baseline_dir):
        with open(baseline_dir / "BENCH_observe.json") as handle:
            workloads = json.load(handle)["workloads"]
        strategies = {
            workloads[name]["strategy"]
            for name in workloads
            if name.startswith("session_")
        }
        assert any("flat/J" in s for s in strategies)
        assert any("grouped/JX" in s for s in strategies)
        assert any("grouped/JALL" in s for s in strategies)
        assert any("pipelined/JA" in s for s in strategies)
        assert any("flat/chain" in s for s in strategies)


class TestGate:
    def test_check_passes_against_identical_baseline(self, baseline_dir):
        proc = run_bench(
            "--check",
            "--baseline", str(baseline_dir / "baseline.json"),
            "--output", str(baseline_dir / "fresh.json"),
            cwd=baseline_dir,
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "ok:" in proc.stdout

    def test_check_fails_on_injected_2x_slowdown(self, baseline_dir):
        proc = run_bench(
            "--check",
            "--inject-slowdown", "2",
            "--baseline", str(baseline_dir / "baseline.json"),
            "--output", str(baseline_dir / "slow.json"),
            cwd=baseline_dir,
        )
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout
        assert "exceeds tolerance" in proc.stdout

    def test_check_without_baseline_exits_2(self, baseline_dir, tmp_path):
        proc = run_bench(
            "--check",
            "--baseline", str(tmp_path / "missing.json"),
            "--output", str(tmp_path / "out.json"),
            cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert "no baseline" in proc.stdout

    def test_scale_mismatch_is_reported(self, baseline_dir, tmp_path):
        with open(baseline_dir / "baseline.json") as handle:
            baseline = json.load(handle)
        baseline["scale"] = 1
        with open(tmp_path / "mismatch.json", "w") as handle:
            json.dump(baseline, handle)
        proc = run_bench(
            "--check",
            "--baseline", str(tmp_path / "mismatch.json"),
            "--output", str(tmp_path / "out.json"),
            cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert "scale mismatch" in proc.stdout


class TestCommittedBaseline:
    def test_seed_baseline_is_committed_and_valid(self):
        with open(COMMITTED_BASELINE) as handle:
            data = json.load(handle)
        assert data["version"] == 1
        assert data["scale"] == 32  # CI runs at the default scale
        assert len(data["workloads"]) == 21
        assert set(data["workloads"]) >= {
            "service_cold_J",
            "service_cached_J",
            "service_batch_w1",
            "service_batch_w4",
            "wal_ingest",
            "wal_recovery",
            "parallel_J",
            "sharded_J",
            "faulted_J",
            "columnar_J",
            "indexed_J",
        }
        assert data["workloads"]["service_cold_J"]["plan_cache"] == "miss"
        assert data["workloads"]["service_cached_J"]["plan_cache"] == "hit"
        cold = data["workloads"]["service_cold_J"]["counters"]
        cached = data["workloads"]["service_cached_J"]["counters"]
        assert cached["plan_cache_hits"] > cold["plan_cache_hits"]
        # The retry slice must actually exercise the retry path (absorbed
        # faults, so same answer as the fault-free type-J slice) and its
        # modelled cost must carry the retry charge.
        faulted = data["workloads"]["faulted_J"]
        assert faulted["counters"]["io_retries"] > 0
        assert faulted["rows"] == data["workloads"]["session_J"]["rows"]
        assert (
            faulted["modelled_seconds"]
            > data["workloads"]["session_J"]["modelled_seconds"]
        )
        # The parallel slice must actually have run the partitioned plan
        # (not silently degraded), returned the serial answer, and its
        # planner curve must fall monotonically with the partition count.
        parallel = data["workloads"]["parallel_J"]
        assert parallel["counters"]["partitions"] >= 2
        assert parallel["rows"] == data["workloads"]["session_J"]["rows"]
        planner = [parallel["planner_costs"][k] for k in ("1", "2", "4", "8")]
        assert planner == sorted(planner, reverse=True)
        # The sharded slice must actually have run shard tasks (not
        # silently degraded to local execution), with zero failovers on
        # healthy nodes, returning the serial answer; the gated per-shard
        # page reads account for every read the run charged.
        sharded = data["workloads"]["sharded_J"]
        assert sharded["counters"]["shards"] >= 2
        assert sharded["rows"] == data["workloads"]["session_J"]["rows"]
        assert sharded["counters"]["shard_page_reads"] > 0
        assert (
            sharded["counters"]["shard_page_reads"]
            <= sharded["counters"]["page_reads"]
        )
        # The index slices must show what the clustered copy does: the
        # range scan reads copy pages and fewer pages than the row path,
        # and the band join over copies writes no sort page.  The harness
        # itself hard-fails on bit-identity, so rows alone suffice here.
        scan = data["workloads"]["columnar_J"]["counters"]
        assert scan["index_pages_read"] > 0
        assert scan["page_reads"] < scan["row_page_reads"]
        assert data["workloads"]["indexed_J"]["counters"]["sort_page_writes"] == 0
        # The WAL slices must have exercised the durable write path: group
        # commit engaged and recovery actually replayed the ingested log.
        ingest = data["workloads"]["wal_ingest"]["counters"]
        assert ingest["wal_commits_total"] > 0
        assert ingest["wal_group_commits_total"] > 0
        recovery = data["workloads"]["wal_recovery"]["counters"]
        assert recovery["wal_recoveries_total"] == 1
        assert recovery["txns_replayed"] == ingest["wal_commits_total"]
        assert (
            data["workloads"]["wal_recovery"]["rows"]
            == data["workloads"]["wal_ingest"]["rows"]
        )


#: ``emit_events``' health report.  Every signal is judged over counted
#: events, so the clean sweep reads ``ok``.
EMITTED_HEALTH = """\
health: ok (10 queries)
  [      ok] degraded-rate: 0.0% of queries answered degraded
  [      ok] failover-rate: 0.00 replica failovers per query
  [      ok] error-rate: 0.0% of queries failed, timed out, or were cancelled
  [      ok] shard-skew: hottest shard at 1.00x the mean page I/O
  [      ok] cache-hit-floor: plan-cache hit rate 50.0% (floors: warn <50%, critical <10%)
"""


def test_emit_events_writes_one_parseable_event_per_query(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "256")
    spec = importlib.util.spec_from_file_location("run_bench_module", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    events_path = tmp_path / "events.jsonl"
    health_path = tmp_path / "events_health.txt"
    session = module.emit_events(str(events_path), str(health_path))
    events = [json.loads(line) for line in events_path.read_text().splitlines()]
    assert len(events) == session.registry.queries_total == 10
    assert [e["seq"] for e in events] == list(range(1, 11))
    assert health_path.read_text() == EMITTED_HEALTH
