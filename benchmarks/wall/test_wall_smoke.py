"""Smoke test of the wall-clock benchmark: the whole suite at ``--scale check``.

Collected by ``pytest benchmarks/ -q --benchmark-disable``; outside tier-1's
``testpaths``.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

import repro.session  # noqa: E402
import repro.sql.parser  # noqa: E402
from repro.data import FuzzyRelation  # noqa: E402
from repro.session import StorageSession  # noqa: E402


def test_suite_at_check_scale(tmp_path):
    out = tmp_path / "wall.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "check", "--seed", "1995",
         "--out", str(out), "--trace-out", str(tmp_path / "trace")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    bench = run.contract()
    suite = json.loads(out.read_text())
    assert suite["meta"]["seed"] == 1995 and suite["meta"]["commit"]
    for workload in bench["workloads"]:
        name = workload["name"]
        entry = suite["workloads"][name]
        assert entry["failed"] == {"end_to_end": 0, "per_layer": 0}, name
        assert entry["end_to_end_details"]["min_rows"] > 0, f"{name}: an empty answer"
        for metric in bench["per_layer"]:
            assert math.isfinite(entry["per_layer"][metric["name"]]["value"]), (name, metric)
        for metric in bench["end_to_end"]:
            if run.applies(metric["name"], name):
                value = entry["end_to_end"][metric["name"]]["value"]
                assert math.isfinite(value) and value > 0, (name, metric)
        details = entry["per_layer_details"]
        assert abs(details["self_sum_s"] - details["traced_root_s"]) <= 0.01 * details["traced_root_s"]
        trace = json.loads((tmp_path / f"trace.{name}.json").read_text())
        assert trace["traceEvents"], name
    layers = {name: entry["per_layer"] for name, entry in suite["workloads"].items()}
    # The silent strategy changes ROADMAP aim 3 names must show, unfixed.
    assert layers["j_overflow"]["engine.fallback_ratio"]["value"] == 1.0
    assert layers["short_mix"]["engine.fallback_ratio"]["value"] > 0
    assert layers["ingest_query"]["wal.txns_replayed"]["value"] > 0
    assert run.main(["--compare", str(out), str(out)]) == 0


def test_short_mix_texts_are_distinct():
    # Seed 4059906722 draws the same ``R.K >= k`` twice for one template; the
    # second text would run on another group's tables and fail the digest check.
    spec = workloads.WORKLOADS["short_mix"]
    texts = [sql for _, sql in spec.build(spec, 4059906722, spec.n).statements]
    assert len(texts) == len(set(texts)) == 600


def test_probes_leave_no_wrapper_behind():
    parse, query = repro.sql.parser.parse, StorageSession.query
    patches = probes.install(probes.Tracer())
    try:
        assert repro.sql.parser.parse is not parse
        assert repro.session.parse is repro.sql.parser.parse  # the from-import was rebound too
        assert StorageSession.query is not query
    finally:
        probes.remove(patches)
    assert repro.sql.parser.parse is parse and repro.session.parse is parse
    assert StorageSession.query is query


def test_a_corrupted_answer_fails_the_command(monkeypatch, capsys):
    query = StorageSession.query

    def corrupted(self, sql, *args, **kwargs):
        answer = query(self, sql, *args, **kwargs)
        return FuzzyRelation(answer.schema, answer.tuples()[1:])

    monkeypatch.setattr(StorageSession, "query", corrupted)
    assert run.main(["--workload", "j_merge", "--scale", "check", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
