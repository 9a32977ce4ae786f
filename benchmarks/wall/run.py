"""The repo's wall-clock benchmark: seven workloads, end-to-end and per-layer metrics.

Three ways to call it::

    python benchmarks/wall/run.py --seed 1995 --out wall.json      # the whole suite
    python benchmarks/wall/run.py --workload j_merge --seed 7 --seconds 8 --trace 0
    python benchmarks/wall/run.py --compare A.json B.json

With ``--workload`` one workload runs in this process and the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0`` (no probe is ever installed in
that process) and the per-layer metrics with ``--trace 1``.  Without it
every workload runs in two fresh child processes, one per trace mode, one
after the other (closed loop, one client).  Metric names, units, directions
and bounds are read from ``BENCHMARK.json`` at the root of the checkout.
"""

import time

_ENTRY = time.perf_counter()  # set-up time counts from here, before ``import repro``

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))  # the program under test, from this checkout's source

import probes  # noqa: E402
import workloads  # noqa: E402
from repro.storage.costs import PAPER_1992  # noqa: E402

_IMPORT_S = time.perf_counter() - _ENTRY

#: Session builds per run; ``setup_s`` reports their median (plus the import).
SETUPS = 3
MIN_REPS = 2
#: Metrics that only mean something on some workloads.  The driver's contract
#: wants every metric from every workload, so elsewhere ``query_p90_s`` repeats
#: the median (fewer than 100 samples support no higher percentile) and
#: ``ingest_stmts_per_s`` repeats ``throughput_qps`` (no DML: every statement
#: is a read); the suite's table and ``--compare`` leave those rows out.
APPLIES = {
    "query_p90_s": {"short_mix"},
    "ingest_stmts_per_s": {"ingest_query"},
    "throughput_qps": {"types_large", "short_mix"},
    "space_amp": {"ingest_query", "wide_sort"},
}
#: Per-layer counts that repeat exactly for one seed; ``--compare`` requires them equal.
EXACT = (
    "sql.statements", "sort.calls", "sort.page_writes", "join.pairs_examined", "fuzzy.evals",
    "columnar.kernel_batches", "storage.decodes", "storage.encodes", "storage.page_reads",
    "storage.page_writes", "wal.syncs", "wal.bytes_logged", "wal.txns_replayed",
)


def applies(metric: str, workload: str) -> bool:
    return workload in APPLIES.get(metric, (workload,))


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def spread(values) -> float:
    """Interquartile range over the median (0 with fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def reads(samples) -> list:
    return [s for s in samples if s.digest is not None]


def walls_by_kind(samples) -> dict:
    by_kind = {}
    for sample in reads(samples):
        by_kind.setdefault(sample.kind, []).append(sample.secs)
    return by_kind


def check_answers(state, reps) -> int:
    """Failed statements: raised, or answered differently from the same statement of an earlier rep.

    A text that recurs inside one repetition (ingest's read after every
    batch) is keyed by its occurrence, since the tables change in between.
    """
    reference, failed = state.reference, 0
    for rep in reps:
        seen = {}
        for sample in rep:
            if sample.error:
                failed += sample.stmts
            if sample.digest is None:
                continue
            nth = seen[sample.sql] = seen.get(sample.sql, 0) + 1
            key = sample.sql if nth == 1 else f"{sample.sql} #{nth}"
            if reference.setdefault(key, sample.digest) != sample.digest:
                failed += 1
                state.failures.append(f"{sample.kind}: digest changed between repetitions: {key}")
    return failed


def warm_up(spec, state) -> None:
    """Two untimed repetitions, or one if it takes more than two seconds."""
    state.warming = True
    started = time.perf_counter()
    spec.rep(state)
    if time.perf_counter() - started < 2.0:
        spec.rep(state)
    state.warming = False


def repeat(spec, state, count: int) -> list:
    """``count`` repetitions as one flat sample list, ``gc.collect()`` before each."""
    samples = []
    for _ in range(count):
        gc.collect()
        samples += spec.rep(state)
    return samples


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def end_to_end(spec, state, seconds: float, setup_s: float) -> tuple:
    """Warm up, repeat for ``seconds``, and reduce the samples to the end-to-end metrics."""
    warm_up(spec, state)
    deadline = time.perf_counter() + seconds
    reps = []
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        gc.collect()
        reps.append(spec.rep(state))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = [s for rep in reps for s in rep]
    walls = [s.secs for s in reads(samples)]
    by_kind = walls_by_kind(samples)
    dml = [s for s in samples if s.kind == "dml"]
    throughput = sum(s.stmts for s in samples) / sum(s.secs for s in samples)
    p50 = median([median(kind_walls) for kind_walls in by_kind.values()])
    metrics = {
        "setup_s": setup_s,
        # Kinds are equally frequent, so this is the sample median with less
        # noise: it does not hinge on the slowest sample of the kind below it.
        "query_p50_s": p50,
        "query_p90_s": statistics.quantiles(walls, n=10)[8] if len(walls) >= 100 else p50,
        "throughput_qps": throughput,
        "ingest_stmts_per_s": (
            sum(s.stmts for s in dml) / sum(s.secs for s in dml) if dml else throughput
        ),
        "space_amp": state.space_amp(),
        "peak_rss_mb": rss_mb,
    }
    details = {
        "reps": len(reps), "read_samples": len(walls),
        "rep_spread": spread([sum(s.secs for s in rep) for rep in reps]),
        "min_rows": min((s.rows for s in reads(samples)), default=0),
    }
    return metrics, details, reps


def per_layer(spec, state, seed: int, names, trace_out) -> tuple:
    """An untraced reference, the optional-path ratios, then one traced repetition."""
    warm_up(spec, state)
    start = state.cursor

    def one_pass(index: int) -> list:
        # short_mix: each pass takes the next statement texts (a text seen
        # before would hit the plan cache), at an offset that does not depend
        # on how many passes ran, so the traced counts repeat exactly.
        state.cursor = start + index * advance
        return repeat(spec, state, spec.trace_reps)

    advance = 0
    untraced = [one_pass(0)]
    advance = state.cursor - start
    if sum(s.secs for s in untraced[0]) < 3.0:
        untraced.append(one_pass(1))
    wall = median([sum(s.secs for s in rep) for rep in untraced])
    by_kind = walls_by_kind(s for rep in untraced for s in rep)
    extras = {}
    if spec.extras is not None:
        p50 = median([s.secs for rep in untraced for s in reads(rep)])
        extras = spec.extras(state, seed, spec.small_n, p50)
    state.verify = False  # the oracle is the benchmark's own work: keep it out of the trace
    tracer = probes.Tracer()
    patches = probes.install(tracer)
    try:
        traced = one_pass(2)
    finally:
        probes.remove(patches)
    if trace_out:
        tracer.write(trace_out)

    calls, counts, self_s = tracer.calls, tracer.counts, tracer.self_s
    answered = reads(traced)
    dml_stmts = sum(s.stmts for s in traced if s.kind == "dml")
    stats = [s.stats for s in traced if s.stats is not None]
    modelled = sum(PAPER_1992.response_time(each) for each in stats)
    lookups = sum(counts["plan_cache." + outcome] for outcome in ("hit", "miss", "invalidated"))
    disk_writes = ("SimulatedDisk.write_page", "SimulatedDisk.append_blob")
    recovery = [s.result for s in traced if s.kind == "recover" and not s.error]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = dict.fromkeys(names, 0.0)
    metrics.update({name: value for name, value in self_s.items() if name in metrics})
    metrics.update(extras)
    metrics.update({
        "sql.statements": calls["parser.parse"] + calls["statements.parse_statement"],
        "service.plan_cache_hit_ratio": ratio(counts["plan_cache.hit"], lookups),
        "engine.fallback_ratio": ratio(
            sum(1 for s in answered if s.strategy.startswith("naive/")), len(answered)
        ),
        "sort.calls": calls["ExternalSorter.sort"],
        "sort.page_writes": sum(
            each.phases["sort"].page_writes for each in stats if "sort" in each.phases
        ),
        "join.pairs_examined": counts["join.pairs_examined"],
        "fuzzy.evals": counts["fuzzy.evals"],
        "fuzzy.ns_per_eval": ratio(self_s["fuzzy.self_s"] * 1e9, counts["fuzzy.evals"]),
        "fuzzy.nonzero_ratio": ratio(counts["fuzzy.nonzero"], counts["fuzzy.evals"]),
        "fuzzy.memo_hit_ratio": tracer.hit_ratio("ComparisonKernel"),
        "columnar.kernel_batches": sum(n for name, n in calls.items() if name.startswith("kernel.")),
        "storage.decodes": calls["TupleSerializer.decode"],
        "storage.encodes": calls["TupleSerializer.encode"],
        "storage.buffer_hit_ratio": tracer.hit_ratio("BufferPool"),
        "storage.page_reads": calls["SimulatedDisk.read_page"] + calls["SimulatedDisk.read_blob"],
        "storage.page_writes": sum(calls[name] for name in disk_writes),
        "storage.modelled_s": modelled,
        "storage.model_wall_ratio": ratio(modelled, wall),
        "wal.syncs": calls["WriteAheadLog.sync"],
        "wal.bytes_logged": state.bytes_logged,
        "wal.page_writes_per_stmt": ratio(
            tracer.leaf_calls_under("StorageSession.execute", disk_writes), dml_stmts
        ),
        "wal.txns_replayed": sum(report.txns_replayed for report in recovery),
        "trace.overhead_ratio": ratio(sum(s.secs for s in traced), wall),
    })
    for kind, walls in by_kind.items():
        name = f"engine.{kind.lower()}_p50_s"
        if name in metrics:
            metrics[name] = median(walls)
    # Every instant of a root span is charged to one open span, so the layers'
    # self times must add up to the roots; a gap means a wrapper lost a frame.
    root_s, summed = tracer.root_s(), sum(self_s.values())
    if abs(summed - root_s) > 0.01 * root_s:
        state.failures.append(f"trace: self times sum to {summed:.4f}s, root spans to {root_s:.4f}s")
    details = {
        "traced_root_s": root_s, "self_sum_s": summed, "spans": len(tracer.spans),
        "exact": {name: metrics[name] for name in EXACT},
    }
    return metrics, details, untraced + [traced]


def run_workload(args) -> int:
    """Run ``args.workload`` here; print its metrics, a ``details`` line, then the result line."""
    bench = contract()
    spec = workloads.WORKLOADS[args.workload]
    if args.scale == "check":
        spec = spec.at_check_scale()
    builds, state = [], None
    for _ in range(SETUPS):
        state = None  # drop the previous session before building the next
        gc.collect()
        started = time.perf_counter()
        state = spec.build(spec, args.seed, spec.n)
        builds.append(time.perf_counter() - started)
    state.verify = args.scale == "check"
    if args.trace:
        listed = bench["per_layer"]
        metrics, details, reps = per_layer(
            spec, state, args.seed, [m["name"] for m in listed], args.trace_out
        )
    else:
        listed = bench["end_to_end"]
        metrics, details, reps = end_to_end(spec, state, args.seconds, _IMPORT_S + median(builds))
    failed = check_answers(state, reps)
    if spec.check is not None:
        spec.check(state)
    failed += len(state.failures)
    attempted = sum(s.stmts for rep in reps for s in rep)
    for failure in state.failures:
        print("FAILED", failure, file=sys.stderr)
    details.update(
        workload=args.workload, n=spec.n, seed=args.seed, scale=args.scale,
        failed_ops_ratio=failed / attempted,
        # Keyed by a hash of the statement: short_mix alone has hundreds of long texts.
        digests={
            hashlib.sha256(key.encode()).hexdigest()[:12]: value[:16]
            for key, value in state.reference.items()
        },
    )
    units = {m["name"]: m["unit"] for m in listed}
    for name in units:
        print(f"{args.workload:14} {name:32} {metrics[name]:16.6f} {units[name]}")
    print(f"{args.workload:14} {'failed_ops_ratio':32} {failed / attempted:16.6f} ratio ({failed}/{attempted})")
    print("details " + json.dumps(details))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 1 if failed else 0


# ----------------------------------------------------------------------
# The suite: every workload, each trace mode in a fresh child process
# ----------------------------------------------------------------------
def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a git repository


def run_suite(args) -> int:
    bench = contract()
    out = {
        "meta": {
            "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
            "python": platform.python_version(), "nproc": os.cpu_count(), "commit": git_commit(),
        },
        "workloads": {},
    }
    status = 0
    for workload in bench["workloads"]:
        name = workload["name"]
        entry = out["workloads"][name] = {"why": workload["why"]}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--scale", args.scale,
            ]
            if trace and args.trace_out:
                command += ["--trace-out", f"{args.trace_out}.{name}.json"]
            child = subprocess.run(command, capture_output=True, text=True, timeout=600)
            lines = child.stdout.strip().splitlines()
            sys.stderr.write(child.stderr)
            if not lines or not lines[-1].startswith("{"):
                print(f"{name}: trace={trace} printed no result (exit {child.returncode})")
                status = 1
                continue
            print("\n".join(lines[:-2]))
            result = json.loads(lines[-1])
            details = json.loads(lines[-2][len("details "):])
            status |= child.returncode
            entry[section] = {m: v for m, v in result["metrics"].items() if applies(m, name)}
            entry[section + "_details"] = details
            entry.setdefault("attempted", {})[section] = result["attempted"]
            entry.setdefault("failed", {})[section] = result["failed"]
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(out, handle, indent=1, sort_keys=True)
    print("suite:", "FAILED" if status else "ok")
    return status


# ----------------------------------------------------------------------
# --compare A.json B.json
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric): both values, B/A, and the verdict."""
    bench = contract()
    with open(path_a) as a, open(path_b) as b:
        runs = [json.load(a)["workloads"], json.load(b)["workloads"]]
    status = 0
    print(f"{'workload':14} {'metric':20} {'A':>14} {'B':>14} {'B/A (base A)':>14} {'bound':>6} verdict")
    for name in runs[0]:
        sides = [run[name] for run in runs]
        noise = max(side["end_to_end_details"]["rep_spread"] for side in sides)
        for metric in bench["end_to_end"]:
            if metric["name"] not in sides[0]["end_to_end"]:
                continue
            a, b = (side["end_to_end"][metric["name"]]["value"] for side in sides)
            worse_by = (b / a - 1.0) if metric["better"] == "lower" else (a / b - 1.0)
            timed = metric["unit"] != "ratio"
            if worse_by <= metric["bound"]:
                verdict = "ok"
            elif timed and noise > metric["bound"]:
                verdict = "unresolved"  # run-to-run spread is wider than the bound
            else:
                verdict, status = "worse", 1
            print(f"{name:14} {metric['name']:20} {a:14.6f} {b:14.6f} {b / a:14.4f} {metric['bound']:6.2f} {verdict}")
        for section, key in (("end_to_end_details", "digests"), ("per_layer_details", "exact")):
            mine, theirs = (side[section][key] for side in sides)
            differing = [k for k in mine if k in theirs and mine[k] != theirs[k]]
            if differing:
                status = 1
                print(f"{name:14} {key} differ: {differing[:3]}{' ...' if len(differing) > 3 else ''}")
    print("compare:", "FAILED" if status else "ok")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1995)
    parser.add_argument("--seconds", type=float, help="timed window per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "check"), default="full",
                        help="check: n <= 150 and every answer compared with NaiveEvaluator")
    parser.add_argument("--out", help="suite mode: write every workload's numbers to this JSON file")
    parser.add_argument("--trace-out", help="write the traced repetition as Chrome trace_event JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = 0.2 if args.scale == "check" else contract()["run_seconds"]
    return run_workload(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
