"""Write-size sweep: what one DML statement costs as the table grows.

At each size n a fresh session registers ``ingest_query``'s generated
table ``R`` (n rows, the wall benchmark's page geometry) and runs one
statement:

* ``insert`` — one INSERT of a new row;
* ``update`` — ``UPDATE R SET V = … WHERE K = c``, one victim;
* ``delete_all`` — ``DELETE FROM R WHERE K >= 0``, every row.

For each it reports wall seconds (median of ``--reps`` fresh sessions,
timed before the probes are ever installed), then the statement's
``TupleSerializer.decode`` / ``.encode`` calls (the wall benchmark's
probes) and the page writes of its ledger, from one more run::

    python benchmarks/write_sweep.py                       # n = 1000 2000 4000 8000
    python benchmarks/write_sweep.py --sizes 250 500 --reps 1
    python benchmarks/write_sweep.py --digests --seed 7    # sha256 of every file

``--digests`` instead runs one repetition of ``ingest_query`` (its DML
batches, each followed by the type-J read, then recovery on a restarted
session) and prints the sha256 of every file left on the disk, so two
checkouts can be compared file for file.

``benchmarks/test_write_sweep.py`` runs it at small n and asserts counts
only.  The generators and probes are imported read-only from ``wall/``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), os.path.join(HERE, "wall")]

import probes  # noqa: E402
import workloads  # noqa: E402
from repro.storage.stats import OperationStats  # noqa: E402

SIZES = (1000, 2000, 4000, 8000)
SEED = 7
STATEMENTS = {
    "insert": lambda n: "INSERT INTO R VALUES (5000000, 100.0, '[98.0, 99.0, 101.0, 102.0]') WITH D 0.9",
    "update": lambda n: f"UPDATE R SET V = '[198.0, 199.0, 201.0, 202.0]' WHERE K = {n // 2}",
    "delete_all": lambda n: "DELETE FROM R WHERE K >= 0",
}


def fresh_session(n: int):
    """A session holding ``ingest_query``'s table ``R`` at ``n`` rows."""
    tables = workloads.relations(random.Random(SEED), "R", n, 7)
    return workloads.session_of(workloads.WORKLOADS["ingest_query"], tables)


def wall_s(n: int, sql: str, reps: int) -> float:
    """Median wall seconds of ``sql`` over ``reps`` fresh sessions (set-up untimed)."""
    times = []
    for _ in range(reps):
        session = fresh_session(n)
        started = time.perf_counter()
        session.execute(sql)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def counts(n: int, sql: str) -> dict:
    """Codec calls under the wall probes, and the statement ledger's page writes."""
    session = fresh_session(n)
    tracer = probes.Tracer()
    patches = probes.install(tracer)
    try:
        session.execute(sql)
    finally:
        probes.remove(patches)
    return {
        "decodes": tracer.calls["TupleSerializer.decode"],
        "encodes": tracer.calls["TupleSerializer.encode"],
        "page_writes": session.last_stats.total.page_writes,
    }


def sweep(sizes=SIZES, reps: int = 3) -> list:
    """One row per ``(n, statement)``; ``wall_s`` is None when ``reps`` is 0."""
    cells = [(n, name, make(n)) for n in sizes for name, make in STATEMENTS.items()]
    walls = [wall_s(n, sql, reps) if reps else None for n, _, sql in cells]
    return [
        {"n": n, "statement": name, "wall_s": wall, **counts(n, sql)}
        for (n, name, sql), wall in zip(cells, walls)
    ]


def ingest_digests(seed: int = SEED) -> dict:
    """sha256 of every file on ``ingest_query``'s disk after its batches and recovery."""
    spec = workloads.WORKLOADS["ingest_query"]
    state = spec.build(spec, seed, spec.n)
    spec.rep(state)
    disk = state.disk
    with disk.use_stats(OperationStats()):
        return {
            name: hashlib.sha256(
                b"".join(disk.read_blob(name, i) for i in range(disk.n_pages(name)))
            ).hexdigest()
            for name in disk.files()
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--reps", type=int, default=3, help="timed runs per cell (0: counts only)")
    parser.add_argument("--digests", action="store_true", help="sha256 of ingest_query's files instead")
    parser.add_argument("--seed", type=int, default=SEED, help="--digests: the workload seed")
    args = parser.parse_args(argv)
    if args.digests:
        for name, digest in sorted(ingest_digests(args.seed).items()):
            print(digest, name)
        return 0
    print("| n | statement | wall s | decodes | encodes | page writes |")
    print("|---|---|---|---|---|---|")
    for row in sweep(args.sizes, args.reps):
        wall = "—" if row["wall_s"] is None else f"{row['wall_s']:.4f}"
        print(f"| {row['n']} | {row['statement']} | {wall} | {row['decodes']} | "
              f"{row['encodes']} | {row['page_writes']} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
