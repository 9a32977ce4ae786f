"""Indexed vs serial type J: what the clustered copy saves a band join.

At each size n two sessions register ``j_merge``'s tables ``R`` and ``S``
(n rows each, the wall benchmark's page geometry and seed); the second
also runs ``create_index`` on ``R.V`` and ``S.V``.  Both answer
``j_merge``'s type-J statement.  For each session it reports the minimum
wall seconds over ``--reps`` runs in this one process, then the page reads
and writes of the statement's ledger.  It fails unless the two answers are
equal::

    python benchmarks/index_sweep.py                  # n = 2000 8000
    python benchmarks/index_sweep.py --sizes 500 --reps 3

``benchmarks/test_index_sweep.py`` runs it at small n and asserts counts
only.  The generators are imported read-only from ``wall/``.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), os.path.join(HERE, "wall")]

import workloads  # noqa: E402

SIZES = (2000, 8000)
SEED = 7
SQL = workloads.sql_of("J")


def sessions(n: int, seed: int = SEED) -> dict:
    """``{"serial": plain, "indexed": indexed}`` sessions over the same tables."""
    spec = workloads.WORKLOADS["j_merge"]
    tables = workloads.relations(random.Random(seed), spec.tables, n, spec.fanout)
    out = {path: workloads.session_of(spec, tables) for path in ("serial", "indexed")}
    for name in tables:
        out["indexed"].create_index(name, "V")
    return out


def row_of(n: int, reps: int, seed: int = SEED) -> dict:
    """The two paths' walls (None when ``reps`` is 0), page I/O and answers at ``n``."""
    row = {"n": n}
    answers = {}
    for path, session in sessions(n, seed).items():
        best = None
        for _ in range(reps):
            started = time.perf_counter()
            session.query(SQL)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        answers[path] = session.query(SQL)
        total = session.last_stats.total
        row[path] = {"wall_s": best, "page_reads": total.page_reads, "page_writes": total.page_writes}
    if not answers["indexed"].same_as(answers["serial"], 0.0):
        raise AssertionError(f"n={n}: the indexed answer differs from the serial one")
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--reps", type=int, default=10, help="timed runs per path (0: counts only)")
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    print("| n | serial wall s | indexed wall s | ratio | serial reads / writes | indexed reads / writes |")
    print("|---|---|---|---|---|---|")
    for n in args.sizes:
        row = row_of(n, args.reps, args.seed)
        serial, indexed = row["serial"], row["indexed"]
        if args.reps:
            walls = f"{serial['wall_s']:.4f} | {indexed['wall_s']:.4f} | "
            walls += f"{indexed['wall_s'] / serial['wall_s']:.2f}"
        else:
            walls = "— | — | —"
        print(f"| {n} | {walls} | {serial['page_reads']} / {serial['page_writes']} | "
              f"{indexed['page_reads']} / {indexed['page_writes']} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
