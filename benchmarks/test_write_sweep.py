"""The write-size sweep at small n: counts only, never wall time.

A single INSERT and a single-row UPDATE cost the same codec calls at
every n; a DELETE of every row decodes and encodes each row once.  Page
writes still grow with the table (each statement repacks it).
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import write_sweep  # noqa: E402


def test_codec_calls_follow_the_rows_changed():
    sizes = (60, 240)
    cells = {(row["n"], row["statement"]): row for row in write_sweep.sweep(sizes, reps=0)}
    for n in sizes:
        assert cells[n, "insert"]["decodes"] == 0
        assert cells[n, "insert"]["encodes"] == 1
        assert cells[n, "update"]["decodes"] == 1
        assert cells[n, "update"]["encodes"] == 2
        assert cells[n, "delete_all"]["decodes"] == n
        assert cells[n, "delete_all"]["encodes"] == n
    for name in write_sweep.STATEMENTS:
        assert cells[240, name]["page_writes"] >= cells[60, name]["page_writes"]
    assert cells[240, "insert"]["page_writes"] > cells[60, "insert"]["page_writes"]
