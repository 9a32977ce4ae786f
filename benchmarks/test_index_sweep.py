"""The index sweep at small n: counts only, never wall time.

The indexed type J reads the two clustered copies once each and writes
nothing: no sort runs.  The serial J sorts both inputs, so it writes.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import index_sweep  # noqa: E402


def test_the_indexed_join_reads_the_copies_and_writes_nothing():
    row = index_sweep.row_of(240, reps=0)
    sessions = index_sweep.sessions(240)
    copies = sum(copy.n_pages for copy in sessions["indexed"].indexes.values())
    assert row["indexed"]["page_writes"] == 0
    assert row["indexed"]["page_reads"] == copies
    assert row["serial"]["page_writes"] > 0
