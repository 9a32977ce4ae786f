"""Sorted-run bookkeeping for the external merge sort.

Runs hold encoded records exactly as the source pages did: nothing here
builds a tuple, so a record keeps its bytes from input page to output page.
"""

from __future__ import annotations

import itertools
from typing import List

from ..storage.disk import SimulatedDisk
from ..storage.page import Page

_run_counter = itertools.count()


def fresh_run_name(base: str) -> str:
    """A unique scratch-file name for one sorted run."""
    return f"__run_{base}_{next(_run_counter)}"


class RunWriter:
    """Writes a sorted run of records to a scratch disk file, page by page."""

    def __init__(self, disk: SimulatedDisk, name: str):
        self.disk = disk
        self.name = name
        self.n_tuples = 0
        self._page = Page(disk.page_size)
        if not disk.exists(name):
            disk.create(name)

    def append(self, record: bytes) -> None:
        """Add one encoded record to the run, spilling the page when it fills."""
        if not self._page.fits(record):
            self.disk.append_page(self.name, self._page)
            self._page = Page(self.disk.page_size)
        self._page.append(record)
        self.n_tuples += 1

    def close(self) -> None:
        """Flush the final partial page to disk."""
        if len(self._page):
            self.disk.append_page(self.name, self._page)
            self._page = Page(self.disk.page_size)

    def discard(self) -> None:
        """Drop the buffered page without flushing (error-path close)."""
        self._page = Page(self.disk.page_size)


def drop_runs(disk: SimulatedDisk, names: List[str]) -> None:
    """Delete intermediate run files from the simulated disk."""
    for name in names:
        disk.delete(name)
