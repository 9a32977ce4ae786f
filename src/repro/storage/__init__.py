"""Paged storage engine with I/O accounting.

Substitutes for the Omron Fuzzy LUNA library's storage layer: slotted 8 KB
pages on a simulated disk, an LRU buffer pool with pinning, heap files, and
the cost model that converts counted events into the paper's "response
time" figures.
"""

from .buffer import BufferExhaustedError, BufferPool
from .costs import MODERN, PAPER_1992, CostModel
from .disk import SimulatedDisk
from .heap import HeapFile
from .page import DEFAULT_PAGE_SIZE, Page, PageFullError
from .serializer import SerializationError, TupleSerializer
from .stats import Counters, OperationStats

__all__ = [
    "Page",
    "PageFullError",
    "DEFAULT_PAGE_SIZE",
    "SimulatedDisk",
    "BufferPool",
    "BufferExhaustedError",
    "HeapFile",
    "TupleSerializer",
    "SerializationError",
    "Counters",
    "OperationStats",
    "CostModel",
    "PAPER_1992",
    "MODERN",
]
