"""An LRU buffer pool over the simulated disk.

The paper's experiments give both join methods a fixed buffer budget
(2 MB = 256 pages of 8 KB); the nested-loop join deliberately partitions it
as "one page for the inner relation, the rest for the outer".  The pool
provides pinning so join algorithms can hold working pages resident, and it
tracks hits/misses so tests can assert the paper's locality arguments
(e.g. a page of S never being re-read once the merge scan passes it).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Tuple

from ..errors import ResourceExhaustedError
from .disk import SimulatedDisk
from .page import Page

FrameKey = Tuple[str, int]


class BufferExhaustedError(ResourceExhaustedError):
    """All frames are pinned and a new page was requested."""


class BufferPool:
    """A page cache with LRU replacement and pin counts.

    All operations take the pool's internal lock, so one pool may be
    shared by concurrent sessions.
    """

    def __init__(self, disk: SimulatedDisk, capacity: int):
        if capacity < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity
        self._frames: "OrderedDict[FrameKey, Page]" = OrderedDict()
        self._pins: Dict[FrameKey, int] = {}
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get_page(self, file: str, index: int, pin: bool = False) -> Page:
        """Pin and return a page, reading through the LRU pool on a miss."""
        key = (file, index)
        with self._lock:
            if key in self._frames:
                self.hits += 1
                self._frames.move_to_end(key)
            else:
                self.misses += 1
                self._evict_until_free()
                self._frames[key] = self.disk.read_page(file, index)
            if pin:
                self._pins[key] = self._pins.get(key, 0) + 1
            return self._frames[key]

    def unpin(self, file: str, index: int) -> None:
        """Release one pin on a buffered page."""
        key = (file, index)
        with self._lock:
            count = self._pins.get(key, 0)
            if count <= 1:
                self._pins.pop(key, None)
            else:
                self._pins[key] = count - 1

    def unpin_all(self) -> None:
        """Release every pin held on every frame."""
        with self._lock:
            self._pins.clear()

    def resident(self, file: str, index: int) -> bool:
        """Whether the page currently occupies a frame."""
        return (file, index) in self._frames

    @property
    def in_use(self) -> int:
        """Number of currently pinned frames."""
        with self._lock:
            return sum(1 for count in self._pins.values() if count > 0)

    # ------------------------------------------------------------------
    # Replacement
    # ------------------------------------------------------------------
    def _evict_until_free(self) -> None:
        while len(self._frames) >= self.capacity:
            victim = None
            for key in self._frames:  # OrderedDict iterates LRU-first
                if self._pins.get(key, 0) == 0:
                    victim = key
                    break
            if victim is None:
                raise BufferExhaustedError(
                    f"all {self.capacity} frames pinned; cannot load a new page"
                )
            del self._frames[victim]
