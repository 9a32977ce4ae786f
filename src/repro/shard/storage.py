"""Sharded placement: N independent disks, band replicas, factor-2 mirrors.

:class:`ShardedStorage` scatters each placed relation across ``n_shards``
independent :class:`~repro.storage.disk.SimulatedDisk` instances.  Node
``i`` carries four heap files per placement, named after the heap file
``NAME`` (``R``, or a later epoch ``R@e2``) it was cut from:

* ``NAME``            — the **primary** slice: tuples whose left endpoint
  ``b(v)`` falls in shard ``i``'s half-open range.
* ``NAME#band``       — the ``Rng(r)`` **overlap band**: replicas of
  tuples whose primary shard is *below* ``i`` but whose support ``[b, e]``
  crosses into shard ``i``'s range (``e >= lower_i``).  PR 5 replicated
  this band into per-query slice files; here it is part of the durable
  placement, so a shard-local merge-join never misses a boundary-crossing
  pair.
* ``NAME#mirror`` / ``NAME#mirrorband`` — a factor-2 **mirror** of node
  ``i-1``'s primary and band (indices mod N), giving every shard exactly
  one replica to fail over to when its home disk dies
  (:class:`~repro.errors.StorageFaultError`).  Primary and band are
  mirrored as separate files because outer-side failover must read the
  primaries *alone* — merging them would duplicate joining pairs.

Because a write places the new epoch beside the old one, a join that
bound an older epoch keeps reading that epoch's placement; it goes with
the epoch (:meth:`ShardedStorage.retire`).

Loading is charged to a scratch ledger (placement happens at
registration, like :meth:`StorageSession.register
<repro.session.StorageSession.register>`); query-time page touches on a
node are charged to the ledger of the slice task that made them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..data.relation import FuzzyRelation
from ..fuzzy.interval_order import sort_key
from ..parallel.partitioner import select_boundaries
from ..storage.disk import SimulatedDisk
from ..storage.heap import HeapFile
from ..storage.stats import OperationStats
from .catalog import ShardCatalog, ShardLayout

#: Suffixes of the four per-relation files a node can carry.  None of
#: them start with ``__`` — placements are durable, not scratch, and the
#: chaos suite's leak check asserts exactly that.
BAND_SUFFIX = "#band"
MIRROR_SUFFIX = "#mirror"
MIRROR_BAND_SUFFIX = "#mirrorband"
SUFFIXES = ("", BAND_SUFFIX, MIRROR_SUFFIX, MIRROR_BAND_SUFFIX)


class ShardNode:
    """One simulated disk plus the heap handles placed on it."""

    def __init__(self, index: int, disk: SimulatedDisk):
        self.index = index
        self.disk = disk
        #: Heap handles by file name (primary, band, and mirror files).
        self.heaps: Dict[str, HeapFile] = {}

    def heap(self, name: str) -> Optional[HeapFile]:
        """The node's heap handle for ``name`` (``None`` if absent)."""
        return self.heaps.get(name)

    def __repr__(self) -> str:
        return f"ShardNode({self.index}, files={sorted(self.heaps)})"


class ShardedStorage:
    """Places relations across N disk nodes and owns their layouts."""

    def __init__(
        self,
        n_shards: int,
        page_size: int = 8 * 1024,
        fixed_tuple_size: Optional[int] = None,
        disks: Optional[List[SimulatedDisk]] = None,
    ):
        #: Pass ``disks`` to run specific nodes on caller-provided devices
        #: — e.g. one :class:`~repro.faults.FaultyDisk` for chaos testing.
        if disks is not None and len(disks) != n_shards:
            raise ValueError(
                f"expected {n_shards} disks, got {len(disks)}"
            )
        self.n_shards = max(2, n_shards)
        self.page_size = page_size
        self.fixed_tuple_size = fixed_tuple_size
        self.nodes = [
            ShardNode(i, disks[i] if disks is not None else SimulatedDisk(page_size=page_size))
            for i in range(self.n_shards)
        ]
        self.catalog = ShardCatalog()
        #: Relation name -> the heap files it has placements of.
        self._sources: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place(
        self,
        name: str,
        relation: FuzzyRelation,
        attribute: str,
        source: str,
        boundaries: Optional[List] = None,
    ) -> ShardLayout:
        """(Re)place a relation across the nodes on ``attribute``.

        Boundaries default to the quantiles of *all* left endpoints
        (:func:`~repro.parallel.partitioner.select_boundaries`); pass an
        explicit list to pin the layout (the property tests drive
        adversarial cuts, :meth:`StorageSession.reshard
        <repro.session.StorageSession.reshard>` drives re-layouts).  Each
        tuple is written to its primary shard, replicated into every
        *adjacent* shard its support crosses into (the band), and both
        slices are mirrored onto the next node.  ``source`` names the heap
        file the relation was read from; the node files carry its name.
        Load I/O is charged to a scratch ledger, like heap registration.
        """
        name = name.upper()
        key_index = relation.schema.index_of(attribute)
        tuples = list(relation.tuples())
        if boundaries is None:
            boundaries = select_boundaries(
                [sort_key(t[key_index])[0] for t in tuples], self.n_shards
            )
        layout = self.catalog.record(name, attribute, boundaries, source)
        if source not in self._sources.setdefault(name, []):
            self._sources[name].append(source)

        primaries: List[List] = [[] for _ in range(self.n_shards)]
        bands: List[List] = [[] for _ in range(self.n_shards)]
        for t in tuples:
            first, last = layout.replica_range(t[key_index])
            first = min(first, self.n_shards - 1)
            last = min(last, self.n_shards - 1)
            primaries[first].append(t)
            for j in range(first + 1, last + 1):
                bands[j].append(t)

        scratch = OperationStats()
        for i, node in enumerate(self.nodes):
            mirror_of = self.nodes[(i + 1) % self.n_shards]
            with node.disk.use_stats(scratch), mirror_of.disk.use_stats(scratch):
                self._load(node, source, relation.schema, primaries[i])
                self._load(node, source + BAND_SUFFIX, relation.schema, bands[i])
                self._load(mirror_of, source + MIRROR_SUFFIX, relation.schema, primaries[i])
                self._load(
                    mirror_of, source + MIRROR_BAND_SUFFIX, relation.schema, bands[i]
                )
        return layout

    def retire(self, name: str, live: Callable[[str], bool]) -> None:
        """Delete the placements of ``name`` whose source heap file
        ``live`` reports gone — never the current one."""
        current = self.layout(name).source
        kept = []
        for source in self._sources.pop(name.upper(), []):
            if source == current or live(source):
                kept.append(source)
                continue
            for node in self.nodes:
                for suffix in SUFFIXES:
                    node.disk.delete(source + suffix)
                    node.heaps.pop(source + suffix, None)
        self._sources[name.upper()] = kept

    def _load(self, node: ShardNode, file_name: str, schema, tuples) -> HeapFile:
        node.disk.delete(file_name)
        heap = HeapFile(file_name, schema, node.disk, self.fixed_tuple_size)
        heap.load(tuples)
        node.heaps[file_name] = heap
        return heap

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    # ``source`` below is a placement's :attr:`ShardLayout.source`.
    def primary(self, shard: int, source: str) -> Optional[HeapFile]:
        """Shard ``shard``'s primary slice of ``source`` on its home node."""
        return self.nodes[shard].heap(source)

    def band(self, shard: int, source: str) -> Optional[HeapFile]:
        """Shard ``shard``'s overlap-band slice on its home node."""
        return self.nodes[shard].heap(source + BAND_SUFFIX)

    def mirror_node(self, shard: int) -> ShardNode:
        """The node carrying shard ``shard``'s mirror (the next node)."""
        return self.nodes[(shard + 1) % self.n_shards]

    def mirror_primary(self, shard: int, source: str) -> Optional[HeapFile]:
        """The mirror of shard ``shard``'s primary slice, on the next node."""
        return self.mirror_node(shard).heap(source + MIRROR_SUFFIX)

    def mirror_band(self, shard: int, source: str) -> Optional[HeapFile]:
        """The mirror of shard ``shard``'s band slice, on the next node."""
        return self.mirror_node(shard).heap(source + MIRROR_BAND_SUFFIX)

    def layout(self, name: str) -> Optional[ShardLayout]:
        """The persisted layout of ``name`` (``None`` if never placed)."""
        return self.catalog.get(name)
