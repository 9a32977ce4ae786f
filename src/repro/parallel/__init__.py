"""Intra-query parallelism over the interval order.

The interval order ``(b(v), e(v))`` of Definition 3.1 is not only the key
the extended merge-join sorts on — it is a perfect *partitioning* key:
ranges of ``b(v)`` split a relation into slices that are order-disjoint,
so each slice can be sorted and merge-joined against its counterpart
independently on its own worker thread, and the per-slice results
concatenate in slice order with no final merge.

Package layout:

* :mod:`repro.parallel.partitioner` — the slice geometry: cut selection,
  endpoint-to-slice mapping, and boundaries sampled from page samples;
* :mod:`repro.parallel.executor` — the shared worker-pool helpers
  (ordered fan-out, linked cancellation, single-typed-error gather) used
  by both the partitioned join and the engines' ``run_batch``;
* :mod:`repro.parallel.join` — the one partitioned band join, over
  sampled slices or a shard placement's (:mod:`repro.shard`).
"""

from .executor import LinkedCancelToken, gather_partitions, run_ordered
from .join import PartitionedBandJoin
from .partitioner import PartitionSpec, RangePartitioner, select_boundaries

__all__ = [
    "LinkedCancelToken",
    "PartitionSpec",
    "PartitionedBandJoin",
    "RangePartitioner",
    "gather_partitions",
    "run_ordered",
    "select_boundaries",
]
