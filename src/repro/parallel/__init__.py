"""Intra-query parallelism over the interval order.

The interval order ``(b(v), e(v))`` of Definition 3.1 is not only the key
the extended merge-join sorts on — it is a perfect *partitioning* key:
ranges of ``b(v)`` split a relation into slices that are order-disjoint,
so each slice can be sorted and merge-joined against its counterpart
independently on its own worker thread, and the per-slice results
concatenate in partition order with no final merge.

Package layout:

* :mod:`repro.parallel.partitioner` — picks ``b(v)`` boundary values from
  page samples so partitions come out roughly equal in pages;
* :mod:`repro.parallel.executor` — the shared worker-pool helpers
  (ordered fan-out, linked cancellation, single-typed-error gather) used
  by both the partitioned join and the engines' ``run_batch``;
* :mod:`repro.parallel.join` — the partitioned merge-join: the outer
  side's disjoint partitioning pass and the inner-side overlap-band
  replication that keeps results bit-identical to the serial path.
"""

from .executor import LinkedCancelToken, gather_partitions, run_ordered
from .join import PartitionedMergeJoin, replicate_inner
from .partitioner import PartitionSpec, RangePartitioner

__all__ = [
    "LinkedCancelToken",
    "PartitionSpec",
    "PartitionedMergeJoin",
    "RangePartitioner",
    "gather_partitions",
    "replicate_inner",
    "run_ordered",
]
