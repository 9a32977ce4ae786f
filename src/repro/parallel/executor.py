"""Worker-pool plumbing shared by every parallel code path.

Two fan-out shapes live here:

* :func:`run_ordered` — the *inter*-query helper behind both engines'
  ``run_batch``: independent jobs, results in input order, serial loop
  when ``workers <= 1``.  Extracted so the worker/cancellation behaviour
  of :class:`repro.session.StorageSession` and
  :class:`repro.db.FuzzyDatabase` cannot drift apart.
* :func:`gather_partitions` — the *intra*-query helper behind the
  partitioned band join: slice tasks share a
  :class:`LinkedCancelToken`, a fault in any worker cancels the siblings
  at their next page access, and exactly one typed error surfaces to the
  caller (preferring the root-cause fault over the sibling
  cancellations it triggered).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

from ..errors import QueryCancelledError
from ..resilience import CancelToken

T = TypeVar("T")


def run_ordered(
    jobs: Sequence[T],
    fn: Callable[[T], object],
    workers: int = 1,
) -> List[object]:
    """Apply ``fn`` to every job, optionally across worker threads.

    Results come back in input order regardless of completion order; with
    ``workers <= 1`` this is a plain serial loop (the differential tests
    assert both modes produce bit-identical results).  The first exception
    in input order propagates, exactly like the serial loop's would.
    """
    jobs = list(jobs)
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


class LinkedCancelToken(CancelToken):
    """A cancel token that also honours an optional outer token.

    Partition workers run under one shared linked token: the coordinator
    (or a failing sibling) cancels it to stop every worker, while a
    cancellation of the user's *outer* token is observed through the link
    without the coordinator having to forward it.
    """

    def __init__(self, outer: Optional[CancelToken] = None):
        super().__init__()
        self.outer = outer

    @property
    def cancelled(self) -> bool:
        """Set when either this token or the linked outer token fired."""
        if self.outer is not None and self.outer.cancelled:
            return True
        return self._event.is_set()


def gather_partitions(
    tasks: Sequence[Callable[[CancelToken], T]],
    workers: int,
    cancel: Optional[CancelToken] = None,
) -> List[T]:
    """Run partition tasks concurrently with linked sibling cancellation.

    Each task receives the shared :class:`LinkedCancelToken`; it must
    install a guard over it so the disk's per-page checks observe the
    cancellation.  When a task fails, the linked token is cancelled —
    siblings stop at their next page access — and the *root cause*
    surfaces: the first non-cancellation error in partition order, or the
    first :class:`~repro.errors.QueryCancelledError` when the outer token
    itself fired.  On success the results come back in partition order.
    """
    linked = LinkedCancelToken(cancel)

    def run(task: Callable[[CancelToken], T]) -> T:
        try:
            return task(linked)
        except BaseException:
            linked.cancel()
            raise

    outcomes: List[object] = []
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        futures = [pool.submit(run, task) for task in tasks]
        for future in futures:
            try:
                outcomes.append(future.result())
            except BaseException as exc:  # gathered below, one error surfaces
                outcomes.append(exc)
    errors = [o for o in outcomes if isinstance(o, BaseException)]
    if errors:
        for error in errors:
            if not isinstance(error, QueryCancelledError):
                raise error
        raise errors[0]
    return outcomes
