"""The dispatch core every execution engine shares.

The serial/thread, process and cluster engines differ in *transport* —
how a task reaches a worker and how a dead worker is noticed — not in
*bookkeeping*.  :class:`Dispatch` owns all of the bookkeeping as pure
state driven by events, with no I/O (the clock is injectable):

* a worker is idle (:meth:`~Dispatch.pick`) → its next chunk, by datum
  affinity;
* a chunk reported (:meth:`~Dispatch.chunk_done`) → per task: finish,
  retry at time *t*, or quarantine;
* a chunk overran its deadline (:meth:`~Dispatch.chunk_timed_out`) →
  retry at time *t* (the policy's backoff), or finish;
* a worker was lost (:meth:`~Dispatch.worker_lost`) → uncharged
  requeue, or abort with a crash-loop diagnosis.

It owns per-key ``attempts``, the :class:`RetryPolicy` classification
and the delayed-retry heap, the isolated ``on_result`` sink and the
:class:`QueueStats` counting, ``data_id`` grouping into ``chunk_size``
chunks with the :class:`_AffinityMap`, and the ``max_pool_rebuilds``
crash-loop cap.  The thread engine uses only the task-level half
(:meth:`succeed`, :meth:`fail`, :meth:`finish`) under its own condition
variable; its exclusion-aware pick stays with it.

Requeue granularity is one task per chunk after every failure, timeout
or lost worker: a single completed task then resets the crash-loop
counter even while the original chunk keeps finding new ways to die.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Callable

from ..core.errors import Status, error_status
from .faults import RetryPolicy
from .tasks import Task

#: One task outcome as a worker reports it:
#: ``(worker_id, payload, error, status, exec_seconds)``.
Outcome = tuple[int, dict[str, Any] | None, str | None, int, float]


@dataclass
class TaskResult:
    """Outcome of one task attempt (success or final failure)."""

    task: Task
    worker: int
    payload: dict[str, Any] | None = None
    error: str | None = None
    attempts: int = 1
    #: :class:`~repro.core.errors.Status` code of the final failure
    #: (``SUCCESS`` when ``ok``); drives retry classification and the
    #: checkpoint failure ledger.
    status: int = int(Status.SUCCESS)

    @property
    def ok(self) -> bool:
        return self.error is None


class _AffinityMap:
    """Worker-id → datum ownership for the chunked engines.

    The chunk-level analog of :class:`~repro.bench.taskqueue.
    LocalityScheduler`'s ownership claims: every datum is owned by the
    worker that first loaded it, and dispatch routes that datum's chunks
    back to the owner.  An idle worker with no owned or unclaimed work
    *steals* — ownership moves with the steal, so subsequent chunks of
    the stolen datum follow the thief instead of ping-ponging.
    """

    def __init__(self) -> None:
        self.owner: dict[str, int] = {}
        self.loaded: dict[int, set[str]] = defaultdict(set)
        self.hits = 0
        self.misses = 0
        self.steals = 0

    def pick(self, worker: int, pending: deque[list[Task]]) -> list[Task] | None:
        """Choose (and remove) the best pending chunk for *worker*."""
        if not pending:
            return None
        unowned = -1
        for i, chunk in enumerate(pending):
            did = chunk[0].data_id
            if self.owner.get(did) == worker:
                del pending[i]
                self._account(worker, did, len(chunk))
                return chunk
            if unowned < 0 and did not in self.owner:
                unowned = i
        if unowned >= 0:
            chunk = pending[unowned]
            del pending[unowned]
            did = chunk[0].data_id
            self.owner[did] = worker
            self._account(worker, did, len(chunk))
            return chunk
        # Every pending chunk belongs to some busy worker: steal the
        # oldest rather than idle.  Ownership transfers with the steal.
        chunk = pending.popleft()
        did = chunk[0].data_id
        self.owner[did] = worker
        self.steals += 1
        self._account(worker, did, len(chunk))
        return chunk

    def _account(self, worker: int, data_id: str, n_tasks: int) -> None:
        # Per-task accounting: the first task on a worker that has not
        # loaded the datum pays the load (miss); everything after rides
        # the warm copy (hits).
        if data_id in self.loaded[worker]:
            self.hits += n_tasks
        else:
            self.misses += 1
            self.hits += n_tasks - 1
            self.loaded[worker].add(data_id)

    def forget_worker(self, worker: int) -> None:
        """The worker's process died: its warm data died with it."""
        self.loaded.pop(worker, None)


class Dispatch:
    """Retry, quarantine, sink, chunking and crash-loop bookkeeping.

    *stats* is the run's :class:`~repro.bench.taskqueue.QueueStats`;
    every counter the core owns is written there as it happens.  Not
    thread-safe: the thread engine calls it under its own lock.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        stats,
        on_result: Callable[[TaskResult], None] | None = None,
        *,
        max_lost: int = 5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy
        self.stats = stats
        self.on_result = on_result
        self.max_lost = max_lost
        self.clock = clock
        self.results: list[TaskResult] = []
        self.attempts: dict[str, int] = defaultdict(int)
        self.pending: deque[list[Task]] = deque()
        #: Heap of ``(ready_at, seq, chunk)`` retries still backing off.
        self.delayed: list[tuple[float, int, list[Task]]] = []
        self._seq = itertools.count()
        #: worker → (chunk, dispatch time) for every chunk out on a worker.
        self.in_flight: dict[int, tuple[list[Task], float]] = {}
        self.affinity = _AffinityMap()
        self.lost_without_progress = 0
        self.aborted = False

    # -- task level (every engine) -----------------------------------------------
    def finish(self, result: TaskResult) -> None:
        """Report *result* once: through the sink, into results and stats."""
        if self.on_result is not None:
            t0 = time.perf_counter()
            try:
                self.on_result(result)
            except Exception as exc:  # noqa: BLE001 - callback isolation
                # A failing sink (e.g. a checkpoint write) must not kill
                # the run; the task is recorded failed so a restart
                # recomputes it.
                if result.ok:
                    result = TaskResult(
                        result.task,
                        result.worker,
                        error=f"on_result {type(exc).__name__}: {exc}",
                        attempts=result.attempts,
                        status=error_status(exc),
                    )
            self.stats.checkpoint_seconds += time.perf_counter() - t0
        self.results.append(result)
        self.stats.completed += result.ok
        self.stats.failed += not result.ok
        if result.worker >= 0:
            self.stats.per_worker[result.worker] = self.stats.per_worker.get(result.worker, 0) + 1

    def succeed(self, task: Task, worker: int, payload: dict[str, Any] | None) -> None:
        self.attempts[task.key()] += 1
        self.finish(TaskResult(task, worker, payload=payload, attempts=self.attempts[task.key()]))

    def fail(self, task: Task, worker: int, error: str, status: int) -> float | None:
        """Charge one failed attempt.

        Returns the backoff delay (seconds) before the retry may run, or
        ``None`` when the task is finished — retries exhausted, or a
        permanent status quarantined on its first failure.
        """
        key = task.key()
        self.attempts[key] += 1
        attempts = self.attempts[key]
        if self.policy.should_retry(status, attempts):
            self.stats.retries += 1
            delay = self.policy.delay(key, attempts)
            self.stats.backoff_seconds += delay
            return delay
        if self.policy.is_permanent(status):
            self.stats.quarantined += 1
        self.finish(TaskResult(task, worker, error=error, attempts=attempts, status=status))
        return None

    # -- chunk level (process and cluster engines) -------------------------------
    def load(self, tasks: list[Task], chunk_size: int | None) -> None:
        """Group *tasks* by datum and cut each group into dispatch chunks.

        ``chunk_size=None`` makes a datum one chunk (maximum batching);
        smaller chunks interleave datums and exercise affinity routing.
        """
        groups: dict[str, list[Task]] = {}
        for task in tasks:
            groups.setdefault(task.data_id, []).append(task)
        for group in groups.values():
            step = chunk_size or len(group)
            for i in range(0, len(group), step):
                self.pending.append(group[i : i + step])

    @property
    def drained(self) -> bool:
        return not (self.pending or self.delayed or self.in_flight)

    def next_ready_in(self) -> float | None:
        """Seconds until the soonest backed-off retry may run (``None``: none)."""
        if not self.delayed:
            return None
        return max(self.delayed[0][0] - self.clock(), 0.0)

    def pick(self, worker: int) -> list[Task] | None:
        """The next chunk for idle *worker*, now counted in flight on it."""
        now = self.clock()
        while self.delayed and self.delayed[0][0] <= now:
            self.pending.append(heapq.heappop(self.delayed)[2])
        chunk = self.affinity.pick(worker, self.pending)
        if chunk is not None:
            self.in_flight[worker] = (chunk, now)
        return chunk

    def chunk_done(self, worker: int, outcomes: list[Outcome]) -> None:
        """*worker* reported its chunk: charge every task's outcome."""
        chunk, started = self.in_flight.pop(worker)
        self.lost_without_progress = 0
        exec_total = 0.0
        for task, (wid, payload, error, status, exec_s) in zip(chunk, outcomes):
            exec_total += exec_s
            if error is None:
                self.succeed(task, wid, payload)
            else:
                self._retry(task, wid, error, status)
        self.stats.execute_seconds += exec_total
        # Queue wait: the chunk's turnaround outside its own execution
        # (worker backlog + transfer).
        self.stats.queue_wait_seconds += max(self.clock() - started - exec_total, 0.0)

    def overdue(self, timeout: float) -> list[int]:
        """Workers whose chunk overran one deadline per task plus one of grace."""
        now = self.clock()
        return sorted(
            w
            for w, (chunk, started) in self.in_flight.items()
            if now - started > timeout * (len(chunk) + 1)
        )

    def chunk_timed_out(self, worker: int, error: str) -> None:
        """Charge every task of *worker*'s overrun chunk a ``TIMEOUT``.

        Charged, unlike a lost worker: the task may itself be the hang.
        The caller still recycles the worker (:meth:`worker_lost`).
        """
        chunk, _ = self.in_flight.pop(worker)
        for task in chunk:
            self.stats.timeouts += 1
            self._retry(task, -1, error, int(Status.TIMEOUT))

    def worker_lost(self, worker: int, cause: str) -> bool:
        """*worker* died or was killed; its chunk reruns *uncharged*.

        Returns ``False`` when this loss exceeds ``max_lost`` consecutive
        losses without a reported chunk: every remaining task is then
        failed with a crash-loop diagnosis and the run is aborted.
        """
        entry = self.in_flight.pop(worker, None)
        if entry is not None:
            self.pending.extend([task] for task in entry[0])
        self.affinity.forget_worker(worker)
        self.lost_without_progress += 1
        if self.lost_without_progress <= self.max_lost:
            return True
        self.fail_remaining(
            f"TaskFailedError: workers failed {self.lost_without_progress} "
            f"consecutive times without completing any task (last: {cause}); "
            "a worker is crash-looping — aborting the campaign"
        )
        return False

    def fail_remaining(self, diagnosis: str) -> None:
        """Abort: report every unfinished task exactly once, failed."""
        self.aborted = True
        chunks = [chunk for chunk, _ in self.in_flight.values()]
        chunks += self.pending
        chunks += [chunk for _, _, chunk in sorted(self.delayed)]
        self.in_flight.clear()
        self.pending.clear()
        self.delayed.clear()
        for chunk in chunks:
            for task in chunk:
                self.finish(
                    TaskResult(
                        task,
                        -1,
                        error=diagnosis,
                        attempts=max(self.attempts[task.key()], 1),
                        status=int(Status.TASK_FAILED),
                    )
                )

    def export_affinity(self) -> None:
        """Copy affinity counters into the stats (mirrored into the
        locality counters so ``--queue-stats`` compares across engines)."""
        self.stats.affinity_hits = self.stats.locality_hits = self.affinity.hits
        self.stats.affinity_misses = self.stats.locality_misses = self.affinity.misses
        self.stats.affinity_steals = self.affinity.steals

    def _retry(self, task: Task, worker: int, error: str, status: int) -> None:
        delay = self.fail(task, worker, error, status)
        if delay is None:
            return
        if delay > 0.0:
            heapq.heappush(self.delayed, (self.clock() + delay, next(self._seq), [task]))
        else:
            self.pending.append([task])


__all__ = ["Dispatch", "Outcome", "TaskResult"]
