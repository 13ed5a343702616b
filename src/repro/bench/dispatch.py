"""The dispatch core every execution engine shares.

The serial, thread, process and cluster engines differ in *transport* —
how a task reaches a worker and how a dead or hung worker is noticed —
not in *bookkeeping*.  :class:`Dispatch` owns all of the bookkeeping as
pure state driven by events, with no I/O (the clock is injectable):

* a worker is idle (:meth:`~Dispatch.pick`) → its next chunk, by datum
  affinity, kept off workers the chunk's tasks failed on;
* a chunk reported (:meth:`~Dispatch.chunk_done`) → per task: finish,
  retry at time *t*, or quarantine;
* a chunk overran its deadline (:meth:`~Dispatch.overdue`,
  :meth:`~Dispatch.chunk_timed_out`) → retry at time *t* (the policy's
  backoff), or finish;
* a worker was lost (:meth:`~Dispatch.worker_lost`) → uncharged
  requeue, or abort with a crash-loop diagnosis.

It owns per-key ``attempts``, the :class:`RetryPolicy` classification
and the delayed-retry heap, failed-worker exclusion, the isolated
``on_result`` sink and the :class:`QueueStats` counting, ``data_id``
grouping into chunks with the :class:`_AffinityMap`, in-flight tracking
with the shared deadline rule, and the ``max_pool_rebuilds`` crash-loop
cap.  Not thread-safe: the thread engine calls it under its own
condition variable.

Coordination invariants (every engine):

* every task is reported exactly once — finished, quarantined, or
  failed by an abort — and ``drained`` holds only when nothing is
  pending, backing off, or in flight, so no engine stops while a task
  that could still fail and need a retry is out on a worker;
* a retry is kept off every worker it failed on until it has failed on
  as many workers as are live (the engine passes that count to
  :meth:`~Dispatch.pick`); only then may a worker it failed on take it,
  and each such override is counted in ``exclusion_overrides``;
* a chunk is overdue once it has run one ``task_timeout`` per task plus
  one of grace; a lost worker's chunk reruns uncharged, one task per
  chunk, so a single completed task resets the crash-loop counter even
  while the original chunk keeps finding new ways to die.
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
    """Worker-id → datum ownership: the paper's locality rule.

    Every datum is owned by the worker that first loaded it, and
    dispatch routes that datum's chunks back to the owner.  A worker
    with no owned work claims an *unowned* datum — without this, N
    workers pulling from a FIFO of N-task-per-datum batches scatter
    every datum across every worker and locality drops to zero exactly
    when it matters most.  A worker with neither *steals* the oldest
    chunk — ownership moves with the steal, so subsequent chunks of the
    stolen datum follow the thief instead of ping-ponging.
    """

    def __init__(self) -> None:
        self.owner: dict[str, int] = {}
        self.loaded: dict[int, set[str]] = defaultdict(set)
        self.hits = 0
        self.misses = 0
        self.steals = 0

    def pick(
        self,
        worker: int,
        pending: deque[list[Task]],
        allowed: Callable[[list[Task]], bool] | None = None,
    ) -> list[Task] | None:
        """Choose (and remove) the best pending chunk for *worker*.

        Chunks failing *allowed* are skipped as if they were not there.
        """
        unowned = oldest = -1
        for i, chunk in enumerate(pending):
            if allowed is not None and not allowed(chunk):
                continue
            owner = self.owner.get(chunk[0].data_id)
            if owner == worker:
                return self._take(worker, pending, i)
            if unowned < 0 and owner is None:
                unowned = i
            if oldest < 0:
                oldest = i
        if unowned >= 0:
            return self._take(worker, pending, unowned)
        if oldest < 0:
            return None
        # Every allowed chunk belongs to some busy worker: steal the
        # oldest rather than idle.
        self.steals += 1
        return self._take(worker, pending, oldest)

    def _take(self, worker: int, pending: deque[list[Task]], i: int) -> list[Task]:
        chunk = pending[i]
        del pending[i]
        did = chunk[0].data_id
        self.owner[did] = worker
        # Per-task accounting: the first task on a worker that has not
        # loaded the datum pays the load (miss); everything after rides
        # the warm copy (hits).
        if did in self.loaded[worker]:
            self.hits += len(chunk)
        else:
            self.misses += 1
            self.hits += len(chunk) - 1
            self.loaded[worker].add(did)
        return chunk

    def forget_worker(self, worker: int) -> None:
        """The worker's process died: its warm data died with it."""
        self.loaded.pop(worker, None)


class Dispatch:
    """Retry, exclusion, quarantine, sink, chunking and crash-loop
    bookkeeping.

    *stats* is the run's :class:`~repro.bench.taskqueue.QueueStats`;
    every counter the core owns is written there as it happens.
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
        #: key → workers the task has failed on (a retry stays off them).
        self.excluded: dict[str, set[int]] = defaultdict(set)
        self.pending: deque[list[Task]] = deque()
        #: Heap of ``(ready_at, seq, chunk)`` retries still backing off.
        self.delayed: list[tuple[float, int, list[Task]]] = []
        self._seq = itertools.count()
        #: worker → (chunk, dispatch time) for every chunk out on a worker.
        self.in_flight: dict[int, tuple[list[Task], float]] = {}
        self.affinity = _AffinityMap()
        self.lost_without_progress = 0
        self.aborted = False

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

    def pick(self, worker: int, live: int) -> list[Task] | None:
        """The next chunk for idle *worker*, now counted in flight on it.

        *live* is how many workers could take a retry right now; a task
        that has failed on that many workers may run on any of them.
        """
        now = self.clock()
        while self.delayed and self.delayed[0][0] <= now:
            self.pending.append(heapq.heappop(self.delayed)[2])
        allowed = None
        if self.excluded:

            def allowed(chunk: list[Task]) -> bool:
                for task in chunk:
                    failed_on = self.excluded.get(task.key(), ())
                    if worker in failed_on and len(failed_on) < live:
                        return False
                return True

        chunk = self.affinity.pick(worker, self.pending, allowed)
        if chunk is None:
            return None
        if self.excluded:
            self.stats.exclusion_overrides += sum(
                worker in self.excluded.get(task.key(), ()) for task in chunk
            )
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
                self.attempts[task.key()] += 1
                self.finish(
                    TaskResult(task, wid, payload=payload, attempts=self.attempts[task.key()])
                )
            else:
                self._fail(task, worker, wid, error, status)
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
        The caller still recycles or abandons the worker.
        """
        chunk, _ = self.in_flight.pop(worker)
        for task in chunk:
            self.stats.timeouts += 1
            self._fail(task, worker, -1, error, int(Status.TIMEOUT))

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

    def _fail(self, task: Task, worker: int, reported_by: int, error: str, status: int) -> None:
        """Charge one failed attempt of *task* on *worker*.

        A transient failure retries after the policy's backoff, kept off
        *worker*; otherwise the task finishes failed (attributed to
        *reported_by*), quarantined when its status is permanent.
        """
        key = task.key()
        self.attempts[key] += 1
        attempts = self.attempts[key]
        if self.policy.should_retry(status, attempts):
            self.stats.retries += 1
            self.excluded[key].add(worker)
            delay = self.policy.delay(key, attempts)
            self.stats.backoff_seconds += delay
            if delay > 0.0:
                heapq.heappush(self.delayed, (self.clock() + delay, next(self._seq), [task]))
            else:
                self.pending.append([task])
            return
        if self.policy.is_permanent(status):
            self.stats.quarantined += 1
        self.finish(TaskResult(task, reported_by, error=error, attempts=attempts, status=status))


__all__ = ["Dispatch", "Outcome", "TaskResult"]
