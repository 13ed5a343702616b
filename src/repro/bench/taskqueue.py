"""Distributed task queue with locality-aware scheduling and fault
tolerance (the LibDistributed analog of §4.3).

"As data loading times tend to dominate task runtimes for most
compressors ... we attempt to schedule as many jobs with the same data
to the same workers when they are available.  When multiple workers are
not available, we can fall back to single-node processing."

Engines:

* ``serial`` — single worker, deterministic order (the fallback);
* ``thread`` — a pool of worker threads coordinated through a condition
  variable (NumPy kernels release the GIL, so compressor-bound tasks
  overlap);
* ``process`` — N *pinned* single-process executors (one per worker
  slot), for NumPy-bound collection that needs real cores;
* ``cluster`` — worker ranks across nodes
  (:mod:`repro.bench.cluster.engine`).

Every engine is a transport shell around one bookkeeping core,
:class:`~repro.bench.dispatch.Dispatch`: datum chunking with affinity
routing, failed-worker exclusion, retries and their backoff, quarantine,
the isolated ``on_result`` sink, ``QueueStats`` counting, in-flight
tracking with the shared deadline rule, the uncharged requeue after a
lost worker and the crash-loop cap; its module docstring states the
coordination invariants every engine keeps.  The discrete-event
:class:`~repro.bench.simcluster.SimulatedCluster` places tasks with the
same affinity map to *measure* placement quality under a virtual clock.

Fault domains supervised (see :mod:`repro.bench.faults`):

* **exceptions** — classified by :class:`RetryPolicy` into transient
  (retried with exponential backoff + deterministic jitter) and
  permanent (quarantined on first failure: a task asking for an
  unsupported scheme can never succeed, so no attempts are burned);
* **hangs** — with ``task_timeout`` set, a thread, process or cluster
  dispatch is overdue after one deadline per task plus one of grace; a
  watchdog abandons overdue thread tasks (the result of an abandoned
  execution is discarded if it ever arrives), the process engine
  recycles the overrunning worker's slot, since a hung worker process
  cannot be reclaimed any other way, and the serial engine — which has
  no second thread to supervise from — preempts the running task with a
  SIGALRM deadline guard (main thread only).  Timed-out tasks retry
  after the policy's backoff on every engine;
* **worker crashes** — a dead worker process breaks its slot; the queue
  rebuilds it, requeues its in-flight tasks *without* charging them an
  attempt (the pool, not the task, failed), and caps consecutive
  no-progress rebuilds so a crash-looping worker fails the run with a
  diagnosis instead of hanging it.
"""

from __future__ import annotations

import contextlib
import signal
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.errors import Status, TaskTimeoutError, error_status
from .cluster.spec import ClusterSpec
from .dispatch import Dispatch, TaskResult
from .faults import FaultInjector, RetryPolicy  # noqa: F401 - re-exported
from .tasks import Task

ENGINES = ("serial", "thread", "process", "cluster")

#: Warn once per process that the serial deadline cannot be enforced
#: (no SIGALRM on this platform, or running off the main thread).
_ALARM_UNAVAILABLE_WARNED = False


@contextlib.contextmanager
def _serial_deadline(seconds: float | None, task_key: str):
    """Enforce a per-task deadline in the serial engine via SIGALRM.

    The serial engine runs tasks on the calling thread, so the thread
    engine's watchdog (which abandons a hung *other* thread) cannot
    apply — the only preemption available is a signal.  ``setitimer``
    delivers SIGALRM after *seconds*; the handler raises
    :class:`TaskTimeoutError`, which the worker loop's existing fault
    boundary classifies as a retriable ``TIMEOUT``.

    Signals only reach Python code on the main thread of the main
    interpreter; elsewhere (or on platforms without SIGALRM) this guard
    degrades to a no-op with a one-time warning, matching the documented
    "main-thread only" contract.
    """
    global _ALARM_UNAVAILABLE_WARNED
    if seconds is None or seconds <= 0.0:
        yield
        return
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        if not _ALARM_UNAVAILABLE_WARNED:
            _ALARM_UNAVAILABLE_WARNED = True
            warnings.warn(
                "task_timeout cannot be enforced by the serial engine here "
                "(SIGALRM unavailable or not on the main thread); deadlines "
                "are disabled for this run",
                stacklevel=3,
            )
        yield
        return

    def _on_alarm(signum, frame):  # noqa: ARG001 - signal handler signature
        raise TaskTimeoutError(
            f"task exceeded {seconds:g}s deadline (serial SIGALRM guard)",
            task_key=task_key,
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class QueueStats:
    """Aggregate scheduling statistics for one run.

    The three timing buckets give the harness the same per-stage
    treatment the paper applies to prediction schemes: ``queue_wait``
    is worker-idle time spent blocked on the dispatcher, ``execute`` is
    time inside the task function, and ``checkpoint`` is time inside the
    ``on_result`` sink (the SQLite write path).  All are summed across
    workers, in seconds.
    """

    completed: int = 0
    failed: int = 0
    retries: int = 0
    locality_hits: int = 0
    locality_misses: int = 0
    per_worker: dict[int, int] = field(default_factory=dict)
    queue_wait_seconds: float = 0.0
    execute_seconds: float = 0.0
    checkpoint_seconds: float = 0.0
    #: Times a worker ran a task it was excluded from because the task
    #: had already failed on as many workers as were live (the only
    #: sanctioned override).
    exclusion_overrides: int = 0
    #: The engine that actually ran (``n_workers=1`` downgrades to
    #: serial) and the engine the caller asked for — so ``--queue-stats``
    #: output is truthful about what executed.
    engine: str = ""
    requested_engine: str = ""
    #: Tasks quarantined on a permanent (non-retriable) failure.
    quarantined: int = 0
    #: Task executions abandoned past their deadline.
    timeouts: int = 0
    #: Times the process pool was torn down and rebuilt after a crash
    #: or a hung worker.
    pool_rebuilds: int = 0
    #: Total backoff delay scheduled before retries, in seconds.
    backoff_seconds: float = 0.0
    #: Data-plane accounting (see :mod:`repro.dataset.shm`): bytes that
    #: reached a consumer by private copy vs zero-copy mapping/attach.
    bytes_copied: int = 0
    bytes_mapped: int = 0
    #: Worker-pinned affinity accounting (process engine): a hit is a
    #: task dispatched to the worker that already holds its datum, a
    #: miss is a first load, a steal is an idle worker taking over
    #: another worker's datum (ownership transfers with the steal).
    affinity_hits: int = 0
    affinity_misses: int = 0
    affinity_steals: int = 0
    #: Which data plane moved the bytes (``pickle``/``mmap``/``shm``).
    data_plane: str = ""
    #: Cluster engine: worker ranks declared dead (heartbeat timeout or
    #: connection loss) and ranks respawned after a death (spawn mode).
    rank_deaths: int = 0
    rank_restarts: int = 0
    #: Control-plane bytes the coordinator put on / took off the wire.
    wire_bytes_sent: int = 0
    wire_bytes_received: int = 0
    #: Shard-merge accounting (cluster engine, rank-0 side).
    shards_merged: int = 0
    merge_replaced: int = 0
    merge_quarantined: int = 0

    @property
    def locality_rate(self) -> float:
        total = self.locality_hits + self.locality_misses
        return self.locality_hits / total if total else 0.0

    @property
    def affinity_hit_rate(self) -> float:
        total = self.affinity_hits + self.affinity_misses
        return self.affinity_hits / total if total else 0.0

    def stage_summary(self) -> dict[str, float]:
        """Per-stage harness timings, paper-style (seconds)."""
        return {
            "queue_wait": self.queue_wait_seconds,
            "execute": self.execute_seconds,
            "checkpoint": self.checkpoint_seconds,
        }

    def data_plane_summary(self) -> dict[str, Any]:
        """Data-plane movement + affinity counters for reports."""
        return {
            "data_plane": self.data_plane,
            "bytes_copied": self.bytes_copied,
            "bytes_mapped": self.bytes_mapped,
            "affinity_hits": self.affinity_hits,
            "affinity_misses": self.affinity_misses,
            "affinity_steals": self.affinity_steals,
            "affinity_hit_rate": self.affinity_hit_rate,
        }

    def cluster_summary(self) -> dict[str, Any]:
        """Rank fault-domain + wire + merge counters for reports."""
        tasks = max(self.completed + self.failed, 1)
        return {
            "rank_deaths": self.rank_deaths,
            "rank_restarts": self.rank_restarts,
            "wire_bytes_sent": self.wire_bytes_sent,
            "wire_bytes_received": self.wire_bytes_received,
            "wire_bytes_per_task": (
                (self.wire_bytes_sent + self.wire_bytes_received) / tasks
            ),
            "shards_merged": self.shards_merged,
            "merge_replaced": self.merge_replaced,
            "merge_quarantined": self.merge_quarantined,
        }


class TaskQueue:
    """Run tasks through a callable with retries and locality placement.

    Parameters
    ----------
    n_workers:
        Worker count; 1 forces the serial engine (with a warning when a
        parallel engine was requested — the downgrade used to be silent).
    engine:
        ``"serial"``, ``"thread"``, ``"process"`` or ``"cluster"``.
    max_retries:
        Additional attempts per task after a *transient* failure.  A
        task that still fails is reported as failed (not raised) so one
        bad datum cannot sink a campaign — callers inspect
        :class:`TaskResult.ok`.  Shorthand for the default
        :class:`RetryPolicy`; ignored when ``retry_policy`` is given.
    retry_policy:
        Full fault-domain policy: backoff, jitter seed, and which status
        codes are permanent (quarantined on first failure).
    task_timeout:
        Per-task deadline in seconds.  On the thread, process and
        cluster engines a dispatch is overdue once it has run one
        deadline per task plus one of grace (twice the deadline for a
        single task): a watchdog abandons an overdue thread execution,
        and an overdue chunk recycles its worker process or rank.  The
        serial engine enforces the deadline itself, in-line, with a
        SIGALRM guard — main thread only; elsewhere it degrades to a
        no-op with a one-time warning.  Timed-out tasks retry after the
        policy's backoff.  ``None`` (default) disables supervision.
    max_pool_rebuilds:
        Consecutive no-progress worker losses (pool rebuilds, rank
        deaths) tolerated before the run fails with a diagnosis
        (process and cluster engines).
    chunk_size:
        Process- and cluster-engine dispatch granularity: tasks per
        chunk within a datum group.  ``None`` (default) dispatches whole
        groups — maximum batching; a small value interleaves datums
        across workers and lets the affinity map route later chunks back
        to whichever worker loaded the datum first.  The serial and
        thread engines always dispatch single tasks.
    data_plane:
        Label for how bytes move between loader and worker
        (``pickle``/``mmap``/``shm``); recorded in :class:`QueueStats`.
        The plane itself is built by the runner's dataset stack — the
        queue only accounts for it.
    """

    def __init__(
        self,
        n_workers: int = 1,
        engine: str = "serial",
        max_retries: int = 2,
        *,
        retry_policy: RetryPolicy | None = None,
        task_timeout: float | None = None,
        max_pool_rebuilds: int = 5,
        chunk_size: int | None = None,
        data_plane: str = "pickle",
        lock_witness=None,
        cluster: ClusterSpec | None = None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        self.n_workers = max(1, int(n_workers))
        self.requested_engine = engine
        self.cluster = cluster
        if engine == "cluster":
            # Resolve the deployment *now*, not after the caller has
            # paid for dataset init: no launcher environment, no MPI
            # world, and spawning disabled means there is no cluster to
            # run on — downgrade to the process engine with a warning
            # (and let QueueStats stay truthful via requested_engine).
            self.cluster = cluster or ClusterSpec()
            if self.cluster.resolve() is None:
                warnings.warn(
                    "engine 'cluster' found no launcher environment, no "
                    "usable MPI world, and spawning is disabled; falling "
                    "back to 'process'",
                    stacklevel=2,
                )
                engine = "process"
        # A single-worker parallel engine is pointless *except* for the
        # cluster engine, whose one worker is still a separate rank with
        # its own shard (the 1-rank cell of a scaling sweep).
        if self.n_workers == 1 and engine not in ("serial", "cluster"):
            warnings.warn(
                f"engine {engine!r} requires more than one worker; "
                "falling back to 'serial'",
                stacklevel=2,
            )
        self.engine = engine if (self.n_workers > 1 or engine in ("serial", "cluster")) else "serial"
        self.retry_policy = retry_policy or RetryPolicy(max_retries=int(max_retries))
        #: Kept in sync with the policy for backward compatibility.
        self.max_retries = self.retry_policy.max_retries
        self.task_timeout = None if task_timeout is None else float(task_timeout)
        self.max_pool_rebuilds = max(0, int(max_pool_rebuilds))
        if chunk_size is not None and int(chunk_size) < 1:
            raise ValueError("chunk_size must be >= 1 (or None for whole groups)")
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        self.data_plane = data_plane
        #: Optional :class:`~repro.analysis.witness.LockOrderWitness`.
        #: Test-only instrumentation: when set, the threaded engine's
        #: condition lock is wrapped so stress suites can assert the
        #: queue↔checkpoint lock graph stays acyclic.  ``None`` (the
        #: default) adds zero overhead on the hot path.
        self.lock_witness = lock_witness

    def run(
        self,
        tasks: list[Task],
        task_fn: Callable[[Task, int], dict[str, Any]] | None,
        *,
        on_result: Callable[[TaskResult], None] | None = None,
        worker_init: Callable[[], Callable[[Task, int], dict[str, Any]]] | None = None,
        chaos=None,
        merge_store=None,
    ) -> tuple[list[TaskResult], QueueStats]:
        """Execute all tasks; returns (results, stats).

        ``task_fn(task, worker)`` produces the result payload; raising
        triggers a retry (on another worker while one exists), then a
        recorded failure.  ``worker_init`` is an optional zero-argument
        factory returning the task function: the process engine calls it
        once per worker process (per-worker dataset/compressor setup)
        instead of pickling ``task_fn``; the serial/thread engines call
        it once up front when ``task_fn`` is None.

        Cluster-engine extras (ignored elsewhere): ``chaos`` is a
        picklable :class:`~repro.bench.faults.ChaosPlan` shipped to the
        worker ranks (each rank binds its own task function — including
        the ``rank_kill`` class, which only makes sense worker-side),
        and ``merge_store`` is the :class:`CheckpointStore` the rank
        shards are folded into when the campaign drains.  Successful
        cluster results carry ``payload=None`` — the payload's home is
        the rank's shard, and it reaches ``merge_store`` via the merge,
        not the ack.
        """
        if task_fn is None and worker_init is None:
            # A launched cluster *worker* rank receives its task function
            # over the wire (pickled in the coordinator's init message);
            # requiring one locally would make the symmetric "every rank
            # calls queue.run" entry point impossible.
            if not (
                self.engine == "cluster"
                and self.cluster is not None
                and self.cluster.is_worker_rank
            ):
                raise ValueError("one of task_fn or worker_init is required")
        from ..dataset.shm import PLANE_COUNTERS, PlaneCounters

        before = PLANE_COUNTERS.snapshot()
        if self.engine == "cluster":
            from .cluster.engine import run_cluster

            results, stats = run_cluster(
                self,
                tasks,
                task_fn,
                on_result=on_result,
                worker_init=worker_init,
                chaos=chaos,
                merge_store=merge_store,
            )
        elif self.engine == "process":
            results, stats = self._run_process(
                tasks, task_fn, on_result=on_result, worker_init=worker_init
            )
        else:
            if task_fn is None:
                task_fn = worker_init()
            results, stats = self._run_threaded(tasks, task_fn, on_result=on_result)
        # In-process loads (serial/thread always; the process engine's
        # parent rarely loads, and worker-side deltas are shipped back
        # with each chunk's outcomes).
        delta = PlaneCounters.delta(before, PLANE_COUNTERS.snapshot())
        stats.bytes_copied += delta["bytes_copied"]
        stats.bytes_mapped += delta["bytes_mapped"]
        stats.data_plane = self.data_plane
        return results, stats

    # -- serial / thread engines ------------------------------------------------
    def _run_threaded(
        self,
        tasks: list[Task],
        task_fn: Callable[[Task, int], dict[str, Any]],
        *,
        on_result: Callable[[TaskResult], None] | None,
    ) -> tuple[list[TaskResult], QueueStats]:
        """Run single-task chunks on worker threads (or the calling thread).

        A transport shell around :class:`~repro.bench.dispatch.Dispatch`:
        picking, retries, exclusion, in-flight tracking and the deadline
        all live in the core.  What stays here is what threads need —
        the condition variable, the watchdog that abandons an overdue
        execution (a thread cannot be killed, so the hung worker's late
        outcome is dropped via ``abandoned``), and the serial engine's
        SIGALRM guard, since a lone thread has nobody to watch it.
        """
        stats = QueueStats(engine=self.engine, requested_engine=self.requested_engine)
        core = Dispatch(self.retry_policy, stats, on_result)
        core.load(tasks, 1)
        lock = None if self.lock_witness is None else self.lock_witness.wrap(name="taskqueue.cond")
        cond = threading.Condition(lock)
        n_workers = self.n_workers if self.engine == "thread" else 1
        timeout = self.task_timeout
        serial_deadline = timeout if n_workers == 1 else None
        #: Workers stuck in an execution the watchdog gave up on.
        abandoned: set[int] = set()
        stop_watchdog = threading.Event()

        def worker_loop(worker: int) -> None:
            while True:
                with cond:
                    while (chunk := core.pick(worker, n_workers - len(abandoned))) is None:
                        if core.drained:
                            cond.notify_all()
                            return
                        bound = core.next_ready_in()
                        t0 = time.perf_counter()
                        cond.wait(timeout=None if bound is None else bound + 1e-4)
                        stats.queue_wait_seconds += time.perf_counter() - t0
                (task,) = chunk
                error: str | None = None
                status = int(Status.SUCCESS)
                payload: dict[str, Any] | None = None
                t0 = time.perf_counter()
                try:
                    with _serial_deadline(serial_deadline, task.key()):
                        payload = task_fn(task, worker)
                except Exception as exc:  # noqa: BLE001 - fault isolation boundary
                    error = f"{type(exc).__name__}: {exc}"
                    status = error_status(exc)
                elapsed = time.perf_counter() - t0
                with cond:
                    if worker in abandoned:
                        # The watchdog already charged this execution as
                        # a timeout; the worker rejoins the pool and the
                        # stale outcome is dropped.
                        abandoned.discard(worker)
                    else:
                        if serial_deadline is not None and status == int(Status.TIMEOUT):
                            stats.timeouts += 1
                        core.chunk_done(worker, [(worker, payload, error, status, elapsed)])
                    cond.notify_all()

        def watchdog_loop() -> None:
            poll = max(min(timeout / 4.0, 0.25), 0.005)
            while not stop_watchdog.wait(poll):
                with cond:
                    overdue = core.overdue(timeout)
                    for worker in overdue:
                        abandoned.add(worker)
                        core.chunk_timed_out(
                            worker, f"TaskTimeoutError: task exceeded {timeout:g}s deadline"
                        )
                    if overdue:
                        cond.notify_all()

        if n_workers == 1:
            worker_loop(0)
        else:
            threads = [
                threading.Thread(target=worker_loop, args=(w,), daemon=True)
                for w in range(n_workers)
            ]
            for t in threads:
                t.start()
            if timeout is None:
                for t in threads:
                    t.join()
            else:
                # A hung worker never returns, so joining it would hang
                # the queue too; wait for the core to drain instead and
                # leave abandoned daemon threads behind.
                watchdog = threading.Thread(target=watchdog_loop, daemon=True)
                watchdog.start()
                with cond:
                    while not core.drained:
                        cond.wait(timeout=0.05)
                stop_watchdog.set()
                watchdog.join(timeout=1.0)
                for t in threads:
                    t.join(timeout=0.1)
        core.export_affinity()
        return core.results, stats

    # -- process engine ----------------------------------------------------------
    def _run_process(
        self,
        tasks: list[Task],
        task_fn: Callable[[Task, int], dict[str, Any]] | None,
        *,
        on_result: Callable[[TaskResult], None] | None,
        worker_init: Callable[[], Callable[[Task, int], dict[str, Any]]] | None,
    ) -> tuple[list[TaskResult], QueueStats]:
        """Fan tasks out to *pinned* worker processes with datum affinity.

        A transport shell around :class:`~repro.bench.dispatch.Dispatch`,
        which owns chunking, affinity routing, retries and the crash-loop
        cap.  Each worker slot is its own single-process executor, so
        "worker ``w``" names one long-lived OS process whose warm data
        (page cache, shared-memory attach, in-process cache) later chunks
        of its datum reuse; the shipped-back data-plane deltas make the
        saving measurable.  Results stream back to the parent, which owns
        the ``on_result`` sink (so e.g. SQLite sees a single writer).

        What stays here is the pool: make/kill, ``BrokenProcessPool``
        detection, and recycling a slot whose chunk overran its
        deadline.  A broken slot's chunk is requeued uncharged and only
        that slot is rebuilt; the other workers keep their warm state.

        ``worker_init`` (and ``task_fn`` when used directly) must be
        picklable; bound methods carrying open handles are not — pass a
        ``functools.partial`` of a module-level factory instead.
        """
        import multiprocessing as mp
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        stats = QueueStats(engine="process", requested_engine=self.requested_engine)
        core = Dispatch(self.retry_policy, stats, on_result, max_lost=self.max_pool_rebuilds)
        if not tasks:
            return core.results, stats
        core.load(tasks, self.chunk_size)
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork") if "fork" in methods else mp.get_context()

        def make_pool(wid: int) -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=1,
                mp_context=ctx,
                initializer=_process_worker_init,
                initargs=(
                    worker_init,
                    None if worker_init is not None else task_fn,
                    wid,
                ),
            )

        def kill_pool(dead: ProcessPoolExecutor) -> None:
            # A broken or hung pool cannot be drained gracefully: cancel
            # what never started, then terminate the worker process so a
            # hung task cannot outlive its executor.
            procs = list((getattr(dead, "_processes", None) or {}).values())
            try:
                dead.shutdown(wait=False, cancel_futures=True)
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
            for proc in procs:
                try:
                    if proc.is_alive():
                        proc.terminate()
                except Exception:  # noqa: BLE001 - teardown best-effort
                    pass

        pools: dict[int, ProcessPoolExecutor] = {}
        futs: dict[int, Any] = {}  # worker id → its running chunk's future
        broken: dict[int, str] = {}  # worker id → cause, recycled next round
        try:
            while not core.aborted:
                # Recycle broken workers (crash or hang): kill the pool,
                # let the core requeue the chunk uncharged, rebuild lazily.
                for wid in sorted(broken):
                    pool = pools.pop(wid, None)
                    if pool is not None:
                        kill_pool(pool)
                    stats.pool_rebuilds += 1
                    if not core.worker_lost(wid, broken.pop(wid)):
                        break
                if core.aborted:
                    break

                # Dispatch: every free worker takes its best-affinity chunk.
                for wid in range(self.n_workers):
                    if wid in futs:
                        continue
                    chunk = core.pick(wid, self.n_workers)
                    if chunk is None:
                        continue
                    if wid not in pools:
                        pools[wid] = make_pool(wid)
                    try:
                        futs[wid] = pools[wid].submit(_process_run_chunk, chunk)
                    except Exception as exc:  # noqa: BLE001 - broken/shut pool
                        broken[wid] = f"{type(exc).__name__}: {exc}"
                if broken:
                    continue

                if not futs:
                    if core.drained:
                        break
                    # Every free worker is idle: only backed-off retries remain.
                    time.sleep((core.next_ready_in() or 0.0) + 1e-4)
                    continue

                bound = 0.1 if (self.task_timeout is not None or core.delayed) else None
                by_fut = {fut: wid for wid, fut in futs.items()}
                done, _ = wait(list(by_fut), timeout=bound, return_when=FIRST_COMPLETED)
                for fut in done:
                    wid = by_fut[fut]
                    del futs[wid]
                    try:
                        outcomes, plane_delta = fut.result()
                    except BrokenProcessPool as exc:
                        # Worker-level fault: the chunk never reported,
                        # so its tasks rerun uncharged once it is rebuilt.
                        broken[wid] = f"{type(exc).__name__}: {exc}"
                        continue
                    except Exception as exc:  # noqa: BLE001 - chunk-level fault
                        # Attributable to the chunk itself (e.g. an
                        # unpicklable payload): charge the tasks.
                        error = f"{type(exc).__name__}: {exc}"
                        outcomes = [
                            (wid, None, error, int(Status.TASK_FAILED), 0.0)
                        ] * len(core.in_flight[wid][0])
                        plane_delta = {}
                    stats.bytes_copied += plane_delta.get("bytes_copied", 0)
                    stats.bytes_mapped += plane_delta.get("bytes_mapped", 0)
                    core.chunk_done(wid, outcomes)

                if self.task_timeout is not None:
                    # A hung worker process is reclaimable only by
                    # recycling its slot (terminate + rebuild + requeue).
                    for wid in core.overdue(self.task_timeout):
                        if wid in broken:
                            continue
                        core.chunk_timed_out(
                            wid,
                            "TaskTimeoutError: chunk exceeded "
                            f"{self.task_timeout:g}s/task deadline",
                        )
                        del futs[wid]
                        broken[wid] = "hung worker process (deadline exceeded)"
            core.export_affinity()
        finally:
            for wid, pool in pools.items():
                if wid in broken or wid in futs:
                    kill_pool(pool)
                else:
                    pool.shutdown(wait=True)
        return core.results, stats


# -- process-engine worker side (module level: must be picklable) --------------

_WORKER_FN: Callable[[Task, int], dict[str, Any]] | None = None
_WORKER_ID: int = -1


def _process_worker_init(worker_init, task_fn, worker_id: int) -> None:
    """Runs once in each worker process: build the task function there.

    ``worker_id`` arrives by value (each slot is a single-process pool),
    so worker identity is stable across the whole campaign — the parent's
    affinity map and the worker's warm caches agree on who is who.
    """
    global _WORKER_FN, _WORKER_ID
    _WORKER_ID = int(worker_id)
    _WORKER_FN = worker_init() if worker_init is not None else task_fn


def _process_run_chunk(
    chunk: list[Task],
) -> tuple[list[tuple[int, dict[str, Any] | None, str | None, int, float]], dict[str, int]]:
    """Execute one datum chunk sequentially in a worker process.

    Each outcome is ``(worker_id, payload, error, status, exec_seconds)``
    — the status code rides along so the parent's retry policy can
    classify the failure without unpickling exception objects.  The
    second element is the worker's data-plane counter delta for the
    chunk (bytes copied vs mapped), shipped back so the parent's
    ``QueueStats`` can account bytes it never saw move.
    """
    from ..dataset.shm import PLANE_COUNTERS, PlaneCounters

    before = PLANE_COUNTERS.snapshot()
    out: list[tuple[int, dict[str, Any] | None, str | None, int, float]] = []
    for task in chunk:
        t0 = time.perf_counter()
        try:
            payload = _WORKER_FN(task, _WORKER_ID)
            out.append(
                (_WORKER_ID, payload, None, int(Status.SUCCESS), time.perf_counter() - t0)
            )
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            out.append(
                (
                    _WORKER_ID,
                    None,
                    f"{type(exc).__name__}: {exc}",
                    error_status(exc),
                    time.perf_counter() - t0,
                )
            )
    delta = PlaneCounters.delta(before, PLANE_COUNTERS.snapshot())
    return out, {
        "bytes_copied": delta["bytes_copied"],
        "bytes_mapped": delta["bytes_mapped"],
    }
