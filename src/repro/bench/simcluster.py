"""Discrete-event simulated cluster (the multi-node substitution).

The paper runs LibPressio-Predict-Bench across supercomputer nodes over
an MPI task queue; this environment has one core and no MPI, so scaling
*behaviour* — how locality-aware placement, local caches, and node
counts shape makespan — is measured on a virtual clock instead.  The
simulator places tasks with the dispatch core's affinity map (the same
ownership rule the live engines route by) and a simple cost model:

* loading an uncached datum costs ``nbytes / load_bandwidth`` (plus a
  per-file latency); a cached datum costs the cache hit time;
* compute costs come from a caller-supplied callable (e.g. measured
  single-task seconds from a real calibration run);
* checkpointing costs ``checkpoint_seconds`` per commit, charged to the
  completing node once every ``flush_every`` results — mirroring the
  real store's buffered-flush batching, so the knob's effect on
  makespan can be explored before a campaign;
* chaos (``chaos=ChaosPlan(...)``) models the queue's fault classes at
  node counts the test box cannot run: a **crash** wastes the attempt's
  work, restarts the node cold (its cache is lost — the locality price
  of recovery), and charges ``recovery_seconds``; a **hang** stalls the
  node for the plan's ``hang_seconds`` before the supervisor abandons
  and requeues; an **exception** fails fast after the load.  Selection
  reuses :meth:`~repro.bench.faults.ChaosPlan.selects` — the same pure
  ``(seed, class, key)`` draw the live harness uses, so a simulated
  campaign faults exactly the tasks a real one with that seed would.

Determinism: no randomness; events tie-break on (time, node id); chaos
decisions are pure functions of the plan seed.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .faults import ChaosPlan
from .dispatch import _AffinityMap
from .tasks import Task


@dataclass
class SimReport:
    """Virtual-time outcome of one simulated campaign."""

    makespan: float
    total_load_seconds: float
    total_compute_seconds: float
    cache_hits: int
    cache_misses: int
    per_node_busy: dict[int, float] = field(default_factory=dict)
    total_checkpoint_seconds: float = 0.0
    checkpoint_commits: int = 0
    #: Chaos accounting (all zero when no plan was given).
    injected_faults: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    #: Attempt-work thrown away by faults (load + partial compute + stalls).
    wasted_seconds: float = 0.0
    #: Virtual time spent restarting crashed nodes.
    recovery_seconds_total: float = 0.0

    @property
    def load_fraction(self) -> float:
        busy = self.total_load_seconds + self.total_compute_seconds
        return self.total_load_seconds / busy if busy else 0.0

    @property
    def utilisation(self) -> float:
        if not self.per_node_busy or self.makespan == 0:
            return 0.0
        return sum(self.per_node_busy.values()) / (len(self.per_node_busy) * self.makespan)


class SimulatedCluster:
    """Simulate a bench campaign on *n_nodes* with a virtual clock."""

    def __init__(
        self,
        n_nodes: int = 4,
        *,
        load_bandwidth: float = 2e9,
        load_latency: float = 5e-3,
        cache_hit_seconds: float = 2e-4,
        cache_capacity_entries: int = 64,
        locality_aware: bool = True,
        checkpoint_seconds: float = 0.0,
        flush_every: int = 1,
    ) -> None:
        self.n_nodes = max(1, int(n_nodes))
        self.load_bandwidth = float(load_bandwidth)
        self.load_latency = float(load_latency)
        self.cache_hit_seconds = float(cache_hit_seconds)
        self.cache_capacity_entries = int(cache_capacity_entries)
        self.locality_aware = bool(locality_aware)
        self.checkpoint_seconds = float(checkpoint_seconds)
        self.flush_every = max(1, int(flush_every))

    def load_cost(self, task: Task, cached: bool) -> float:
        if cached:
            return self.cache_hit_seconds
        return self.load_latency + task.nbytes / self.load_bandwidth

    def run(
        self,
        tasks: list[Task],
        compute_cost: Callable[[Task], float],
        *,
        chaos: ChaosPlan | None = None,
        recovery_seconds: float = 1.0,
    ) -> SimReport:
        """Simulate executing *tasks*; returns the virtual-time report.

        With a :class:`~repro.bench.faults.ChaosPlan`, each supported
        fault class (``crash``, ``hang``, ``exception``) fires at most
        once per task key, selected by the plan's pure seeded draw — no
        marker files, so the simulator stays side-effect free while
        agreeing with the live harness about *which* tasks fault.
        """
        pending: deque[list[Task]] = deque([task] for task in tasks)
        affinity = _AffinityMap() if self.locality_aware else None
        caches: dict[int, deque[str]] = {n: deque() for n in range(self.n_nodes)}
        # Event heap: (time, node) = node becomes free at time.
        events = [(0.0, n) for n in range(self.n_nodes)]
        heapq.heapify(events)
        total_load = 0.0
        total_compute = 0.0
        total_checkpoint = 0.0
        commits = 0
        completed = 0
        hits = 0
        misses = 0
        busy: dict[int, float] = {n: 0.0 for n in range(self.n_nodes)}
        makespan = 0.0
        injected = {"crash": 0, "hang": 0, "exception": 0}
        retries = 0
        wasted = 0.0
        recovery_total = 0.0
        fired: set[tuple[str, str]] = set()

        def fires(kind: str, key: str) -> bool:
            # Once per (class, key), like the live plan's markers — but
            # tracked in memory: the sim must not touch the filesystem.
            if chaos is None or (kind, key) in fired:
                return False
            if chaos.selects(kind, key):
                fired.add((kind, key))
                return True
            return False

        while pending:
            t, node = heapq.heappop(events)
            (task,) = affinity.pick(node, pending) if affinity is not None else pending.popleft()
            cache = caches[node]
            cached = task.data_id in cache
            hits += cached
            misses += not cached
            if not cached:
                cache.append(task.data_id)
                while len(cache) > self.cache_capacity_entries:
                    cache.popleft()
            load_s = self.load_cost(task, cached)
            compute_s = float(compute_cost(task))
            key = task.key()
            if fires("crash", key):
                # Crash mid-compute: the load and half the compute are
                # lost, the node restarts cold, the task is requeued.
                injected["crash"] += 1
                retries += 1
                lost = load_s + 0.5 * compute_s
                wasted += lost
                recovery_total += recovery_seconds
                busy[node] += lost
                # The node comes back cold, so recovery also costs
                # refetches — the locality price of a crash.  It keeps
                # its datum ownership, as a rebuilt process slot does.
                caches[node].clear()
                pending.append([task])
                finish = t + lost + recovery_seconds
                makespan = max(makespan, finish)
                heapq.heappush(events, (finish, node))
                continue
            if fires("hang", key):
                # Hang: the node stalls for the plan's hang duration,
                # then the supervisor abandons the attempt and requeues.
                injected["hang"] += 1
                retries += 1
                lost = load_s + chaos.hang_seconds
                wasted += lost
                busy[node] += lost
                pending.append([task])
                finish = t + lost
                makespan = max(makespan, finish)
                heapq.heappush(events, (finish, node))
                continue
            if fires("exception", key):
                # Fail-fast fault from the metric bridge: the load was
                # already paid, the compute never ran.
                injected["exception"] += 1
                retries += 1
                wasted += load_s
                busy[node] += load_s
                pending.append([task])
                finish = t + load_s
                makespan = max(makespan, finish)
                heapq.heappush(events, (finish, node))
                continue
            completed += 1
            # The completing node pays the commit when the buffered
            # checkpoint batch fills (count-based flush, like the store).
            ck_s = 0.0
            if self.checkpoint_seconds and completed % self.flush_every == 0:
                ck_s = self.checkpoint_seconds
                commits += 1
            total_load += load_s
            total_compute += compute_s
            total_checkpoint += ck_s
            busy[node] += load_s + compute_s + ck_s
            finish = t + load_s + compute_s + ck_s
            makespan = max(makespan, finish)
            heapq.heappush(events, (finish, node))
        if self.checkpoint_seconds and completed % self.flush_every:
            # Tail flush on close: charged after the last completion.
            total_checkpoint += self.checkpoint_seconds
            commits += 1
            makespan += self.checkpoint_seconds
        return SimReport(
            makespan=makespan,
            total_load_seconds=total_load,
            total_compute_seconds=total_compute,
            cache_hits=hits,
            cache_misses=misses,
            per_node_busy=busy,
            total_checkpoint_seconds=total_checkpoint,
            checkpoint_commits=commits,
            injected_faults=injected,
            retries=retries,
            wasted_seconds=wasted,
            recovery_seconds_total=recovery_total,
        )


def scaling_sweep(
    tasks: list[Task],
    compute_cost: Callable[[Task], float],
    node_counts: list[int],
    *,
    chaos: ChaosPlan | None = None,
    recovery_seconds: float = 1.0,
    **cluster_kwargs,
) -> dict[int, SimReport]:
    """Run the same campaign at several node counts (strong scaling).

    A shared ``chaos`` plan faults the *same task keys* at every node
    count (selection is scheduling-independent), so the sweep isolates
    how placement absorbs a fixed fault load.
    """
    return {
        n: SimulatedCluster(n_nodes=n, **cluster_kwargs).run(
            list(tasks), compute_cost, chaos=chaos, recovery_seconds=recovery_seconds
        )
        for n in node_counts
    }
