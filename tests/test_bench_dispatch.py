"""Model-based tests for the dispatch core every engine shares.

A hypothesis state machine drives :class:`repro.bench.dispatch.Dispatch`
with random sequences of the events the engines feed it — a worker picks
a chunk (with a varying count of live workers), a chunk reports per-task
outcomes (success, transient or permanent failure), a chunk times out, a
worker is lost, time passes — against a fake clock, and checks the
bookkeeping invariants after every step instead of for a handful of
hand-written schedules.
"""

from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.bench import RetryPolicy, Task
from repro.bench.dispatch import Dispatch
from repro.bench.taskqueue import QueueStats
from repro.core import Status

WORKERS = (0, 1, 2)
TRANSIENT = int(Status.TASK_FAILED)
PERMANENT = int(Status.UNSUPPORTED)


def make_tasks(n_data=3, per_data=3):
    return [
        Task(
            data_index=d,
            data_id=f"data/{d}",
            compressor_id="sz3",
            compressor_options={"pressio:abs": 10.0 ** -(k + 2)},
            dataset_config={"entry:data_id": f"data/{d}"},
            replicate=0,
            nbytes=1,
        )
        for d in range(n_data)
        for k in range(per_data)
    ]


class DispatchMachine(RuleBasedStateMachine):
    @initialize(
        chunk_size=st.sampled_from([None, 1, 2]),
        max_retries=st.integers(0, 2),
        base_delay=st.sampled_from([0.0, 0.05]),
        max_lost=st.integers(0, 3),
    )
    def setup(self, chunk_size, max_retries, base_delay, max_lost):
        self.now = 0.0
        self.tasks = make_tasks()
        self.policy = RetryPolicy(max_retries=max_retries, base_delay=base_delay)
        self.stats = QueueStats()
        self.reported: list = []
        self.core = Dispatch(
            self.policy,
            self.stats,
            self.reported.append,
            max_lost=max_lost,
            clock=lambda: self.now,
        )
        self.core.load(self.tasks, chunk_size)
        self.max_lost = max_lost
        #: Model state, kept independently of the core's.
        self.attempts: Counter = Counter()
        self.not_before: dict[str, float] = {}
        self.lost_streak = 0
        self.quarantined = 0
        #: key → workers the task has failed on; exclusion overrides seen.
        self.failed_on: dict[str, set[int]] = {}
        self.overrides = 0

    # -- helpers ------------------------------------------------------------------
    def _finished(self) -> set[str]:
        return {r.task.key() for r in self.reported}

    def _charge(self, task, worker, error_status: int | None, first_report: int) -> None:
        """Model one charged attempt and check the core's decision."""
        key = task.key()
        self.attempts[key] += 1
        n = self.attempts[key]
        finished = [r for r in self.reported[first_report:] if r.task.key() == key]
        if error_status is None:
            assert len(finished) == 1 and finished[0].ok and finished[0].attempts == n
            return
        self.failed_on.setdefault(key, set()).add(worker)
        if self.policy.should_retry(error_status, n):
            assert not finished
            self.not_before[key] = self.now + self.policy.delay(key, n)
            return
        # Finished now.  A permanent status is never retried, so a task
        # whose first attempt fails permanently is quarantined with
        # attempts == 1.
        assert len(finished) == 1 and finished[0].attempts == n
        assert finished[0].status == error_status
        self.quarantined += self.policy.is_permanent(error_status)

    # -- rules --------------------------------------------------------------------
    @precondition(lambda self: not self.core.aborted)
    @rule(worker=st.sampled_from(WORKERS), live=st.integers(1, len(WORKERS)))
    def pick(self, worker, live):
        if worker in self.core.in_flight:
            return
        chunk = self.core.pick(worker, live)
        if chunk is None:
            return
        assert self.core.in_flight[worker][0] is chunk
        for task in chunk:
            assert task.key() not in self._finished()
            # No retry runs before its backoff expires.
            assert self.now >= self.not_before.get(task.key(), 0.0)
            # A retry never reaches a worker it failed on while fewer
            # than `live` workers have failed it; each override counts.
            failed_on = self.failed_on.get(task.key(), set())
            if worker in failed_on:
                assert len(failed_on) >= live
                self.overrides += 1

    @precondition(lambda self: not self.core.aborted and self.core.in_flight)
    @rule(data=st.data())
    def chunk_reports(self, data):
        worker = data.draw(st.sampled_from(sorted(self.core.in_flight)))
        chunk = self.core.in_flight[worker][0]
        kinds = data.draw(
            st.lists(
                st.sampled_from(["ok", "transient", "permanent"]),
                min_size=len(chunk),
                max_size=len(chunk),
            )
        )
        status = {"ok": None, "transient": TRANSIENT, "permanent": PERMANENT}
        outcomes = [
            (
                worker,
                {"ok": 1} if kind == "ok" else None,
                None if kind == "ok" else f"{kind} failure",
                int(Status.SUCCESS) if kind == "ok" else status[kind],
                0.001,
            )
            for kind in kinds
        ]
        first = len(self.reported)
        self.core.chunk_done(worker, outcomes)
        self.lost_streak = 0
        for task, kind in zip(chunk, kinds):
            self._charge(task, worker, status[kind], first)

    @precondition(lambda self: not self.core.aborted and self.core.in_flight)
    @rule(data=st.data())
    def chunk_times_out(self, data):
        worker = data.draw(st.sampled_from(sorted(self.core.in_flight)))
        chunk = self.core.in_flight[worker][0]
        first = len(self.reported)
        self.core.chunk_timed_out(worker, "TaskTimeoutError: deadline")
        for task in chunk:
            self._charge(task, worker, int(Status.TIMEOUT), first)

    @precondition(lambda self: not self.core.aborted)
    @rule(worker=st.sampled_from(WORKERS))
    def worker_lost(self, worker):
        before = dict(self.core.attempts)
        unfinished = {t.key() for t in self.tasks} - self._finished()
        first = len(self.reported)
        alive = self.core.worker_lost(worker, "killed")
        self.lost_streak += 1
        # The worker failed, not the tasks: nothing is charged.
        assert {k: v for k, v in self.core.attempts.items() if v} == {
            k: v for k, v in before.items() if v
        }
        if alive:
            assert self.lost_streak <= self.max_lost
            assert len(self.reported) == first
            return
        # Crash loop: every remaining task fails exactly once, with the
        # diagnosis the CLI and tests key on.
        assert self.lost_streak > self.max_lost
        aborted = self.reported[first:]
        assert sorted(r.task.key() for r in aborted) == sorted(unfinished)
        for r in aborted:
            assert "crash-looping" in r.error
            assert r.status == int(Status.TASK_FAILED)
            assert r.attempts == max(self.attempts[r.task.key()], 1)

    @rule(dt=st.sampled_from([0.01, 0.05, 0.2]))
    def advance(self, dt):
        self.now += dt

    # -- invariants ---------------------------------------------------------------
    @invariant()
    def reported_at_most_once(self):
        keys = [r.task.key() for r in self.reported]
        assert len(keys) == len(set(keys))
        assert self.stats.completed + self.stats.failed == len(self.reported)

    @invariant()
    def quarantine_counted(self):
        assert self.stats.quarantined == self.quarantined

    @invariant()
    def every_exclusion_override_counted(self):
        assert self.stats.exclusion_overrides == self.overrides

    @invariant()
    def attempts_match_model_and_never_decrease(self):
        for key, n in self.core.attempts.items():
            assert n == self.attempts[key]

    @invariant()
    def drained_means_everything_reported(self):
        if self.core.drained or self.core.aborted:
            assert self._finished() == {t.key() for t in self.tasks}

    def teardown(self):
        if not hasattr(self, "core"):
            return
        # Drive the run to completion with healthy workers: whatever the
        # history, the queue drains and reports every task exactly once.
        for _ in range(1000):
            if self.core.drained:
                break
            for worker in WORKERS:
                if worker not in self.core.in_flight:
                    self.core.pick(worker, len(WORKERS))
            for worker in sorted(self.core.in_flight):
                chunk = self.core.in_flight[worker][0]
                self.core.chunk_done(
                    worker, [(worker, {"ok": 1}, None, int(Status.SUCCESS), 0.0)] * len(chunk)
                )
            self.now += 0.05
        assert self.core.drained
        keys = sorted(r.task.key() for r in self.reported)
        assert keys == sorted(t.key() for t in self.tasks)


DispatchMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestDispatchStateMachine = DispatchMachine.TestCase


class TestDispatchUnits:
    def test_fault_free_chunks_follow_affinity_order(self):
        tasks = make_tasks(n_data=2, per_data=3)
        core = Dispatch(RetryPolicy(), QueueStats())
        core.load(tasks, 2)
        assert [len(c) for c in core.pending] == [2, 1, 2, 1]
        first = core.pick(0, 2)
        second = core.pick(1, 2)
        assert first[0].data_id == "data/0" and second[0].data_id == "data/1"

    def test_lost_worker_requeues_single_task_chunks(self):
        core = Dispatch(RetryPolicy(), QueueStats())
        core.load(make_tasks(n_data=1, per_data=3), None)
        chunk = core.pick(0, 1)
        assert len(chunk) == 3
        assert core.worker_lost(0, "killed")
        assert [len(c) for c in core.pending] == [1, 1, 1]
        assert not any(core.attempts.values())

    def test_timeout_retry_waits_for_backoff(self):
        now = [0.0]
        stats = QueueStats()
        core = Dispatch(
            RetryPolicy(base_delay=0.5, jitter=0.0), stats, clock=lambda: now[0]
        )
        core.load(make_tasks(n_data=1, per_data=1), None)
        core.pick(0, 1)
        now[0] = 10.0
        assert core.overdue(1.0) == [0]
        core.chunk_timed_out(0, "TaskTimeoutError: deadline")
        assert stats.timeouts == 1 and stats.backoff_seconds == pytest.approx(0.5)
        assert core.pick(0, 1) is None and core.next_ready_in() == pytest.approx(0.5)
        now[0] = 10.5
        assert core.pick(0, 1) is not None

    def test_retry_stays_off_failed_worker_until_every_live_worker_failed(self):
        stats = QueueStats()
        core = Dispatch(RetryPolicy(max_retries=3, base_delay=0.0), stats)
        core.load(make_tasks(n_data=1, per_data=1), None)
        core.pick(0, 2)
        core.chunk_done(0, [(0, None, "transient failure", TRANSIENT, 0.0)])
        assert core.pick(0, 2) is None  # worker 1 has not failed it yet
        core.pick(1, 2)
        core.chunk_done(1, [(1, None, "transient failure", TRANSIENT, 0.0)])
        assert core.pick(0, 2) is not None  # failed everywhere: override
        assert stats.exclusion_overrides == 1
