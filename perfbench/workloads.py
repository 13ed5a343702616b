"""The four workloads, driven through ``repro``'s public API.

Every workload is a closed loop run in *rounds*.  A round sets up its own
state (dataset, checkpoint, queue, or serving fleet), runs the timed
phases and keeps its outputs for the checks.  Rounds of one run repeat the
same inputs, so their times can be reduced to a median and their outputs
compared for determinism.  The seed picks the generated fields and the
query order; the program only ever sees the generated inputs.

* ``table2``: the paper's Table-2 campaign, serial, in-memory checkpoint.
  Compressors, Huffman coding, the predict metrics and forest fitting do
  the work; the harness does almost none.  Not gated (see ``Table2``).
* ``collect`` / ``collect_cluster``: the same cheap-task campaign on the
  process engine (shm data plane) and on the cluster engine (spawned TCP
  ranks writing shards).  Dispatch, data plane and checkpoint commits are
  a large share; Huffman and fitting are bypassed.  A resume pass reads
  the checkpoint the first pass wrote.
* ``serve``: two closed-loop phases over persistent connections to a
  one-worker fleet: precomputed feature rows (model predict, no
  featurization) and raw-field what-if sweeps (featurization and its
  cache, which later passes hit).
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import statistics
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Iterator

import checks
import layers
from spans import Patcher, Tracer

from repro.bench.checkpoint import CheckpointStore
from repro.bench.cluster.spec import ClusterSpec
from repro.bench.runner import ExperimentRunner
from repro.bench.taskqueue import TaskQueue
from repro.core.data import as_data
from repro.dataset.hurricane import FIELDS, HurricaneDataset
from repro.predict.scheme import get_scheme
from repro.serve import (
    ModelRegistry,
    PredictionClient,
    ServeFleet,
    decode_array,
    encode_array,
    registry_key,
    scheme_params,
)

#: Parallelism of every load: worker processes, ranks or connections.
WORKERS = 2
#: The serving fleet's worker processes; its two clients fill the cores.
FLEET_WORKERS = 1


@dataclass
class Round:
    """What one round measured."""

    setup_s: float
    run_s: float
    ops: int
    primary_s: float
    latencies_ms: list[float]
    traced: bool = False
    #: Named figures of the round's phases (``table2_s``, ``resume_s``, ...).
    info: dict[str, float] = field(default_factory=dict)
    #: Per-phase latency samples, for workloads whose phases differ.
    phase_latencies_ms: dict[str, list[float]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    #: Who drives the closed loop, and with what parallelism.
    load = ""
    #: Operations one round attempts (tasks or queries).
    ops_per_round = 0
    #: Names of the round's phases, in order, for the report.
    phases: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        self.problems: list[str] = []
        self.failed_ops = 0
        #: Per-layer metrics measured once per run rather than per round.
        self.run_layers: dict[str, float] = {}

    def setup(self, tracer: Tracer | None) -> float:
        """One-time set-up and warm-up; returns its seconds."""
        return 0.0

    def round(self, index: int, tracer: Tracer | None) -> Round:
        raise NotImplementedError

    def finish(self, rounds: list[Round]) -> None:
        """Run the checks that need every round's outputs."""

    def close(self) -> None:
        """Release what the workload holds (idempotent)."""


@contextlib.contextmanager
def _calls_into_repro(tracer: Tracer | None) -> Iterator[None]:
    """Span wrappers on while *tracer* is given; expected warnings off.

    Partial coverage (jin2022 has no zfp model) warns by design, and the
    checks, not the warnings, decide whether a run is correct.
    """
    with Patcher(tracer or Tracer()) as patcher, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if tracer is not None:
            layers.install(patcher)
        yield


# -- table2 -------------------------------------------------------------------


class Table2(Workload):
    """The paper's end-to-end result, and the only workload where the
    compressors, Huffman coding, the predict metrics and forest fitting do
    most of the work.

    Runnable and checked, but not one of BENCHMARK.json's gated workloads:
    it is serial and entirely CPU-bound, so on a shared two-vCPU host its
    times follow the host's speed drift (ten-seed IQR/median of 0.11 to
    0.27 against the 0.25 bound).  Its layers are also measured over the
    serve workload's set-up campaign."""

    name = "table2"
    load = "closed loop, one serial worker, in-memory checkpoint"
    phases = ("collect", "evaluate")
    shape = (32, 32, 16)
    timesteps = 2
    compressors = ("sz3", "zfp")
    bounds = (1e-6, 1e-4)
    schemes = ("khan2023", "jin2022", "rahman2023")
    n_folds = 3
    ops_per_round = len(FIELDS) * timesteps * len(compressors) * len(bounds)

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.signatures: list[tuple] = []
        self.observations: list[dict[str, Any]] = []

    def _runner(self) -> ExperimentRunner:
        dataset = HurricaneDataset(shape=self.shape, timesteps=self.timesteps, seed=self.seed)
        return ExperimentRunner(
            dataset,
            compressors=self.compressors,
            bounds=self.bounds,
            schemes=self.schemes,
            store=CheckpointStore(":memory:"),
            queue=TaskQueue(1, "serial"),
            n_folds=self.n_folds,
        )

    def setup(self, tracer: Tracer | None) -> float:
        # Warm-up: first compress, evaluate and fit pay lazy imports and
        # caches once, outside every timed phase.
        t0 = time.perf_counter()
        runner = self._runner()
        tasks = runner.build_tasks()
        obs = [runner.run_task(t) for t in (tasks[0], tasks[-1])]
        with _calls_into_repro(None):
            runner.evaluate_scheme(runner.schemes[0], obs[0]["compressor"], obs * 2)
        runner.store.close()
        return time.perf_counter() - t0

    def round(self, index: int, tracer: Tracer | None) -> Round:
        t0 = time.perf_counter()
        runner = self._runner()
        setup_s = time.perf_counter() - t0
        with _calls_into_repro(tracer):
            t1 = time.perf_counter()
            result = runner.collect()
            t2 = time.perf_counter()
            rows = runner.table2(result.observations)
            t3 = time.perf_counter()
        runner.store.close()
        self.problems += checks.collection(result, self.ops_per_round, resumed=False)
        self.problems += checks.table2_rows(rows, self.schemes)
        self.failed_ops += result.stats.failed
        self.signatures.append(checks.medape_signature(rows))
        self.observations = result.observations
        excess, problems = checks.bound_excess(result.observations)
        self.problems += problems
        out = Round(
            setup_s=setup_s,
            run_s=t3 - t1,
            ops=result.stats.completed,
            primary_s=t2 - t1,
            latencies_ms=[layers.task_seconds(o) * 1e3 for o in result.observations],
            traced=tracer is not None,
            info={"table2_s": t3 - t1, "collect_s": t2 - t1, "evaluate_s": t3 - t2},
        )
        out.layers = {
            "compressors.bound_excess": float(excess),
            "bench.taskqueue.queue_wait_s": result.stats.queue_wait_seconds,
            "bench.taskqueue.execute_s": result.stats.execute_seconds,
            "bench.taskqueue.retries": float(result.stats.retries),
            "bench.checkpoint.commits": float(runner.store.commit_count),
        }
        return out

    def finish(self, rounds: list[Round]) -> None:
        self.problems += checks.same_across_rounds(self.signatures, "Table-2 MedAPE")


# -- collect / collect_cluster -------------------------------------------------


class Collect(Workload):
    """Tasks of a few milliseconds, so dispatch, the data plane and
    checkpoint commits are a large share; Huffman and fitting are bypassed.
    The resume pass reads the checkpoint the first pass wrote."""

    name = "collect"
    load = "closed loop, 2 worker processes, shm data plane, file checkpoint"
    engine = "process"
    phases = ("collect", "resume")
    shape = (16, 16, 8)
    timesteps = 12
    compressors = ("szx", "zfp")
    bounds = (1e-2, 1e-3, 1e-4)
    schemes = ("khan2023",)
    flush_every = 16
    samples = 40
    ops_per_round = len(FIELDS) * timesteps * len(compressors) * len(bounds)

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.last_db: str | None = None

    def _dataset(self) -> HurricaneDataset:
        return HurricaneDataset(shape=self.shape, timesteps=self.timesteps, seed=self.seed)

    def _queue(self, rdir: str) -> TaskQueue:
        return TaskQueue(WORKERS, "process")

    def setup(self, tracer: Tracer | None) -> float:
        t0 = time.perf_counter()
        runner = ExperimentRunner(
            self._dataset(), compressors=self.compressors, bounds=self.bounds,
            schemes=self.schemes,
        )
        runner.run_task(runner.build_tasks()[0])
        runner.store.close()
        return time.perf_counter() - t0

    def round(self, index: int, tracer: Tracer | None) -> Round:
        rdir = os.path.join(self.workdir, f"round{index}")
        t0 = time.perf_counter()
        os.makedirs(rdir)
        store = CheckpointStore(os.path.join(rdir, "ckpt.db"), flush_every=self.flush_every)
        runner = ExperimentRunner(
            self._dataset(),
            compressors=self.compressors,
            bounds=self.bounds,
            schemes=self.schemes,
            store=store,
            queue=self._queue(rdir),
            data_plane="shm",
            data_plane_dir=os.path.join(rdir, "plane"),
        )
        setup_s = time.perf_counter() - t0
        try:
            with _calls_into_repro(tracer):
                t1 = time.perf_counter()
                first = runner.collect()
                t2 = time.perf_counter()
                commits = store.commit_count
                resumed = runner.collect()
                t3 = time.perf_counter()
            if store.commit_count != commits:
                self.problems.append("the resume pass wrote to the checkpoint")
            corrupt = store.verify()
        finally:
            runner.close()
            store.close()
        n = self.ops_per_round
        self.problems += checks.collection(first, n, resumed=False)
        self.problems += checks.collection(resumed, n, resumed=True)
        if corrupt:
            self.problems.append(f"checkpoint verify found {len(corrupt)} corrupt row(s)")
        stats = first.stats
        if stats.rank_deaths:
            self.problems.append(f"{stats.rank_deaths} rank death(s) void the run")
        if stats.engine != self.engine:
            self.problems.append(f"{self.engine} engine ran as {stats.engine!r}")
        self.failed_ops += stats.failed
        excess, problems = checks.bound_excess(first.observations)
        self.problems += problems
        self.last_db = os.path.join(rdir, "ckpt.db")
        out = Round(
            setup_s=setup_s,
            run_s=t3 - t1,
            ops=stats.completed,
            primary_s=t2 - t1,
            latencies_ms=[layers.task_seconds(o) * 1e3 for o in first.observations],
            traced=tracer is not None,
            info={
                "collect_tasks_per_s": stats.completed / (t2 - t1),
                "collect_s": t2 - t1,
                "resume_s": t3 - t2,
            },
        )
        cluster = stats.cluster_summary()
        out.layers = {
            **layers.from_payloads(first.observations, list(self.schemes)),
            "compressors.bound_excess": float(excess),
            "dataset.shm.bytes_copied": float(stats.bytes_copied),
            "dataset.shm.bytes_mapped": float(stats.bytes_mapped),
            "bench.taskqueue.queue_wait_s": stats.queue_wait_seconds,
            "bench.taskqueue.execute_s": stats.execute_seconds,
            "bench.taskqueue.retries": float(stats.retries),
            "bench.taskqueue.affinity_hit_rate": stats.affinity_hit_rate,
            "bench.checkpoint.commits": float(commits),
            "bench.cluster.wire_bytes_per_task": (
                cluster["wire_bytes_per_task"] if self.engine == "cluster" else 0.0
            ),
            "bench.cluster.rank_deaths": float(cluster["rank_deaths"]),
        }
        return out

    def finish(self, rounds: list[Round]) -> None:
        """Recompute seeded sample tasks serially and compare exactly."""
        if self.last_db is None:
            return
        runner = ExperimentRunner(
            self._dataset(), compressors=self.compressors, bounds=self.bounds,
            schemes=self.schemes,
        )
        tasks = runner.build_tasks()
        rng = random.Random(self.seed)
        with CheckpointStore(self.last_db) as stored:
            for task in rng.sample(tasks, min(self.samples, len(tasks))):
                fresh = runner.run_task(task)
                self.problems += checks.recomputed(stored.get(task.key()), fresh, task.key())
        runner.store.close()


class CollectCluster(Collect):
    """The collect tasks on the cluster engine: the only workload that runs
    wire frames, rank shard writes and the shard merge, on tasks identical
    to the process engine's."""

    name = "collect_cluster"
    load = "closed loop, 2 spawned local TCP ranks writing shards"
    engine = "cluster"

    def _queue(self, rdir: str) -> TaskQueue:
        return TaskQueue(
            WORKERS, "cluster", cluster=ClusterSpec(shard_dir=os.path.join(rdir, "shards"))
        )


# -- serve ------------------------------------------------------------------


class Serve(Workload):
    """The only workload for server batching, the wire format, the
    featurization cache and served prediction.  The rows phase bypasses
    featurization; in the what-if phase misses fill the cache and later
    passes hit it (rahman2023 shares entries across bounds, jin2022 runs
    its Huffman probe on every miss)."""

    name = "serve"
    load = "closed loop, 2 persistent connections to a 1-worker fleet"
    phases = ("rows", "whatif")
    bound_pair = (1e-6, 1e-4)
    campaign_shape = (16, 16, 8)
    campaign_timesteps = 2
    schemes = ("rahman2023", "khan2023", "jin2022")
    rows_schemes = ("rahman2023", "khan2023")
    whatif_schemes = ("rahman2023", "jin2022")
    whatif_shape = (32, 32, 16)
    whatif_fields = 6
    whatif_passes = 4
    rows_queries = 600
    #: Campaign-and-publish repetitions; the set-up time takes their median.
    setup_repeats = 3
    ops_per_round = rows_queries + whatif_fields * 4 * whatif_passes
    counters = (
        "requests", "completed", "failed", "shed", "predict_calls", "batched_rows",
        "feat_hits", "feat_misses", "feat_ref_hits", "feat_bytes_saved",
        "queue_wait_seconds", "featurize_seconds", "predict_seconds",
    )

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.registry: ModelRegistry | None = None
        self.fleet: ServeFleet | None = None
        self.rows: list[tuple[str, int, dict[str, Any]]] = []
        self.payloads: list[dict[str, Any]] = []
        self.whatif: list[tuple[str, int]] = []
        self.rows_seen: list[tuple[tuple[str, int], dict[str, Any]]] = []
        self.whatif_seen: list[tuple[tuple[str, int], dict[str, Any]]] = []

    def _key(self, scheme_id: str, bound: float) -> str:
        scheme = get_scheme(scheme_id)
        return registry_key(
            scheme.id, "sz3", {"pressio:abs": bound, "pressio:abs_is_relative": True},
            scheme_params(scheme),
        )

    def setup(self, tracer: Tracer | None) -> float:
        """Campaign and publish (median of ``setup_repeats``), query encoding.

        Only the last repetition is traced and kept.
        """
        campaign_s = []
        for k in range(self.setup_repeats):
            t0 = time.perf_counter()
            with _calls_into_repro(tracer if k == self.setup_repeats - 1 else None):
                dataset = HurricaneDataset(
                    shape=self.campaign_shape, timesteps=self.campaign_timesteps,
                    seed=self.seed,
                )
                runner = ExperimentRunner(
                    dataset, compressors=("sz3",), bounds=self.bound_pair,
                    schemes=self.schemes,
                )
                observations = runner.collect().observations
                self.registry = ModelRegistry(os.path.join(self.workdir, f"registry{k}"))
                receipts = runner.publish(self.registry, observations)
                runner.store.close()
            campaign_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        expected = len(self.schemes) * len(self.bound_pair)
        if len(receipts) != expected:
            self.problems.append(f"published {len(receipts)} models, expected {expected}")
        rng = random.Random(self.seed)
        pool = [
            (self._key(s, b), i, o)
            for s in self.rows_schemes
            for b in self.bound_pair
            for i, o in enumerate(observations)
            if o.get(f"scheme:{s}:supported") and float(o["bound"]) == b
        ]
        rng.shuffle(pool)
        self.rows = [pool[i % len(pool)] for i in range(self.rows_queries)]
        fields = rng.sample(FIELDS, self.whatif_fields)
        source = HurricaneDataset(
            shape=self.whatif_shape, timesteps=1, fields=fields, seed=self.seed
        )
        self.payloads = [encode_array(source.load_data(i).array) for i in range(len(fields))]
        sweep = [
            (self._key(s, b), f)
            for s in self.whatif_schemes
            for b in self.bound_pair
            for f in range(len(fields))
        ]
        for _ in range(self.whatif_passes):
            rng.shuffle(sweep)
            self.whatif += sweep
        return statistics.median(campaign_s) + time.perf_counter() - t0

    def _phase(self, name, queries, send, tracer) -> tuple[float, list, list[float]]:
        """Fire *queries* over WORKERS persistent connections, closed loop.

        Traced, each query is a span carrying its ``phase:index`` id.
        """
        assert self.fleet is not None
        address = self.fleet.address
        shares = [list(range(i, len(queries), WORKERS)) for i in range(WORKERS)]
        responses: list[Any] = [None] * len(queries)
        latencies = [0.0] * len(queries)
        clients = [PredictionClient(*address, overload_retries=0) for _ in range(WORKERS)]
        for client in clients:
            client.ping()  # dial outside the timed phase
        barrier = threading.Barrier(WORKERS + 1)

        def worker(i: int) -> None:
            client = clients[i]
            barrier.wait()
            for q in shares[i]:
                t = time.perf_counter()
                try:
                    if tracer is None:
                        responses[q] = send(client, queries[q])
                    else:
                        responses[q] = tracer.call(
                            "serve.query", send, (client, queries[q]), {}, op_id=f"{name}:{q}"
                        )
                except Exception as exc:  # noqa: BLE001 - a failed query is counted
                    responses[q] = {"status": f"error: {exc}"}
                latencies[q] = (time.perf_counter() - t) * 1e3

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(WORKERS)]
        for t in threads:
            t.start()
        barrier.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        for client in clients:
            client.close()
        return wall, responses, latencies

    def _stats(self) -> dict[str, Any]:
        assert self.fleet is not None
        return self.fleet.stats()["aggregate"]

    def round(self, index: int, tracer: Tracer | None) -> Round:
        # A fresh fleet per round: every round starts with a cold
        # featurization cache, so rounds repeat the same miss/hit mix.
        t0 = time.perf_counter()
        self.fleet = ServeFleet(
            self.registry.root, FLEET_WORKERS, feat_cache="shared",
            feat_cache_dir=os.path.join(self.workdir, f"featcache{index}"),
        ).start()
        with PredictionClient(*self.fleet.address) as client:
            for key in {k for k, _, _ in self.rows} | {k for k, _ in self.whatif}:
                client.predict(key, results=self.rows[0][2])  # the model's cold load
        setup_s = time.perf_counter() - t0
        s0 = self._stats()
        with _calls_into_repro(tracer):
            rows_s, rows_resp, rows_lat = self._phase(
                "rows", self.rows, lambda c, q: c.predict(q[0], results=q[2]), tracer
            )
            s1 = self._stats()
            whatif_s, what_resp, what_lat = self._phase(
                "whatif", self.whatif, lambda c, q: c.predict(q[0], data=self.payloads[q[1]]),
                tracer,
            )
        s2 = self._stats()
        restarts = sum(self.fleet.restart_counts().values())
        self.fleet.stop()
        self.fleet = None
        shutil.rmtree(os.path.join(self.workdir, f"featcache{index}"), ignore_errors=True)
        if restarts:
            self.problems.append(f"{restarts} fleet worker restart(s) void the run")
        d_rows, p1 = checks.counter_deltas(s0, s1, self.counters)
        d_what, p2 = checks.counter_deltas(s1, s2, self.counters)
        self.problems += p1 + p2
        rows_failed = sum(1 for r in rows_resp if r.get("status") != "ok")
        self.failed_ops += rows_failed + sum(1 for r in what_resp if r.get("status") != "ok")
        if d_rows["shed"] + d_what["shed"]:
            self.problems.append(f"{d_rows['shed'] + d_what['shed']} quer(ies) shed")
        self.rows_seen += [((k, i), r) for (k, i, _), r in zip(self.rows, rows_resp)]
        self.whatif_seen += [(q, r) for q, r in zip(self.whatif, what_resp)]
        wire = [
            lat - sum(r["timings"].values())
            for lat, r in zip(rows_lat + what_lat, rows_resp + what_resp)
            if r.get("status") == "ok"
        ]
        lookups = d_what["feat_hits"] + d_what["feat_misses"]
        both = {n: d_rows[n] + d_what[n] for n in self.counters}
        out = Round(
            setup_s=setup_s,
            run_s=rows_s + whatif_s,
            ops=len(self.rows) - rows_failed,
            primary_s=rows_s,
            latencies_ms=rows_lat + what_lat,
            traced=tracer is not None,
            info={
                "serve_rows_qps": len(self.rows) / rows_s,
                "serve_whatif_qps": len(self.whatif) / whatif_s,
            },
            phase_latencies_ms={"serve_rows": rows_lat, "serve_whatif": what_lat},
        )
        out.layers = {
            "serve.server.queue_wait_s": both["queue_wait_seconds"],
            "serve.server.featurize_s": both["featurize_seconds"],
            "serve.server.predict_s": both["predict_seconds"],
            "serve.server.mean_batch_size": (
                both["batched_rows"] / both["predict_calls"] if both["predict_calls"] else 0.0
            ),
            "serve.server.shed": float(both["shed"]),
            "serve.featcache.hit_rate": d_what["feat_hits"] / lookups if lookups else 0.0,
            "serve.featcache.lookups": float(lookups),
            "serve.featcache.bytes_saved": float(d_what["feat_bytes_saved"]),
            "serve.featcache.ref_hits": float(d_what["feat_ref_hits"]),
            "serve.client.wire_ms": statistics.median(wire) if wire else 0.0,
            "mlkit.predict_many_s": both["predict_seconds"],
            "mlkit.predict_rows": float(both["batched_rows"]),
        }
        return out

    def finish(self, rounds: list[Round]) -> None:
        """Served answers equal the in-process evaluator and predictor."""
        assert self.registry is not None
        models = {}
        load_s = []
        for key in {k for (k, _), _ in self.rows_seen + self.whatif_seen}:
            t0 = time.perf_counter()
            models[key] = self.registry.load(key)
            load_s.append(time.perf_counter() - t0)
        self.run_layers["serve.registry.load_s"] = statistics.median(load_s)
        by_row = {(k, i): o for k, i, o in self.rows}
        expected = {}
        for ident, row in by_row.items():
            expected[ident] = _predict(models[ident[0]], dict(row))
        self.problems += checks.answers(self.rows_seen, expected, "rows")
        expected = {}
        for key, f in set(self.whatif):
            model = models[key]
            data = as_data(decode_array(self.payloads[f]))
            evaluator = model.scheme.req_metrics_opts(model.compressor)
            expected[(key, f)] = _predict(model, dict(evaluator.evaluate(data)))
        self.problems += checks.answers(self.whatif_seen, expected, "whatif")

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None


def _predict(model, row: dict[str, Any]) -> float:
    """The server's featurize-then-predict path, in process."""
    for name, value in model.scheme.config_features(model.compressor).items():
        row.setdefault(name, value)
    return float(model.predictor.predict_many([row])[0])


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Table2, Collect, CollectCluster, Serve)
}
