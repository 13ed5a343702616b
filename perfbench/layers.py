"""Per-layer metrics: their definitions and how the traced run gets them.

The layers are the ``repro`` modules on a user's timed path (``analysis``,
a lint tool, is left out).  ``PER_LAYER`` is the source of the
``per_layer`` list in ``BENCHMARK.json``; each entry also names the
end-to-end metric and workload it should move, so a later performance
claim can cite the pairing.  A layer that does no work on a workload
reports 0 there.

``install`` wraps the layers' public entry points for the traced run;
``from_spans`` turns the recorded spans into metric values.  Seconds are
self time (see :mod:`spans`).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from spans import Patcher, Tracer

#: name, unit, better, what it should move (end-to-end metric on workload).
#: ``table2`` is runnable but not in BENCHMARK.json's gated workloads (see
#: ``workloads.Table2``); the layers it stresses are also measured over the
#: serve workload's set-up campaign and publish.
PER_LAYER: list[tuple[str, str, str, str]] = [
    ("dataset.load_s", "s", "lower", "setup_s on serve; run_s on table2"),
    ("dataset.loads", "count", "lower", "setup_s on serve; run_s on table2"),
    ("dataset.shm.bytes_copied", "bytes", "lower", "ops_per_s on collect"),
    ("dataset.shm.bytes_mapped", "bytes", "higher", "ops_per_s on collect"),
    ("compressors.compress_s", "s", "lower",
     "ops_per_s on collect (szx/zfp); setup_s on serve and run_s on table2 (sz3/zfp)"),
    ("compressors.decompress_s", "s", "lower", "ops_per_s on collect; run_s on table2"),
    ("compressors.mb_per_s", "MB/s", "higher", "ops_per_s on collect; run_s on table2"),
    ("compressors.bound_excess", "count", "lower",
     "none: strict bound excesses within half a float32 ulp"),
    ("encoding.huffman_code_lengths_s", "s", "lower",
     "setup_s and tail_ms (whatif misses) on serve; run_s on table2; no change on collect"),
    ("encoding.huffman_code_lengths_calls", "count", "lower",
     "setup_s on serve; run_s on table2; no change on collect"),
    ("encoding.huffman_encode_s", "s", "lower", "setup_s on serve; run_s on table2"),
    ("encoding.huffman_decode_s", "s", "lower", "setup_s on serve; run_s on table2"),
    ("encoding.lossless_s", "s", "lower", "setup_s on serve; run_s on table2"),
    ("predict.error_dependent_s", "s", "lower",
     "ops_per_s on collect; tail_ms on serve (whatif misses); run_s on table2"),
    ("predict.error_agnostic_s", "s", "lower", "tail_ms on serve (whatif misses); run_s on table2"),
    ("predict.evaluate_calls", "count", "lower", "ops_per_s on collect; run_s on table2"),
    ("mlkit.fit_s", "s", "lower", "setup_s on serve (publish); run_s on table2"),
    ("mlkit.fit_calls", "count", "lower", "setup_s on serve (publish); run_s on table2"),
    ("mlkit.predict_many_s", "s", "lower", "ops_per_s and p50_ms on serve (rows phase)"),
    ("mlkit.predict_rows", "count", "higher", "ops_per_s on serve"),
    ("bench.taskqueue.queue_wait_s", "s", "lower", "ops_per_s on collect and collect_cluster"),
    ("bench.taskqueue.execute_s", "s", "lower", "ops_per_s on collect and collect_cluster"),
    ("bench.taskqueue.retries", "count", "lower", "ops_per_s on collect and collect_cluster"),
    ("bench.taskqueue.affinity_hit_rate", "ratio", "higher", "ops_per_s on collect"),
    ("bench.checkpoint.write_s", "s", "lower", "ops_per_s on collect"),
    ("bench.checkpoint.commits", "count", "lower", "ops_per_s on collect"),
    ("bench.checkpoint.verify_s", "s", "lower", "run_s on collect (resume)"),
    ("bench.checkpoint.pending_s", "s", "lower", "run_s on collect (resume)"),
    ("bench.checkpoint.get_s", "s", "lower", "run_s on collect (resume)"),
    ("bench.cluster.wire_bytes_per_task", "bytes", "lower", "ops_per_s on collect_cluster only"),
    ("bench.cluster.merge_s", "s", "lower", "ops_per_s on collect_cluster only"),
    ("bench.cluster.rank_deaths", "count", "lower", "ops_per_s on collect_cluster only"),
    ("serve.server.queue_wait_s", "s", "lower", "p50_ms, tail_ms, ops_per_s on serve"),
    ("serve.server.featurize_s", "s", "lower", "tail_ms and run_s on serve (whatif)"),
    ("serve.server.predict_s", "s", "lower", "p50_ms and ops_per_s on serve"),
    ("serve.server.mean_batch_size", "rows", "higher", "ops_per_s on serve"),
    ("serve.server.shed", "count", "lower", "failed queries on serve"),
    ("serve.featcache.hit_rate", "ratio", "higher", "run_s on serve (whatif); untouched by rows"),
    ("serve.featcache.lookups", "count", "higher", "base of serve.featcache.hit_rate"),
    ("serve.featcache.bytes_saved", "bytes", "higher", "run_s on serve (whatif)"),
    ("serve.featcache.ref_hits", "count", "higher", "run_s on serve (whatif)"),
    ("serve.client.wire_ms", "ms", "lower", "p50_ms on serve (JSON framing, base64 payloads)"),
    ("serve.registry.publish_s", "s", "lower", "setup_s on serve"),
    ("serve.registry.load_s", "s", "lower", "setup_s on serve"),
    ("trace.overhead_pct", "%", "lower", "none: traced over untraced round time, minus 100%"),
]

UNITS = {name: unit for name, unit, _, _ in PER_LAYER}

#: span name -> (seconds metric, outermost-call-count metric)
SPAN_METRICS = {
    "dataset.load": ("dataset.load_s", "dataset.loads"),
    "compressors.compress": ("compressors.compress_s", None),
    "compressors.decompress": ("compressors.decompress_s", None),
    "encoding.huffman_code_lengths": (
        "encoding.huffman_code_lengths_s", "encoding.huffman_code_lengths_calls"
    ),
    "encoding.huffman_encode": ("encoding.huffman_encode_s", None),
    "encoding.huffman_decode": ("encoding.huffman_decode_s", None),
    "encoding.lossless": ("encoding.lossless_s", None),
    "predict.evaluate": (None, "predict.evaluate_calls"),
    "mlkit.fit": ("mlkit.fit_s", "mlkit.fit_calls"),
    "mlkit.predict_many": ("mlkit.predict_many_s", None),
    "bench.checkpoint.write": ("bench.checkpoint.write_s", None),
    "bench.checkpoint.verify": ("bench.checkpoint.verify_s", None),
    "bench.checkpoint.pending": ("bench.checkpoint.pending_s", None),
    "bench.checkpoint.get": ("bench.checkpoint.get_s", None),
    "bench.cluster.merge": ("bench.cluster.merge_s", None),
    "serve.registry.publish": ("serve.registry.publish_s", None),
}


def install(patcher: Patcher) -> None:
    """Wrap every layer's public entry points with span recorders."""
    import repro.compressors  # noqa: F401 - registers every codec subclass
    import repro.predict.schemes  # noqa: F401 - registers every predictor subclass
    from repro.bench.checkpoint import CheckpointStore
    from repro.bench.cluster import shards
    from repro.bench.runner import ExperimentRunner
    from repro.core.compressor import CompressorPlugin
    from repro.dataset.base import DatasetPlugin
    from repro.encoding import huffman, lz
    from repro.predict.evaluator import MetricsEvaluator
    from repro.predict.predictor import PredictorPlugin
    from repro.serve.client import PredictionClient
    from repro.serve.registry import ModelRegistry

    tracer = patcher.tracer

    def count_bytes(args, result, before):
        array = getattr(args[1], "array", args[1])
        tracer.count("compressors.bytes_in", float(np.asarray(array).nbytes))

    def stage_before(args):
        return dict(args[0].stage_seconds)

    def count_stages(args, result, before):
        for bucket, seconds in args[0].stage_seconds.items():
            tracer.count(f"predict.{bucket}_s", seconds - before.get(bucket, 0.0))

    def count_rows(args, result, before):
        tracer.count("mlkit.predict_rows", len(args[1]))

    patcher.method(
        ExperimentRunner, "run_task", "bench.runner.run_task", op_id=lambda a: a[1].key()
    )
    patcher.method(DatasetPlugin, "load_data", "dataset.load")
    patcher.method(CompressorPlugin, "compress", "compressors.compress", count=count_bytes)
    patcher.method(CompressorPlugin, "decompress", "compressors.decompress")
    patcher.function(huffman.huffman_code_lengths, "encoding.huffman_code_lengths")
    patcher.function(huffman.encode, "encoding.huffman_encode")
    patcher.function(huffman.decode, "encoding.huffman_decode")
    patcher.function(lz.lossless_compress, "encoding.lossless")
    patcher.function(lz.lossless_decompress, "encoding.lossless")
    patcher.method(
        MetricsEvaluator, "evaluate", "predict.evaluate",
        snapshot=stage_before, count=count_stages,
    )
    patcher.method(PredictorPlugin, "fit", "mlkit.fit")
    patcher.method(PredictorPlugin, "predict_many", "mlkit.predict_many", count=count_rows)
    for attr in ("put", "put_many", "flush", "merge_rows"):
        patcher.method(CheckpointStore, attr, "bench.checkpoint.write")
    for attr in ("verify", "pending", "get"):
        patcher.method(CheckpointStore, attr, f"bench.checkpoint.{attr}")
    patcher.function(shards.merge_shards, "bench.cluster.merge")
    patcher.method(ModelRegistry, "publish", "serve.registry.publish")
    patcher.method(PredictionClient, "predict", "serve.client.predict")


def from_spans(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round span-derived metrics (totals divided by *rounds*)."""
    out: dict[str, float] = {}
    for span, (self_s, n_calls) in tracer.self_times().items():
        seconds_metric, calls_metric = SPAN_METRICS.get(span, (None, None))
        if seconds_metric is not None:
            out[seconds_metric] = out.get(seconds_metric, 0.0) + self_s / rounds
        if calls_metric is not None:
            out[calls_metric] = out.get(calls_metric, 0.0) + n_calls / rounds
    for name, value in tracer.counters.items():
        if name in UNITS:
            out[name] = out.get(name, 0.0) + value / rounds
    compress_s = out.get("compressors.compress_s", 0.0)
    if compress_s > 0:
        bytes_in = tracer.counters.get("compressors.bytes_in", 0.0) / rounds
        out["compressors.mb_per_s"] = bytes_in / 1e6 / compress_s
    return out


def from_payloads(observations: list[dict[str, Any]], schemes: list[str]) -> dict[str, float]:
    """Compressor and predict metrics from observations' own timings.

    Used where the work ran in worker processes the wrappers cannot see;
    these times are inclusive of nested layers.
    """
    def total(key: str) -> float:
        return sum(float(o.get(key, 0.0)) for o in observations)

    compress = total("time:compress")
    nbytes = total("size:uncompressed_size")
    out = {
        "compressors.compress_s": compress,
        "compressors.decompress_s": total("time:decompress"),
        "compressors.mb_per_s": nbytes / 1e6 / compress if compress > 0 else 0.0,
        "predict.evaluate_calls": float(sum(
            1 for o in observations for s in schemes if o.get(f"scheme:{s}:supported")
        )),
    }
    for bucket in ("error_dependent", "error_agnostic"):
        out[f"predict.{bucket}_s"] = sum(total(f"time:{s}:{bucket}") for s in schemes)
    return out


def task_seconds(obs: dict[str, Any]) -> float:
    """One observation's compute time as the program recorded it."""
    return sum(
        float(v) for k, v in obs.items()
        if k.startswith("time:") and isinstance(v, (int, float)) and not isinstance(v, bool)
    )
