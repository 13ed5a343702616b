"""Tests of the benchmark itself: determinism, seeding, and checks that fire.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import layers
import run
from spans import Patcher, Tracer
from workloads import Collect, Serve, Table2

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class TinyTable2(Table2):
    shape = (16, 16, 8)
    timesteps = 1
    ops_per_round = 13 * 1 * 2 * 2


class TinyCollect(Collect):
    shape = (16, 16, 8)
    timesteps = 1
    ops_per_round = 13 * 1 * 2 * 3


# -- same seed, same inputs and outputs; different seed, different inputs --------


def _inputs(wl) -> list[np.ndarray]:
    ds = wl._runner().dataset if isinstance(wl, Table2) else wl._dataset()
    return [ds.load_data(i).array for i in range(len(ds))]


def test_same_seed_same_inputs_and_outputs(tmp_path):
    a, b = TinyTable2(7, str(tmp_path)), TinyTable2(7, str(tmp_path))
    assert all(np.array_equal(x, y) for x, y in zip(_inputs(a), _inputs(b)))
    ra, rb = a.round(0, None), b.round(0, None)
    assert a.problems == [] and b.problems == []
    assert ra.ops == rb.ops == TinyTable2.ops_per_round
    assert a.signatures == b.signatures
    strip = [
        {k: v for k, v in o.items() if not k.startswith(("time:", "derived:"))}
        for o in a.observations
    ]
    assert strip == [
        {k: v for k, v in o.items() if not k.startswith(("time:", "derived:"))}
        for o in b.observations
    ]


def test_different_seed_different_inputs(tmp_path):
    a, b = TinyTable2(7, str(tmp_path)), TinyTable2(8, str(tmp_path))
    assert not all(np.array_equal(x, y) for x, y in zip(_inputs(a), _inputs(b)))


def test_collect_round_checks_pass_and_recompute_matches(tmp_path):
    wl = TinyCollect(3, str(tmp_path))
    try:
        result = wl.round(0, None)
        wl.finish([result])
    finally:
        wl.close()
    assert wl.problems == []
    assert result.ops == TinyCollect.ops_per_round
    assert result.info["resume_s"] > 0


def test_serve_query_mix_follows_the_seed(tmp_path):
    def mix(seed, sub):
        wl = Serve(seed, str(tmp_path / sub))
        wl.setup(None)
        assert wl.problems == []
        return [(k, i) for k, i, _ in wl.rows], wl.whatif, wl.payloads

    a, b, c = mix(5, "a"), mix(5, "b"), mix(6, "c")
    assert a == b
    assert a[0] != c[0] and a[2] != c[2]


# -- every check fires on a corrupted output --------------------------------------


def _obs(err: float, bound: float = 1e-3, peak: float = 300.0) -> dict:
    return {
        "data_id": "hurricane/P/0", "compressor": "sz3", "bound": 1e-4,
        "effective_bound": bound, "error_stat:max_error": err,
        "error_stat:max": peak, "error_stat:min": -1.0,
    }


def test_bound_check_counts_half_ulp_excess_and_fails_beyond_it():
    slack = checks.half_ulp(_obs(0.0))
    assert slack == 0.5 * float(np.spacing(np.float32(300.0)))
    assert checks.bound_excess([_obs(1e-3)]) == (0, [])
    strict, problems = checks.bound_excess([_obs(1e-3 + 0.4 * slack)])
    assert strict == 1 and problems == []
    strict, problems = checks.bound_excess([_obs(1e-3 + 2 * slack)])
    assert strict == 1 and len(problems) == 1


def _collected(n: int, completed: int | None = None, failures=()):
    return SimpleNamespace(
        observations=[{}] * n,
        stats=SimpleNamespace(completed=n if completed is None else completed),
        failures=list(failures),
    )


def test_collection_check_fires_on_a_dropped_observation():
    assert checks.collection(_collected(10), 10, resumed=False) == []
    assert checks.collection(_collected(9, completed=10), 10, resumed=False)
    assert checks.collection(_collected(10, completed=0), 10, resumed=True) == []
    assert checks.collection(_collected(9, completed=0), 10, resumed=True)
    assert checks.collection(_collected(10, completed=3), 10, resumed=True)
    failed = SimpleNamespace(error="boom")
    assert checks.collection(_collected(10, failures=[failed]), 10, resumed=False)


def test_answers_check_fires_on_a_perturbed_prediction():
    expected = {("k", 0): 1.25}
    ok = {"status": "ok", "prediction": 1.25}
    assert checks.answers([(("k", 0), ok)], expected, "rows") == []
    nudged = {"status": "ok", "prediction": float(np.nextafter(1.25, 2.0))}
    assert checks.answers([(("k", 0), ok), (("k", 0), nudged)], expected, "rows")
    assert checks.answers([(("k", 0), {"status": "error: shed"})], expected, "rows")


def test_recompute_check_fires_on_a_mismatch():
    stored = {"size:compressed_size": 100, "error_stat:max_error": 0.5}
    assert checks.recomputed(stored, dict(stored), "k" * 16) == []
    assert checks.recomputed(stored, {**stored, "size:compressed_size": 101}, "k" * 16)
    assert checks.recomputed(None, stored, "k" * 16)


def test_table2_checks_fire():
    def row(method, compressor, medape, supported=True):
        return SimpleNamespace(
            method=method, compressor=compressor, medape_pct=medape, supported=supported
        )

    schemes = ("khan2023", "jin2022")
    good = [row("sz3", "sz3", math.nan), row("khan2023", "sz3", 9.0),
            row("jin2022", "zfp", math.nan, supported=False)]
    assert checks.table2_rows(good, schemes) == []
    assert checks.table2_rows([row("khan2023", "sz3", math.nan)], schemes)
    assert checks.table2_rows([row("jin2022", "zfp", 3.0)], schemes)
    sig = checks.medape_signature(good)
    assert checks.same_across_rounds([sig, sig], "MedAPE") == []
    other = checks.medape_signature([row("khan2023", "sz3", 9.5)] + good[1:])
    assert checks.same_across_rounds([sig, other], "MedAPE")


def test_negative_counter_delta_voids_the_run():
    deltas, problems = checks.counter_deltas({"shed": 2}, {"shed": 5}, ["shed"])
    assert deltas == {"shed": 3} and problems == []
    _, problems = checks.counter_deltas({"feat_misses": 9}, {"feat_misses": 4}, ["feat_misses"])
    assert problems


# -- the tracer, the report helpers, and the contract files ----------------------


def test_self_time_subtracts_children_and_counts_outermost_calls():
    tracer = Tracer()
    from repro.encoding import huffman

    values = np.arange(200) % 17
    with Patcher(tracer) as patcher:
        patcher.function(huffman.huffman_code_lengths, "encoding.huffman_code_lengths")
        patcher.function(huffman.build_code, "outer")
        huffman.build_code(values)
    assert huffman.build_code.__module__ == "repro.encoding.huffman"
    assert not hasattr(huffman.build_code, "__wrapped__")
    times = tracer.self_times()
    assert times["outer"][1] == 1 and times["encoding.huffman_code_lengths"][1] == 1
    outer = next(s for s in tracer.spans if s.name == "outer")
    inner = next(s for s in tracer.spans if s.name != "outer")
    assert inner.parent == outer.span_id
    assert times["outer"][0] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start)
    )


def test_tail_percentile_keeps_ten_samples_beyond_it():
    q, value = run.tail([float(i) for i in range(100)])
    assert q == pytest.approx(0.9) and value == 89.0
    q, _ = run.tail([float(i) for i in range(5000)])
    assert q == run.TAIL_CAP
    q, value = run.tail([float(i) for i in range(5000)], cap=1.0)
    assert q == pytest.approx(0.998) and value == 4989.0


def test_benchmark_json_matches_the_metric_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert all(run.E2E_UNITS[m["name"]] == m["unit"] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER
    ]
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [name for name in run.WORKLOAD_NAMES if name != "table2"]


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
