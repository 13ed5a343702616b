"""Cross-engine conformance: serial, thread, process and cluster agree.

The engines are interchangeable by contract — one dispatch core, four
transports — so a seeded chaos campaign must come out the same on every
one of them: the same counts, the same failure ledger, the same stored
payloads (up to timing), and the same Table-2 MedAPE.  This is the
differential check that keeps the transports from drifting apart again.
"""

import json
import math
import os
import warnings

import pytest

from repro.bench import ChaosPlan, CheckpointStore, TaskQueue
from repro.bench.cluster import ClusterSpec
from repro.bench.runner import ExperimentRunner
from repro.dataset.hurricane import HurricaneDataset

ENGINES = ("serial", "thread", "process", "cluster")

RETRIES = (0, 2)


def _timing_key(key: str) -> bool:
    """The only payload keys derived from wall-clock time."""
    return key.startswith("time:") or (
        key.startswith("derived:") and key.endswith("_bandwidth")
    )


def _campaign(engine: str, max_retries: int, root: str) -> dict:
    workdir = os.path.join(root, f"{engine}-r{max_retries}")
    os.makedirs(workdir)
    cluster = None
    if engine == "cluster":
        cluster = ClusterSpec(shard_dir=os.path.join(workdir, "shards"))
    queue = TaskQueue(
        1 if engine == "serial" else 2, engine, max_retries=max_retries, cluster=cluster
    )
    store = CheckpointStore(os.path.join(workdir, "ckpt.db"))
    runner = ExperimentRunner(
        HurricaneDataset(shape=(16, 16, 8), timesteps=2),
        compressors=("szx", "zfp"),
        bounds=(1e-3, 1e-4),
        schemes=("khan2023", "jin2022"),
        store=store,
        queue=queue,
        n_folds=3,
    )
    chaos = ChaosPlan(seed=5, exception_rate=0.3, state_dir=os.path.join(workdir, "chaos"))
    try:
        with warnings.catch_warnings():
            # Failed tasks and jin2022's missing zfp model warn by design.
            warnings.simplefilter("ignore")
            result = runner.collect(chaos=chaos)
            rows = runner.table2(result.observations)
        stats = result.stats
        keys = sorted(t.key() for t in runner.build_tasks())
        # Each selected task raises once: it fails without retries and
        # succeeds on its first retry otherwise.
        selected = sum(chaos.selects("exception", key) for key in keys)
        expected = (
            (len(keys) - selected, selected, 0, 0)
            if max_retries == 0
            else (len(keys), 0, selected, 0)
        )
        payloads = {}
        for key in keys:
            payload = store.get(key)
            if payload is not None:
                payloads[key] = json.dumps(
                    {k: v for k, v in payload.items() if not _timing_key(k)},
                    sort_keys=True,
                )
        return {
            "engine": stats.engine,
            "counts": (stats.completed, stats.failed, stats.retries, stats.quarantined),
            "expected": expected,
            "ledger": sorted((f["key"], f["status"], f["attempts"]) for f in store.failures()),
            "payloads": payloads,
            "medape": [
                (r.method, r.compressor, r.medape_pct)
                for r in rows
                if not math.isnan(r.medape_pct)
            ],
        }
    finally:
        runner.close()
        store.close()


@pytest.fixture(scope="module")
def campaigns(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("conformance"))
    cache: dict[tuple[str, int], dict] = {}

    def get(engine: str, max_retries: int) -> dict:
        if (engine, max_retries) not in cache:
            cache[engine, max_retries] = _campaign(engine, max_retries, root)
        return cache[engine, max_retries]

    return get


@pytest.mark.parametrize("max_retries", RETRIES)
@pytest.mark.parametrize("engine", ENGINES)
class TestEngineConformance:
    def test_engine_ran_as_requested(self, engine, max_retries, campaigns):
        assert campaigns(engine, max_retries)["engine"] == engine

    def test_counts(self, engine, max_retries, campaigns):
        run = campaigns(engine, max_retries)
        assert run["counts"] == run["expected"]
        assert run["counts"] == campaigns("serial", max_retries)["counts"]
        assert sum(run["counts"][1:3]) > 0, "the chaos plan selected no task"

    def test_failure_ledger_matches_serial(self, engine, max_retries, campaigns):
        run = campaigns(engine, max_retries)
        assert len(run["ledger"]) == run["counts"][1]
        assert run["ledger"] == campaigns("serial", max_retries)["ledger"]

    def test_stored_payloads_match_serial(self, engine, max_retries, campaigns):
        run = campaigns(engine, max_retries)
        assert len(run["payloads"]) == run["counts"][0]
        assert run["payloads"] == campaigns("serial", max_retries)["payloads"]

    def test_table2_medape_matches_serial(self, engine, max_retries, campaigns):
        got = campaigns(engine, max_retries)["medape"]
        assert got, "no scheme produced a MedAPE"
        assert got == campaigns("serial", max_retries)["medape"]
