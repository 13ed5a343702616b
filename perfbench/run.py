"""Run one benchmark workload against the ``repro`` sources beside it.

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 30 --trace 0

Builds nothing: ``repro`` is pure Python and is imported from ``src/`` of
the checkout this file sits in (a missing ``src/`` is an error, never a
fallback to some installed copy).  The workload runs in rounds until
``--seconds`` is used up (at least two rounds), checks every round's
outputs, and prints a human-readable report followed, as the last line of
standard output, by one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, from untraced
rounds.  With ``--trace 1`` rounds alternate untraced and traced; the
metrics are the per-layer ones from the traced rounds plus the tracing
overhead, and the spans are written to ``.perfbench_out/``.
``--describe`` prints the workloads and the layer-to-workload map.

Every file the run writes stays inside the checkout: scratch state goes to
``.perfbench_tmp/`` (removed at exit) and ``TMPDIR`` points there for the
child processes too.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Every runnable workload; BENCHMARK.json gates all but ``table2``.
WORKLOAD_NAMES = ("table2", "collect", "collect_cluster", "serve")
#: Rounds every run makes, whatever --seconds says: determinism is checked
#: across rounds, and a traced run needs an untraced round to compare.
MIN_ROUNDS = 2
MAX_ROUNDS = 40


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.describe:
        parser.error("--workload is required")
    return args


#: The tail percentile reported never exceeds this: past it the few
#: slowest operations of a run make the figure too unsteady to gate on.
TAIL_CAP = 0.95

#: End-to-end metrics: unit and definition.  An operation is a task on
#: the collection workloads (its latency is the compute time the
#: observation records) and a query on ``serve`` (client-observed).
E2E = {
    "setup_s": ("s", "imports + one-time set-up and warm-up + median per-round set-up"),
    "peak_rss_mb": ("MB", "peak RSS of the benchmark process plus its largest child (getrusage)"),
    "run_s": ("s", "median wall time of a round's timed phases"),
    "ops_per_s": ("1/s", "median operations per second of a round's first phase"),
    "p50_ms": ("ms", "median per-operation latency"),
    "tail_ms": ("ms", f"highest percentile <= p{TAIL_CAP * 100:g} with ten samples beyond it"),
}
E2E_UNITS = {name: unit for name, (unit, _) in E2E.items()}
UNITS = {**E2E_UNITS, **layers.UNITS}


def tail(values: list[float], cap: float = TAIL_CAP) -> tuple[float, float]:
    """The highest percentile (at most *cap*) with ten samples beyond it.

    Returns ``(quantile, value)``, nearest-rank.
    """
    n = len(values)
    q = min(cap, max(0.5, 1.0 - 10.0 / n)) if n else 0.5
    ordered = sorted(values)
    return q, ordered[min(n - 1, max(0, int(q * n + 0.999999) - 1))] if n else 0.0


def peak_rss_kib() -> tuple[int, int]:
    """Peak RSS of this process and of its largest reaped child (Linux: KiB)."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def end_to_end(import_s: float, setup_once: float, rounds: list) -> dict[str, float]:
    timed = [r for r in rounds if not r.traced]
    latencies = [x for r in timed for x in r.latencies_ms]
    return {
        "setup_s": import_s + setup_once + statistics.median([r.setup_s for r in rounds]),
        "peak_rss_mb": sum(peak_rss_kib()) / 1024.0,
        "run_s": statistics.median([r.run_s for r in timed]),
        "ops_per_s": statistics.median([r.ops / r.primary_s for r in timed]),
        "p50_ms": statistics.median(latencies),
        "tail_ms": tail(latencies)[1],
    }


def per_layer(wl, rounds: list, setup_tracer, round_tracer) -> dict[str, float]:
    """Per-round layer metrics from the traced rounds.

    A layer that does no work in the rounds but does in the one-time
    set-up (the serve workload's campaign and publish) is reported over
    the set-up instead, once per run.
    """
    traced = [r for r in rounds if r.traced]
    out = {name: 0.0 for name, _, _, _ in layers.PER_LAYER}
    for r in traced:
        for name, value in r.layers.items():
            out[name] += value / len(traced)
    for name, value in layers.from_spans(round_tracer, len(traced)).items():
        out[name] += value
    for name, value in layers.from_spans(setup_tracer, 1).items():
        if not out[name]:
            out[name] = value
    out.update(wl.run_layers)
    untraced = statistics.median([r.run_s for r in rounds if not r.traced])
    slowdown = statistics.median([r.run_s for r in traced]) / untraced
    out["trace.overhead_pct"] = (slowdown - 1.0) * 100.0
    return out


def stop_resource_tracker() -> None:
    """Stop (and reap) the tracker ``multiprocessing.shared_memory`` starts.

    It would otherwise outlive the run by a moment; every segment it
    tracks has been unlinked by now.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def describe() -> dict:
    from workloads import WORKLOADS

    return {
        "workloads": {
            name: {
                "why": " ".join((cls.__doc__ or "").split()),
                "load": cls.load,
                "ops_per_round": cls.ops_per_round,
                "phases": list(cls.phases),
            }
            for name, cls in WORKLOADS.items()
        },
        "end_to_end": {name: {"unit": unit, "definition": text}
                       for name, (unit, text) in E2E.items()},
        "per_layer": {name: {"unit": unit, "better": better, "should_move": moves}
                      for name, unit, better, moves in layers.PER_LAYER},
    }


def run(args: argparse.Namespace, workdir: str) -> tuple[dict, dict]:
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    shm_before = set(checks.shm_names())
    wl = WORKLOADS[args.workload](args.seed, workdir)
    setup_tracer = Tracer() if args.trace else None
    round_tracer = Tracer()
    rounds = []
    try:
        setup_once = wl.setup(setup_tracer)
        t_measure = time.perf_counter()
        while len(rounds) < MAX_ROUNDS:
            t_round = time.perf_counter()
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(wl.round(len(rounds), round_tracer if traced else None))
            spent = time.perf_counter() - t_measure
            if len(rounds) >= MIN_ROUNDS and spent + (time.perf_counter() - t_round) > args.seconds:
                break
        wl.finish(rounds)
    finally:
        wl.close()
        stop_resource_tracker()
    leaked = sorted(set(checks.shm_names()) - shm_before)
    if leaked:
        wl.problems.append(f"{len(leaked)} shared-memory name(s) left behind: {leaked[:3]}")
    children = checks.live_children()
    if children:
        wl.problems.append(
            "child process(es) still running: " + ", ".join(map(checks.describe_pid, children))
        )
    env = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "trace": args.trace,
    }
    report = {"env": env, "wl": wl, "rounds": rounds, "rss_kib": peak_rss_kib()}
    if args.trace:
        metrics = per_layer(wl, rounds, setup_tracer, round_tracer)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump(
                {"env": env, "setup": setup_tracer.to_json(), "rounds": round_tracer.to_json()},
                fh,
            )
    else:
        metrics = end_to_end(import_s, setup_once, rounds)
    return metrics, report


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "tasks/s"), ("_qps", "qps"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return ""


def print_report(metrics: dict, report: dict) -> None:
    """Everything a reader needs besides the JSON line, by name and unit."""
    env, wl, rounds = report["env"], report["wl"], report["rounds"]
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    timed = [r for r in rounds if not r.traced]
    for name in sorted({k for r in timed for k in r.info}):
        value = statistics.median([r.info[name] for r in timed if name in r.info])
        print(f"  {name:<40} {value:.6g} {unit_of(name)}")
    for phase in sorted({k for r in timed for k in r.phase_latencies_ms}):
        samples = [x for r in timed for x in r.phase_latencies_ms.get(phase, ())]
        q, value = tail(samples, cap=1.0)
        print(f"  {phase + '_p50_ms':<40} {statistics.median(samples):.6g} ms (n={len(samples)})")
        print(f"  {phase + '_tail_ms':<40} {value:.6g} ms (p{q * 100:.2f}, n={len(samples)})")
    latencies = [x for r in timed for x in r.latencies_ms]
    print(f"  tail_ms is p{tail(latencies)[0] * 100:.1f} of n={len(latencies)} samples")
    attempted = wl.ops_per_round * len(rounds)
    print(f"  {'failed_frac':<40} {wl.failed_ops / attempted:.6g} ratio (of {attempted})")
    own, child = report["rss_kib"]
    print(f"  peak RSS: benchmark process {own / 1024:.1f} MB, largest child {child / 1024:.1f} MB")
    print("  round run_s: " + " ".join(f"{r.run_s:.4f}{'*' if r.traced else ''}" for r in rounds))
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {UNITS[name]}")
    for problem in wl.problems:
        print(f"CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    workdir = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        metrics, report = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still holds its scratch directory there
    print_report(metrics, report)
    wl, rounds = report["wl"], report["rounds"]
    result = {
        "correct": not wl.problems,
        "attempted": wl.ops_per_round * len(rounds),
        "failed": wl.failed_ops,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
