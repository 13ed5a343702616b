"""Correctness checks and validity guards on workload outputs.

Each check returns a list of problems (empty when it holds), so a run can
report every broken contract at once and the tests can corrupt one output
and see exactly that check fire.
"""

from __future__ import annotations

import math
import os
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

#: The pairing that is unsupported by design: jin2022's ratio-quality
#: model needs SZ-style quantization statistics, which zfp does not have.
UNSUPPORTED = {("jin2022", "zfp")}


def half_ulp(obs: Mapping[str, Any]) -> float:
    """Half the float32 spacing at the field's largest magnitude."""
    peak = max(abs(float(obs["error_stat:max"])), abs(float(obs["error_stat:min"])))
    return 0.5 * float(np.spacing(np.float32(peak)))


def bound_excess(observations: Iterable[Mapping[str, Any]]) -> tuple[int, list[str]]:
    """Check the error-bound contract the compressors keep.

    Every observation must satisfy ``max_error <= effective_bound +
    half_ulp``: the sz3 and szx quantizers do not re-check reconstructed
    values in the float32 output type, so one may land up to half a float32
    ulp of the field's magnitude past the bound.  Returns ``(strict
    excesses, problems)``: a strict excess (past the bound but within the
    half ulp) is counted, not failed.
    """
    strict, problems = 0, []
    for obs in observations:
        err = float(obs["error_stat:max_error"])
        bound = float(obs["effective_bound"])
        if err > bound:
            strict += 1
        if err > bound + half_ulp(obs):
            problems.append(
                f"{obs['data_id']} {obs['compressor']}@{obs['bound']:g}: max_error "
                f"{err!r} exceeds bound {bound!r} by more than half a float32 ulp"
            )
    return strict, problems


def table2_rows(rows: Sequence[Any], schemes: Sequence[str]) -> list[str]:
    """Every supported (scheme, compressor) row has a finite MedAPE."""
    problems = []
    for row in rows:
        if row.method not in schemes:
            continue  # the compressor's own timing row
        if (row.method, row.compressor) in UNSUPPORTED:
            if row.supported:
                problems.append(f"{row.method}x{row.compressor} should be unsupported")
            continue
        if not row.supported or not math.isfinite(row.medape_pct):
            problems.append(
                f"{row.method}x{row.compressor}: MedAPE {row.medape_pct!r} "
                f"(supported={row.supported})"
            )
    return problems


def medape_signature(rows: Sequence[Any]) -> tuple:
    return tuple(
        (r.method, r.compressor, None if math.isnan(r.medape_pct) else r.medape_pct)
        for r in rows
    )


def same_across_rounds(signatures: Sequence[tuple], what: str) -> list[str]:
    if any(sig != signatures[0] for sig in signatures[1:]):
        return [f"{what} differs between rounds with the same seed"]
    return []


def collection(result: Any, expected: int, *, resumed: bool) -> list[str]:
    """Task accounting of one ``collect()`` pass."""
    problems = []
    want_completed = 0 if resumed else expected
    if result.stats.completed != want_completed:
        problems.append(
            f"{'resume' if resumed else 'collect'} completed {result.stats.completed} "
            f"tasks, expected {want_completed}"
        )
    if result.failures:
        problems.append(f"{len(result.failures)} task(s) failed: {result.failures[0].error}")
    if len(result.observations) != expected:
        problems.append(
            f"{len(result.observations)} observations returned, expected {expected}"
        )
    return problems


def recomputed(stored: Mapping[str, Any] | None, fresh: Mapping[str, Any], key: str) -> list[str]:
    """A serial recomputation matches the stored observation exactly."""
    if stored is None:
        return [f"task {key[:12]} missing from the checkpoint"]
    return [
        f"task {key[:12]}: {name} {stored.get(name)!r} != recomputed {fresh.get(name)!r}"
        for name in ("size:compressed_size", "error_stat:max_error")
        if stored.get(name) != fresh.get(name)
    ]


def answers(
    responses: Sequence[tuple[Any, Any]], expected: Mapping[Any, float], what: str
) -> list[str]:
    """Every served answer equals the in-process reference bit for bit.

    *responses* pairs each query's identity with its response; all
    responses for one identity (cache misses and hits alike) must equal
    ``expected[identity]``.
    """
    problems = []
    for ident, response in responses:
        if response is None or response.get("status") != "ok":
            problems.append(f"{what} {ident}: response {response!r}")
            continue
        if float(response["prediction"]) != expected[ident]:
            problems.append(
                f"{what} {ident}: served {response['prediction']!r} != "
                f"in-process {expected[ident]!r}"
            )
    return problems


def counter_deltas(
    before: Mapping[str, Any], after: Mapping[str, Any], names: Iterable[str]
) -> tuple[dict, list[str]]:
    """Deltas of monotone counters; a negative one voids the run."""
    deltas = {n: after.get(n, 0) - before.get(n, 0) for n in names}
    problems = [f"counter {n} went backwards ({d})" for n, d in deltas.items() if d < 0]
    return deltas, problems


def shm_names(prefix: str = "psio") -> list[str]:
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))
    except FileNotFoundError:
        return []


def live_children(pid: int | None = None) -> list[int]:
    """Processes whose parent is *pid* (this process by default)."""
    pid = os.getpid() if pid is None else pid
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name is parenthesised and may hold spaces.
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z" and int(fields[1]) == pid:
            out.append(int(entry))
    return out


def describe_pid(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            cmdline = fh.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return str(pid)
    return f"{pid} ({cmdline[:80]})"
