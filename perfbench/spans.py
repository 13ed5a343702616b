"""Span recording around calls into the program's layers.

The traced run wraps public functions and methods of ``repro`` from the
benchmark's own files; nothing inside the program is edited.  Each call
through a wrapper records a span (name, start, end, parent span, task or
query id).  Spans stay in memory and are written out when the run ends.

A span's *self time* is its duration minus the part of it that its child
spans cover, so the self times of nested layers (a compressor calling the
Huffman encoder calling the code-length construction) add up instead of
counting the same second three times.

Work done in child processes (process and cluster workers, the serving
fleet) never passes through these wrappers; the workloads attribute it
from the program's public outputs instead.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: str | None


class Tracer:
    """In-memory span recorder; one per-thread stack gives parents."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable[..., Any], args, kwargs, op_id: str | None = None):
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, None)
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        op = op_id if op_id is not None else inherited
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, op))

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- analysis ---------------------------------------------------------------
    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (summed self seconds, outermost call count).

        A call is *outermost* when its parent span has another name, so an
        overriding method that calls ``super()`` counts once.
        """
        by_id = {s.span_id: s for s in self.spans}
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        for s in self.spans:
            covered = _union_length(
                [(c.start, c.end) for c in children.get(s.span_id, ())]
            )
            entry = out[s.name]
            entry[0] += max(s.end - s.start - covered, 0.0)
            parent = by_id.get(s.parent) if s.parent is not None else None
            if parent is None or parent.name != s.name:
                entry[1] += 1
        return {k: (v[0], int(v[1])) for k, v in out.items()}

    def to_json(self) -> dict[str, Any]:
        return {
            "columns": ["id", "name", "start", "end", "parent", "op_id"],
            "spans": [
                [s.span_id, s.name, s.start, s.end, s.parent, s.op_id] for s in self.spans
            ],
            "counters": dict(self.counters),
        }


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Patcher:
    """Install span wrappers and restore the originals on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, original: Callable[..., Any], name: str) -> None:
        """Wrap *original* in every ``repro`` module that binds it.

        Callers that did ``from module import fn`` hold their own binding,
        so every module attribute that *is* the original is replaced.
        """
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs)

        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def method(
        self,
        cls: type,
        attr: str,
        name: str,
        *,
        op_id: Callable[..., str | None] | None = None,
        snapshot: Callable[..., Any] | None = None,
        count: Callable[..., None] | None = None,
    ) -> None:
        """Wrap *attr* on *cls* and on every subclass that overrides it.

        ``op_id(args)`` names the task or query the span belongs to.
        ``count(args, result, before)`` records counters after the call,
        where ``before`` is ``snapshot(args)`` taken just before it.
        """
        tracer = self.tracer
        for klass in _with_subclasses(cls):
            original = klass.__dict__.get(attr)
            if original is None or not callable(original):
                continue

            def make(original=original):
                @functools.wraps(original)
                def wrapper(*args, **kwargs):
                    before = snapshot(args) if snapshot is not None else None
                    result = tracer.call(
                        name, original, args, kwargs,
                        op_id=op_id(args) if op_id is not None else None,
                    )
                    if count is not None:
                        count(args, result, before)
                    return result
                return wrapper

            self._set(klass, attr, make())

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


def _with_subclasses(cls: type) -> Iterator[type]:
    seen: set[type] = set()
    todo = [cls]
    while todo:
        klass = todo.pop()
        if klass in seen:
            continue
        seen.add(klass)
        yield klass
        todo.extend(klass.__subclasses__())
