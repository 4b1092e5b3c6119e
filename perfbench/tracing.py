"""Spans recorded from the benchmark's own files, around calls into the
program's public callables.

A :class:`Tracer` replaces a callable on an object or module with a
wrapper that records one span per call: the request id, its name, the
span that was open when it was called (its parent), and its start and
end.  Spans live in memory until the run ends.  A span's self time is
its duration minus the durations of its children; the layers run in
one thread per traced process, so children never overlap.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []    # [rid, name, parent, t0, t1]
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.rid = -1
        self.counts: dict[str, float] = defaultdict(float)

    # -- recording --------------------------------------------------- #
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.rid, name, parent, time.perf_counter_ns(), 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def request(self, rid: int):
        """The root span of request ``rid`` at the workload's entry point."""
        self.rid = rid
        idx = self._open("request")
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``;
        ``on_result(args, result)`` may add counts."""
        original = getattr(owner, attr)
        previous = owner.__dict__.get(attr, _MISSING) if hasattr(
            owner, "__dict__") else _MISSING

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, previous))

    def restore(self) -> None:
        """Put every wrapped callable back."""
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- summaries --------------------------------------------------- #
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``ms`` and total ``self_ms``."""
        child_ns = [0] * len(self.spans)
        for rid, name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0}
        )
        for i, (rid, name, parent, t0, t1) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["ms"] += (t1 - t0) / 1e6
            row["self_ms"] += (t1 - t0 - child_ns[i]) / 1e6
        return out

    def request_ms(self) -> list[float]:
        """Duration of every root span, in request order."""
        return [(t1 - t0) / 1e6 for _, name, parent, t0, t1 in self.spans
                if name == "request"]
