"""In-memory span recorder that times the program's layers from outside.

``Tracer.wrap`` replaces a public function at the place its callers look
it up (a module attribute, a class attribute or a dict entry) with a
wrapper that records one span per call: name, start, end, parent span
and run id, plus an optional count taken from the call's arguments and
result. ``Tracer.restore`` puts the originals back, so untraced passes run
the unmodified program. Spans stay in memory until ``write``.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

Count = Callable[[tuple, dict, Any], "int | dict[str, float]"]


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "n", "extra")

    def __init__(self, name: str, start: float, parent: int, run_id: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run_id = run_id
        self.n = 1
        self.extra: dict[str, float] = {}

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.run_id))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around benchmark-side code (pass roots, Spark stages)."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(
        self, owner: Any, attr: str, name: str, count: Count | None = None
    ) -> None:
        """Record a span for every call of ``owner[attr]``/``owner.attr``."""
        is_dict = isinstance(owner, dict)
        orig = owner[attr] if is_dict else owner.__dict__[attr]
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                got = count(args, kwargs, out)
                if isinstance(got, dict):
                    tracer.spans[idx].extra = got
                else:
                    tracer.spans[idx].n = got
            return out

        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        for owner, attr, orig in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patched.clear()

    # ------------------------------------------------------------- reading

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Calls are synchronous and single-threaded, so children of one
        span never overlap and their durations simply add up.
        """
        out = [s.dur for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.dur
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run_id": s.run_id, "n": s.n,
                    **s.extra,
                }) + "\n")
