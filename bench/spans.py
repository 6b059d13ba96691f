"""Spans recorded from outside the program, by wrapping module attributes.

The engines call their layers through module globals and class attributes
(`mugnn.counting.trans1`, `mugnn.gnn.apply_layer`,
`mugnn.semantics.Evaluator.evaluate`, ...), so replacing those attributes
with timing wrappers sees every call without a change to `src/`.

A span is (name, start, end, parent): `parent` is the index of the
enclosing span, or -1.  A span's self time is its duration minus the time
covered by its direct children.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[list] = []  # [span index, time covered by children]
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._patched: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)

    def begin(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self._open.append([len(self.spans), 0.0])
        self.spans.append([name, perf_counter(), None, parent])

    def end(self) -> None:
        now = perf_counter()
        index, covered = self._open.pop()
        span = self.spans[index]
        span[2] = now
        duration = now - span[1]
        self.self_time[span[0]] += duration - covered
        if self._open:
            self._open[-1][1] += duration

    def wrap(self, fn, name: str, outermost_only: bool = False, on_return=None):
        """`fn` with a span around each call.

        For a recursive function, `outermost_only` keeps one span per
        outermost call; nested calls are then part of its self time but
        are still counted.  `on_return`, when given, is called with each
        call's positional arguments and its result.
        """
        depth = [0]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            if outermost_only and depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
                depth[0] -= 1
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **options) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **options))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path, **header) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh)
            fh.write("\n")
