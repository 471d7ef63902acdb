"""Span recorder that times the library's layers from outside.

The benchmark adds no instrumentation to ``src/``: it replaces the public
functions each layer exposes - at the module attribute its callers look up
at call time - with thin wrappers that record a span (name, layer, start,
end, parent, thread).  Spans stay in memory; :meth:`Recorder.write_chrome`
writes them once, at exit, as Chrome Trace Event JSON (open it in Perfetto
or ``chrome://tracing``).  :meth:`Recorder.restore` puts every original
function back.

A layer's *self* time is a span's duration minus the part its child spans
cover; summing self times per layer partitions the wall-clock time of the
outermost spans, which is how the benchmark accounts for a traced solve.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Span:
    """One timed call: name, layer, [start, end) in ns, parent span id."""

    __slots__ = ("id", "name", "layer", "start", "end", "parent", "tid")

    def __init__(self, sid, name, layer, start, parent, tid):
        self.id = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.tid = tid

    @property
    def seconds(self) -> float:
        """Inclusive duration in seconds."""
        return (self.end - self.start) * 1e-9


class Recorder:
    """In-memory span and counter store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []
        self._t0 = time.perf_counter_ns()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span; return its result."""
        stack = self._stack()
        span = Span(
            next(self._ids), name, layer, time.perf_counter_ns(),
            stack[-1] if stack else None, threading.get_ident(),
        )
        stack.append(span.id)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(span)

    def wrapper(self, fn: Callable, name: str, layer: str,
                on_call: Optional[Callable] = None) -> Callable:
        """A stand-in for ``fn`` that records a span per call.

        ``on_call(args, kwargs, result)`` runs after a successful call and
        may add counters (batch sizes, node counts, queue waits).
        """
        def traced(*args, **kwargs):
            result = self.call(name, layer, fn, *args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------ #
    # installing wrappers
    # ------------------------------------------------------------------ #
    def _set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def patch(self, owner, attr: str, name: str, layer: str,
              on_call: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` (a module function or a class's method)."""
        fn = getattr(owner, attr)
        self._set(owner, attr, self.wrapper(fn, name, layer, on_call))

    def patch_everywhere(self, fn: Callable, name: str, layer: str) -> None:
        """Wrap ``fn`` under every ``repro`` module name bound to it.

        Modules that import a function by name at load time hold their own
        reference, so the wrapper must replace each one for every caller
        to pass through it.
        """
        wrapped = self.wrapper(fn, name, layer)
        for mod_name, mod in list(sys.modules.items()):
            in_package = mod_name == "repro" or mod_name.startswith("repro.")
            if not in_package or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def patch_classmethod(self, cls: type, attr: str, name: str,
                          layer: str) -> None:
        """Wrap a classmethod, keeping it a classmethod."""
        fn = cls.__dict__[attr].__func__
        self._set(cls, attr, classmethod(self.wrapper(fn, name, layer)))

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without a span (hot scalar helpers)."""
        fn = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        self._set(owner, attr, counted)

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def self_seconds(self) -> Dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        child = defaultdict(int)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return {
            span.id: (span.end - span.start - child[span.id]) * 1e-9
            for span in self.spans
        }

    def ancestors(self) -> Callable[[Span], List[Span]]:
        """A function returning a span's ancestors, nearest first."""
        by_id = {span.id: span for span in self.spans}

        def chain(span: Span) -> List[Span]:
            out = []
            parent = by_id.get(span.parent)
            while parent is not None:
                out.append(parent)
                parent = by_id.get(parent.parent)
            return out

        return chain

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def write_chrome(self, path, metadata: Optional[dict] = None) -> None:
        """Write every span as Chrome Trace Event JSON (complete events)."""
        tids: Dict[int, int] = {}
        events = [{
            "name": "process_name", "ph": "M", "pid": 1,
            "args": {"name": "wallbench (measured host wall-clock)"},
        }]
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(span.tid, len(tids) + 1)
            events.append({
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": (span.start - self._t0) / 1e3,
                "dur": (span.end - span.start) / 1e3,
                "args": {"id": span.id, "parent": span.parent},
            })
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata or {}, counters=dict(self.counts)),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
