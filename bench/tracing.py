"""Spans around the package's public calls, recorded from outside the package.

``Tracer.install`` replaces every public function of the package's modules,
in every module namespace that bound it, with a wrapper that records a span:
name, layer (the defining module), start, end, parent span and round.  The
per-slot calls ``step`` and ``sample_next`` stay unwrapped, because a span
per slot would cost more than the call; the benchmark times them with its own
probes.  Spans stay in memory and are written once, by ``write``.

This module imports neither numpy nor the package at import time, so a
fresh-interpreter probe can time ``import remest`` after importing it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("scenario", "channel", "process", "stability", "sweep", "sim")
UNTRACED = frozenset({"step", "sample_next"})
# public methods whose cost a layer metric needs
METHODS = {"channel": ("CascadedChain.with_drops",), "process": ("CostFunction.__init__",)}
# calls whose span name carries an argument, so one metric per value exists
TAGS = {"delayed_csi_factor": lambda chain, horizon, *a, **k: f".L{horizon}"}
COLUMNS = ("id", "parent", "name", "layer", "start", "end", "round", "workload")


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []  # COLUMNS without the workload
        self.round = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, layer, time.perf_counter(), None, self.round])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        sid = self.begin(name, layer)
        try:
            yield
        finally:
            self.end(sid)

    def add(self, name: str, layer: str, start: float, end: float, parent: int = -1) -> int:
        """Record a span measured elsewhere, such as in a child process."""
        sid = len(self.spans)
        self.spans.append([sid, parent, name, layer, start, end, self.round])
        return sid

    def _wrap(self, fn, name: str, layer: str):
        tag = TAGS.get(fn.__name__)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.begin(name + (tag(*args, **kwargs) if tag else ""), layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(sid)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module, wherever they are bound."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"remest.{layer}")
            for name, obj in list(vars(module).items()):
                if (
                    not name.startswith("_")
                    and name not in UNTRACED
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}", layer)
            for dotted in METHODS.get(layer, ()):
                cls_name, meth = dotted.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, f"{layer}.{dotted}", layer))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "remest" and not mod_name.startswith("remest."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapped[value])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def durations(self, name: str) -> list[float]:
        return [s[5] - s[4] for s in self.spans if s[2] == name]

    def self_times(self, rounds) -> dict[int, dict[str, float]]:
        """Per round, per layer: span time not covered by the span's children."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] >= 0:
                child_time[s[1]] += s[5] - s[4]
        out: dict[int, dict[str, float]] = {r: {} for r in rounds}
        for s in self.spans:
            if s[6] in out:
                layer_times = out[s[6]]
                layer_times[s[3]] = layer_times.get(s[3], 0.0) + (s[5] - s[4]) - child_time[s[0]]
        return out

    def write(self, path, header: dict) -> None:
        """One gzipped JSON document: the header, then one span per line."""
        doc = dict(header, workload=self.workload, columns=COLUMNS)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(doc)[:-1] + ', "spans": [\n')
            for i, s in enumerate(self.spans):
                fh.write(("," if i else "") + json.dumps(s + [self.workload]) + "\n")
            fh.write("]}\n")
