"""Spans and counters recorded from outside the library.

The tracer replaces a function with a timing wrapper on every module (or
class) attribute through which a caller looks it up. ``from x import f``
binds a second name for ``f`` in the importing module, so wrapping only
``x.f`` would miss those calls. Each span keeps its name, start, end, phase
and parent span; spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Target:
    """One library function and every attribute its callers look it up by.

    ``sites`` are ``(owner, attribute)`` pairs; the owner is a module or a
    class. ``timed`` False makes a counting-only wrapper (for functions
    called so often that a span would distort the run). ``after`` runs on
    the bound arguments and the result once the call returns, outside the
    span; ``before`` runs on the bound arguments before the span starts.
    """

    name: str
    sites: list
    timed: bool = True
    before: Callable | None = None
    after: Callable | None = None


@dataclass
class Span:
    name: str
    phase: str
    start: float
    end: float = 0.0
    parent: int | None = None


@dataclass
class Tracer:
    targets: list[Target]
    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    maxima: dict = field(default_factory=dict)
    latest: dict = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _phase: str = ""
    _saved: list = field(default_factory=list)

    # --- recording ---

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self._phase, name)] += n

    def record_max(self, name: str, value: float) -> None:
        key = (self._phase, name)
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def record_latest(self, name: str, value) -> None:
        self.latest[name] = value

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._phase, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, target: Target, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if target.before or target.after:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            if target.before:
                target.before(self, bound.arguments)
            if target.timed:
                index = self._open(target.name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(index)
            else:
                self.count(target.name + ".calls")
                result = fn(*args, **kwargs)
            if target.after:
                target.after(self, bound.arguments, result)
            return result

        return wrapper

    # --- installation ---

    def install(self) -> None:
        for target in self.targets:
            for owner, attr in target.sites:
                raw = owner.__dict__[attr] if inspect.isclass(owner) \
                    else getattr(owner, attr)
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(target, raw.__func__))
                else:
                    replacement = self._wrap(target, raw)
                setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def root(self, phase: str):
        """Trace one set-up or one operation under a root span named after
        the phase. Wrappers are installed only inside, so untraced work runs
        the library's own functions."""
        self._phase = phase
        self.install()
        index = self._open(phase)
        try:
            yield
        finally:
            self._close(index)
            self.uninstall()
            self._phase = ""

    # --- summaries ---

    def summary(self, phase: str) -> dict:
        """Per span name: calls, inclusive seconds and the longest call;
        per layer: self seconds; plus the self time of the root spans."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.phase == phase]
        child_time: dict[int, float] = defaultdict(float)
        for _, span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        names: dict[str, dict] = {}
        layers: dict[str, float] = defaultdict(float)
        roots = 0
        uncovered = 0.0
        for i, span in spans:
            duration = span.end - span.start
            own = duration - child_time[i]
            if span.parent is None:
                roots += 1
                uncovered += own
                continue
            entry = names.setdefault(span.name, {"calls": 0, "s": 0.0, "max_s": 0.0})
            entry["calls"] += 1
            entry["s"] += duration
            entry["max_s"] = max(entry["max_s"], duration)
            layers[span.name.split(".")[0]] += own
        counts = {name: n for (p, name), n in self.counts.items() if p == phase}
        maxima = {name: v for (p, name), v in self.maxima.items() if p == phase}
        return {"roots": roots, "uncovered_s": uncovered, "spans": names,
                "layer_self_s": dict(layers), "counts": counts, "maxima": maxima}

    def write(self, path: str) -> None:
        """All spans as JSON lines: name, phase, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span.name, "phase": span.phase,
                                     "start": span.start, "end": span.end,
                                     "parent": span.parent}) + "\n")
