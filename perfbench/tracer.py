"""Spans around calls into `mdpdiag`'s public functions, from outside it.

`install` replaces each traced function wherever a module of the package
holds it, so calls bound at import time (`from .checker import
check_property` in `mdpdiag.counterexample`) are caught as well. A
generator function is charged per `next()`, not for the creation of its
generator. Spans stay in memory; `self_times` turns them into per-name
self times: a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    # name -> return values of the calls to that name, for counts taken
    # after the traced program ends
    results: dict[str, list] = field(default_factory=dict)
    # Memory mode: spans named in `measure` run under tracemalloc, and a
    # span named in `exclude` suspends it; peaks in bytes land in `peaks`.
    measure: frozenset[str] = frozenset()
    exclude: frozenset[str] = frozenset()
    peaks: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _measuring: Optional[str] = None
    _suspended: int = 0

    def _enter(self, name: str) -> int:
        if self._measuring is None and name in self.measure:
            self._measuring = name
            tracemalloc.start()
        elif self._measuring is not None and name in self.exclude:
            if self._suspended == 0:
                self._note_peak()
                tracemalloc.stop()
            self._suspended += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        span = self.spans[index]
        span.end = self.clock()
        self._stack.pop()
        if self._measuring is not None and span.name in self.exclude:
            self._suspended -= 1
            if self._suspended == 0:
                tracemalloc.start()
        elif self._measuring == span.name:
            self._note_peak()
            tracemalloc.stop()
            self._measuring = None

    def _note_peak(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        name = self._measuring
        self.peaks[name] = max(self.peaks.get(name, 0), peak)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """fn, recording a span named `name` around each call."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def per_next(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        index = self._enter(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._exit(index)
                        yield item
                finally:
                    inner.close()
            return per_next

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            self.results.setdefault(name, []).append(result)
            return result
        return timed

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end))
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            covered = 0.0
            reach = span.start
            for start, end in sorted(children.get(i, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            own = span.end - span.start - covered
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)


def install(tracer: Tracer, targets: dict[str, tuple[str, str]]) -> None:
    """Wrap each target, given as span name -> (module, attribute), in
    every loaded module of `mdpdiag` that holds the same function object.
    An attribute `Class.method` is wrapped on its class."""
    for name, (module_name, attr) in targets.items():
        if "." in attr:  # a method: patch it on its class
            cls_name, method = attr.split(".")
            cls = getattr(sys.modules[module_name], cls_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method)))
            continue
        original = getattr(sys.modules[module_name], attr)
        wrapped = tracer.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "mdpdiag":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
