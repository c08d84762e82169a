"""Span recorder for the traced benchmark run.

A `Tracer` wraps named vilwav functions while it is active and records one
span per call: name, parent span, start, end and an optional work count.
The wrappers are patched into every vilwav module namespace that binds the
original function (a name imported with `from .x import f` is a separate
binding), and the originals are put back when the tracer exits.  Untraced
runs never see a wrapper.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str  # "<module>.<function>", module being where the function is defined
    parent: int | None  # index of the enclosing span in Tracer.spans
    start: float
    end: float = 0.0
    child_s: float = 0.0  # summed duration of direct child spans
    work: int = 0
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


PACKAGE = "vilwav"


class Tracer:
    """Context manager that traces `targets` inside the vilwav package.

    `targets` maps "<module>.<function>" to a work counter (or None); a
    counter gets (args, kwargs, result) and returns an int, and runs after
    the span is closed so it is not timed.
    """

    def __init__(self, targets: dict):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --

    def _namespaces(self):
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def __enter__(self) -> "Tracer":
        namespaces = self._namespaces()
        for qualified, counter in self.targets.items():
            module_name, func_name = qualified.rsplit(".", 1)
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
            wrapper = self._wrap(qualified, original, counter)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    # -- recording --

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span, error: bool = False) -> None:
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def _wrap(self, name: str, fn, counter):
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so consumer code between items is not counted

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    span = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(span)
                        return
                    except BaseException:
                        self._close(span, error=True)
                        raise
                    self._close(span)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, error=True)
                raise
            self._close(span)
            if counter is not None:
                span.work = int(counter(args, kwargs, result))
            return result

        return wrapper

    # -- summaries --

    def by_name(self) -> dict:
        """name -> {"calls", "self_s", "work", "errors"} over all spans."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "work": 0, "errors": 0})
        for s in self.spans:
            row = out[s.name]
            row["calls"] += 1
            row["self_s"] += s.self_s
            row["work"] += s.work
            row["errors"] += s.error
        return dict(out)

    def children_of(self, parent_name: str, names) -> list[Span]:
        """Spans named in `names` whose direct parent span is `parent_name`."""
        names = set(names)
        return [
            s
            for s in self.spans
            if s.name in names and s.parent is not None and self.spans[s.parent].name == parent_name
        ]
