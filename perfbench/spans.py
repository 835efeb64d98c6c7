"""Outside-in span recorder.

Wraps functions and methods of an already-imported package from the
benchmark's own code, so the program under test is not edited.  Each call to
a wrapped target records a span (name, start, end, parent) in memory, plus
exact work counts computed from the call's arguments or return value.  Every
wrapper is removed again by ``uninstall``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``owner`` is the defining module (for a function, every module of the
    package that binds the same object is patched) or a class (for a method
    or staticmethod, patched on the class).  ``label`` may derive the span
    name from the call's arguments.  ``before`` runs ahead of the call and
    may replace the arguments; its third return value is handed to
    ``count(recorder, span_name, state, args, kwargs, result, exc)``, which
    adds work counts once the call has returned or raised.
    """

    name: str
    owner: Any
    attr: str
    label: Callable | None = None
    before: Callable | None = None
    count: Callable | None = None


class Recorder:
    """In-memory spans and counters; records only while ``recording``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []      # [name, parent index, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.recording = False
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, self.clock(), None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def observe_max(self, key: str, value: float) -> None:
        if key not in self.maxima or value > self.maxima[key]:
            self.maxima[key] = value

    # -- wrappers ----------------------------------------------------------

    def install(self, targets, package: str) -> None:
        """Wrap every target; ``package`` names the modules searched for
        bindings of function targets."""
        for target in targets:
            if isinstance(target.owner, type):
                self._install_method(target)
            else:
                self._install_function(target, package)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def _install_method(self, target: Target) -> None:
        cls, attr = target.owner, target.attr
        original = cls.__dict__[attr]
        if isinstance(original, staticmethod):
            replacement = staticmethod(self._wrap(target, original.__func__))
        else:
            replacement = self._wrap(target, original)
        setattr(cls, attr, replacement)
        self._undo.append(lambda: setattr(cls, attr, original))

    def _install_function(self, target: Target, package: str) -> None:
        original = getattr(target.owner, target.attr)
        wrapper = self._wrap(target, original)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for module in modules:
            space = vars(module)
            for key, value in list(space.items()):
                if value is original:
                    space[key] = wrapper
                    self._undo.append(functools.partial(
                        space.__setitem__, key, original))

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.recording:
                return fn(*args, **kwargs)
            state = None
            if target.before is not None:
                args, kwargs, state = target.before(args, kwargs)
            name = (target.label(args, kwargs) if target.label is not None
                    else target.name)
            index = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec.close(index)
                if target.count is not None and isinstance(exc, Exception):
                    target.count(rec, name, state, args, kwargs, None, exc)
                raise
            rec.close(index)
            if target.count is not None:
                target.count(rec, name, state, args, kwargs, result, None)
            return result

        return wrapper


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the time its direct
    children cover.  Children of one span never overlap (one thread), so the
    covered time is the sum of their durations."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [end - start - child_time[i]
            for i, (name, parent, start, end) in enumerate(spans)]


def totals_by_name(spans) -> dict[str, dict[str, float]]:
    """Per span name: summed self time ``self_s``, summed duration
    ``total_s`` and span count ``calls``."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span[0], {"self_s": 0.0, "total_s": 0.0,
                                         "calls": 0})
        entry["self_s"] += own
        entry["total_s"] += span[3] - span[2]
        entry["calls"] += 1
    return out


def write_spans(path, spans) -> None:
    """Write spans as CSV: index, name, parent index, start, end (s)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,name,parent,start_s,end_s\n")
        for i, (name, parent, start, end) in enumerate(spans):
            parent_field = "" if parent is None else str(parent)
            fh.write(f"{i},{name},{parent_field},{start!r},{end!r}\n")
