"""Span recorder for the traced benchmark run (standard library only).

A span is one call into a layer: ``[name, start, end, parent, op, calls,
busy]``.  ``parent`` is the index of the enclosing span (or ``None``), ``op``
the id of the CLI operation the span belongs to, and ``busy`` its duration.
Functions called many thousand times per operation are *folded*: all calls
under one parent share a single record whose ``calls`` counts them and whose
``busy`` sums their durations, so memory stays small.

Spans are recorded from the benchmark's own code by wrapping the public
functions of the program's modules (see :func:`instrument`); nothing in the
program itself is changed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

NAME, START, END, PARENT, OP, CALLS, BUSY = range(7)


class Recorder:
    """Keeps spans and per-operation counters in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = {}
        self.peaks: dict[int, dict[str, float]] = {}
        self.op: int | None = None
        self._stack: list[int] = []
        self._folded: dict[tuple, int] = {}

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, 1, 0.0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        now = time.perf_counter()
        rec = self.spans[idx]
        rec[END] = now
        rec[BUSY] = now - rec[START]
        self._stack.pop()

    def fold(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else None
        key = (parent, name)
        idx = self._folded.get(key)
        if idx is None:
            self._folded[key] = len(self.spans)
            self.spans.append([name, start, end, parent, self.op, 1, end - start])
        else:
            rec = self.spans[idx]
            rec[END] = end
            rec[CALLS] += 1
            rec[BUSY] += end - start

    def add(self, name: str, value: float) -> None:
        """Add to a per-operation count."""
        ops = self.counters.setdefault(self.op, {})
        ops[name] = ops.get(name, 0.0) + value

    def maximum(self, name: str, value: float) -> None:
        """Raise a per-operation peak (a size or an error bound)."""
        ops = self.peaks.setdefault(self.op, {})
        ops[name] = max(ops.get(name, value), value)

    @contextlib.contextmanager
    def operation(self, op: int, name: str):
        """Open the root span of one CLI operation."""
        self.op = op
        self._folded.clear()
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)
            self.op = None


def _wrap(recorder: Recorder, name: str, fn, probe, fold: bool):
    if fold:
        @functools.wraps(fn)
        def folded(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.fold(name, start, time.perf_counter())
        return folded

    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        idx = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(idx)
        if probe is not None:
            probe(recorder, signature.bind(*args, **kwargs).arguments, result)
        return result
    return spanned


@contextlib.contextmanager
def instrument(recorder: Recorder, package: str, targets):
    """Wrap each target function for the duration of the block.

    ``targets`` holds ``(module, qualname, span_name, probe, fold)`` tuples.
    A plain function is replaced under every name that any loaded module of
    ``package`` binds it to (modules import each other's functions by name);
    a method ``Class.method`` is replaced on its class.  ``probe``, if given,
    is called after the span closes with ``(recorder, arguments, result)``,
    ``arguments`` mapping parameter names to the values passed, so that
    counts and sizes are recorded outside the timed interval.
    """
    restore = []
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == package or key.startswith(package + "."))]
    try:
        for module_name, qualname, span_name, probe, fold in targets:
            owner = sys.modules[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = _wrap(recorder, span_name, original, probe, fold)
            if path:
                restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, original))
                        setattr(module, key, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's busy time minus the busy time of its direct children."""
    own = [rec[BUSY] for rec in spans]
    for rec in spans:
        if rec[PARENT] is not None:
            own[rec[PARENT]] -= rec[BUSY]
    return own
