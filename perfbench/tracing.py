"""Spans and counters recorded around calls into linkgcn's public functions.

The trace lives outside the package. For each target function it replaces
every reference to that function object held by a loaded ``linkgcn`` module,
so a call is caught whichever module it goes through, and it puts the
originals back on exit. A target that is missing or never called reports
0 calls; restructuring the package changes the numbers, not whether the
trace runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


def _patch_everywhere(orig, replacement, patched: list) -> None:
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "linkgcn" or name.startswith("linkgcn.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)
                patched.append((mod, attr, orig))


def _restore(patched: list) -> None:
    for mod, attr, orig in reversed(patched):
        setattr(mod, attr, orig)
    patched.clear()


def _lookup(module: str, attr: str):
    return getattr(importlib.import_module(module), attr, None)


class Tracer:
    """Context manager that records one span per call of each target.

    ``targets`` holds ``(span name, module, attribute, counter)`` tuples. A
    counter, when given, is called as ``counter(counters, args, kwargs,
    result)`` after the span ends and appends values to lists in the
    ``counters`` dict. Spans are ``[name, parent index, start, end]`` with
    ``perf_counter`` times; the parent is the innermost enclosing span.
    """

    def __init__(self, targets):
        self.targets = targets
        self.spans: list = []
        self.counters: dict = defaultdict(list)
        self.overhead_s = 0.0
        self.absent: list = []
        self._stack: list = []
        self._patched: list = []

    def __enter__(self):
        for name, module, attr, counter in self.targets:
            orig = _lookup(module, attr)
            if orig is None:
                self.absent.append(name)
                continue
            _patch_everywhere(orig, self._wrap(name, orig, counter), self._patched)
        return self

    def __exit__(self, *exc):
        _restore(self._patched)

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = _clock()
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                span[2], span[3] = start, end
            if counter is not None:
                counter(self.counters, args, kwargs, result)
            self.overhead_s += (start - enter) + (_clock() - end)
            return result

        return traced

    def take(self):
        """Return (spans, counters, overhead seconds) recorded since the last
        take and start afresh. Call only between top-level calls."""
        out = (list(self.spans), dict(self.counters), self.overhead_s)
        self.spans.clear()
        self.counters.clear()
        self.overhead_s = 0.0
        return out


class ReturnTap:
    """Context manager that keeps the return values of one function, with no
    timing, so an untraced run can check intermediate results."""

    def __init__(self, module: str, attr: str):
        self.module, self.attr = module, attr
        self.values: list = []
        self._patched: list = []

    def __enter__(self):
        orig = _lookup(self.module, self.attr)
        if orig is not None:
            @functools.wraps(orig)
            def tapped(*args, **kwargs):
                result = orig(*args, **kwargs)
                self.values.append(result)
                return result
            _patch_everywhere(orig, tapped, self._patched)
        return self

    def __exit__(self, *exc):
        _restore(self._patched)


def summarize(spans):
    """Per span name: calls, total seconds and self seconds. Self time is a
    span's duration minus the durations of its direct children."""
    calls: dict = defaultdict(int)
    total: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    for name, parent, start, end in spans:
        d = end - start
        calls[name] += 1
        total[name] += d
        self_s[name] += d
        if parent >= 0:
            self_s[spans[parent][0]] -= d
    return calls, total, self_s


def root_seconds(spans) -> float:
    return sum(end - start for _, parent, start, end in spans if parent < 0)
