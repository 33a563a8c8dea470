"""In-memory span tracer that instruments the smoothldc package from outside.

Tracing wraps functions the package looks up at call time (module globals,
including names bound by ``from .x import f``, and class attributes) and
restores them afterwards, so nothing under ``src/`` is edited and an
untraced operation runs exactly the code a user runs.

A span records name, start, end, parent span and request id. One request is
one benchmark operation (a verify battery, a retrieval, a provision cycle);
spans and counters outside a request are not recorded. Self time is a span's
duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager


class MissingTarget(AttributeError):
    """A function to be traced is not where the instrumentation expects it."""


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, request id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[tuple[int, str], int] = {}
        self.request_id = 0  # 0: outside any request
        self.requests = 0
        self._stack = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    @contextmanager
    def request(self):
        """Mark one benchmark operation; nests nothing, closed-loop only."""
        self.requests += 1
        self.request_id = self.requests
        try:
            yield self.request_id
        finally:
            self.request_id = 0

    def count(self, name: str, n: int = 1, rid: int | None = None) -> None:
        rid = self.request_id if rid is None else rid
        if rid:
            with self._lock:
                key = (rid, name)
                self.counters[key] = self.counters.get(key, 0) + n

    def _parents(self) -> list[int]:
        stack = getattr(self._stack, "v", None)
        if stack is None:
            stack = self._stack.v = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        """Span every call of fn; counter(args, result) -> {name: n} adds
        work counts measured at the same boundary."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rid = self.request_id
            if not rid:
                return fn(*args, **kwargs)
            parents = self._parents()
            with self._lock:
                index = len(self.spans)
                self.spans.append((name, 0.0, 0.0, parents[-1] if parents else -1, rid))
            parents.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                parents.pop()
                self.spans[index] = (name, start, end, self.spans[index][3], rid)
            if counter is not None:
                for key, n in counter(args, result).items():
                    self.count(key, n, rid)
            return result

        return traced

    # --- installation ------------------------------------------------------

    def patch(self, owner, attr: str, name: str, counter=None, adapt=None) -> None:
        """Replace owner.attr with a traced version, and every other binding
        of the same function in the package's modules. adapt(original)
        returns an equivalent callable that also records work counts.
        A function the package no longer has raises MissingTarget: a layer
        that lost its instrument must not read as a gain."""
        original = getattr(owner, attr, None)
        if original is None:
            raise MissingTarget(f"{owner.__name__}.{attr}")
        traced = self.wrap(name, adapt(original) if adapt else original, counter)
        targets = [(owner, attr)]
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "smoothldc" and module is not owner:
                for key, value in vars(module).items():
                    if value is original:
                        targets.append((module, key))
        for target, key in targets:
            self._restore.append((target, key, getattr(target, key)))
            setattr(target, key, traced)

    def uninstall(self) -> None:
        while self._restore:
            target, key, value = self._restore.pop()
            setattr(target, key, value)

    @contextmanager
    def installed(self, install):
        """Apply install(self) for the duration of the block."""
        try:
            install(self)
        except BaseException:
            self.uninstall()
            raise
        try:
            yield
        finally:
            self.uninstall()

    # --- aggregation -------------------------------------------------------

    def per_request(self) -> dict[int, dict[str, float]]:
        """rid -> {"<span>.calls", "<span>.s" (inclusive), "<span>.self_s",
        counters...}."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, rid in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out: dict[int, dict[str, float]] = {}
        for index, (name, start, end, parent, rid) in enumerate(self.spans):
            row = out.setdefault(rid, {})
            covered = _union_length(children.get(index, ()), start, end)
            row[name + ".calls"] = row.get(name + ".calls", 0) + 1
            row[name + ".s"] = row.get(name + ".s", 0.0) + (end - start)
            row[name + ".self_s"] = row.get(name + ".self_s", 0.0) + (end - start - covered)
        for (rid, name), n in self.counters.items():
            out.setdefault(rid, {})[name] = n
        return out

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "request"],
            "spans": self.spans,
            "counters": [[rid, name, n] for (rid, name), n in sorted(self.counters.items())],
        }


def _union_length(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
