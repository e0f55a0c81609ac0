"""In-memory spans taken from outside the program.

The :class:`Tracer` wraps named public functions of the program at the
attribute their caller resolves (a module global, a class attribute or
one object's attribute), records one span per call, and puts every
original back on :meth:`Tracer.close`.  The program's files are never
edited.

A span is ``(id, name, start, end, parent, op, pid, counts)``.  Times
come from ``time.perf_counter`` (CLOCK_MONOTONIC, so spans from forked
worker processes share the parent's time base).  ``parent`` is the
span open in the calling thread when the call began; ``op`` is the
benchmark operation the thread was running.  Spans stay in memory;
a forked worker (``tree_reduce``'s pool) appends each of its spans to
a spool file that the parent reads back at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def op(self, op_id):
        """Mark the calling thread as running benchmark op ``op_id``."""
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = None

    def _record(self, span: tuple) -> None:
        if os.getpid() == self.pid:
            self.spans.append(span)
            return
        # a forked worker: its memory dies with it, so spool the span
        with open(self.spool / f"spans-{os.getpid()}.jsonl", "a") as f:
            f.write(json.dumps(span) + "\n")

    def timed(self, name: str, fn, counts=None):
        """``fn`` wrapped to record a span per call.

        ``counts(args, kwargs, result)`` may return a dict of numbers
        stored on the span (work done, outcome).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = self._local
            parent = getattr(local, "span", None)
            sid = f"{os.getpid()}:{next(self._ids)}"
            local.span = sid
            start = time.perf_counter()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                local.span = parent
                extra = counts(args, kwargs, result) if counts and ok else None
                self._record((sid, name, start, end, parent,
                              getattr(local, "op", None), os.getpid(), extra))

        return wrapper

    # -- installing ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` by its timed version until :meth:`close`.

        ``owner`` is a module, a class (plain, class- and static methods
        are handled) or a single object.
        """
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.timed(name, raw.__func__, counts))
            else:
                new = self.timed(name, raw, counts)
        else:
            new = self.timed(name, getattr(owner, attr), counts)
        self.replace(owner, attr, new)

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`close`."""
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, new)

    def close(self) -> None:
        """Put every wrapped attribute back, newest first."""
        for owner, attr, raw, own in reversed(self._patches):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def collect(self) -> list[tuple]:
        """Every span, this process's and the spooled workers'."""
        spans = list(self.spans)
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            with open(path) as f:
                spans += [tuple(json.loads(line)) for line in f]
        return spans


class SpanIndex:
    """Spans grouped by name, with self time computed once."""

    def __init__(self, spans: list[tuple]) -> None:
        children: dict[str, list[tuple[float, float]]] = {}
        for s in spans:
            if s[4] is not None:
                children.setdefault(s[4], []).append((s[2], s[3]))
        self.by_name: dict[str, list[tuple]] = {}
        self.self_time: dict[str, float] = {}
        for s in spans:
            self.by_name.setdefault(s[1], []).append(s)
            covered = _union(children.get(s[0], []), s[2], s[3])
            self.self_time[s[0]] = (s[3] - s[2]) - covered

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total(self, name: str) -> float:
        """Summed inclusive duration of every ``name`` span."""
        return sum(s[3] - s[2] for s in self.by_name.get(name, ()))

    def self_total(self, name: str) -> float:
        """Summed self time of every ``name`` span."""
        return sum(self.self_time[s[0]] for s in self.by_name.get(name, ()))

    def count(self, name: str, key: str) -> float:
        """Summed ``counts[key]`` over every ``name`` span."""
        return sum(
            (s[7] or {}).get(key, 0) for s in self.by_name.get(name, ())
        )

    def pids(self, name: str) -> set[int]:
        return {s[6] for s in self.by_name.get(name, ())}


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def write_span_file(path: Path, header: dict, spans: list[tuple]) -> None:
    """The trace as JSON: the environment header plus one record per span."""
    keys = ("id", "name", "start", "end", "parent", "op", "pid", "counts")
    with open(path, "w") as f:
        json.dump(
            {"env": header, "spans": [dict(zip(keys, s)) for s in spans]},
            f,
        )
