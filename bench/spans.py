"""Span recorder for the traced run.

Spans are recorded only from ``bench/`` files: timing wrappers are
installed *around* a fixed list of the program's public callables (no
file under ``src/`` changes) and removed again afterwards. A span is
``(name, start, end, parent, op)``; the parent is the span open on the
same thread when this one started, and the op id ties the spans of one
request together (a job id on the serve twin, an iteration number in
process). Spans stay in memory and are written out once, at exit.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover — children are strictly nested on one
thread here, so that part is simply the sum of their durations.
"""

from __future__ import annotations

import functools
import os
import threading
import time

from harness import median, write_json

_NAME, _START, _END, _PARENT, _OP, _NOTE = range(6)


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._patched: list = []       # (owner, attr, original)
        self.current_op = None         # default op id (in-process loops)
        # a forked worker inherits the wrappers; it must not pay for (or
        # grow) a span list nobody will ever read
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # -- recording -----------------------------------------------------
    def _open(self, name: str, op) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        if op is None:
            thread = threading.current_thread().name
            # serve's JobRun threads are named after their job
            op = (thread[len("jobrun-"):] if thread.startswith("jobrun-")
                  else self.current_op)
        parent = stack[-1] if stack else -1
        rec = [name, 0.0, 0.0, parent, op, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        rec[_START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[_END] = time.perf_counter()
        self._tls.stack.pop()

    def span(self, name: str, op=None):
        """Context manager recording one span (no-op when disabled)."""
        return _SpanCtx(self, name, op)

    def wrap(self, owner, attr: str, name: str, note=None,
             aliases=()) -> None:
        """Replace ``owner.attr`` by a timing wrapper named ``name``.

        ``note(result, *args, **kw)`` may return a value stored with
        the span (a job id, a byte count, a queue depth). A note that
        is a string starting with ``"op:"`` sets the span's op id.
        ``aliases`` are further ``(module, attr)`` bindings of the same
        callable — modules that imported it by name.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def timed(*args, **kw):
            if not recorder.enabled:
                return original(*args, **kw)
            rec = recorder._open(name, None)
            try:
                result = original(*args, **kw)
            finally:
                recorder._close(rec)
            if note is not None:
                value = note(result, *args, **kw)
                if isinstance(value, str) and value.startswith("op:"):
                    rec[_OP] = value[3:]
                else:
                    rec[_NOTE] = value
            return result

        for extra in ("cache_clear", "cache_info"):   # lru_cache surface
            if hasattr(original, extra):
                setattr(timed, extra, getattr(original, extra))
        for site, site_attr in ((owner, attr), *aliases):
            self._patched.append((site, site_attr, getattr(site, site_attr)))
            setattr(site, site_attr, timed)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------
    def resolve_ops(self) -> None:
        """Give every span without an op id its nearest ancestor's."""
        spans = self.spans
        for rec in spans:
            parent = rec[_PARENT]
            while rec[_OP] is None and parent >= 0:
                rec[_OP] = spans[parent][_OP]
                parent = spans[parent][_PARENT]

    def durations(self, name: str) -> list:
        return [r[_END] - r[_START] for r in self.spans if r[_NAME] == name]

    def notes(self, name: str) -> list:
        return [r[_NOTE] for r in self.spans
                if r[_NAME] == name and r[_NOTE] is not None]

    def records(self, name: str) -> list:
        """``(duration, note)`` of every span called ``name``."""
        return [(r[_END] - r[_START], r[_NOTE]) for r in self.spans
                if r[_NAME] == name]

    def count(self, name: str) -> int:
        return sum(1 for r in self.spans if r[_NAME] == name)

    def self_times(self) -> dict:
        """name -> list of self times (duration minus child durations)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child_time[rec[_PARENT]] += rec[_END] - rec[_START]
        out: dict = {}
        for rec, covered in zip(spans, child_time):
            out.setdefault(rec[_NAME], []).append(
                rec[_END] - rec[_START] - covered)
        return out

    def median_ms(self, name: str) -> float:
        values = self.durations(name)
        return median(values) * 1e3 if values else 0.0

    def dump(self, path: str) -> None:
        self.resolve_ops()
        write_json(path, {
            "fields": ["name", "start", "end", "parent", "op", "note"],
            "spans": self.spans,
        })


class _SpanCtx:
    __slots__ = ("recorder", "name", "op", "rec")

    def __init__(self, recorder, name, op):
        self.recorder = recorder
        self.name = name
        self.op = op
        self.rec = None

    def __enter__(self):
        if self.recorder.enabled:
            self.rec = self.recorder._open(self.name, self.op)
        return self

    def __exit__(self, *exc):
        if self.rec is not None:
            self.recorder._close(self.rec)
        return False
