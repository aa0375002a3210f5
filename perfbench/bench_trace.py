"""In-memory span tracer that wraps the program's public entry points.

The benchmark traces from the outside: :meth:`Tracer.installed` replaces
selected functions and methods of the ``repro`` modules with timing
wrappers for the duration of a ``with`` block and restores the originals on
exit.  Every wrapped call records one span ``(name, start, end, parent)``
into four parallel ``array`` columns (about 28 bytes a span, so a
several-hundred-thousand-span serving run stays small), and the tracer
keeps per-name call counts, inclusive time and self time (a span's
duration minus the part its child spans cover) as it goes.

Spans are written out once, at the end of the run, by :meth:`Tracer.save`.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

#: a span name, or a function of the wrapped call's arguments giving one
SpanName = Union[str, Callable[..., str]]
#: optional hook ``after(tracer, args, result)`` run when a wrapped call returns
AfterHook = Callable[["Tracer", tuple, object], None]
#: one wrapping target: (owner module or class, attribute, span name, hook)
Target = Tuple[object, str, SpanName, Optional[AfterHook]]


class Tracer:
    """Span recorder with per-name call/self-time aggregates."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: List[int] = []
        self._child: List[float] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.incl_s: List[float] = []
        #: work counters bumped by ``after`` hooks (e.g. DP frontier states)
        self.counters: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        """Intern a span name."""
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
        return nid

    def enter(self, nid: int) -> int:
        """Open a span; returns its index."""
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(index)
        self._child.append(0.0)
        self.span_start.append(time.perf_counter())
        return index

    def exit(self, index: int) -> None:
        """Close the innermost span (``index`` is the value ``enter`` gave)."""
        end = time.perf_counter()
        self.span_end[index] = end
        self._stack.pop()
        child = self._child.pop()
        duration = end - self.span_start[index]
        nid = self.span_name[index]
        self.calls[nid] += 1
        self.incl_s[nid] += duration
        self.self_s[nid] += duration - child
        if self._child:
            self._child[-1] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        index = self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.exit(index)

    def count(self, key: str, amount: float) -> None:
        """Add to a work counter."""
        self.counters[key] = self.counters.get(key, 0.0) + amount

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Tuple[int, float, float]]:
        """Per-name ``(calls, self_s, inclusive_s)`` plus counters so far."""
        data: Dict[str, Tuple[int, float, float]] = {
            name: (self.calls[i], self.self_s[i], self.incl_s[i])
            for i, name in enumerate(self.names)
        }
        for key, value in self.counters.items():
            data["#" + key] = (0, value, 0.0)
        return data

    @staticmethod
    def delta(after: Dict[str, Tuple[int, float, float]],
              before: Dict[str, Tuple[int, float, float]]
              ) -> Dict[str, Tuple[int, float, float]]:
        """What happened between two snapshots."""
        out = {}
        for name, (calls, self_s, incl_s) in after.items():
            c0, s0, i0 = before.get(name, (0, 0.0, 0.0))
            if calls != c0 or self_s != s0 or incl_s != i0:
                out[name] = (calls - c0, self_s - s0, incl_s - i0)
        return out

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, name: SpanName,
              after: Optional[AfterHook]) -> Callable:
        enter, exit_, name_id = self.enter, self.exit, self.name_id
        # a fixed name is interned once; a callable name is resolved per call
        nid = name_id(name) if isinstance(name, str) else -1

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            index = enter(nid if nid >= 0 else name_id(name(*args, **kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(index)
            if after is not None:
                after(self, args, result)
            return result
        return wrapped

    @contextlib.contextmanager
    def installed(self, targets: Iterable[Target]):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, after in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def save(self, path: str) -> int:
        """Write every span to ``path`` (NumPy ``.npz``); returns the count.

        Arrays: ``names`` (span-name table), ``name`` (index into it),
        ``start``/``end`` (``perf_counter`` seconds) and ``parent`` (span
        index, -1 for a root).
        """
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )
        return len(self.span_start)
