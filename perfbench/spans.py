"""In-memory span tracing around public calls (the traced run only).

A :class:`Tracer` replaces a public method or function with a wrapper that
records a :class:`Span` -- name, start, end, parent span and the window or
batch id it belongs to -- and puts the original back on :meth:`Tracer.restore`.
Nothing under ``src/`` is edited: instance attributes shadow methods, and
module attributes are swapped only for the duration of a traced phase.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


@dataclass
class Span:
    """One timed call: ``parent`` indexes ``Tracer.spans`` (-1 for a root)."""

    name: str
    start: float
    end: float
    parent: int
    group: int


def self_times(spans: List[Span], offset: int = 0) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    ``spans`` is a slice of a tracer's list that starts at index ``offset``
    with no span open.  Spans come from one thread and close in LIFO order,
    so a span's children never overlap each other and their durations
    simply add up.
    """
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent - offset] -= span.end - span.start
    return own


def self_totals(spans: List[Span], offset: int = 0) -> Dict[str, float]:
    """Self seconds summed per span name (see :func:`self_times`)."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans, offset)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


class Tracer:
    """Records spans around wrapped calls; ``group`` tags the current window."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.group = -1
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.group))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("spans must close in the order they opened")
        self._stack.pop()
        self.spans[index].end = self.clock()

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        observe: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span; ``observe`` sees each return value."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                observe(result)
            return result

        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Shadow ``owner.attr`` with a traced wrapper until :meth:`restore`."""
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, observe))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write(self, path: str) -> None:
        """Write every span, with its self time, as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span, own in zip(self.spans, self_times(self.spans)):
                record = {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "group": span.group,
                    "self": own,
                }
                handle.write(json.dumps(record) + "\n")


class GcTimer:
    """Time spent in the garbage collector, through ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = [0, 0, 0]
        self._start: Optional[float] = None

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.seconds += time.perf_counter() - self._start
            self.collections[info["generation"]] += 1
            self._start = None

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self)
