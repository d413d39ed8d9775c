"""Bounded ingest queue with an explicit backpressure policy.

Real traffic does not wait for the classifier.  The serving engine therefore
fronts the stage chain with a bounded queue and makes the overload behaviour
an explicit, observable policy instead of unbounded buffering:

``"block"``
    The producer pays: when the queue is full the engine processes a batch
    inline before accepting the new item (in threaded mode the producer
    genuinely blocks until the worker drains).  Nothing is lost.

``"drop_oldest"``
    The freshest data wins: the oldest queued item is discarded to make
    room, which keeps detection latency bounded under sustained overload at
    the cost of coverage.  Every drop is counted.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.exceptions import ConfigurationError

BACKPRESSURE_POLICIES = ("block", "drop_oldest")


@dataclass
class BackpressureStats:
    """Counters describing how the ingest queue handled load."""

    submitted: int = 0
    accepted: int = 0
    dropped_oldest: int = 0
    forced_flushes: int = 0
    blocked_seconds: float = 0.0
    high_watermark: int = 0

    def to_dict(self) -> dict:
        """JSON-friendly view."""
        return {
            "submitted": self.submitted,
            "accepted": self.accepted,
            "dropped_oldest": self.dropped_oldest,
            "forced_flushes": self.forced_flushes,
            "blocked_seconds": self.blocked_seconds,
            "high_watermark": self.high_watermark,
        }


class BoundedQueue:
    """Thread-safe bounded FIFO with drop-oldest support and counters.

    ``push`` never blocks at this layer: for the ``block`` policy a full
    queue returns ``False`` and the *caller* (the engine) decides how to
    make room -- inline processing in synchronous mode, a condition wait in
    threaded mode.  For ``drop_oldest`` the queue evicts the head itself and
    always accepts.
    """

    def __init__(self, capacity: int, policy: str = "block"):
        if capacity < 1:
            raise ConfigurationError("queue capacity must be >= 1")
        if policy not in BACKPRESSURE_POLICIES:
            raise ConfigurationError(
                f"unknown backpressure policy {policy!r}; supported: {BACKPRESSURE_POLICIES}"
            )
        self.capacity = int(capacity)
        self.policy = policy
        self.stats = BackpressureStats()
        self._items: deque = deque()
        self._lock = threading.Lock()
        self.not_full = threading.Condition(self._lock)

    def __len__(self) -> int:
        return len(self._items)

    # ------------------------------------------------------------------- API
    def push(self, item: Any) -> bool:
        """Try to enqueue ``item``; returns False when the caller must drain.

        Under ``drop_oldest`` the push always succeeds (evicting the head
        when full); under ``block`` a full queue refuses the item.
        """
        with self._lock:
            self.stats.submitted += 1
            if len(self._items) >= self.capacity:
                if self.policy == "drop_oldest":
                    self._items.popleft()
                    self.stats.dropped_oldest += 1
                else:
                    self.stats.submitted -= 1  # retried by the caller
                    return False
            self._items.append(item)
            self.stats.accepted += 1
            if len(self._items) > self.stats.high_watermark:
                self.stats.high_watermark = len(self._items)
            return True

    def push_many(self, items: Sequence[Any]) -> int:
        """Enqueue as many of ``items`` as fit, in order, evicting nothing.

        Returns how many were taken; the counters move as one :meth:`push`
        per taken item would move them.
        """
        with self._lock:
            n = max(min(len(items), self.capacity - len(self._items)), 0)
            self._items.extend(items[:n])
            self.stats.submitted += n
            self.stats.accepted += n
            self.stats.high_watermark = max(self.stats.high_watermark, len(self._items))
            return n

    def drain(self, max_items: Optional[int] = None) -> List[Any]:
        """Pop up to ``max_items`` (all, when None) from the head."""
        with self._lock:
            if max_items is None or max_items >= len(self._items):
                items = list(self._items)
                self._items.clear()
            else:
                items = [self._items.popleft() for _ in range(max_items)]
            self.not_full.notify_all()
            return items

    def peek_oldest(self) -> Optional[Any]:
        """The head item without removing it (None when empty)."""
        with self._lock:
            return self._items[0] if self._items else None
