"""Discrete-event simulation kernel.

A minimal, fast event queue: events are ``(time, seq, fn, args)``
tuples in a binary heap.  ``seq`` is a monotonically increasing
tie-breaker that makes same-timestamp execution order deterministic
(FIFO) and keeps tuple comparison away from unorderable callables.

The hot loop avoids attribute lookups and allocation where possible --
this kernel executes tens of millions of events per experiment, so it
follows the optimisation guidance of keeping the per-event overhead
minimal rather than elegant.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

__all__ = ["Engine"]


class Engine:
    """Event queue with a simulated clock in nanoseconds.

    Built once per :class:`~repro.sim.network.Network`, which runs one
    experiment: nothing resets an engine, and a new run builds a new
    network.
    """

    __slots__ = ("now", "_heap", "_seq", "events_executed")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._seq: int = 0
        self.events_executed: int = 0

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` *delay* ns (>= 0) after the current time."""
        if not delay >= 0.0:
            raise ValueError(
                f"schedule(delay={delay!r}): the delay must be a "
                f"non-negative number of nanoseconds"
            )
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute time *when* (>= now)."""
        if not when >= self.now:
            raise ValueError(
                f"schedule_at(when={when!r}) is in the past (now={self.now!r}); "
                f"events cannot be scheduled before the current simulated time"
            )
        self._seq += 1
        heappush(self._heap, (when, self._seq, fn, args))

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Execute events in timestamp order.

        Stops when the queue is empty, when the next event is later than
        *until*, or after *max_events* events (a runaway guard).
        Returns the number of events executed by this call.

        The three loop variants below keep the per-event overhead
        minimal: the event budget is an integer countdown (-1 for
        unlimited) instead of a ``float("inf")`` comparison, and the
        heap/pop references are hoisted out of the loops.
        """
        heap = self._heap
        pop = heappop
        executed = 0
        if until is None:
            if max_events is None:
                while heap:
                    now, _, fn, args = pop(heap)
                    self.now = now
                    fn(*args)
                    executed += 1
            else:
                remaining = max_events
                while heap and remaining > 0:
                    now, _, fn, args = pop(heap)
                    self.now = now
                    fn(*args)
                    executed += 1
                    remaining -= 1
        else:
            if max_events is None:
                while heap and heap[0][0] <= until:
                    now, _, fn, args = pop(heap)
                    self.now = now
                    fn(*args)
                    executed += 1
            else:
                remaining = max_events
                while heap and remaining > 0 and heap[0][0] <= until:
                    now, _, fn, args = pop(heap)
                    self.now = now
                    fn(*args)
                    executed += 1
                    remaining -= 1
            if not heap or heap[0][0] > until:
                # Advance the clock to the horizon even if the queue ran
                # dry (but not when the event budget cut the run short).
                if self.now < until:
                    self.now = until
        self.events_executed += executed
        return executed

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)
