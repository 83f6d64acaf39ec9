"""Discrete-event simulation engine.

A minimal, fast event loop: a binary heap of timestamped callbacks with
stable FIFO ordering for simultaneous events and O(log n) cancellation
via tombstones.  Everything in the performance substrate (processor
sharing stations, client think times, monitor sampling) is built on it.

Each heap entry is an :class:`Event`, a ``[time, seq, fn]`` list.  The
sequence number is unique, so ``heapq`` orders entries with C list
comparison by ``(time, seq)`` and never reaches ``fn``.  ``cancel()``
clears ``fn`` to ``None``; the dispatch loops drop such tombstones
when they reach the head of the heap.
"""

from __future__ import annotations

import heapq
import itertools

from repro.errors import SimulationError


class Event(list):
    """A scheduled callback as a ``[time, seq, fn]`` heap entry;
    cancel() turns it into a tombstone."""

    __slots__ = ()

    @property
    def time(self):
        return self[0]

    @property
    def cancelled(self):
        return self[2] is None

    def cancel(self):
        self[2] = None


class Simulator:
    """The event loop; owns simulated time."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = itertools.count()
        self.events_processed = 0

    def schedule(self, delay, fn):
        """Schedule *fn* to run *delay* seconds from now; returns Event.

        *delay* must be >= 0 (NaN is rejected); ``inf`` means never.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        event = Event((self.now + delay, next(self._seq), fn))
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time, fn):
        """Schedule *fn* at absolute simulated *time*."""
        return self.schedule(time - self.now, fn)

    def peek_time(self):
        """Time of the next live event, or None."""
        heap = self._heap
        while heap:
            time, _seq, fn = heap[0]
            if fn is not None:
                return time
            heapq.heappop(heap)
        return None

    def step(self):
        """Run the next event; returns False when the heap is empty."""
        heap = self._heap
        while heap:
            time, _seq, fn = heapq.heappop(heap)
            if fn is None:
                continue
            if time < self.now - 1e-12:
                raise SimulationError(
                    f"time went backwards: {time} < {self.now}")
            if time > self.now:
                self.now = time
            self.events_processed += 1
            fn()
            return True
        return False

    def run_until(self, end_time):
        """Process events with time <= *end_time*; clock ends at end_time."""
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            time, _seq, fn = heap[0]
            if fn is None:
                heappop(heap)
                continue
            if time > end_time:
                break
            heappop(heap)
            if time < self.now - 1e-12:
                raise SimulationError(
                    f"time went backwards: {time} < {self.now}")
            if time > self.now:
                self.now = time
            self.events_processed += 1
            fn()
        self.now = max(self.now, end_time)

    def run_all(self, max_events=10_000_000):
        """Drain the heap entirely (bounded against runaway schedules)."""
        count = 0
        while self.step():
            count += 1
            if count > max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events"
                )
        return count
