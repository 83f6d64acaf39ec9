"""Simulated resources: multi-core processor-sharing CPU stations.

Servers under benchmark load are modelled as egalitarian processor
sharing across ``cores`` CPUs: with *n* resident jobs each receives
service at rate ``speed * min(1, cores/n)`` reference-seconds per
second.  The implementation advances a per-job *virtual time* so only
the next departure is ever scheduled — O(log n) per arrival/departure,
which keeps 2700-user experiments fast in pure Python.

Worker-pool semantics mirror real servers: admissions beyond the
concurrency limit wait in an accept queue; beyond the queue limit they
are rejected (connection refused), which is one of the two error paths
behind the paper's incomplete high-load trials (Table 7).

The two hot paths, :meth:`ProcessorSharingStation.submit` and the
departure handler, each advance the clock, update the job heap and
push the one next-departure :class:`~repro.sim.engine.Event` straight
onto the simulator's heap, in one frame.  A departure admits every
waiting job it can before it reschedules, so it pushes one event where
a reschedule per admission would leave tombstones behind.  Every
floating-point operation keeps its operands and its order, and a
skipped tombstone only leaves a gap in the sequence numbers, so live
events keep their relative order: results are bit-identical to the
one-reschedule-per-change form (``tests/test_sim_core.py`` holds that
form as a reference and compares the two).
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.sim.engine import Event


class ProcessorSharingStation:
    """A PS multi-core CPU with an optional worker pool and accept queue."""

    def __init__(self, sim, name, cores=1, speed=1.0,
                 concurrency_limit=None, queue_limit=None):
        if cores < 1:
            raise SimulationError(f"{name}: cores must be >= 1")
        if speed <= 0:
            raise SimulationError(f"{name}: speed must be positive")
        self.sim = sim
        self.name = name
        self.cores = cores
        self.speed = speed
        self.concurrency_limit = concurrency_limit
        self.queue_limit = queue_limit
        self._active = []            # heap of (finish_v, seq, demand, on_done)
        self._n_active = 0
        self._virtual = 0.0
        self._last_update = sim.now
        self._departure_event = None
        self._waiting = deque()      # (demand, on_done), first come first
        self._seq = itertools.count()
        # Accounting.
        self.busy_area = 0.0         # integral of utilization over time
        self.completed = 0
        self.rejected = 0
        self.total_service = 0.0

    # With n resident jobs the busy share is min(n, cores) / cores and
    # each job's rate speed * min(1, cores / n); the conditional forms
    # below give the same floats without the min() calls.

    def _advance_clock(self):
        now = self.sim.now
        dt = now - self._last_update
        if dt < 0:
            raise SimulationError(f"{self.name}: clock moved backwards")
        if dt > 0:
            n = self._n_active
            if n:
                cores = self.cores
                speed = self.speed
                self.busy_area += (1.0 if n >= cores else n / cores) * dt
                self._virtual += (speed if n <= cores
                                  else speed * (cores / n)) * dt
            self._last_update = now

    # -- job lifecycle ---------------------------------------------------------

    def submit(self, demand, on_done):
        """Offer a job; returns False when the accept queue rejects it."""
        if demand < 0:
            raise SimulationError(f"{self.name}: negative demand {demand}")
        sim = self.sim
        now = sim.now
        n = self._n_active
        cores = self.cores
        speed = self.speed
        dt = now - self._last_update
        if dt > 0:
            if n:
                self.busy_area += (1.0 if n >= cores else n / cores) * dt
                self._virtual += (speed if n <= cores
                                  else speed * (cores / n)) * dt
            self._last_update = now
        elif dt < 0:
            raise SimulationError(f"{self.name}: clock moved backwards")
        limit = self.concurrency_limit
        if limit is not None and n >= limit:
            if (self.queue_limit is not None
                    and len(self._waiting) >= self.queue_limit):
                self.rejected += 1
                return False
            self._waiting.append((demand, on_done))
            return True
        active = self._active
        virtual = self._virtual
        heappush(active, (virtual + demand, next(self._seq), demand, on_done))
        n += 1
        self._n_active = n
        event = self._departure_event
        if event is not None:
            event[2] = None
        remaining = active[0][0] - virtual
        event = Event((
            now + (remaining if remaining > 0.0 else 0.0)
            / (speed if n <= cores else speed * (cores / n)),
            next(sim._seq), self._depart))
        heappush(sim._heap, event)
        self._departure_event = event
        return True

    def _depart(self):
        # A departure event exists only while a job is active: n >= 1.
        sim = self.sim
        now = sim.now
        n = self._n_active
        cores = self.cores
        speed = self.speed
        dt = now - self._last_update
        if dt > 0:
            self.busy_area += (1.0 if n >= cores else n / cores) * dt
            self._virtual += (speed if n <= cores
                              else speed * (cores / n)) * dt
            self._last_update = now
        elif dt < 0:
            raise SimulationError(f"{self.name}: clock moved backwards")
        active = self._active
        virtual = self._virtual
        done_by = virtual + 1e-12
        finished = []
        while active and active[0][0] <= done_by:
            finished.append(heappop(active))
        # An empty ``finished`` is numerical slack: the head job is not
        # quite done yet, and the departure is pushed again.
        if finished:
            n -= len(finished)
            waiting = self._waiting
            limit = self.concurrency_limit
            while waiting and (limit is None or n < limit):
                demand, on_done = waiting.popleft()
                heappush(active, (virtual + demand, next(self._seq),
                                  demand, on_done))
                n += 1
            self._n_active = n
        if n:
            remaining = active[0][0] - virtual
            event = Event((
                now + (remaining if remaining > 0.0 else 0.0)
                / (speed if n <= cores else speed * (cores / n)),
                next(sim._seq), self._depart))
            heappush(sim._heap, event)
            self._departure_event = event
        else:
            self._departure_event = None
        for _finish_v, _seq, demand, on_done in finished:
            self.completed += 1
            self.total_service += demand
            on_done()

    # -- introspection --------------------------------------------------------

    @property
    def resident_jobs(self):
        return self._n_active + len(self._waiting)

    def utilization_since(self, t0, area0):
        """Mean utilization over [t0, now] given the area reading at t0."""
        self._advance_clock()
        dt = self.sim.now - t0
        if dt <= 0:
            return 0.0
        return (self.busy_area - area0) / dt

    def area_reading(self):
        self._advance_clock()
        return self.sim.now, self.busy_area
