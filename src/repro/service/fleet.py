"""The shared worker fleet: one pool, many campaigns, fair shares.

A :class:`WorkerFleet` owns two persistent thread pools, a main lane
and an analytic fast lane, and multiplexes every attached campaign's
trial tasks over them.  It is the one plane that submits single tasks
rather than whole batches, so it runs them on threads, each on a
runner checked out from its campaign (the batch planes fork instead,
see :class:`~repro.experiments.scheduler.TrialScheduler`).

Admission runs inline, under the fleet lock, whenever a batch is
enqueued and whenever a task completes — there is no dispatcher
thread.  Each admission sweep enforces the service plane's scheduling
invariants:

- **round-robin fair share** — a sweep admits at most one task per
  campaign, walking campaigns in attach order, so a campaign with
  thousands of queued trials cannot starve one with ten;
- **per-campaign ceilings** — a campaign never holds more in-flight
  workers than its submitted ``jobs`` ceiling;
- **fleet backpressure** — admissions stop at the fleet's worker
  count; queued tasks simply wait;
- **analytic fast lane** — trials carrying ``fidelity="analytic"``
  dispatch onto a small dedicated worker pool, so millisecond-scale
  analytic sweeps never queue behind seconds-scale DES simulations
  from other tenants (or their own campaign's confirmation trials).

Determinism is inherited, not scheduled-for: trials are pure functions
of their task, and each campaign's results are delivered to its store
in task-submission order (out-of-order completions buffer), so a
campaign's shard rows are byte-identical no matter how its tasks
interleave with other tenants on the pool.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro import hotpath
from repro.errors import CampaignCancelled, ServiceError
from repro.obs.tracer import as_tracer
from repro.sim import ANALYTIC, DES


class _TenantQueue:
    """One campaign's seat on the fleet: queue, ceiling, ordering."""

    def __init__(self, campaign_id, runner_factory, ceiling):
        self.campaign_id = campaign_id
        self.runner_factory = runner_factory
        self.ceiling = max(1, ceiling)
        self.pending = deque()       # (seq, task) not yet admitted
        self.in_flight = 0           # admitted, not yet completed
        self.next_seq = 0            # submission counter
        self.next_deliver = 0        # the seq the store gets next
        self.buffered = {}           # seq -> result (completed early)
        self.cancelled = False
        self.batch = None            # the active _Batch, if any
        self.idle = []               # runners no task has checked out

    def admissible(self):
        return (not self.cancelled and self.pending
                and self.in_flight < self.ceiling)


class _Batch:
    """One ``run_tasks`` call in flight: what's owed and to whom."""

    def __init__(self, expected, on_result):
        self.expected = expected
        self.on_result = on_result
        self.results = []
        self.error = None

    def settled(self):
        return self.error is not None or len(self.results) >= self.expected


class FleetLease:
    """A campaign's handle on the fleet — its executor.

    Satisfies the :meth:`ObservationCampaign.run` executor protocol:
    ``run_tasks(tasks, on_result)`` blocks until every task is
    delivered (in task order) and returns the results.  ``cancel()``
    drops the campaign's queued tasks and makes the blocked
    ``run_tasks`` raise :class:`CampaignCancelled` once in-flight work
    drains; ``close()`` detaches the campaign and retires its worker
    runners.
    """

    def __init__(self, fleet, campaign_id):
        self.fleet = fleet
        self.campaign_id = campaign_id

    def run_tasks(self, tasks, on_result=None):
        return self.fleet.run_tasks(self.campaign_id, tasks, on_result)

    def cancel(self):
        self.fleet.cancel(self.campaign_id)

    def close(self):
        self.fleet.detach(self.campaign_id)


class WorkerFleet:
    """``jobs`` persistent thread workers shared by every campaign."""

    def __init__(self, *, jobs=4, tracer=None):
        if jobs < 1:
            raise ServiceError(f"fleet needs at least 1 worker, got {jobs}")
        self.jobs = jobs
        # The analytic fast lane: a small second pool sized off the
        # main one.  Analytic trials take ~1ms each, so a handful of
        # workers absorbs any tenant's exploration round.
        self.fast_jobs = max(2, min(4, jobs))
        self.tracer = as_tracer(tracer)
        self._pool = ThreadPoolExecutor(max_workers=jobs)
        self._fast_pool = ThreadPoolExecutor(max_workers=self.fast_jobs)
        self._cond = threading.Condition()
        self._queues = {}            # campaign_id -> _TenantQueue
        self._in_flight = 0          # main-lane admitted tasks
        self._fast_in_flight = 0     # fast-lane admitted tasks
        self._dispatched = 0         # lifetime admission counter
        self._admitting = False      # an admission sweep is running
        self._closed = False

    # -- campaign lifecycle ------------------------------------------------

    def attach(self, campaign_id, runner_factory, *, ceiling=1):
        """Give *campaign_id* a seat on the fleet; returns its lease.

        *runner_factory* builds the campaign's runners, one per task
        it has running at once (see :meth:`_run`); *ceiling* is the
        campaign's ``jobs`` cap — how many fleet workers it may hold at
        once, regardless of how idle the fleet is.
        """
        with self._cond:
            if self._closed:
                raise ServiceError("worker fleet is shut down")
            if campaign_id in self._queues:
                raise ServiceError(
                    f"campaign {campaign_id!r} is already attached")
            self._queues[campaign_id] = _TenantQueue(
                campaign_id, runner_factory, ceiling)
        return FleetLease(self, campaign_id)

    def detach(self, campaign_id):
        """Remove the campaign's seat; its runners go with it."""
        with self._cond:
            self._queues.pop(campaign_id, None)

    def cancel(self, campaign_id):
        """Drop the campaign's queued tasks; in-flight trials finish
        (and are delivered), then its blocked ``run_tasks`` raises
        :class:`CampaignCancelled`."""
        with self._cond:
            queue = self._queues.get(campaign_id)
            if queue is None:
                return
            queue.cancelled = True
            queue.pending.clear()
            self._cond.notify_all()

    # -- execution ---------------------------------------------------------

    def run_tasks(self, campaign_id, tasks, on_result=None):
        """Execute *tasks* for *campaign_id*; blocks until delivered.

        Results return (and *on_result* fires) in task-submission
        order.  One batch per campaign at a time — campaigns drive
        their batches sequentially (a fixed grid is one batch, an
        adaptive exploration one batch per planner round).
        """
        tasks = list(tasks)
        with self._cond:
            queue = self._queues.get(campaign_id)
            if queue is None:
                raise ServiceError(
                    f"campaign {campaign_id!r} is not attached")
            if queue.cancelled:
                raise CampaignCancelled(
                    f"campaign {campaign_id!r} was cancelled")
            if queue.batch is not None and not queue.batch.settled():
                raise ServiceError(
                    f"campaign {campaign_id!r} already has a batch in "
                    f"flight")
            batch = _Batch(len(tasks), on_result)
            queue.batch = batch
            for task in tasks:
                queue.pending.append((queue.next_seq, task))
                queue.next_seq += 1
            self._admit_locked()
            while not batch.settled():
                if queue.cancelled and queue.in_flight == 0 \
                        and not queue.pending:
                    raise CampaignCancelled(
                        f"campaign {campaign_id!r} cancelled with "
                        f"{batch.expected - len(batch.results)} trial(s) "
                        f"undelivered")
                self._cond.wait()
            queue.batch = None
            if batch.error is not None:
                raise batch.error
            return batch.results

    def _admit_locked(self):
        """Sweep until nothing more is admitted (caller holds ``_cond``).

        A done-callback fires at once when its task has already
        finished by the time it is attached, re-entering here on the
        same thread (the lock is reentrant).  That inner call returns at once: it can only
        happen during a sweep that admitted a task, so the outer loop
        sweeps again anyway — admission never recurses.
        """
        if self._admitting:
            return
        self._admitting = True
        try:
            while self._sweep():
                pass
        finally:
            self._admitting = False

    def _sweep(self):
        """One round-robin sweep; returns how many were admitted.

        Each queue's *head* task picks its lane: analytic trials go to
        the fast pool, everything else to the main pool.  A lane at
        capacity skips the queue for this sweep (the task waits for its
        own lane rather than crossing over and queueing behind the
        other tier's work)."""
        admitted = 0
        for queue in list(self._queues.values()):
            if self._in_flight >= self.jobs \
                    and self._fast_in_flight >= self.fast_jobs:
                break
            if not queue.admissible():
                continue
            seq, task = queue.pending[0]
            fast = getattr(task, "fidelity", DES) == ANALYTIC
            if fast:
                if self._fast_in_flight >= self.fast_jobs:
                    continue
            elif self._in_flight >= self.jobs:
                continue
            queue.pending.popleft()
            queue.in_flight += 1
            if fast:
                self._fast_in_flight += 1
            else:
                self._in_flight += 1
            self._dispatched += 1
            admitted += 1
            pool = self._fast_pool if fast else self._pool
            future = pool.submit(self._run, queue, task)
            future.add_done_callback(
                lambda future, q=queue, s=seq, f=fast:
                    self._task_done(q, s, future, fast=f))
        if admitted:
            self.tracer.count("fleet.tasks_admitted", admitted)
        return admitted

    def _run(self, queue, task):
        """Execute one task on the calling pool thread.

        The task checks out an idle runner of its campaign (building
        one if none is idle) and returns it when done: each runner owns
        a cluster, and a campaign holds as many runners as it ever had
        tasks running at once.  Cache lookups inside are attributed to
        the campaign.
        """
        with self._cond:
            runner = queue.idle.pop() if queue.idle else None
        if runner is None:
            runner = queue.runner_factory()
        try:
            with hotpath.tenant(queue.campaign_id):
                return runner.run_task(task)
        finally:
            with self._cond:
                queue.idle.append(runner)

    def _task_done(self, queue, seq, future, fast=False):
        """Completion callback (worker thread): deliver in seq order.

        The store callback runs under the fleet lock — it must not
        call back into the fleet.  The campaign ingest closures only
        touch their own shard database, which is exactly the contract.
        """
        with self._cond:
            queue.in_flight -= 1
            if fast:
                self._fast_in_flight -= 1
            else:
                self._in_flight -= 1
            batch = queue.batch
            error = future.exception()
            if error is not None:
                # An undeliverable trial (no retry policy absorbing the
                # failure) aborts the campaign's batch; its queued
                # tasks are dropped so the fleet moves on.
                queue.pending.clear()
                if batch is not None and batch.error is None:
                    batch.error = error
                self.tracer.count("fleet.tasks_failed", 1)
            else:
                queue.buffered[seq] = future.result()
                while queue.next_deliver in queue.buffered:
                    result = queue.buffered.pop(queue.next_deliver)
                    queue.next_deliver += 1
                    if batch is not None:
                        batch.results.append(result)
                        if batch.on_result is not None:
                            batch.on_result(result)
                self.tracer.count("fleet.tasks_done", 1)
            self._admit_locked()
            self._cond.notify_all()

    # -- observability and lifecycle ---------------------------------------

    def stats(self):
        """A snapshot of the fleet's scheduling state."""
        with self._cond:
            return {
                "workers": self.jobs,
                "in_flight": self._in_flight,
                "fast_workers": self.fast_jobs,
                "fast_in_flight": self._fast_in_flight,
                "dispatched": self._dispatched,
                "campaigns": {
                    cid: {
                        "pending": len(q.pending),
                        "in_flight": q.in_flight,
                        "ceiling": q.ceiling,
                        "cancelled": q.cancelled,
                    }
                    for cid, q in self._queues.items()
                },
            }

    def close(self):
        """Cancel every campaign and shut both worker pools down."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            for queue in self._queues.values():
                queue.cancelled = True
                queue.pending.clear()
            self._cond.notify_all()
        self._pool.shutdown(wait=True)
        self._fast_pool.shutdown(wait=True)
