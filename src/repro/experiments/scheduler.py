"""Trial scheduling: sweep points as tasks, executed on a worker pool.

The paper ran its "very large families of experiments" concurrently
across three clusters (Warp, Rohan, Emulab); this module is the
package's form of that: every ``(topology, workload, write_ratio,
repetition)`` point of an experiment becomes an immutable
:class:`TrialTask`, and a :class:`TrialScheduler` executes the tasks on
``jobs`` workers, each worker owning its own virtual cluster and runner
so no virtual-host state ever crosses workers.

Determinism is the contract: every trial derives its random streams
from ``(seed + repetition)`` alone, and the scheduler delivers results
to the caller in task-enumeration order regardless of completion order,
so a ``jobs=8`` campaign stores exactly the rows (in exactly the order)
a ``jobs=1`` campaign would.

That contract is one executor protocol, ``run_tasks(tasks,
on_result=None)``, with three implementations: the
:class:`~repro.experiments.runner.ExperimentRunner` itself (the
sequential ``jobs=1`` executor), the :class:`TrialScheduler` pool, and
the daemon's :class:`~repro.service.fleet.FleetLease`.
:func:`executor_for` makes the ``jobs`` decision between the first two
once, for every caller, and :func:`run_unstored` states the resume rule
every resumable batch follows.

Backends: ``"thread"`` shares the interpreter (cheap, but serialized by
the GIL for this CPU-bound simulation) and ``"process"`` forks one
interpreter per worker (true parallelism on multi-core hosts).  The
default picks ``"process"`` where ``fork`` is available.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

from repro import hotpath
from repro.errors import ExperimentError
from repro.experiments.trial import TrialKey
from repro.obs.tracer import as_tracer

THREAD = "thread"
PROCESS = "process"
BACKENDS = (THREAD, PROCESS)


@dataclass(frozen=True)
class TrialTask:
    """One schedulable trial: a sweep point plus its repetition."""

    index: int                 # position in enumeration order
    experiment: object         # spec.tbl ExperimentDef (frozen)
    topology: object
    workload: int
    write_ratio: float
    repetition: int = 0
    fidelity: str = "des"      # solver tier this trial runs under

    @property
    def seed(self):
        """The seed this repetition replays under (seed, seed+1, ...)."""
        return self.experiment.seed + self.repetition

    def key(self):
        """The trial's identity — the results database's UNIQUE key."""
        return TrialKey(self.experiment.name, self.topology.label(),
                        self.workload, self.write_ratio, self.seed,
                        self.fidelity, self.experiment.scenario)


def enumerate_tasks(experiment, start_index=0, fidelity="des"):
    """Every trial of *experiment* as :class:`TrialTask`\\ s, in the
    canonical sweep order (points outer, repetitions inner) that a
    sequential :meth:`ExperimentRunner.run_experiment` executes."""
    tasks = []
    index = start_index
    for topology, workload, write_ratio in experiment.points():
        for repetition in range(experiment.repetitions):
            tasks.append(TrialTask(index, experiment, topology, workload,
                                   write_ratio, repetition,
                                   fidelity=fidelity))
            index += 1
    return tasks


#: Total virtual hosts the auto-sized pool may hold live at once; each
#: worker owns a full cluster, so huge topologies shrink the pool.
_HOST_BUDGET = 512


def calc_parallel_jobs(node_count=None, trial_count=None):
    """Auto-size the worker pool (the ``--jobs auto`` resolution).

    One core is reserved for the campaign's main/ingest thread — the
    write-behind store and progress callbacks run there, and starving
    it stalls every worker at the results barrier.  *node_count* makes
    the sizing topology-aware: each worker clones the campaign's whole
    virtual cluster, so large topologies cap the pool to keep the
    total live host count bounded.  *trial_count* caps the pool at the
    work available.  Always at least 1.
    """
    cpus = os.cpu_count() or 1
    jobs = max(1, cpus - 1)
    if node_count:
        jobs = min(jobs, max(1, _HOST_BUDGET // node_count))
    if trial_count is not None:
        jobs = min(jobs, max(1, trial_count))
    return jobs


def default_backend():
    """Process workers where ``fork`` exists, threads otherwise.

    This is a static choice: it cannot see whether the campaign's
    results will actually survive the worker→parent pickle (a tracer or
    fault hook configured with a lambda or a lock-bearing closure will
    not).  The scheduler therefore treats the process backend as a
    best-effort default and falls back to threads at run time when
    result pickling fails — see :meth:`TrialScheduler._process_batch`.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return PROCESS
    return THREAD


# Per-process worker state for the process backend.  The initializer
# runs once in each forked worker; the runner it builds (cluster and
# all) lives for the worker's lifetime and never crosses processes.
_WORKER_RUNNER = None


def _process_init(runner_factory):
    global _WORKER_RUNNER
    _WORKER_RUNNER = runner_factory()


def _process_run(task):
    return _WORKER_RUNNER.run_task(task)


class TrialScheduler:
    """A pool of ``jobs`` workers executing :class:`TrialTask`\\ s.

    *runner_factory* builds one ExperimentRunner (with its own
    VirtualCluster) per concurrently running task, at most one per
    worker.  The pool — and the runners, with their clusters — starts
    lazily on the first task and persists
    until :meth:`close` (or the end of a ``with`` block), so a caller
    feeding successive batches (the adaptive planner's rounds) pays
    worker start-up once, not once per batch.

    :meth:`run_tasks` returns results in task order and invokes
    *on_result* in task order from the calling thread, buffering
    out-of-order completions, so downstream stores see a deterministic
    sequence.  A process pool whose results cannot pickle falls back to
    the thread backend *permanently* — the rest of the failing batch
    and every later batch run on threads, spliced in task order.

    A *tracer* records scheduler counters on the submitting side
    (``scheduler.tasks_queued`` / ``tasks_running`` / ``tasks_done`` /
    ``tasks_failed``) regardless of backend; per-trial spans come from
    the workers' runners and travel on the results themselves.
    """

    def __init__(self, runner_factory, *, jobs=1, backend=None,
                 tracer=None):
        if jobs < 1:
            raise ExperimentError(f"jobs must be at least 1, got {jobs}")
        if backend is not None and backend not in BACKENDS:
            raise ExperimentError(
                f"unknown scheduler backend {backend!r}; "
                f"known: {', '.join(BACKENDS)}"
            )
        self.runner_factory = runner_factory
        self.jobs = jobs
        self.backend = backend or default_backend()
        self.tracer = as_tracer(tracer)
        self._pool = None
        self._runners = {}           # tenant -> its idle runners
        self._runners_lock = threading.Lock()
        self._closed = False

    # -- lifecycle --------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def close(self):
        """Shut the pool down (waiting for in-flight work) and forget
        all worker runners.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._teardown_pool()
        with self._runners_lock:
            self._runners.clear()

    def _teardown_pool(self):
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _check_open(self):
        if self._closed:
            raise ExperimentError(
                "trial scheduler is closed; create a new scheduler")

    # -- the executor protocol --------------------------------------------

    def run_tasks(self, tasks, on_result=None):
        """Execute one batch; returns TrialResults in task order."""
        self._check_open()
        tasks = list(tasks)
        self.tracer.count("scheduler.tasks_queued", len(tasks))
        if not tasks:
            return []
        if self.backend == THREAD:
            return self._thread_batch(tasks, on_result)
        return self._process_batch(tasks, on_result)

    def submit(self, task, *, tenant=None, runner_factory=None,
               on_done=None):
        """Submit one task asynchronously; returns its Future.

        The fleet plane's entry point: unlike :meth:`run_tasks`, which
        blocks until a whole batch is delivered, ``submit`` hands a
        single task to the live pool and returns immediately, so the
        fleet can interleave tasks from many campaigns on one set of
        workers.  *tenant* keys the worker-side runner cache (and
        scopes hot-path cache attribution to the campaign);
        *runner_factory* builds that tenant's runner on first use.
        Thread workers only — the fleet owns ordering, so the process
        backend's pickling round-trip buys nothing here.
        """
        self._check_open()
        if self.backend != THREAD:
            raise ExperimentError(
                f"submit() requires the thread backend, not "
                f"{self.backend!r}")
        self.tracer.count("scheduler.tasks_queued", 1)
        future = self._thread_pool().submit(self._thread_run, task,
                                            tenant, runner_factory)
        if on_done is not None:
            future.add_done_callback(on_done)
        return future

    def forget_tenant(self, tenant):
        """Drop *tenant*'s worker runners (and their clusters).

        The fleet calls this when a campaign detaches, so a long-lived
        daemon holds no runner for a finished campaign.
        """
        with self._runners_lock:
            self._runners.pop(tenant, None)

    # -- backends ---------------------------------------------------------

    def _thread_pool(self):
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _thread_run(self, task, tenant, runner_factory):
        """Execute one task on the calling pool thread.

        The task checks out an idle runner of its *tenant* (building
        one if none is idle) and returns it when done: a shared fleet
        pool runs many campaigns, each on its own cluster, and a tenant
        holds as many runners as it ever had tasks running at once.
        The single-campaign path is the ``tenant=None`` slot.
        """
        with self._runners_lock:
            idle = self._runners.setdefault(tenant, [])
            runner = idle.pop() if idle else None
        if runner is None:
            runner = (runner_factory or self.runner_factory)()
        self.tracer.count("scheduler.tasks_running", 1)
        try:
            if tenant is None:
                return runner.run_task(task)
            with hotpath.tenant(tenant):
                return runner.run_task(task)
        finally:
            self.tracer.count("scheduler.tasks_running", -1)
            with self._runners_lock:
                idle.append(runner)

    def _thread_batch(self, tasks, on_result):
        pool = self._thread_pool()
        futures = [pool.submit(self._thread_run, task, None, None)
                   for task in tasks]
        return self._drain(futures, on_result)

    def _process_batch(self, tasks, on_result):
        # Worker state is inherited by fork (initargs never pickle), but
        # every task and every result crosses the process boundary via
        # pickle.  A runner configured with an unpicklable callback — a
        # lambda tracer clock, say — only fails when its first result
        # comes back, so catch that here and finish on the thread
        # backend.  Results are delivered strictly in submission order,
        # so `delivered` tells us exactly which tasks are still owed;
        # trials are deterministic, so the splice is byte-identical to
        # an all-thread run.
        delivered = []

        def deliver(result):
            delivered.append(result)
            if on_result is not None:
                on_result(result)

        try:
            if self._pool is None:
                context = multiprocessing.get_context("fork")
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=context,
                    initializer=_process_init,
                    initargs=(self.runner_factory,))
            futures = [self._pool.submit(_process_run, task)
                       for task in tasks]
            self._drain(futures, deliver)
            return delivered
        except (TypeError, pickle.PicklingError, AttributeError) as error:
            warnings.warn(
                f"process backend cannot pickle trial results ({error}); "
                f"falling back to the thread backend for the remaining "
                f"{len(tasks) - len(delivered)} task(s)",
                RuntimeWarning, stacklevel=3,
            )
            self.tracer.count("scheduler.backend_fallbacks", 1)
            self._teardown_pool()
            self.backend = THREAD
            rest = self._thread_batch(tasks[len(delivered):], on_result)
            return delivered + rest

    def _drain(self, futures, on_result):
        results = []
        try:
            for future in futures:
                result = future.result()
                results.append(result)
                self.tracer.count("scheduler.tasks_done", 1)
                if on_result is not None:
                    on_result(result)
        except BaseException:
            self.tracer.count("scheduler.tasks_failed", 1)
            for future in futures:
                future.cancel()
            raise
        return results


@contextmanager
def executor_for(runner, *, jobs, backend=None, work=None):
    """The one ``jobs`` decision: the executor a trial batch runs on.

    Yields *runner* itself — the sequential executor — at ``jobs=1``,
    and otherwise a :class:`TrialScheduler` whose workers each run on a
    clone of *runner*, closed when the block exits.  Either way the
    yielded object's ``run_tasks(tasks, on_result)`` delivers results
    in task order, so callers never branch on ``jobs`` themselves.

    *work*, the number of tasks the block will run when the caller
    knows it up front, caps ``jobs``: a lone task runs on *runner*
    itself instead of on a pool started for it.
    """
    if work is not None and jobs > work:
        jobs = max(1, work)
    if jobs == 1:
        yield runner
        return
    with TrialScheduler(runner.clone, jobs=jobs, backend=backend,
                        tracer=runner.tracer) as scheduler:
        yield scheduler


def run_unstored(tasks, stored, run):
    """The resume rule, stated once: run only the *tasks* whose
    :class:`TrialKey` is not in *stored*.

    ``run(missing)`` executes the missing tasks and returns their
    results in order (it is called only when a task is missing, so a
    caller may open its executor there, sized to the batch).  Returns
    ``(results, skipped)``: *results* in task order — a stored task's
    ``stored[key]``, the rest as *run* delivered them — and the number
    of tasks found stored.
    """
    keys = [task.key() for task in tasks]
    missing = [index for index, key in enumerate(keys) if key not in stored]
    results = [stored.get(key) for key in keys]
    if missing:
        delivered = run([tasks[index] for index in missing])
        for index, result in zip(missing, delivered):
            results[index] = result
    return results, len(tasks) - len(missing)
