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
sequential ``jobs=1`` executor), the :class:`TrialScheduler` fork pool,
and the daemon's :class:`~repro.service.fleet.FleetLease`.
:func:`executor_for` makes the ``jobs`` decision between the first two
once, for every caller, and :func:`run_unstored` states the resume rule
every resumable batch follows.

A batch either forks or runs inline.  The simulation is CPU-bound pure
Python, so only separate interpreters run trials in parallel; a thread
pool, serialized by the GIL, never beat running inline.  Where ``fork``
is not available, every batch runs on the caller's runner.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.experiments.trial import TrialKey
from repro.obs.tracer import as_tracer

#: Whether this platform can fork worker interpreters.
FORK = "fork" in multiprocessing.get_all_start_methods()


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


# Per-process worker state.  The initializer runs once in each forked
# worker; the runner it builds (cluster and all) lives for the worker's
# lifetime and never crosses processes.
_WORKER_RUNNER = None


def _process_init(runner_factory):
    global _WORKER_RUNNER
    _WORKER_RUNNER = runner_factory()


def _process_run(task):
    return _WORKER_RUNNER.run_task(task)


class TrialScheduler:
    """A pool of ``jobs`` forked workers executing :class:`TrialTask`\\ s.

    *runner_factory* builds one ExperimentRunner (with its own
    VirtualCluster) in each worker, once, as the worker starts; it is
    inherited by fork, never pickled.  The pool starts lazily on the
    first batch and persists until :meth:`close` (or the end of a
    ``with`` block), so a caller feeding successive batches (the
    adaptive planner's rounds) pays worker start-up once, not once per
    batch.

    :meth:`run_tasks` returns results in task order and invokes
    *on_result* in task order from the calling thread, buffering
    out-of-order completions, so downstream stores see a deterministic
    sequence.  Tasks and results cross the process boundary by pickle;
    a worker's error, a trial's own or a result that cannot pickle,
    raises from :meth:`run_tasks` as itself.

    A *tracer* records scheduler counters on the submitting side
    (``scheduler.tasks_queued`` / ``tasks_done`` / ``tasks_failed``);
    per-trial spans come from the workers' runners and travel on the
    results themselves.
    """

    def __init__(self, runner_factory, *, jobs=1, tracer=None):
        if jobs < 1:
            raise ExperimentError(f"jobs must be at least 1, got {jobs}")
        self.runner_factory = runner_factory
        self.jobs = jobs
        self.tracer = as_tracer(tracer)
        self._pool = None
        self._closed = False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def close(self):
        """Shut the pool down, waiting for in-flight work.  Idempotent."""
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def run_tasks(self, tasks, on_result=None):
        """Execute one batch; returns TrialResults in task order."""
        if self._closed:
            raise ExperimentError(
                "trial scheduler is closed; create a new scheduler")
        tasks = list(tasks)
        self.tracer.count("scheduler.tasks_queued", len(tasks))
        if not tasks:
            return []
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_process_init, initargs=(self.runner_factory,))
        futures = [self._pool.submit(_process_run, task) for task in tasks]
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
def executor_for(runner, *, jobs, work=None):
    """The one ``jobs`` decision: the executor a trial batch runs on.

    Yields *runner* itself — the sequential executor — at ``jobs=1`` or
    where ``fork`` is not available, and otherwise a
    :class:`TrialScheduler` whose forked workers each run on a clone of
    *runner*, closed when the block exits.  Either way the
    yielded object's ``run_tasks(tasks, on_result)`` delivers results
    in task order, so callers never branch on ``jobs`` themselves.

    *work*, the number of tasks the block will run when the caller
    knows it up front, caps ``jobs``: a lone task runs on *runner*
    itself instead of on a pool started for it.
    """
    if work is not None and jobs > work:
        jobs = max(1, work)
    if jobs == 1 or not FORK:
        yield runner
        return
    with TrialScheduler(runner.clone, jobs=jobs,
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
