"""Observation campaigns: the package's top-level façade.

An :class:`ObservationCampaign` owns the whole pipeline for one TBL
document: resource MOF -> validation -> per-point generation ->
deployment -> trial -> results database.  It is the programmatic form of
the paper's workflow ("we modify Mulini's input specification once, and
the necessary modifications are propagated automatically").

A campaign is resilient by construction: give it a
:class:`~repro.faults.FaultPlan` and a :class:`~repro.faults.RetryPolicy`
and transient failures are retried (and recorded) instead of aborting
the sweep; give :meth:`run` ``resume=True`` and trials already in the
database are skipped, so an interrupted campaign finishes from its
checkpoint — the database itself — running exactly the missing trials.

One :class:`ObservationCampaign` holds everything a campaign is: the
parsed spec, resource model and validation warnings, the fault/retry
identity, the ``campaign_meta`` checkpoint, and the cluster and runner
its trials execute on.  Every trial batch goes to an *executor* —
anything with ``run_tasks(tasks, on_result)`` returning results in task
order.  By default that is the campaign's own runner at ``jobs=1`` or a
:class:`~repro.experiments.scheduler.TrialScheduler` fork pool of its
clones otherwise (:func:`~repro.experiments.scheduler.executor_for` decides);
the ``repro serve`` daemon injects a fleet lease instead, to run many
campaigns' trials on one shared worker fleet.
"""

from __future__ import annotations

import json
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field

import time

from repro import hotpath, provenance
from repro.core.characterization import PerformanceMap
from repro.errors import ExperimentError
from repro.faults.plan import FaultPlan
from repro.faults.retry import QUARANTINED, RetryPolicy, as_policy
from repro.obs.tracer import as_tracer
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scheduler import (
    calc_parallel_jobs,
    enumerate_tasks,
    executor_for,
    run_unstored,
)
from repro.results.database import ResultsDatabase
from repro.sim import ANALYTIC, AUTO, DES, check_fidelity
from repro.sim.analytic import require_analytic_support
from repro.spec.mof import load_resource_model, render_resource_mof
from repro.spec.tbl import parse as parse_tbl
from repro.spec.validation import validate
from repro.vcluster import VirtualCluster
from repro.workloads.arrivals import analytic_supported

#: Trials buffered before the write-behind store flushes them to the
#: database in one transaction (one commit, one fsync when file-backed).
#: Results always flush in submission order — the scheduler already
#: delivers them that way — so jobs=N rows stay byte-identical to a
#: jobs=1 run; the campaign flushes the tail on every exit path, so an
#: interrupted run still checkpoints everything it was handed.
INGEST_BATCH = 16

#: Resource models by exact MOF text.  A campaign renders its MOF from
#: the spec's benchmark, platform and app server, so the campaigns of a
#: sweep or of a daemon's queue share a handful of texts.
_RESOURCE_MODELS = hotpath.MemoCache("spec.resource_model", capacity=64)

#: campaign_meta keys a campaign persists for `repro resume`.
META_TBL = "tbl_text"
META_MOF = "mof_text"
META_NODE_COUNT = "node_count"
META_FAULT_PLAN = "fault_plan"
META_RETRY = "retry_policy"
#: ... plus the planner plane's identity, so `repro resume` knows an
#: adaptive exploration (policy, budget, target experiment) is what it
#: is resuming, and the trace report can show cache effectiveness.
META_PLANNER_POLICY = "planner_policy"
META_PLANNER_BUDGET = "planner_budget"
META_PLANNER_EXPERIMENT = "planner_experiment"
META_CACHE_STATS = "hotpath_stats"
#: ... and the fidelity tier the campaign ran at, so `repro resume`
#: re-runs an analytic or tiered campaign at the tier it started with.
META_FIDELITY = "fidelity"


@dataclass
class CampaignReport:
    """What one campaign run produced."""

    trials: int = 0
    completed: int = 0
    dnf: int = 0
    experiments: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    #: experiment name -> number of trials stored for it
    by_experiment: dict = field(default_factory=dict)
    #: the ResultsDatabase the trials were stored in
    database: object = None
    #: trials skipped by resume (already in the database)
    skipped: int = 0
    #: trials that needed more than one attempt but completed
    retried: int = 0
    #: failed attempts recorded across the whole campaign
    failed_attempts: int = 0
    #: host name -> quarantine reason, aggregated across workers
    quarantined: dict = field(default_factory=dict)
    #: planner plane (run_adaptive only): policy name, rounds walked,
    #: points pruned as inferable, and the full AdaptiveOutcome
    policy: str = None
    rounds: int = 0
    pruned: int = 0
    outcome: object = None
    #: hot-path cache hit/miss counters captured at campaign end
    #: (``repro.hotpath.stats()`` shape: name -> entries/hits/misses;
    #: a daemon-hosted campaign records its own tenant's attribution)
    cache_stats: dict = field(default_factory=dict)

    def cache_totals(self):
        """Aggregate (hits, misses) across every hot-path cache."""
        hits = sum(c.get("hits", 0) for c in self.cache_stats.values())
        misses = sum(c.get("misses", 0) for c in self.cache_stats.values())
        return hits, misses

    def summary(self):
        text = (f"{self.trials} trials ({self.completed} completed, "
                f"{self.dnf} DNF) across {len(self.experiments)} "
                f"experiments")
        extras = []
        if self.skipped:
            extras.append(f"{self.skipped} resumed-skipped")
        if self.retried:
            extras.append(f"{self.retried} recovered by retry")
        if self.quarantined:
            extras.append(
                f"{len(self.quarantined)} host(s) quarantined"
            )
        if self.policy:
            extras.append(
                f"policy {self.policy}: {self.rounds} round(s), "
                f"{self.pruned} point(s) pruned"
            )
        hits, misses = self.cache_totals()
        if hits or misses:
            extras.append(f"caches: {hits} hit / {misses} miss")
        if extras:
            text += "; " + ", ".join(extras)
        return text


class ObservationCampaign:
    """End-to-end campaign bound to one TBL spec and one cluster.

    Everything after *tbl_text* is keyword-only.  The constructor
    parses the spec, renders (or takes) the resource MOF, validates the
    spec against it and checks that the cluster's *node_count* fits the
    largest topology.  A *tracer* makes every trial of the campaign
    record its lifecycle span tree into the database's ``spans`` table.

    *faults* arms a :class:`~repro.faults.FaultPlan` on every runner of
    the campaign (the chaos mode); *retry* sets the
    :class:`~repro.faults.RetryPolicy` governing failed attempts — an
    int is shorthand for "this many attempts".  Without *retry*, any
    trial failure propagates exactly as before the fault plane existed.

    *tenant* names the campaign on a shared cache plane (the daemon
    sets it to the campaign id): hot-path statistics recorded at the
    end of a run are then the campaign's own attribution, not the
    plane-wide totals.
    """

    def __init__(self, tbl_text, *, mof_text=None, database=None,
                 node_count=36, tbl_source="<campaign>", tracer=None,
                 faults=None, retry=None, tenant=None):
        self.tracer = as_tracer(tracer)
        self.tenant = tenant
        self.tbl_text = tbl_text
        self.spec = parse_tbl(tbl_text, source=tbl_source)
        if mof_text is None:
            mof_text = render_resource_mof(
                self.spec.benchmark, self.spec.platform,
                app_server=self.spec.app_server,
            )
        self.mof_text = mof_text
        self.node_count = node_count
        self.fault_plan = faults
        self.retry_policy = as_policy(retry) if retry is not None else None
        self.resource_model = _RESOURCE_MODELS.get(
            mof_text, lambda: load_resource_model(mof_text))
        self.validation_warnings = validate(self.resource_model, self.spec)
        needed = max(e.max_machine_count() for e in self.spec.experiments)
        if needed > node_count:
            raise ExperimentError(
                f"spec needs up to {needed} machines but the campaign "
                f"cluster has only {node_count} nodes"
            )
        self.cluster = VirtualCluster(self.spec.platform,
                                      node_count=node_count)
        self.runner = ExperimentRunner(cluster=self.cluster,
                                       resource_model=self.resource_model,
                                       tracer=self.tracer,
                                       faults=self.fault_plan,
                                       retry=self.retry_policy,
                                       tenant=tenant)
        self.database = database if database is not None \
            else ResultsDatabase()

    @classmethod
    def from_database(cls, database, *, tracer=None, tenant=None):
        """Rebuild a campaign from a database's persisted meta — the
        engine behind ``repro resume <db>``, the daemon's resume and
        ``repro heal``."""
        tbl_text = database.get_meta(META_TBL)
        if tbl_text is None:
            raise ExperimentError(
                "database carries no campaign meta; it predates the "
                "fault plane or was not produced by run_campaign"
            )
        plan_json = database.get_meta(META_FAULT_PLAN)
        retry_json = database.get_meta(META_RETRY)
        return cls(
            tbl_text,
            mof_text=database.get_meta(META_MOF),
            database=database,
            node_count=int(database.get_meta(META_NODE_COUNT, 36)),
            tbl_source="<resume>",
            tracer=tracer,
            faults=FaultPlan.from_json(plan_json) if plan_json else None,
            retry=RetryPolicy.from_dict(json.loads(retry_json))
            if retry_json else None,
            tenant=tenant,
        )

    def select_experiments(self, experiment_names=None):
        """The experiments a fixed-grid run covers (all by default)."""
        experiments = self.spec.experiments
        if experiment_names is not None:
            experiments = [self.spec.experiment(name)
                           for name in experiment_names]
        if not experiments:
            raise ExperimentError("campaign selects no experiments")
        return experiments

    def enumerate_plan(self, experiments, fidelity=DES):
        """Every trial of *experiments* as TrialTasks, in sweep order."""
        tasks = []
        for experiment in experiments:
            tasks.extend(enumerate_tasks(experiment,
                                         start_index=len(tasks),
                                         fidelity=fidelity))
        return tasks

    def record_meta(self, database):
        """Persist the campaign's identity so ``repro resume <db>`` (or
        a daemon restart) can rebuild it from the database alone."""
        database.set_meta(META_TBL, self.tbl_text)
        database.set_meta(META_MOF, self.mof_text)
        database.set_meta(META_NODE_COUNT, self.node_count)
        if isinstance(self.fault_plan, FaultPlan):
            database.set_meta(META_FAULT_PLAN, self.fault_plan.to_json())
        if isinstance(self.retry_policy, RetryPolicy):
            database.set_meta(META_RETRY,
                              json.dumps(self.retry_policy.to_dict(),
                                         sort_keys=True))

    def run(self, experiment_names=None, *, on_result=None, jobs=1,
            on_progress=None, resume=False, executor=None, fidelity=DES):
        """Run the spec's experiments, storing every trial.

        *experiment_names* restricts to a subset; *on_result* is a
        progress callback receiving each :class:`TrialResult` (its
        ``experiment_name`` identifies the producing experiment, since
        with ``jobs>1`` trials from different experiments interleave on
        the pool); *on_progress* receives human-readable one-liners,
        each tagged with the producing experiment's name.

        ``jobs=N`` executes the whole campaign's trial tasks — across
        all selected experiments — on a worker pool; results are stored
        in enumeration order, so the resulting database rows match a
        ``jobs=1`` run exactly.  An *executor* overrides the worker
        plane entirely: anything with ``run_tasks(tasks, on_result)``
        delivering results in task order (the daemon passes a fleet
        lease here, so many campaigns share one pool).

        ``resume=True`` skips every task whose trial key is already in
        the database, so an interrupted campaign completes exactly its
        missing trials — no duplicate rows, no re-runs.  (The skipped
        count lands in the report.)  With resume the stored rows keep
        their original positions; only the remainder is executed.
        """
        def plan(report, fidelity):
            if fidelity == AUTO:
                raise ExperimentError(
                    "fidelity 'auto' is an adaptive-exploration mode; a "
                    "fixed-grid run takes 'des' or 'analytic' — use "
                    "run_adaptive (repro explore) for tiered exploration")
            experiments = self.select_experiments(experiment_names)
            if fidelity == ANALYTIC:
                # Fail before any trial runs: a time-varying arrival
                # makes the whole grid DES-only, and the typed refusal
                # belongs to the campaign, not to whichever task hits
                # it first.
                for experiment in experiments:
                    require_analytic_support(
                        getattr(experiment, "arrival", None))
            report.experiments.extend(e.name for e in experiments)
            return fidelity, self.enumerate_plan(experiments,
                                                 fidelity=fidelity), None

        return self._run(plan, fidelity=fidelity, jobs=jobs,
                         resume=resume, executor=executor,
                         on_result=on_result, on_progress=on_progress)

    def run_adaptive(self, policy="knee", *, experiment_name=None,
                     budget=None, jobs=1, on_result=None,
                     on_progress=None, resume=False, executor=None,
                     fidelity=DES):
        """Run one experiment family as a closed exploration loop.

        Instead of the fixed grid :meth:`run` executes, a planner
        *policy* (a name from ``repro.planner.POLICY_NAMES`` or a
        :class:`~repro.planner.Policy` instance) proposes trial batches
        round by round, observing each round's results before choosing
        the next — the paper's "observations steer the next
        configuration" methodology.  *budget* caps executed trials.

        Every decision lands in the ``planner_decisions`` table and the
        policy/budget/experiment identity in ``campaign_meta``, so
        ``repro resume`` on a killed exploration replays the loop: the
        decisions are pure functions of recorded observations, trials
        already stored are fed back from the database instead of
        re-running (``resume=True``), and the finished database is
        byte-identical to an uninterrupted run's at any worker count.

        Every planner round's batch runs on the same executor (see
        :meth:`run`): one pool, opened before the first round and
        closed after the last, so workers warm once.
        """
        from repro.planner import AdaptivePlanner, log_rows, make_policy

        def plan(report, fidelity):
            experiment = self.spec.experiment(experiment_name)
            report.experiments.append(experiment.name)
            if fidelity == AUTO and not analytic_supported(
                    getattr(experiment, "arrival", None)):
                # Time-varying arrivals are DES-only: the tiered
                # composition's analytic exploration pass cannot model
                # them, so "auto" degrades to a pure-DES exploration
                # rather than crashing mid-campaign.
                if isinstance(policy, str):
                    fidelity = DES
                    if on_progress is not None:
                        on_progress(
                            f"[{experiment.name}] arrival "
                            f"{experiment.arrival.kind!r} is DES-only; "
                            f"fidelity auto degrades to des")
                else:
                    require_analytic_support(experiment.arrival)
            policy_obj = make_policy(policy, budget=budget,
                                     fidelity=fidelity)
            db = self.database

            def record_round(round_no, decisions):
                rows = log_rows(round_no, decisions, policy_obj.name,
                                experiment.name)
                db.insert_decisions(rows)
                if on_progress is not None:
                    measures = sum(1 for d in decisions
                                   if d.action == "measure")
                    on_progress(
                        f"[{experiment.name}] planner round {round_no}: "
                        f"{measures} point(s) proposed, "
                        f"{len(rows) - measures} other decision(s)")

            def explore(execute):
                db.set_meta(META_PLANNER_POLICY, policy_obj.name)
                db.set_meta(META_PLANNER_EXPERIMENT, experiment.name)
                if budget is not None:
                    db.set_meta(META_PLANNER_BUDGET, budget)
                # The loop replays from scratch on resume (decisions are
                # pure functions of observations), so the log is
                # rewritten wholesale — a resumed exploration's log
                # matches an uninterrupted one.
                db.clear_planner_decisions()
                outcome = AdaptivePlanner(
                    experiment, policy_obj, tracer=self.tracer,
                ).run(execute, on_round=record_round)
                report.policy = policy_obj.name
                report.rounds = outcome.rounds
                report.pruned = outcome.pruned_points
                report.outcome = outcome

            return fidelity, None, explore

        return self._run(plan, fidelity=fidelity, jobs=jobs,
                         resume=resume, executor=executor,
                         on_result=on_result, on_progress=on_progress)

    def _run(self, plan, *, fidelity, jobs, resume, executor, on_result,
             on_progress):
        """The steps every campaign run takes, stated once.

        *plan(report, fidelity)* is the run's own part: it selects the
        experiments (naming them in *report*), may refuse the requested
        *fidelity* or degrade it, and returns ``(fidelity, tasks,
        explore)``.  A fixed grid returns its *tasks* and no *explore*;
        an exploration returns ``tasks=None`` and ``explore(execute)``,
        which hands the planner's batches to ``execute(batch)``.

        Around that: the fidelity check and the wall-clock start, the
        ``jobs`` resolution and preflight, the ``campaign_meta``
        checkpoint, the resume rule (:func:`run_unstored`) over what the
        database stores, the write-behind ingest flushed on every exit
        path, and the cache stats and run card of a finished run.
        """
        check_fidelity(fidelity)
        started = time.perf_counter()
        report = CampaignReport(warnings=list(self.validation_warnings),
                                database=self.database)
        fidelity, tasks, explore = plan(report, fidelity)
        if jobs == "auto":
            # Resolved here, not in the CLI, so every entry point — api,
            # daemon, service submits — gets the same sizing.
            jobs = calc_parallel_jobs(
                node_count=self.node_count,
                trial_count=None if tasks is None else len(tasks))
        self._preflight(jobs)
        self.record_meta(self.database)
        self.database.set_meta(META_FIDELITY, fidelity)
        # Only a key stored before the run can need replacing; ingest
        # looks up no other.
        held = set(self.database.trial_keys())
        if not resume:
            stored = {}
        elif tasks is not None:     # a grid needs only the stored keys
            stored = dict.fromkeys(held)
        else:       # a replayed planner observes the stored results
            stored = {result.trial_key(): result
                      for name in report.experiments
                      for result in self.database.query(
                          experiment_name=name)}
        store, flush_tail = self._ingest(report, held, on_result=on_result,
                                         on_progress=on_progress)

        def execute(batch, run):
            results, skipped = run_unstored(batch, stored, run)
            if skipped:
                report.skipped += skipped
                self.tracer.count("campaign.trials_skipped", skipped)
            return results

        def open_executor(work=None):
            # An injected executor (a fleet lease) as it is, otherwise
            # executor_for's choice over this campaign's runner: the
            # runner itself or a pool of its clones, capped at *work*.
            if executor is not None:
                return nullcontext(executor)
            return executor_for(self.runner, jobs=jobs, work=work)

        def run_grid(missing):
            # The pool is sized to the trials left to run, and progress
            # lines count against them.
            with open_executor(work=len(missing)) as trials:
                return trials.run_tasks(
                    missing, lambda result: store(result, len(missing)))

        try:
            if explore is None:
                execute(tasks, run_grid)
            else:
                with open_executor() as trials:
                    explore(lambda batch: execute(
                        batch, lambda missing: trials.run_tasks(missing,
                                                                store)))
        finally:
            # The tail batch — and, on an aborted campaign, everything
            # delivered so far, so resume finds every stored trial.
            flush_tail()
        # Cache effectiveness, observable per run; a tenant-scoped
        # campaign records its own attribution, since on a shared daemon
        # the plane-wide totals belong to no one campaign.
        report.cache_stats = hotpath.stats(tenant=self.tenant)
        self.database.set_meta(
            META_CACHE_STATS, json.dumps(report.cache_stats, sort_keys=True))
        self._record_run_card(report, jobs=jobs, fidelity=fidelity,
                              wall_s=time.perf_counter() - started)
        return report

    def _ingest(self, report, held, *, on_result, on_progress):
        """The write-behind store every run writes through: a
        ``store(result, total=None)`` closure plus the ``flush_tail()``
        the caller must invoke on every exit path.

        Counts are aggregated under a lock because scheduler
        configurations may invoke ``store`` from worker threads.
        Results buffer in arrival (= submission) order and flush to the
        database in single-transaction batches of :data:`INGEST_BATCH`.
        A result whose key is in *held*, the keys stored when the run
        started, replaces that stored trial once; any other duplicate
        key is a :class:`~repro.errors.ResultsError`.  *total* is the
        trial count progress lines show; an exploration does not know
        its own up front, so its lines show the running count alone.
        """
        lock = threading.Lock()
        pending = []

        def flush_pending():
            # Caller holds `lock`.
            if pending:
                self.database.insert_many(pending, replace=held)
                del pending[:]

        def flush_tail():
            with lock:
                flush_pending()

        def store(result, total=None):
            with lock:
                pending.append(result)
                if len(pending) >= INGEST_BATCH:
                    flush_pending()
                report.trials += 1
                report.by_experiment[result.experiment_name] = \
                    report.by_experiment.get(result.experiment_name, 0) + 1
                if result.completed:
                    report.completed += 1
                else:
                    report.dnf += 1
                if result.retried and result.completed:
                    report.retried += 1
                for failure in result.failures:
                    if failure.resolution == QUARANTINED:
                        report.quarantined[failure.host] = failure.cause
                    else:
                        report.failed_attempts += 1
                stored = report.trials
            if on_result is not None:
                on_result(result)
            if on_progress is not None:
                progress = f"trial {stored}/{total}" if total is not None \
                    else f"trial {stored}"
                on_progress(
                    f"[{result.experiment_name}] {progress}: "
                    f"{result.topology_label} u={result.workload} "
                    f"wr={result.write_ratio:.0%} -> {result.status}"
                    + (f" ({result.attempts} attempts)"
                       if result.retried else "")
                )

        return store, flush_tail

    def _preflight(self, jobs):
        """Fail fast on misconfigurations no trial should pay for —
        most notably a mistyped ``REPRO_SHELLVM``, which the engine
        selector would otherwise silently resolve to the compiled
        default."""
        problems = provenance.preflight(jobs=jobs,
                                        database_path=self.database.path)
        if problems:
            raise ExperimentError(
                "campaign preflight failed: " + "; ".join(problems))

    def _record_run_card(self, report, *, jobs, fidelity, wall_s):
        """Persist this run's provenance record.

        The card lands in the database's ``run_cards`` table and — for
        file-backed databases — beside the file as
        ``<db>.run_card.json``, making every campaign database a
        self-describing reproducibility bundle: campaign_meta holds the
        inputs to re-run, the card certifies what one run produced.
        """
        from repro.shellvm.interpreter import engine_mode

        card = provenance.build_run_card(
            report=report, campaign=self, engine=engine_mode(),
            jobs=jobs, fidelity=fidelity, wall_s=wall_s)
        self.database.insert_run_card(card)
        provenance.export_run_card(card, self.database.path)
        if self.tenant is not None:     # the card holds its attribution
            hotpath.forget_tenant(self.tenant)

    def resume(self, experiment_names=None, *, policy=None, budget=None,
               experiment=None, fidelity=None, **run_kwargs):
        """Finish this campaign from its database checkpoint — the one
        resume rule behind ``repro resume <db>`` and the daemon's.

        Whatever the caller leaves unset comes from ``campaign_meta``:
        the fidelity tier and, for an exploration, the planner *policy*,
        *budget* and target *experiment*.  With a policy it resumes
        :meth:`run_adaptive`, otherwise :meth:`run` over
        *experiment_names*; *run_kwargs* pass through.
        """
        db = self.database
        if fidelity is None:
            fidelity = db.get_meta(META_FIDELITY, DES)
        if policy is None:
            policy = db.get_meta(META_PLANNER_POLICY)
        if policy is None:
            return self.run(experiment_names, resume=True,
                            fidelity=fidelity, **run_kwargs)
        if budget is None:
            stored = db.get_meta(META_PLANNER_BUDGET)
            budget = int(stored) if stored is not None else None
        if experiment is None:
            experiment = db.get_meta(META_PLANNER_EXPERIMENT)
        return self.run_adaptive(policy, experiment_name=experiment,
                                 budget=budget, resume=True,
                                 fidelity=fidelity, **run_kwargs)

    def performance_map(self, experiment_name=None):
        """A :class:`PerformanceMap` over this campaign's observations."""
        return PerformanceMap.from_database(
            self.database, experiment_name=experiment_name,
        )
