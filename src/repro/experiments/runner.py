"""The end-to-end experiment runner.

One ``run_point`` call is one trial of the paper's methodology, with
nothing short-circuited:

1. allocate cluster nodes for the topology (honouring node types),
2. Mulini generates the bundle for this exact point,
3. the shell interpreter executes the generated ``run.sh``,
4. the deployed system is recovered from cluster state and verified,
5. the simulation plays the trial's warm-up/run/cool-down phases with
   sysstat emitters sampling every host,
6. monitor output and the driver's request log are written on the
   hosts and gathered by the generated ``collect.sh``,
7. metrics are computed from the *collected* files on the control host,
8. the generated ``teardown.sh`` stops everything; nodes are released.

A trial whose error ratio exceeds the TBL error budget is recorded as
DNF — the paper's experiments that "could not complete" (Table 7).

Every trial is also a tracing span tree: one ``trial`` root span plus
one child span per lifecycle phase (``allocate``, ``generate``,
``deploy``, ``verify``, ``simulate``, ``collect``, ``analyze``,
``teardown``), with per-script spans nested under the script-driven
phases.  The spans ride on the returned :class:`TrialResult` (so they
survive process-pool workers) and land in the results database's
``spans`` table; tracing never changes a trial's outcome.

Since the fault plane landed, a trial is one *or more* attempts: the
runner arms its :class:`~repro.faults.FaultInjector` before each
attempt, and when an attempt dies of a transient cause the
:class:`~repro.faults.RetryPolicy` re-runs it after a deterministic
*virtual* backoff (recorded, never slept).  Hosts repeatedly blamed
for failures are quarantined out of the cluster pool.  Every failed
attempt becomes an :class:`AttemptFailure` riding on the result, and
a trial whose budget runs out becomes an enriched DNF row instead of
an exception — the campaign keeps going.  Transient faults abort an
attempt *before* any metric is recorded, so the surviving attempt's
observations are byte-identical to a fault-free run's.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.deploy import DeploymentEngine
from repro.errors import ExperimentError, ReproError, TrialFailed
from repro.experiments.trial import (
    COMPLETED,
    DNF,
    AttemptFailure,
    TrialResult,
    failed_result,
    measurement_window,
)
from repro.experiments.scheduler import enumerate_tasks, executor_for
from repro.faults.injector import as_injector
from repro.faults.retry import GAVE_UP, QUARANTINED, RETRIED, as_policy
from repro.generator import HostPlan, Mulini
from repro.monitoring import (
    attach_monitors,
    collect_sysstat_files,
    collected_bytes,
    render_request_log,
    summarize_collected_log,
)
from repro.monitoring.metrics import TrialMetrics, summarize_records
from repro.obs.tracer import as_tracer, merge_span_exports, worker_name
from repro.sim import ANALYTIC, DES, NTierSimulation, analytic
from repro.vcluster.host import plan_colocation
from repro.workloads.arrivals import request_rate


def analytic_metrics(solved, experiment):
    """Project an :class:`AnalyticResult` into :class:`TrialMetrics`.

    The fluid solution is rates; the DES measurement window reports
    counts.  Counts are the rates integrated over the trial's run
    period (rounded — the drivers log whole requests), and percentiles
    use the solver's exponential response-time approximation capped at
    the client timeout, since no completed request outlives it.
    """
    duration = experiment.trial.run
    offered = solved.throughput
    completed = int(round(solved.goodput * duration))
    timeouts = int(round(offered * solved.timeout_ratio * duration))
    rejections = int(round(offered * solved.rejection_ratio * duration))
    response = solved.response_time
    cap = experiment.timeout

    def quantile(fraction):
        if response <= 0:
            return 0.0
        return min(response * math.log(1.0 / (1.0 - fraction)), cap)

    return TrialMetrics(
        completed=completed,
        errors=timeouts + rejections,
        timeouts=timeouts,
        rejections=rejections,
        duration_s=duration,
        throughput=completed / duration if duration > 0 else 0.0,
        mean_response_s=solved.completed_response_time,
        p50_response_s=quantile(0.50),
        p90_response_s=quantile(0.90),
        p99_response_s=quantile(0.99),
        backlog=int(round(
            getattr(solved, "backlog_rate", 0.0) * duration)),
    )


def _error_budget_status(metrics, slo, tracer):
    """COMPLETED, or DNF when *metrics* exceed *slo*'s error budget.

    The paper's trials that "could not complete" (Table 7); the cause
    is annotated on *tracer*'s current span.
    """
    if metrics.error_ratio > slo.error_ratio:
        tracer.annotate(dnf_cause=f"error ratio {metrics.error_ratio:.3f} "
                        f"exceeds budget {slo.error_ratio:.3f}")
        return DNF
    return COMPLETED


class ExperimentRunner:
    """Runs experiment points end to end on one virtual cluster.

    Construct with keywords: ``cluster=``, ``resource_model=``,
    ``wait_for_nodes=``, ``tracer=``.  *wait_for_nodes* makes trials
    block for cluster nodes instead of failing when concurrent trials
    hold them — the shared-cluster mode of parallel scheduling.
    *tracer* is threaded through every layer (deployment engine, shell
    interpreter, simulation, collector) so one trial produces one span
    tree.

    *faults* is a :class:`~repro.faults.FaultPlan` (or a ready
    injector) whose events this runner's layers fire; *retry* is a
    :class:`~repro.faults.RetryPolicy` (or a bare attempt count).
    Leaving both unset preserves the historical single-attempt,
    exception-propagating behaviour exactly.

    *tenant* names the campaign this runner works for on a shared
    worker fleet.  Fleet threads interleave trials from many campaigns,
    so the ``worker`` span attribute alone no longer answers "whose
    trial was this?" — a tenant-stamped runner records the campaign on
    every trial span.  ``None`` (the single-campaign default) stamps
    nothing, keeping standalone span trees exactly as before.
    """

    def __init__(self, *, cluster=None, resource_model=None,
                 wait_for_nodes=False, tracer=None, faults=None,
                 retry=None, tenant=None):
        if cluster is None or resource_model is None:
            raise ExperimentError(
                "ExperimentRunner requires cluster= and resource_model="
            )
        self.cluster = cluster
        self.resource_model = resource_model
        self.wait_for_nodes = wait_for_nodes
        self.tenant = tenant
        self.tracer = as_tracer(tracer)
        self.faults = as_injector(faults, tracer=self.tracer)
        self.retry_policy = as_policy(retry)
        self.mulini = Mulini(resource_model)
        self.engine = DeploymentEngine(cluster=cluster, tracer=self.tracer,
                                       faults=self.faults)
        # The cluster fires allocation-side fault points itself.
        self.cluster.faults = self.faults
        self._host_failures = {}     # host name -> blamed failure count
        self._probation = {}         # quarantined host -> trials to release
        self._analytic_models = {}   # ladder key -> (preview, plan, model)
        self._phase = "allocate"

    def clone(self):
        """A runner like this one on a fresh clone of its cluster.

        Scheduler workers each run on a clone, so virtual-host state
        never crosses workers.  The tracer and fault injector are
        shared (arming is thread-local): worker spans all land on the
        same trace plane, and repair bookkeeping stays in one place.
        """
        return ExperimentRunner(cluster=self.cluster.clone(),
                                resource_model=self.resource_model,
                                wait_for_nodes=self.wait_for_nodes,
                                tracer=self.tracer,
                                faults=self.faults,
                                retry=self.retry_policy,
                                tenant=self.tenant)

    def run_point(self, experiment, topology, workload, write_ratio,
                  seed=None, fidelity=DES):
        """Execute one trial; returns a :class:`TrialResult`.

        *seed* overrides the experiment's seed (used for repetitions);
        it flows into the generated driver.properties, so the whole
        trial replays under the replacement seed.

        *fidelity* selects the solver tier: ``"des"`` runs the full
        eight-phase discrete-event lifecycle; ``"analytic"`` solves the
        point on the fluid fast path (:mod:`repro.sim.analytic`) —
        no allocation, no generation, no retries — in microseconds.

        With a retry policy, a transiently-failed attempt is re-run
        (after deterministic virtual backoff) up to the policy's
        budget; when the budget runs out the trial becomes an enriched
        DNF result instead of an exception, unless the policy says
        ``record_dnf=False`` — the no-retry default, which re-raises
        exactly like the pre-fault-plane runner did.
        """
        if seed is not None and seed != experiment.seed:
            experiment = replace(experiment, seed=seed)
        if fidelity == ANALYTIC:
            return self._run_analytic_point(experiment, topology,
                                            workload, write_ratio)
        if fidelity != DES:
            raise ExperimentError(
                f"run_point executes fidelity 'des' or 'analytic', "
                f"not {fidelity!r} (resolve 'auto' upstream)"
            )
        policy = self.retry_policy
        trial_key = (experiment.name, topology.label(), workload,
                     write_ratio, experiment.seed)
        failures = []
        exports = []
        result = None
        error = None
        attempts_made = 0
        for attempt in range(policy.max_attempts):
            attempts_made = attempt + 1
            self.faults.arm(trial_key, attempt)
            try:
                result = self._run_attempt(experiment, topology, workload,
                                           write_ratio, attempt, exports)
                break
            except ReproError as caught:
                error = caught
                retrying = self._note_failure(caught, attempt, policy,
                                              failures, exports)
                # Undo repairable fault mutations (corrupted archives)
                # before the next attempt — or before the next trial
                # reuses the shared control host.
                self.faults.repair(trial_key)
                if not retrying:
                    break
            finally:
                self.faults.disarm()
        if result is None:
            if not policy.record_dnf:
                raise error
            partial = error.partial if isinstance(error, TrialFailed) \
                else None
            result = failed_result(
                experiment, topology, workload, write_ratio,
                experiment.seed, failures, attempts_made,
                partial=partial,
                machine_count=topology.machine_count())
            self.tracer.count("runner.trials_dnf_failed", 1)
        else:
            if failures:
                self.tracer.count("runner.trials_recovered", 1)
            if self._probation:
                # Only a trial whose attempt actually completed counts
                # toward probation — a gave-up DNF proves nothing about
                # the cluster's health.
                self._probation_tick(policy, exports)
        result.attempts = attempts_made
        result.failures = failures
        result.spans = merge_span_exports(exports)
        return result

    def _run_attempt(self, experiment, topology, workload, write_ratio,
                     attempt, exports):
        """One attempt of one trial: the full eight-phase lifecycle.

        Each attempt is its own ``trial`` span tree; the flattened tree
        is appended to *exports* whether the attempt succeeds or dies,
        so failed attempts stay visible in ``repro trace``.
        """
        tracer = self.tracer
        self._phase = "allocate"
        trial_span = None
        try:
            with tracer.span(
                    "trial",
                    experiment=experiment.name,
                    topology=topology.label(),
                    workload=workload,
                    write_ratio=write_ratio,
                    seed=experiment.seed,
                    worker=worker_name()) as trial_span:
                if attempt:
                    trial_span.annotate(attempt=attempt + 1)
                if self.tenant is not None:
                    trial_span.annotate(tenant=self.tenant)
                tier_node_types = self._tier_node_types(experiment)
                ratio = getattr(experiment, "consolidation_ratio", 1)
                with tracer.span("allocate",
                                 wait=self.wait_for_nodes) as alloc_span:
                    allocation = self.cluster.allocate(
                        topology, tier_node_types=tier_node_types,
                        wait=self.wait_for_nodes,
                        consolidation_ratio=ratio)
                    if allocation.physical_hosts:
                        tracer.annotate(
                            consolidation=ratio,
                            physical_hosts=len(allocation.physical_hosts))
                    tracer.annotate(nodes=sorted(
                        {allocation.client.name}
                        | {h.name for h in allocation.all_server_hosts()}))
                if self.wait_for_nodes:
                    tracer.count("runner.node_wait_s", alloc_span.duration)
                try:
                    result = self._run_allocated(allocation, experiment,
                                                 topology, workload,
                                                 write_ratio)
                    trial_span.annotate(status=result.status)
                finally:
                    self.cluster.release(allocation)
            return result
        finally:
            if trial_span is not None:
                exports.append(tracer.export(trial_span))

    def _tier_node_types(self, experiment):
        if experiment.db_node_type is None:
            return {}
        return {"db": self.cluster.platform.node_type(
            experiment.db_node_type).name}

    def _note_failure(self, error, attempt, policy, failures, exports):
        """Record one failed attempt; returns whether to retry.

        Injected-fault attribution comes from the injector's fired
        events (the exception itself usually surfaces from a layer
        downstream of the fault); organic failures are classified by
        the policy's transient error classes.  Hosts blamed by fired
        events accumulate toward quarantine.
        """
        fired = self.faults.fired_this_attempt()
        if fired:
            transient = all(event.spec.transient for event in fired)
        else:
            transient = policy.is_transient(error)
        retrying = transient and attempt + 1 < policy.max_attempts
        resolution = RETRIED if retrying else GAVE_UP
        backoff = policy.backoff_s(attempt + 1) if retrying else 0.0
        fault_kind = fired[0].kind if fired else None
        fault_host = next((e.host for e in fired if e.host), None)
        failures.append(AttemptFailure(
            attempt=attempt + 1,
            phase=self._phase,
            cause=str(error),
            error_type=type(error).__name__,
            transient=transient,
            resolution=resolution,
            fault_kind=fault_kind,
            host=fault_host,
            backoff_s=backoff,
        ))
        self.tracer.count("runner.attempts_failed", 1)
        if retrying:
            self.tracer.count("runner.attempts_retried", 1)
            # Backoff is virtual time: recorded for the trace, never
            # slept — determinism forbids wall-clock coupling.
            self.tracer.count("runner.backoff_virtual_s", backoff)
        if fault_host is not None:
            self._blame_host(fault_host, fault_kind, attempt, policy,
                             failures, exports)
        return retrying

    def _blame_host(self, host_name, fault_kind, attempt, policy,
                    failures, exports):
        # Only pool nodes can be quarantined; the shared control and
        # client hosts are structural — losing them ends the campaign,
        # not the host.
        if host_name in (self.cluster.control.name,
                         self.cluster.client.name):
            return
        count = self._host_failures.get(host_name, 0) + 1
        self._host_failures[host_name] = count
        if count < policy.quarantine_after:
            return
        reason = (f"{count} failed attempts "
                  f"(last: {fault_kind or 'unattributed'})")
        if not self.cluster.quarantine(host_name, reason=reason):
            return
        if policy.probation_trials:
            self._probation[host_name] = policy.probation_trials
        with self.tracer.span("quarantine", host=host_name,
                              failures=count, reason=reason) as span:
            pass
        records = self.tracer.export(span)
        if records:
            exports.append(records)
        self.tracer.count("runner.hosts_quarantined", 1)
        failures.append(AttemptFailure(
            attempt=attempt + 1,
            phase="quarantine",
            cause=f"host {host_name} quarantined: {reason}",
            error_type="HostQuarantined",
            transient=False,
            resolution=QUARANTINED,
            fault_kind=fault_kind,
            host=host_name,
        ))

    def _probation_tick(self, policy, exports):
        """Count one completed trial toward every probation sentence.

        A quarantined host under probation is released back into the
        cluster pool once *probation_trials* trials complete without it
        — evidence the fleet is healthy enough to risk the host again.
        The released host's blame count restarts one below the
        quarantine threshold, so a single fresh blame re-quarantines
        it immediately (parole, not a pardon).
        """
        for host_name in sorted(self._probation):
            remaining = self._probation[host_name] - 1
            if remaining > 0:
                self._probation[host_name] = remaining
                continue
            del self._probation[host_name]
            if not self.cluster.release_quarantine(host_name):
                continue
            self._host_failures[host_name] = policy.quarantine_after - 1
            with self.tracer.span(
                    "probation-release", host=host_name,
                    served=policy.probation_trials) as span:
                pass
            records = self.tracer.export(span)
            if records:
                exports.append(records)
            self.tracer.count("runner.hosts_released", 1)

    def run_task(self, task):
        """Execute one enumerated :class:`TrialTask`."""
        return self.run_point(task.experiment, task.topology,
                              task.workload, task.write_ratio,
                              seed=task.seed,
                              fidelity=task.fidelity)

    # -- the analytic fast path --------------------------------------------

    def _run_analytic_point(self, experiment, topology, workload,
                            write_ratio):
        """One trial on the fluid tier: preview hosts, solve, summarize.

        The trial span carries a ``fidelity`` attribute (DES spans do
        not, keeping their trees byte-identical to pre-tier runs) and
        only the ``simulate``/``analyze`` phases — there is nothing to
        allocate, generate, or tear down.
        """
        tracer = self.tracer
        exports = []
        trial_span = None
        try:
            with tracer.span(
                    "trial",
                    experiment=experiment.name,
                    topology=topology.label(),
                    workload=workload,
                    write_ratio=write_ratio,
                    seed=experiment.seed,
                    worker=worker_name(),
                    fidelity=ANALYTIC) as trial_span:
                if self.tenant is not None:
                    trial_span.annotate(tenant=self.tenant)
                arrival = getattr(experiment, "arrival", None)
                analytic.require_analytic_support(arrival)
                with tracer.span("simulate"):
                    preview, colocation, model = self._analytic_model(
                        experiment, topology, write_ratio)
                    if arrival is not None:
                        rate = request_rate(arrival, workload,
                                            experiment.think_time)
                        solved = analytic.solve_open(model, rate)
                        tracer.annotate(arrival=arrival.kind,
                                        rate=round(rate, 6))
                    else:
                        solved = analytic.solve_model(model, workload)
                    tracer.annotate(iterations=solved.iterations,
                                    converged=solved.converged)
                with tracer.span("analyze"):
                    metrics = analytic_metrics(solved, experiment)
                    host_cpu = {
                        name: utilization * 100.0
                        for name, utilization
                        in solved.station_utilization.items()
                        if not name.endswith(":disk")
                    }
                    tier_of_host = {name: tier
                                    for tier, hosts in preview.items()
                                    for name, _node in hosts}
                    tier_of_host[self.cluster.client.name] = "client"
                    for member, placed in colocation.items():
                        if member in host_cpu:
                            key = f"{placed.physical}/{member}"
                            host_cpu[key] = host_cpu[member]
                            tier_of_host[key] = "physical"
                status = _error_budget_status(metrics, experiment.slo,
                                              tracer)
                trial_span.annotate(status=status)
        finally:
            if trial_span is not None:
                exports.append(tracer.export(trial_span))
        result = TrialResult(
            experiment_name=experiment.name,
            benchmark=experiment.benchmark,
            platform=experiment.platform,
            topology_label=topology.label(),
            workload=workload,
            write_ratio=write_ratio,
            seed=experiment.seed,
            status=status,
            metrics=metrics,
            host_cpu=host_cpu,
            tier_of_host=tier_of_host,
            machine_count=topology.machine_count(),
            fidelity=ANALYTIC,
            scenario=experiment.scenario,
        )
        result.spans = merge_span_exports(exports)
        return result

    def _analytic_model(self, experiment, topology, write_ratio):
        """``(preview, colocation, model)`` for one workload ladder.

        None of it reads the workload, so it is built once per key: the
        key holds everything the build reads, the quarantined hosts the
        preview skips included, so a quarantine forces a rebuild.
        """
        ratio = getattr(experiment, "consolidation_ratio", 1)
        key = (topology.label(), experiment.db_node_type,
               experiment.benchmark, write_ratio, experiment.think_time,
               experiment.timeout, experiment.app_server, ratio,
               frozenset(self.cluster.quarantined()))
        built = self._analytic_models.get(key)
        if built is None:
            preview = self.cluster.preview_allocation(
                topology, tier_node_types=self._tier_node_types(experiment))
            # The DES allocator consolidates hosts in all_server_hosts()
            # (web, app, db) order; the preview flattened the same way
            # yields the identical packing, so both tiers model the
            # same interference.
            names = [name for tier in ("web", "app", "db")
                     for name, _node in preview.get(tier, ())]
            colocation = plan_colocation(names, ratio)
            model = analytic.ntier_model(
                experiment.benchmark, preview, write_ratio,
                think_time=experiment.think_time,
                timeout=experiment.timeout,
                app_server=experiment.app_server, colocation=colocation)
            built = self._analytic_models[key] = (preview, colocation,
                                                  model)
        return built

    def run_experiment(self, experiment, *, on_result=None, jobs=1,
                       fidelity=DES):
        """Run every sweep point of *experiment*, with repetitions.

        Each repetition replays the point under seed, seed+1, ... so
        saturation noise can be quantified (the paper's "significant
        random fluctuations" at the CPU-saturated cells).

        The sweep is first enumerated into tasks, then executed: with
        ``jobs=1`` (the default) sequentially on this runner, otherwise
        on a :class:`TrialScheduler` fork pool whose workers each clone
        this runner.  Results arrive in enumeration order either way, and
        trial metrics are identical across ``jobs`` settings because
        every trial's random streams derive from ``(seed + repetition)``
        alone — tracing on or off.  *fidelity* selects the solver tier
        for every task of the sweep (``"des"`` or ``"analytic"``).
        """
        tasks = enumerate_tasks(experiment, fidelity=fidelity)
        with executor_for(self, jobs=jobs, work=len(tasks)) as executor:
            return executor.run_tasks(tasks, on_result=on_result)

    def run_tasks(self, tasks, on_result=None):
        """The sequential ``jobs=1`` executor: run *tasks* on this
        runner, in order, handing each result to *on_result* as it
        lands; returns the results in task order."""
        results = []
        for task in tasks:
            result = self.run_task(task)
            results.append(result)
            if on_result is not None:
                on_result(result)
        return results

    # -- internals ---------------------------------------------------------

    def _run_allocated(self, allocation, experiment, topology, workload,
                       write_ratio):
        tracer = self.tracer
        self._phase = "generate"
        with tracer.span("generate"):
            plan = HostPlan.from_allocation(allocation)
            bundle = self.mulini.generate(experiment, topology, workload,
                                          write_ratio, host_plan=plan)
            tracer.annotate(experiment_id=bundle.experiment_id,
                            files=bundle.file_count(),
                            script_lines=bundle.script_line_total(),
                            config_lines=bundle.config_line_total())
        self._phase = "deploy"
        try:
            with tracer.span("deploy"):
                deployment = self.engine.deploy(bundle, allocation)
            system = deployment.system
            self._phase = "verify"
            with tracer.span("verify"):
                self.engine.verify(system, experiment, topology, workload,
                                   write_ratio)
        except ReproError:
            # A half-deployed attempt must not leave processes or
            # half-written results behind on the shared client/control
            # hosts for a retry (or the next trial) to trip over.
            self.engine.cleanup_failed(bundle, allocation)
            raise
        self._phase = "simulate"
        window = measurement_window(experiment.trial)
        open_loop = getattr(experiment, "arrival", None) is not None
        with tracer.span("simulate"):
            harness = NTierSimulation(system, tracer=tracer)
            emitters = attach_monitors(harness)
            records = harness.run()
            for emitter in emitters:
                emitter.stop()
                emitter.flush()
            # The driver writes its per-request log where
            # driver.properties said it would; collect.sh ships it to
            # the control host.  Open-loop trials stamp the backlog
            # trailer (in-flight requests are invisible to the parsed
            # log); closed-loop logs stay byte-identical to pre-
            # scenario runs.
            system.client_host.fs.write(
                system.driver.log_path,
                render_request_log(records,
                                   window=window if open_loop else None))
            tracer.annotate(requests=len(records),
                            sim_events=harness.sim.events_processed,
                            monitors=len(emitters))
        control = allocation.control
        try:
            self._phase = "collect"
            with tracer.span("collect"):
                results_dir = self.engine.collect(deployment)
                log_path = f"{results_dir}/requests.log"
                if not control.fs.is_file(log_path):
                    raise ExperimentError(
                        f"collect.sh did not deliver the request log for "
                        f"{bundle.experiment_id}"
                    )
                collected_log = control.fs.read(log_path)
                sys_series = collect_sysstat_files(control, results_dir,
                                                   tracer=tracer,
                                                   faults=self.faults)
                data_bytes = collected_bytes(control, results_dir)
                tracer.annotate(bytes=data_bytes, hosts=len(sys_series))
            self._phase = "analyze"
            with tracer.span("analyze"):
                metrics, per_state = summarize_collected_log(
                    collected_log, window)
                host_cpu = {host: series.mean("cpu", window)
                            for host, series in sys_series.items()}
                tier_of_host = self._tier_map(system)
                self._surface_colocation(allocation.physical_hosts,
                                         host_cpu, tier_of_host)
            self._phase = "teardown"
            with tracer.span("teardown"):
                self.engine.teardown(deployment)
        except TrialFailed:
            raise
        except ReproError as error:
            # The run window already happened: salvage its driver-side
            # measurements so even a gave-up trial contributes partial
            # observations (TrialFailed.partial -> the DNF row).
            self.engine.cleanup_failed(bundle, allocation)
            raise TrialFailed(
                f"trial lost after its run window in {self._phase} "
                f"phase: {error}",
                partial=summarize_records(records, window),
                cause=error,
            ) from error
        status = _error_budget_status(metrics, experiment.slo, tracer)
        return TrialResult(
            experiment_name=experiment.name,
            benchmark=experiment.benchmark,
            platform=experiment.platform,
            topology_label=topology.label(),
            workload=workload,
            write_ratio=write_ratio,
            seed=experiment.seed,
            status=status,
            metrics=metrics,
            host_cpu=host_cpu,
            tier_of_host=tier_of_host,
            per_state=per_state,
            collected_bytes=data_bytes,
            script_lines=bundle.script_line_total(),
            config_lines=bundle.config_line_total(),
            generated_files=bundle.file_count(),
            machine_count=allocation.machine_count(),
            scenario=experiment.scenario,
        )

    @staticmethod
    def _surface_colocation(physical_hosts, host_cpu, tier_of_host):
        """Mirror each consolidated tenant's CPU under its physical
        host (``phys-0/node-3`` rows, tier ``physical``) so the
        bottleneck report can attribute a tenant's saturation to its
        cotenants.  Dedicated trials add no rows — their observation
        tables stay byte-identical to pre-scenario runs.
        """
        for physical in physical_hosts:
            for member in physical.tenant_names():
                if member in host_cpu:
                    key = f"{physical.name}/{member}"
                    host_cpu[key] = host_cpu[member]
                    tier_of_host[key] = "physical"

    @staticmethod
    def _tier_map(system):
        tiers = {}
        for web in system.web_servers:
            tiers[web.host.name] = "web"
        for app in system.app_servers:
            tiers[app.host.name] = "app"
        for backend in system.db_backends:
            tiers[backend.host.name] = "db"
        tiers[system.client_host.name] = "client"
        return tiers
