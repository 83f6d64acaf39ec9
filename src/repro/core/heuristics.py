"""The paper's scale-out exploration strategy (Section V.A).

"As the workload increases ... if we are able to see a system component
bottleneck (e.g., application server in RUBiS), we increase the number
of the bottleneck resource to alleviate the bottleneck.  ...  This loop
continues until the system response time is not improved by the
addition of another server.  This is an indication of a different
bottleneck in the system.  Then we add other system resources."

The strategy drives real trials through the ExperimentRunner; every
decision is recorded so the exploration itself is an observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bottleneck import detect_bottleneck, last_pass, slo_violated
from repro.errors import AllocationError, ExperimentError
from repro.experiments.sweep import build_experiment
from repro.spec.topology import Topology


@dataclass
class ScaleOutStep:
    """One decision the strategy took, and the trial that prompted it."""

    topology: str
    workload: int
    action: str            # "workload+", "scale app", "scale db", "stop"
    reason: str
    result: object = None


@dataclass
class ScaleOutOutcome:
    steps: list = field(default_factory=list)
    results: list = field(default_factory=list)

    def final_topology(self):
        for step in reversed(self.steps):
            if step.result is not None:
                return step.topology
        raise ExperimentError("strategy ran no trials")

    def max_supported_workload(self, slo):
        return last_pass(self.results, slo)


class ScaleOutStrategy:
    """Bottleneck-driven exploration bound to a runner and a benchmark."""

    def __init__(self, runner, benchmark, platform, scale=0.1,
                 write_ratio=0.15, seed=42, app_server=None,
                 cpu_threshold=85.0, min_improvement=0.10):
        self.runner = runner
        self.benchmark = benchmark
        self.platform = platform
        self.scale = scale
        self.write_ratio = write_ratio
        self.seed = seed
        self.app_server = app_server
        self.cpu_threshold = cpu_threshold
        self.min_improvement = min_improvement

    def _run(self, topology, workload, slo):
        experiment, _tbl = build_experiment(
            name="scaleout-strategy", benchmark=self.benchmark,
            platform=self.platform, topologies=[topology],
            workloads=(workload,), write_ratios=(self.write_ratio,),
            scale=self.scale, seed=self.seed, app_server=self.app_server,
            slo=slo,
        )
        return self.runner.run_point(experiment, topology, workload,
                                     self.write_ratio)

    def explore(self, slo, start=Topology(1, 1, 1), workload_start=100,
                workload_step=100, max_workload=3000, max_app=12,
                max_db=3, max_trials=60):
        """Run the exploration loop; returns a :class:`ScaleOutOutcome`."""
        outcome = ScaleOutOutcome()
        topology = start
        workload = workload_start
        last_rt_at_violation = None
        trials = 0
        while workload <= max_workload and trials < max_trials:
            try:
                result = self._run(topology, workload, slo)
            except AllocationError as error:
                outcome.steps.append(ScaleOutStep(
                    topology.label(), workload, "stop",
                    f"cluster exhausted: {error}"))
                break
            trials += 1
            outcome.results.append(result)
            if not slo_violated(result, slo):
                outcome.steps.append(ScaleOutStep(
                    topology.label(), workload, "workload+",
                    "SLO met; increasing workload", result))
                workload += workload_step
                last_rt_at_violation = None
                continue
            # SLO violated: find the bottleneck and scale it.
            bottleneck = detect_bottleneck(result, self.cpu_threshold)
            if bottleneck is None:
                # No tier saturated: errors/latency without a CPU
                # bottleneck; scaling will not help.
                outcome.steps.append(ScaleOutStep(
                    topology.label(), workload, "stop",
                    "SLO violated with no saturated tier", result))
                break
            rt = result.metrics.mean_response_s
            if last_rt_at_violation is not None:
                improvement = (last_rt_at_violation - rt) \
                    / last_rt_at_violation
                if improvement < self.min_improvement:
                    outcome.steps.append(ScaleOutStep(
                        topology.label(), workload, "stop",
                        f"adding a server improved response time only "
                        f"{improvement:.0%}; different bottleneck",
                        result))
                    break
            limit = {"app": max_app, "db": max_db, "web": 3}[bottleneck]
            if topology.count(bottleneck) >= limit:
                outcome.steps.append(ScaleOutStep(
                    topology.label(), workload, "stop",
                    f"{bottleneck} tier at its {limit}-server limit",
                    result))
                break
            grown = topology.scaled(bottleneck)
            outcome.steps.append(ScaleOutStep(
                topology.label(), workload, f"scale {bottleneck}",
                f"{bottleneck} tier saturated "
                f"({result.tier_cpu(bottleneck):.0f}% CPU); growing to "
                f"{grown.label()}", result))
            topology = grown
            last_rt_at_violation = rt
        else:
            outcome.steps.append(ScaleOutStep(
                topology.label(), workload, "stop",
                "reached exploration budget"))
        return outcome
