"""AST for the Testbed Language (TBL).

TBL is Mulini's experiment-specification input (Section II): which
benchmark to drive, the topology/workload/write-ratio sweep, trial
timing, SLOs and monitoring.  The parser produces a :class:`TestbedSpec`;
everything downstream (generation, deployment, simulation, results)
hangs off the :class:`ExperimentDef` records inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError, TblError
from repro.workloads.arrivals import ArrivalSpec

#: Trial timing defaults per benchmark, from Section III.B.
DEFAULT_TRIAL_PHASES = {
    "rubis": (60.0, 300.0, 60.0),
    "rubbos": (150.0, 900.0, 150.0),
}

DEFAULT_MONITOR_METRICS = ("cpu", "memory", "disk", "network")


@dataclass(frozen=True)
class TrialPhases:
    """Warm-up / run / cool-down durations in seconds (Section III.B)."""

    warmup: float
    run: float
    cooldown: float

    def __post_init__(self):
        if self.run <= 0:
            raise TblError("trial run period must be positive")
        if self.warmup < 0 or self.cooldown < 0:
            raise TblError("trial warm-up/cool-down must be non-negative")

    def total(self):
        return self.warmup + self.run + self.cooldown

    @classmethod
    def default_for(cls, benchmark):
        warmup, run, cooldown = DEFAULT_TRIAL_PHASES.get(
            benchmark, DEFAULT_TRIAL_PHASES["rubis"]
        )
        return cls(warmup=warmup, run=run, cooldown=cooldown)

    def scaled(self, factor):
        """Uniformly scale all phases (used by fast benchmark harnesses)."""
        if factor <= 0:
            raise TblError("trial scale factor must be positive")
        return TrialPhases(self.warmup * factor, self.run * factor,
                           self.cooldown * factor)


@dataclass(frozen=True)
class ServiceLevelObjective:
    """SLOs an experiment is judged against (Section II).

    *response_time* is the mean-response-time objective in seconds;
    *error_ratio* is the largest tolerated fraction of failed requests
    before a trial is declared DNF (Table 7's missing squares).
    """

    response_time: float = 2.0
    error_ratio: float = 0.10

    def __post_init__(self):
        if self.response_time <= 0:
            raise TblError("SLO response time must be positive")
        if not 0 <= self.error_ratio <= 1:
            raise TblError("SLO error ratio must be within [0, 1]")


@dataclass(frozen=True)
class MonitorSpec:
    """System-level monitoring configuration (sysstat-style, Section II)."""

    interval: float = 1.0
    metrics: tuple = DEFAULT_MONITOR_METRICS

    def __post_init__(self):
        if self.interval <= 0:
            raise TblError("monitor interval must be positive")
        known = set(DEFAULT_MONITOR_METRICS)
        for metric in self.metrics:
            if metric not in known:
                raise TblError(
                    f"unknown monitor metric {metric!r}; known: {sorted(known)}"
                )
        if not self.metrics:
            raise TblError("monitor must sample at least one metric")


@dataclass(frozen=True)
class ExperimentDef:
    """One experiment family: a topology/workload/write-ratio sweep."""

    name: str
    benchmark: str
    platform: str
    topologies: tuple
    workloads: tuple
    write_ratios: tuple
    trial: TrialPhases
    slo: ServiceLevelObjective = ServiceLevelObjective()
    monitor: MonitorSpec = MonitorSpec()
    app_server: str = None
    think_time: float = 7.0
    #: Client abandons a request after this long (RUBiS HttpClient-style);
    #: abandonments count as errors and drive Table 7's DNF holes.
    timeout: float = 8.0
    seed: int = 42
    #: Independent repetitions per sweep point (seeds seed..seed+n-1);
    #: repetition is how the paper's noisy-at-saturation cells get error
    #: bars.
    repetitions: int = 1
    db_node_type: str = None
    #: Tier instances packed per physical host (1 = dedicated, the
    #: paper's regime); >1 consolidates and buys deterministic CPU-steal
    #: and disk-contention interference (see repro.vcluster.host).
    consolidation_ratio: int = 1
    #: Open-loop arrival pattern; ``None`` keeps the closed-loop
    #: think-time population.
    arrival: ArrivalSpec = None
    #: Scenario identity this experiment was compiled from ("" for
    #: plain sweeps); part of the trial key alongside fidelity.
    scenario: str = ""

    def __post_init__(self):
        if not self.topologies:
            raise TblError(f"experiment {self.name!r} declares no topology")
        if not self.workloads:
            raise TblError(f"experiment {self.name!r} declares no workload")
        if not self.write_ratios:
            raise TblError(f"experiment {self.name!r} declares no write ratio")
        for ratio in self.write_ratios:
            if not 0 <= ratio <= 1:
                raise TblError(
                    f"write ratio {ratio!r} outside [0, 1] in {self.name!r}"
                )
        for workload in self.workloads:
            if workload <= 0:
                raise TblError(
                    f"workload {workload!r} must be positive in {self.name!r}"
                )
        if self.think_time <= 0:
            raise TblError("think time must be positive")
        if self.timeout <= 0:
            raise TblError("client timeout must be positive")
        if self.repetitions < 1:
            raise TblError("repetitions must be at least 1")
        # A repeated sweep entry would run the same trial key twice.
        for setting, values in (
                ("topology", [t.label() for t in self.topologies]),
                ("workload", self.workloads),
                ("write_ratio", self.write_ratios)):
            seen = set()
            for value in values:
                if value in seen:
                    raise TblError(
                        f"{setting} {value!r} listed twice in {self.name!r}")
                seen.add(value)
        if self.consolidation_ratio < 1:
            raise TblError("consolidation ratio must be at least 1")
        if self.arrival is not None \
                and not isinstance(self.arrival, ArrivalSpec):
            raise TblError(
                f"arrival must be an ArrivalSpec, got {self.arrival!r}"
            )

    def points(self):
        """Yield every (topology, workload, write_ratio) sweep point."""
        for topology in self.topologies:
            for write_ratio in self.write_ratios:
                for workload in self.workloads:
                    yield topology, workload, write_ratio

    def point_count(self):
        return (len(self.topologies) * len(self.workloads)
                * len(self.write_ratios))

    def max_machine_count(self):
        """Peak machines needed by any single sweep point."""
        return max(t.machine_count() for t in self.topologies)


@dataclass(frozen=True)
class TestbedSpec:
    """A full TBL document: shared settings plus experiment families."""

    benchmark: str
    platform: str
    experiments: tuple
    app_server: str = None
    source: str = "<tbl>"

    def __post_init__(self):
        if not self.experiments:
            raise TblError("testbed spec declares no experiments")

    def experiment(self, name=None):
        """The experiment named *name*; without a name, the spec's only
        experiment — a spec declaring several must be told which."""
        if name is None:
            if len(self.experiments) == 1:
                return self.experiments[0]
            names = ", ".join(e.name for e in self.experiments)
            raise ExperimentError(
                f"spec declares {len(self.experiments)} experiments "
                f"({names}); pick one by name"
            )
        for experiment in self.experiments:
            if experiment.name == name:
                return experiment
        raise TblError(
            f"no experiment named {name!r}; known: "
            f"{[e.name for e in self.experiments]}"
        )


def expand_range(start, stop=None, step=None):
    """Expand a TBL range into an inclusive tuple of values.

    Mirrors the language's ``A to B step C`` construct.  Works for both
    integers (workloads) and floats (write ratios); guards against the
    degenerate loops a hand-written harness would hit.
    """
    if stop is None:
        return (start,)
    if step is None:
        step = 1 if isinstance(start, int) and isinstance(stop, int) else 0.1
    if step <= 0:
        raise TblError(f"range step must be positive, got {step!r}")
    if stop < start:
        raise TblError(f"range end {stop!r} below start {start!r}")
    values = []
    value = start
    # Tolerate float accumulation: stop + half step catches 0.9000000004.
    while value <= stop + step * 1e-9 + (0 if isinstance(step, int) else step * 1e-6):
        values.append(round(value, 9) if isinstance(value, float) else value)
        value += step
    return tuple(values)
