"""Simulation substrate: DES engine, exact MVA, and the analytic tier.

Three solvers share one calling convention — :func:`solve` dispatches on
the model's type and the requested *fidelity*:

* ``"des"`` — the discrete-event :class:`NTierSimulation` (per-request
  fidelity; the observation authority).
* ``"analytic"`` — the Schweitzer AMVA fluid tier
  (:mod:`repro.sim.analytic`), solved exactly as one monotone equation
  in the throughput; population-independent cost, built for
  million-user characterizations.
* ``"auto"`` — whatever the model supports (analytic for models,
  DES for harnesses).

``fidelity="mva"`` additionally selects the exact-MVA recursion for
plain station sequences; it is an engine name local to this dispatcher,
not part of the public fidelity trio.
"""

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.sim import analytic, mva
from repro.sim.analytic import AnalyticModel, AnalyticResult, AnalyticStation
from repro.sim.engine import Event, Simulator
from repro.sim.ntier import (
    DEFAULT_HOP_LATENCY,
    OK,
    REJECTED,
    TIMEOUT,
    NTierSimulation,
    RequestRecord,
)
from repro.sim.resources import ProcessorSharingStation
from repro.sim.rng import RandomStreams

#: The public fidelity tiers every entry point accepts.
DES = "des"
ANALYTIC = "analytic"
AUTO = "auto"
FIDELITIES = (DES, ANALYTIC, AUTO)


def check_fidelity(fidelity, owner="fidelity"):
    """Validate a user-supplied fidelity name; returns it unchanged."""
    if fidelity not in FIDELITIES:
        raise SimulationError(
            f"{owner}: unknown fidelity {fidelity!r}; "
            f"choose one of {', '.join(FIDELITIES)}"
        )
    return fidelity


@dataclass(frozen=True)
class DesResult:
    """DES observations in the shared solver result schema."""

    users: int
    throughput: float
    response_time: float
    station_queue: dict
    station_utilization: dict
    station_residence: dict
    metrics: object = field(default=None, repr=False)

    def bottleneck(self):
        return max(self.station_utilization,
                   key=lambda name: self.station_utilization[name])


def _solve_des(harness, duration=None):
    records = harness.run(duration)
    driver = harness.driver
    # Import here: monitoring sits above sim in the layer order.
    from repro.monitoring import summarize_records
    metrics = summarize_records(
        records, (driver.warmup, driver.warmup + driver.run))
    elapsed = max(harness.sim.now, 1e-12)
    utilization = {}
    for name, station in harness.stations_by_host.items():
        utilization[name] = station.area_reading()[1] / elapsed
    for host, disk in harness.disk_by_host.items():
        utilization[f"{host}:disk"] = disk.area_reading()[1] / elapsed
    return DesResult(
        users=driver.users,
        throughput=metrics.throughput,
        response_time=metrics.mean_response_s,
        station_queue={},
        station_utilization=utilization,
        station_residence={},
        metrics=metrics,
    )


def solve(model, *, fidelity=AUTO, users=None, think_time=None,
          duration=None):
    """One entry point over every solver tier.

    *model* may be an :class:`NTierSimulation` harness (DES), an
    :class:`AnalyticModel`, or a plain sequence of stations
    (``MvaStation`` / ``AnalyticStation``; pass *users* and
    *think_time*).  Results share the core schema: ``users``,
    ``throughput``, ``response_time``, ``station_queue``,
    ``station_utilization``, ``station_residence``, ``bottleneck()``.
    """
    if fidelity not in FIDELITIES and fidelity != "mva":
        raise SimulationError(
            f"unknown fidelity {fidelity!r}; choose one of "
            f"{', '.join(FIDELITIES + ('mva',))}"
        )
    if isinstance(model, NTierSimulation):
        if fidelity not in (DES, AUTO):
            raise SimulationError(
                f"a discrete-event harness only solves at fidelity "
                f"'des', not {fidelity!r}"
            )
        return _solve_des(model, duration)
    if isinstance(model, AnalyticModel):
        if fidelity == DES:
            raise SimulationError(
                "an analytic model cannot run at fidelity 'des'; "
                "build an NTierSimulation for discrete-event results"
            )
        if users is None:
            raise SimulationError(
                "solving an analytic model needs users=")
        return analytic.solve_model(model, users)
    try:
        stations = tuple(model)
    except TypeError:
        raise SimulationError(
            f"cannot solve {type(model).__name__}: expected an "
            f"NTierSimulation, an AnalyticModel, or a station sequence"
        )
    if users is None or think_time is None:
        raise SimulationError(
            "solving a station sequence needs users= and think_time=")
    if fidelity == DES:
        raise SimulationError(
            "a station sequence cannot run at fidelity 'des'; "
            "build an NTierSimulation for discrete-event results"
        )
    if fidelity == "mva":
        return mva.solve(stations, think_time, users)
    return analytic.solve_stations(stations, think_time, users)


__all__ = [
    "mva",
    "analytic",
    "AnalyticModel",
    "AnalyticResult",
    "AnalyticStation",
    "ANALYTIC",
    "AUTO",
    "DES",
    "DesResult",
    "FIDELITIES",
    "check_fidelity",
    "solve",
    "Event",
    "Simulator",
    "DEFAULT_HOP_LATENCY",
    "OK",
    "REJECTED",
    "TIMEOUT",
    "NTierSimulation",
    "RequestRecord",
    "ProcessorSharingStation",
    "RandomStreams",
]
