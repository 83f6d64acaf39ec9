"""Approximate MVA fast path: fluid/steady-state analytic fidelity tier.

Exact MVA (:mod:`repro.sim.mva`) recurses over the population one
customer at a time — O(N * M) work that is fine at the paper's 2700-user
sweeps and hopeless at a million users.  This module solves the same
closed network with the Schweitzer/Bard approximation instead.  Its
equations reduce to one monotone equation in the throughput, solved
exactly by a safeguarded Newton root, so cost is O(steps * M) and
*independent of N*.  A 4-16-8 topology at 1,000,000 users solves in
a fraction of a millisecond, which is what lets the tiered planner
explore analytically and spend discrete-event time only on knee
confirmation.

Beyond plain AMVA the model carries the three n-tier mechanisms the
simulator implements (same station abstractions, same calibration):

* **RAIDb-1 write fan-out** — writes execute on every database backend
  but the controller waits for the *slowest* replica, not the sum; the
  summed residences overcount write work by k/H_k, so the solver
  subtracts the difference (longest-parallel-path latency composition).
* **Thread-pool concurrency limits** — stations carry the deployed
  worker-pool + accept-queue capacity; estimated queue mass above that
  capacity converts into a rejection ratio, mirroring the simulator's
  worker-pool rejections.
* **Client abandonment** — with an exponential response-time
  approximation, the fraction of requests beyond the driver timeout is
  ``exp(-timeout/R)``; completed-request statistics use the truncated
  mean, which is what the DES measurement window reports.

Per-operation costs combine linearly over the workload mix (the
calibration's ``app_mean``/``db_backend_mean`` morphing), so one model
per (topology, write ratio) covers the whole workload ladder.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from repro.errors import AnalyticUnsupported, SimulationError
from repro.sim.ntier import DEFAULT_HOP_LATENCY
from repro.spec.catalog import stack_for
from repro.workloads.calibration import (
    DB_DISK_READ_S,
    DB_DISK_WRITE_S,
    REFERENCE_GHZ,
    disk_speed_factor,
    get_calibration,
)

#: The throughput root stops once its residual is within what one
#: rounding unit of X moves it, or its bracket has no float left inside.
ROUNDING = sys.float_info.epsilon


@dataclass(frozen=True)
class AnalyticStation:
    """One queueing station of the analytic model.

    ``demand`` is the visit-weighted service demand (V * S, seconds);
    ``write_demand`` is the portion of it that is replicated write work
    (subject to the fork-join correction); ``capacity`` is the resident
    cap (worker pool + accept queue) past which jobs are rejected.
    """

    name: str
    demand: float
    servers: int = 1
    write_demand: float = 0.0
    capacity: float = math.inf
    tier: str = "station"

    def effective_demand(self):
        return self.demand / self.servers


@dataclass(frozen=True)
class AnalyticModel:
    """A closed network plus the n-tier semantics the solver applies.

    A model is checked once, when it is built (``dataclasses.replace``
    builds, so it checks too): an invalid one raises
    :class:`~repro.errors.SimulationError` here, not at its solves.
    What no population or arrival rate changes is worked out at the
    same time and kept beside the fields: the station names, each
    station's effective demand and its weight in the summed response
    time, and the stations with a finite capacity.  Equality, hashing
    and ``repr`` see only the fields; a pickled model carries the
    derived values with it.  Nothing is written to a model after
    construction, so it stays a plain frozen value.

    The weight is the demand less the RAIDb-1 overcount: k replicated
    write copies cost max-of-k ~= H_k of one copy, not k, so (k - H_k)/k
    of each station's write residence comes off the response time.
    """

    stations: tuple
    think_time: float
    delay: float = 0.0            # pure latency (network hops), seconds
    timeout: float = None         # client abandonment threshold, seconds
    replicas: int = 1             # RAIDb-1 database backend count
    write_ratio: float = 0.0

    def __post_init__(self):
        stations = self.stations
        if self.think_time < 0:
            raise SimulationError(
                f"think time must be non-negative: {self.think_time}")
        if not stations:
            raise SimulationError("need at least one station")
        names = [s.name for s in stations]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate station names: {names}")
        for station in stations:
            if station.effective_demand() < 0:
                raise SimulationError(
                    f"station {station.name} has negative demand")
            if station.write_demand > station.demand:
                raise SimulationError(
                    f"station {station.name} writes more than its demand")
        if self.replicas < 1:
            raise SimulationError(
                f"replicas must be >= 1, got {self.replicas}")
        harmonic = sum(1.0 / i for i in range(1, self.replicas + 1))
        overcount = (self.replicas - harmonic) / self.replicas
        effective = tuple(s.effective_demand() for s in stations)
        weights = tuple(d - overcount * (s.write_demand / s.servers)
                        for d, s in zip(effective, stations))
        derived = {
            "_names": tuple(names),
            "_effective": effective,
            "_weights": weights,
            "_weight_sum": sum(weights),
            "_capacities": tuple((index, s.capacity)
                                 for index, s in enumerate(stations)
                                 if math.isfinite(s.capacity)),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class AnalyticResult:
    """Mirror of :class:`repro.sim.mva.MvaResult` plus fluid extras."""

    users: int
    throughput: float
    response_time: float
    station_queue: dict
    station_utilization: dict
    station_residence: dict
    iterations: int = 0
    converged: bool = True
    timeout_ratio: float = 0.0
    rejection_ratio: float = 0.0
    goodput: float = 0.0
    completed_response_time: float = 0.0
    #: Open-loop only: arrivals/second the system cannot absorb (queue
    #: growth rate).  Zero for stable operating points and all closed
    #: solves; the runner multiplies by the run window to project the
    #: DES backlog count.
    backlog_rate: float = 0.0
    bottleneck_name: str = field(default="", repr=False)

    def bottleneck(self):
        if self.bottleneck_name:
            return self.bottleneck_name
        return max(self.station_utilization,
                   key=lambda name: self.station_utilization[name])


def _operating_point(model, throughput, response, queue, residence,
                     utilization, rejection_floor=0.0, **fields):
    """The :class:`AnalyticResult` at one operating point, with losses.

    Client abandonment uses an exponential response-time approximation;
    worker-pool rejection is the queue mass above each deployed
    capacity, load the simulator's pools would have refused.
    """
    timeout_ratio = 0.0
    completed_response = response
    if model.timeout is not None and model.timeout > 0 and response > 0:
        timeout_ratio = math.exp(-model.timeout / response)
        if 1.0 - timeout_ratio < 1e-12:
            completed_response = model.timeout / 2.0
        else:
            completed_response = (
                response
                - model.timeout * timeout_ratio / (1.0 - timeout_ratio))
    overflow = sum(max(0.0, queue[index] - capacity)
                   for index, capacity in model._capacities)
    in_system = max(throughput * response, 1e-12)
    rejection_ratio = min(0.95, max(rejection_floor, overflow / in_system))
    names = model._names
    return AnalyticResult(
        throughput=throughput,
        response_time=response,
        station_queue=dict(zip(names, queue)),
        station_utilization=dict(zip(names, utilization)),
        station_residence=dict(zip(names, residence)),
        timeout_ratio=timeout_ratio,
        rejection_ratio=rejection_ratio,
        goodput=throughput * max(
            0.0, 1.0 - timeout_ratio - rejection_ratio),
        completed_response_time=completed_response,
        **fields,
    )


def _throughput_root(users, fixed, weights, weight_sum, loads):
    """The throughput X solving ``X * (fixed + R(X)) = N``.

    ``R(X) = sum(n_k / (1 - a_k * X))`` is the queueing part of the
    response time.  The residual is convex and strictly increasing
    below the first pole, so this is Numerical Recipes' ``rtsafe``:
    Newton steps, with a bisection whenever a step would leave the
    bracket.  Returns ``(X, steps)``.
    """
    base = fixed + weight_sum
    low = 0.0
    high = min([users / base] + [1.0 / a for a in loads if a > 0.0])
    # Lumping every station at least as loaded as station k into its
    # queueing term (their stretch is no smaller) and holding the rest
    # at their zero-load value leaves a quadratic whose smaller root
    # bounds X from above, below every pole: Newton descends the convex
    # residual from the tightest such bound monotonically.
    x = high
    lumped = 0.0
    for a, n in sorted(zip(loads, weights), reverse=True):
        lumped += n
        rest = base - lumped
        x = min(x, 2.0 * users / (base + users * a + math.sqrt(
            (rest - users * a) ** 2
            + lumped * (lumped + 2.0 * (rest + users * a)))))
    steps = 0
    while True:
        steps += 1
        total = fixed
        slope = 0.0
        for n, a in zip(weights, loads):
            t = 1.0 / (1.0 - a * x)
            total += n * t
            slope += n * a * t * t
        value = x * total - users
        derivative = total + x * slope
        if abs(value) <= ROUNDING * x * derivative:
            return x, steps
        if value < 0.0:
            low = x
        else:
            high = x
        x -= value / derivative
        if not low < x < high:
            x = 0.5 * (low + high)
            if x in (low, high):
                return x, steps


def solve_model(model, users):
    """Schweitzer AMVA for *users* customers; returns AnalyticResult.

    The Schweitzer equations estimate the queue an arriving customer
    sees as ``(N-1)/N * q``.  So with ``a_k = (N-1)/N * e_k`` for each
    effective demand ``e_k``, a throughput X fixes every residence,
    ``e_k / (1 - a_k*X)``, and every queue by Little's law.  The
    RAIDb-1 correction comes off the summed response time only —
    per-station queues keep their full (replicated) residences, because
    every backend really does hold the write job.  What is left is one
    equation, ``X * (Z + R(X)) = N``, solved to rounding by
    :func:`_throughput_root`; ``iterations`` counts its steps.

    The model was checked when it was built, so a solve checks only
    *users*, and, when it is positive, that some demand, delay or think
    time bounds the throughput.  ``users == 0`` is the zero-load point.
    """
    if users < 0:
        raise SimulationError(f"users must be non-negative: {users}")
    effective = model._effective
    weights = model._weights
    if users == 0:
        response = model._weight_sum + model.delay
        names = model._names
        return AnalyticResult(
            users=0, throughput=0.0, response_time=response,
            station_queue=dict.fromkeys(names, 0.0),
            station_utilization=dict.fromkeys(names, 0.0),
            station_residence=dict(zip(names, effective)),
            goodput=0.0, completed_response_time=response,
        )
    fixed = model.think_time + model.delay
    if fixed + model._weight_sum <= 0.0:
        raise SimulationError(
            "closed model has zero demand, delay and think time: its "
            "throughput is unbounded")
    loads = [(users - 1) / users * d for d in effective]
    throughput, iterations = _throughput_root(
        users, fixed, weights, model._weight_sum, loads)
    stretch = [1.0 / (1.0 - a * throughput) for a in loads]
    residence = [d * t for d, t in zip(effective, stretch)]
    return _operating_point(
        model, throughput,
        sum(n * t for n, t in zip(weights, stretch)) + model.delay,
        [throughput * r for r in residence], residence,
        [min(throughput * d, 1.0) for d in effective],
        users=users, iterations=iterations)


def require_analytic_support(arrival):
    """Typed "DES-only" rejection for time-varying arrival processes.

    ``fidelity=auto`` catches :class:`~repro.errors.AnalyticUnsupported`
    and degrades to the DES tier; ``fidelity=analytic`` surfaces it to
    the caller as an explicit refusal rather than a silently-wrong
    steady-state answer.
    """
    from repro.workloads.arrivals import analytic_supported

    if not analytic_supported(arrival):
        raise AnalyticUnsupported(
            f"arrival kind {arrival.kind!r} is time-varying; the "
            f"analytic tier only solves constant-rate open loops — "
            f"this trial is DES-only"
        )


#: Open-loop utilization clamp: an unstable operating point (rho >= 1)
#: is reported at this utilization so response times stay finite and
#: deterministic while the surplus arrival rate lands in backlog_rate.
OPEN_RHO_CAP = 0.999


def solve_open(model, rate):
    """Operating-point solve for a constant-rate open-loop arrival flow.

    Each station is treated as an M/M/c-ish queue at offered load
    ``rho_k = rate * D_k``: residence ``D_k / (1 - rho_k)`` while
    stable.  When the offered rate exceeds the bottleneck's capacity
    the queue grows without bound; the solve reports throughput capped
    at the bottleneck rate, the surplus as ``backlog_rate``, and the
    response time at the :data:`OPEN_RHO_CAP` clamp (finite, huge, and
    the same for every caller — determinism over realism).

    Only constant-rate arrivals are analytically tractable here; the
    time-varying kinds (diurnal, bursty, flash) must raise
    :class:`~repro.errors.AnalyticUnsupported` *before* reaching this
    function — see :func:`repro.workloads.arrivals.analytic_supported`.
    The model was checked when it was built; a solve checks only
    *rate*, and that some station has demand.
    """
    if rate <= 0:
        raise SimulationError(f"arrival rate must be positive: {rate}")
    effective = model._effective
    weights = model._weights
    d_max = max(effective)
    if d_max <= 0:
        raise SimulationError("all stations have zero demand")
    capacity_rate = 1.0 / d_max
    backlog_rate = max(0.0, rate - capacity_rate)
    offered = [rate * d for d in effective]
    rho = [min(r, OPEN_RHO_CAP) for r in offered]
    # Arrivals beyond capacity are load the system refuses or abandons:
    # the surplus floors the rejection channel so the error ratio
    # reflects the overload.
    return _operating_point(
        model, min(rate, capacity_rate),
        sum(n / (1.0 - r) for n, r in zip(weights, rho)) + model.delay,
        [r / (1.0 - r) for r in rho],
        [d / (1.0 - r) for d, r in zip(effective, rho)],
        [min(r, 1.0) for r in offered],
        rejection_floor=backlog_rate / rate,
        users=0, iterations=1, converged=backlog_rate == 0.0,
        backlog_rate=backlog_rate)


def solve_stations(stations, think_time, users):
    """AMVA over plain station sequences (the ``mva.solve`` shape).

    Accepts :class:`AnalyticStation` or :class:`~repro.sim.mva.MvaStation`
    instances — anything with ``name``/``demand``/``servers``.
    """
    adapted = tuple(
        s if isinstance(s, AnalyticStation) else AnalyticStation(
            name=s.name, demand=s.demand, servers=s.servers)
        for s in stations
    )
    model = AnalyticModel(stations=adapted, think_time=think_time)
    return solve_model(model, users)


def ntier_model(benchmark, tier_hosts, write_ratio, *, think_time=None,
                timeout=None, app_server=None,
                hop_latency=DEFAULT_HOP_LATENCY, colocation=None):
    """Build the analytic model for one deployed n-tier configuration.

    *tier_hosts* maps tier -> ``[(host_name, NodeType), ...]`` — the
    allocation preview (:meth:`VirtualCluster.preview_allocation`), so
    station names match the host names the simulator would report and
    the analytic host-CPU channel lines up with the DES one.

    *colocation* maps host name -> :class:`repro.vcluster.host.Colocation`
    (from :func:`~repro.vcluster.host.plan_colocation` over the same
    preview names, in allocation order) — consolidated hosts lose CPU to
    steal and stretch disk service times exactly as the DES stations do.
    """
    colocation = colocation or {}
    calibration = get_calibration(benchmark)
    stack = stack_for(benchmark, app_server=app_server)
    webs = list(tier_hosts.get("web") or ())
    apps = list(tier_hosts.get("app") or ())
    dbs = list(tier_hosts.get("db") or ())
    if not apps:
        raise SimulationError("analytic model needs an app tier")
    if not dbs:
        raise SimulationError("analytic model needs a db tier")
    web_pkg = stack["web"][0]
    app_pkg = stack["app"][-1]
    db_pkg = stack["db"][0]
    replicas = len(dbs)
    stations = []
    def steal(name):
        placed = colocation.get(name)
        return 1.0 - placed.cpu_steal if placed is not None else 1.0

    for name, node in webs:
        speed = node.speed_factor(REFERENCE_GHZ) / web_pkg.efficiency
        speed *= steal(name)
        stations.append(AnalyticStation(
            name=name,
            demand=(calibration.web_s / speed) / len(webs),
            servers=node.cpu_count,
            capacity=2 * web_pkg.worker_pool,
            tier="web",
        ))
    for name, node in apps:
        speed = node.speed_factor(REFERENCE_GHZ) / app_pkg.efficiency
        speed *= steal(name)
        stations.append(AnalyticStation(
            name=name,
            demand=(calibration.app_mean(write_ratio) / speed) / len(apps),
            servers=node.cpu_count,
            capacity=2 * app_pkg.worker_pool,
            tier="app",
        ))
    for name, node in dbs:
        speed = node.speed_factor(REFERENCE_GHZ) / db_pkg.efficiency
        speed *= steal(name)
        disk_speed = disk_speed_factor(node)
        placed = colocation.get(name)
        if placed is not None:
            disk_speed /= placed.disk_contention
        stations.append(AnalyticStation(
            name=name,
            demand=calibration.db_backend_mean(write_ratio,
                                               replicas) / speed,
            servers=node.cpu_count,
            write_demand=write_ratio * calibration.db_write_s / speed,
            capacity=5 * db_pkg.worker_pool,
            tier="db",
        ))
        stations.append(AnalyticStation(
            name=f"{name}:disk",
            demand=((1.0 - write_ratio) * DB_DISK_READ_S / replicas
                    + write_ratio * DB_DISK_WRITE_S) / disk_speed,
            servers=1,
            write_demand=write_ratio * DB_DISK_WRITE_S / disk_speed,
            tier="db-disk",
        ))
    # Request path hops: client->web->app->db forward plus the return
    # path (the simulator charges 3 forward + 3 return with a web tier,
    # 2 + 2 without).
    hops = 6 if webs else 4
    return AnalyticModel(
        stations=tuple(stations),
        think_time=(calibration.think_time_s
                    if think_time is None else think_time),
        delay=hop_latency * hops,
        timeout=timeout,
        replicas=replicas,
        write_ratio=write_ratio,
    )
