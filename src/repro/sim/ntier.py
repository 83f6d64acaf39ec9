"""N-tier simulation over a deployed system: closed- or open-loop.

Builds one processor-sharing station per deployed server host (speed
from the node's hardware, worker pools from the deployed config files),
then drives it with the workload the Mulini-generated driver.properties
describes.  Closed loop (the paper's regime): N users in think/request
cycles walking the benchmark's Markov chain.  Open loop (the scenario
plane): sessions arrive from a seeded arrival process — constant,
diurnal, bursty or flash-crowd — each walking the same Markov chain for
a fixed number of interactions, whether or not the system keeps up.

Hosts consolidated onto shared physical machines carry a
``Colocation`` stamp; their stations run at ``speed * (1 - cpu_steal)``
and their disks at ``speed / disk_contention``, which is how
virtualized-server interference shifts the knee.

Request path (RUBiS): client -> web (Apache) -> app (Tomcat+EJB) ->
database.  Reads visit one C-JDBC backend (round-robin); writes execute
on *every* backend (RAIDb-1), which is what caps 2-replica scaling near
2900 users.  Two error paths mirror the testbed: client-side timeout
(abandonment) and worker-pool rejection; both feed the DNF accounting
behind Table 7's missing squares.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappush

from repro.errors import SimulationError
from repro.obs.tracer import as_tracer
from repro.sim.engine import Event, Simulator
from repro.sim.resources import ProcessorSharingStation
from repro.sim.rng import RandomStreams
from repro.workloads import build_model
from repro.workloads.calibration import (
    DB_DISK_READ_S,
    DB_DISK_WRITE_S,
    REFERENCE_GHZ,
    disk_speed_factor,
)

#: One-way LAN hop latency (seconds); Gbps switching, Section III.A.
DEFAULT_HOP_LATENCY = 0.0002

OK = "ok"
TIMEOUT = "timeout"
REJECTED = "rejected"


@dataclass
class RequestRecord:
    """One client request, as the driver would log it."""

    __slots__ = ("user", "state", "issued_at", "finished_at", "status",
                 "is_write")

    user: int
    state: str
    issued_at: float
    finished_at: float
    status: str
    is_write: bool

    def response_time(self):
        return self.finished_at - self.issued_at


class DbBackendStations:
    """One database backend's resources: a CPU and a disk spindle.

    The CPU does query processing (worker-pool limited); the spindle
    serves buffer-pool misses and log flushes and never rejects (the
    DBMS queues I/O internally).
    """

    __slots__ = ("cpu", "disk")

    def __init__(self, cpu, disk):
        self.cpu = cpu
        self.disk = disk

    @property
    def resident_jobs(self):
        return self.cpu.resident_jobs + self.disk.resident_jobs


class _TierBalancer:
    """Server selection over a tier's stations.

    ``rr`` is mod_jk's default round-robin; ``least`` picks the station
    with the fewest resident jobs (mod_jk's busyness method), used by
    the balancer-policy ablation.
    """

    def __init__(self, stations, policy="rr"):
        if not stations:
            raise SimulationError("balancer needs at least one station")
        if policy not in ("rr", "least"):
            raise SimulationError(f"unknown balancer policy {policy!r}")
        self.stations = stations
        self.policy = policy
        self._next = 0

    def pick(self):
        if self.policy == "least":
            return min(self.stations, key=lambda s: s.resident_jobs)
        station = self.stations[self._next]
        self._next = (self._next + 1) % len(self.stations)
        return station


class NTierSimulation:
    """The simulation harness for one deployed experiment point."""

    def __init__(self, system, *, hop_latency=DEFAULT_HOP_LATENCY,
                 model=None, balancer_policy="rr", tracer=None):
        self.system = system
        self.driver = system.driver
        # The request path pushes its hops, timeout and think times
        # straight onto the event heap, so the delays that schedule()
        # would check on every push are checked here, once.
        for what, delay in (("hop latency", hop_latency),
                            ("client timeout", self.driver.timeout),
                            ("think time", self.driver.think_time)):
            if not delay >= 0:
                raise SimulationError(
                    f"{what} must be a non-negative delay: {delay}")
        self.hop_latency = hop_latency
        self.balancer_policy = balancer_policy
        self.tracer = as_tracer(tracer)
        self.sim = Simulator()
        self.rng = RandomStreams(self.driver.seed)
        self.model = model if model is not None else build_model(
            self.driver.benchmark, self.driver.write_ratio,
            mix=self.driver.mix,
        )
        self.records = []
        self.stations_by_host = {}
        self._build_stations()
        # The response unwinds back through the tiers as pure network
        # latency (rendering was charged on the way in).
        self._return_delay = hop_latency * (
            2 if self.web_balancer is None else 3)
        streams = self.rng.stream
        self._chain_random = streams("chain").random
        self._web_draw = streams("web").expovariate
        self._app_draw = streams("app").expovariate
        self._db_draw = streams("db").expovariate
        self._disk_draw = streams("db-disk").expovariate
        self._user_states = {}
        self._started = False
        #: Open-loop state; populated by start() when the deployed
        #: driver carries an arrival spec.
        self.arrival = getattr(self.driver, "arrival", None)
        self._arrivals = None
        self._session_counter = itertools.count()
        self._session_remaining = {}
        self._horizon = (self.driver.warmup + self.driver.run
                         + self.driver.cooldown)

    # -- station construction ------------------------------------------------

    def _station_for(self, host, concurrency, queue_limit, efficiency=1.0):
        node = host.node_type
        speed = node.speed_factor(REFERENCE_GHZ) / efficiency
        colocation = getattr(host, "colocation", None)
        if colocation is not None:
            speed *= (1.0 - colocation.cpu_steal)
        station = ProcessorSharingStation(
            self.sim, name=host.name, cores=node.cpu_count, speed=speed,
            concurrency_limit=concurrency, queue_limit=queue_limit,
        )
        self.stations_by_host[host.name] = station
        return station

    def _build_stations(self):
        web_stations = [
            self._station_for(web.host, web.max_clients, web.max_clients)
            for web in self.system.web_servers
        ]
        app_stations = [
            self._station_for(app.host, app.worker_pool, app.worker_pool,
                              efficiency=app.efficiency)
            for app in self.system.app_servers
        ]
        self.disk_by_host = {}
        db_backends = []
        for backend in self.system.db_backends:
            cpu = self._station_for(backend.host, backend.max_connections,
                                    backend.max_connections * 4)
            disk_speed = disk_speed_factor(backend.host.node_type)
            colocation = getattr(backend.host, "colocation", None)
            if colocation is not None:
                disk_speed /= colocation.disk_contention
            disk = ProcessorSharingStation(
                self.sim, name=f"{backend.host.name}:disk", cores=1,
                speed=disk_speed,
            )
            self.disk_by_host[backend.host.name] = disk
            db_backends.append(DbBackendStations(cpu=cpu, disk=disk))
        policy = self.balancer_policy
        self.web_balancer = _TierBalancer(web_stations, policy) \
            if web_stations else None
        self.app_balancer = _TierBalancer(app_stations, policy)
        self.db_balancer = _TierBalancer(db_backends, policy)
        self.db_backends = db_backends

    # -- client population -----------------------------------------------------

    def start(self):
        """Release the workload: a closed-loop population, or an
        open-loop arrival process when the driver carries one."""
        if self._started:
            raise SimulationError("simulation already started")
        self._started = True
        if self.arrival is not None:
            self._start_open_loop()
            return
        users = self.driver.users
        for user in range(users):
            self._user_states[user] = self.model.initial_state
            # Staggered ramp-up: real drivers start threads over an
            # interval, not all in the same instant.
            offset = self.rng.uniform("rampup", 0.0, self.driver.think_time)
            self.sim.schedule(offset, self._make_issuer(user))

    def _start_open_loop(self):
        """Schedule the first session arrival; each arrival schedules
        the next, so the whole trace is consumed in event order from
        the dedicated arrival streams."""
        from repro.workloads.arrivals import ArrivalProcess, request_rate

        base = request_rate(self.arrival, self.driver.users,
                            self.driver.think_time)
        # Pattern timing (flash onset, diurnal phase) spans the
        # measured portion of the trial; arrivals keep coming through
        # cooldown so the backlog observation is honest.
        span = self.driver.warmup + self.driver.run
        self._arrivals = ArrivalProcess(self.arrival, base_rate=base,
                                        streams=self.rng, span=span)
        first = self._arrivals.next_after(0.0)
        if first < self._horizon:
            self.sim.schedule_at(first, self._arrive)

    def _arrive(self):
        """One session arrives: issue its first interaction and book
        the next arrival."""
        user = next(self._session_counter)
        self._user_states[user] = self.model.initial_state
        self._session_remaining[user] = self.arrival.session_length
        self._make_issuer(user)()
        upcoming = self._arrivals.next_after(self.sim.now)
        if upcoming < self._horizon:
            self.sim.schedule_at(upcoming, self._arrive)

    def run(self, duration=None):
        """Run the trial; returns the request records."""
        if not self._started:
            self.start()
        if duration is None:
            duration = (self.driver.warmup + self.driver.run
                        + self.driver.cooldown)
        with self.tracer.span("sim.run", users=self.driver.users,
                              sim_duration_s=duration):
            self.sim.run_until(duration)
            self.tracer.annotate(events=self.sim.events_processed,
                                 requests=len(self.records))
        return self.records

    # -- request lifecycle -------------------------------------------------------

    def _make_issuer(self, user):
        def issue():
            state = self._advance_chain(user)
            demand = self.model.demand(state)
            record = RequestRecord(
                user=user, state=state, issued_at=self.sim.now,
                finished_at=float("nan"), status=OK,
                is_write=demand.is_write,
            )
            self.records.append(record)
            context = _RequestContext(self, user, record, demand)
            context.begin()
        return issue

    def _advance_chain(self, user):
        draw = self._chain_random()
        state = self.model.matrix.next_state(self._user_states[user], draw)
        self._user_states[user] = state
        return state

    def _think_then_reissue(self, user):
        if self.arrival is not None:
            remaining = self._session_remaining.get(user, 0) - 1
            if remaining <= 0:
                # Session over: open-loop users leave instead of
                # cycling forever.
                self._session_remaining.pop(user, None)
                self._user_states.pop(user, None)
                return
            self._session_remaining[user] = remaining
        think = self.rng.exponential("think", self.driver.think_time)
        sim = self.sim
        heappush(sim._heap, Event((sim.now + think, next(sim._seq),
                                   self._make_issuer(user))))

    # -- telemetry ------------------------------------------------------------------

    def station_of(self, host_name):
        try:
            return self.stations_by_host[host_name]
        except KeyError:
            raise SimulationError(f"no station on host {host_name!r}")


class _RequestContext:
    """Drives one request through the tiers with timeout handling.

    Each visit's demand is an exponential draw on the tier's stream
    (zero for a zero mean); hops push their events straight onto the
    heap (see :mod:`repro.sim.engine`).
    """

    __slots__ = ("harness", "user", "record", "demand", "timeout_event",
                 "pending_writes", "timed_out")

    def __init__(self, harness, user, record, demand):
        self.harness = harness
        self.user = user
        self.record = record
        self.demand = demand
        self.timeout_event = None
        self.pending_writes = 0
        self.timed_out = False

    # -- plumbing -------------------------------------------------------------

    def begin(self):
        harness = self.harness
        sim = harness.sim
        now = sim.now
        heap = sim._heap
        seq = sim._seq
        event = Event((now + harness.driver.timeout, next(seq),
                       self._on_timeout))
        heappush(heap, event)
        self.timeout_event = event
        heappush(heap, Event((now + harness.hop_latency, next(seq),
                              self._enter_web)))

    def _on_timeout(self):
        # Client abandons; the in-flight work keeps consuming capacity
        # (the server does not know the client left).
        self.timed_out = True
        self.record.status = TIMEOUT
        self.record.finished_at = self.harness.sim.now
        self.harness._think_then_reissue(self.user)

    def _fail(self, status):
        if self.timed_out:
            return
        if self.timeout_event is not None:
            self.timeout_event[2] = None
        self.record.status = status
        self.record.finished_at = self.harness.sim.now
        self.harness._think_then_reissue(self.user)

    # -- stages ---------------------------------------------------------------

    def _enter_web(self):
        balancer = self.harness.web_balancer
        if balancer is None:
            self._enter_app()
            return
        station = balancer.pick()
        mean = self.demand.web_s
        demand = 0.0 if mean <= 0 else self.harness._web_draw(1.0 / mean)
        if not station.submit(demand, self._hop_to_app):
            self._fail(REJECTED)

    def _hop_to_app(self):
        sim = self.harness.sim
        heappush(sim._heap, Event((sim.now + self.harness.hop_latency,
                                   next(sim._seq), self._enter_app)))

    def _enter_app(self):
        station = self.harness.app_balancer.pick()
        mean = self.demand.app_s
        demand = 0.0 if mean <= 0 else self.harness._app_draw(1.0 / mean)
        if not station.submit(demand, self._hop_to_db):
            self._fail(REJECTED)

    def _hop_to_db(self):
        sim = self.harness.sim
        heappush(sim._heap, Event((sim.now + self.harness.hop_latency,
                                   next(sim._seq), self._enter_db)))

    def _enter_db(self):
        if self.demand.is_write:
            # RAIDb-1: the write executes on every backend; the
            # controller acknowledges when all replicas are done.
            backends = self.harness.db_backends
            self.pending_writes = len(backends)
            accepted_any = False
            for backend in backends:
                if self._submit_db_op(backend, self._write_done):
                    accepted_any = True
                else:
                    self.pending_writes -= 1
            if not accepted_any and self.pending_writes == 0:
                self._fail(REJECTED)
            return
        backend = self.harness.db_balancer.pick()
        if not self._submit_db_op(backend, self._db_done):
            self._fail(REJECTED)

    def _submit_db_op(self, backend, on_done):
        """Query processing on the backend CPU, then the I/O flush.

        The spindle never rejects (the DBMS queues I/O internally), so
        only the CPU worker pool can refuse the operation.
        """
        harness = self.harness
        mean = self.demand.db_s
        cpu_demand = 0.0 if mean <= 0 else harness._db_draw(1.0 / mean)
        disk_mean = DB_DISK_WRITE_S if self.demand.is_write \
            else DB_DISK_READ_S

        def after_cpu():
            backend.disk.submit(harness._disk_draw(1.0 / disk_mean), on_done)

        return backend.cpu.submit(cpu_demand, after_cpu)

    def _write_done(self):
        self.pending_writes -= 1
        if self.pending_writes == 0:
            self._db_done()

    def _db_done(self):
        sim = self.harness.sim
        heappush(sim._heap, Event((sim.now + self.harness._return_delay,
                                   next(sim._seq), self._complete)))

    def _complete(self):
        if self.timed_out:
            return       # client already gave up; drop the response
        self.timeout_event[2] = None
        self.record.status = OK
        self.record.finished_at = self.harness.sim.now
        self.harness._think_then_reissue(self.user)
