"""Tests for the simulation engine, PS stations, RNG and MVA baseline."""

import heapq
import itertools
import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import ProcessorSharingStation, RandomStreams, Simulator
from repro.sim import mva
from repro.workloads.interactions import TransitionMatrix


class TestEngine:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: seen.append("b"))
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(3.0, lambda: seen.append("c"))
        sim.run_all()
        assert seen == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        seen = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, lambda t=tag: seen.append(t))
        sim.run_all()
        assert seen == ["first", "second", "third"]

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append("no"))
        sim.schedule(2.0, lambda: seen.append("yes"))
        event.cancel()
        sim.run_all()
        assert seen == ["yes"]

    def test_run_until_stops_clock(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run_until(3.0)
        assert sim.now == 3.0
        assert sim.peek_time() == 5.0

    def test_schedule_during_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(1.0,
                                               lambda: seen.append("x")))
        sim.run_all()
        assert seen == ["x"]
        assert sim.now == pytest.approx(2.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(math.nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(math.nan, lambda: None)
        assert sim.peek_time() is None

    def test_infinite_delay_means_never(self):
        sim = Simulator()
        seen = []
        sim.schedule(math.inf, lambda: seen.append("never"))
        sim.run_until(1e9)
        assert seen == []
        assert sim.peek_time() == math.inf

    def test_event_entry_api(self):
        sim = Simulator()
        event = sim.schedule(2.0, lambda: None)
        assert event.time == 2.0
        assert not event.cancelled
        event.cancel()
        assert event.cancelled
        assert sim.peek_time() is None
        assert sim.events_processed == 0


class _ReferenceEngine:
    """Executable spec of the engine: the next event is the live one
    with the least (time, insertion order), found by linear search."""

    class Handle:
        def __init__(self, time, order, fn):
            self.time, self.order, self.fn = time, order, fn
            self.cancelled = False

        def cancel(self):
            self.cancelled = True

    def __init__(self):
        self.now = 0.0
        self.pending = []
        self.orders = itertools.count()

    def schedule(self, delay, fn):
        handle = self.Handle(self.now + delay, next(self.orders), fn)
        self.pending.append(handle)
        return handle

    def run_all(self):
        while True:
            self.pending = [h for h in self.pending if not h.cancelled]
            if not self.pending:
                return
            head = min(self.pending, key=lambda h: (h.time, h.order))
            self.pending.remove(head)
            self.now = max(self.now, head.time)
            head.fn()


# Delays repeat on purpose so that simultaneous events are common.
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, math.inf])
_NODE = st.recursive(
    st.tuples(_DELAYS, st.just(()), st.lists(st.integers(0, 50),
                                             max_size=2)),
    lambda children: st.tuples(_DELAYS, st.lists(children, max_size=3),
                               st.lists(st.integers(0, 50), max_size=2)),
    max_leaves=12,
)


def _play(engine, roots, cancelled_roots, end_time=None):
    """Run one event program on *engine*; returns the dispatch log.

    A node is ``(delay, children, cancels)``: when it fires it logs its
    id, schedules its children and cancels already-scheduled events by
    index (a cancel of a fired event is a no-op).
    """
    log = []
    handles = []

    def schedule(node):
        delay, children, cancels = node
        ident = len(handles)

        def fire():
            log.append((ident, engine.now))
            for child in children:
                schedule(child)
            for index in cancels:
                handles[index % len(handles)].cancel()

        handles.append(engine.schedule(delay, fire))

    for root in roots:
        schedule(root)
    for index in cancelled_roots:
        handles[index % len(handles)].cancel()
    if end_time is not None:
        engine.run_until(end_time)
        # Everything due by end_time ran; nothing later did.
        assert all(t <= end_time for _i, t in log)
        assert engine.peek_time() is None or engine.peek_time() > end_time
    engine.run_all()
    return log


@settings(max_examples=150, deadline=None)
@given(roots=st.lists(_NODE, min_size=1, max_size=8),
       cancelled_roots=st.lists(st.integers(0, 50), max_size=4),
       end_time=st.sampled_from([0.0, 0.5, 1.0, 1.7, 2.5, 6.0]))
def test_engine_order_matches_reference(roots, cancelled_roots, end_time):
    reference = _ReferenceEngine()
    expected = _play(reference, roots, cancelled_roots)

    whole = Simulator()
    assert _play(whole, roots, cancelled_roots) == expected
    # Tombstones are dropped, never dispatched or counted.
    assert whole.events_processed == len(expected)
    if expected:
        assert whole.now == expected[-1][1]

    split = Simulator()
    assert _play(split, roots, cancelled_roots, end_time) == expected
    assert split.events_processed == whole.events_processed
    assert split.now == max(whole.now, end_time)


class TestRandomStreams:
    def test_streams_are_deterministic(self):
        a = RandomStreams(7).stream("think").random()
        b = RandomStreams(7).stream("think").random()
        assert a == b

    def test_streams_differ_by_name(self):
        streams = RandomStreams(7)
        assert streams.stream("a").random() != streams.stream("b").random()

    def test_streams_differ_by_seed(self):
        assert RandomStreams(1).stream("x").random() != \
            RandomStreams(2).stream("x").random()

    def test_exponential_mean(self):
        streams = RandomStreams(42)
        samples = [streams.exponential("e", 2.0) for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(2.0, rel=0.05)

    def test_weighted_choice_distribution(self):
        streams = RandomStreams(3)
        counts = {"a": 0, "b": 0}
        for _ in range(10000):
            counts[streams.choice_weighted("c", ["a", "b"], [3, 1])] += 1
        assert counts["a"] / 10000 == pytest.approx(0.75, abs=0.03)


class TestProcessorSharing:
    def test_single_job_service_time(self):
        sim = Simulator()
        station = ProcessorSharingStation(sim, "s")
        done = []
        station.submit(2.0, lambda: done.append(sim.now))
        sim.run_all()
        assert done == [pytest.approx(2.0)]

    def test_two_jobs_share_one_core(self):
        sim = Simulator()
        station = ProcessorSharingStation(sim, "s", cores=1)
        done = []
        station.submit(1.0, lambda: done.append(("a", sim.now)))
        station.submit(1.0, lambda: done.append(("b", sim.now)))
        sim.run_all()
        # Both share the core: each finishes at t=2.
        assert done[0][1] == pytest.approx(2.0)
        assert done[1][1] == pytest.approx(2.0)

    def test_two_cores_run_two_jobs_in_parallel(self):
        sim = Simulator()
        station = ProcessorSharingStation(sim, "s", cores=2)
        done = []
        station.submit(1.0, lambda: done.append(sim.now))
        station.submit(1.0, lambda: done.append(sim.now))
        sim.run_all()
        assert done == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_speed_scales_service(self):
        sim = Simulator()
        station = ProcessorSharingStation(sim, "s", speed=0.2)
        done = []
        station.submit(1.0, lambda: done.append(sim.now))
        sim.run_all()
        # A 600 MHz node runs a 3 GHz-calibrated demand 5x slower.
        assert done == [pytest.approx(5.0)]

    def test_late_arrival_shares_remaining(self):
        sim = Simulator()
        station = ProcessorSharingStation(sim, "s")
        done = {}
        station.submit(2.0, lambda: done.setdefault("a", sim.now))
        sim.schedule(1.0, lambda: station.submit(
            2.0, lambda: done.setdefault("b", sim.now)))
        sim.run_all()
        # a: 1s alone + 2s shared = finishes at 3; b: 2s shared + 1s
        # alone = finishes at 4.
        assert done["a"] == pytest.approx(3.0)
        assert done["b"] == pytest.approx(4.0)

    def test_concurrency_limit_queues(self):
        sim = Simulator()
        station = ProcessorSharingStation(sim, "s", concurrency_limit=1)
        done = []
        station.submit(1.0, lambda: done.append(("a", sim.now)))
        station.submit(1.0, lambda: done.append(("b", sim.now)))
        sim.run_all()
        # FIFO: b only starts when a departs.
        assert done[0] == ("a", pytest.approx(1.0))
        assert done[1] == ("b", pytest.approx(2.0))

    def test_queue_limit_rejects(self):
        sim = Simulator()
        station = ProcessorSharingStation(sim, "s", concurrency_limit=1,
                                          queue_limit=1)
        assert station.submit(1.0, lambda: None)
        assert station.submit(1.0, lambda: None)
        assert not station.submit(1.0, lambda: None)
        assert station.rejected == 1

    def test_utilization_accounting(self):
        sim = Simulator()
        station = ProcessorSharingStation(sim, "s", cores=2)
        t0, area0 = station.area_reading()
        station.submit(1.0, lambda: None)
        sim.run_all()
        sim.now = 2.0  # idle for one more second
        # One busy core out of two for 1s, idle 1s => 25% mean.
        assert station.utilization_since(t0, area0) == pytest.approx(0.25)

    def test_zero_demand_job_completes(self):
        sim = Simulator()
        station = ProcessorSharingStation(sim, "s")
        done = []
        station.submit(0.0, lambda: done.append(sim.now))
        sim.run_all()
        assert done == [pytest.approx(0.0)]

    def test_counters(self):
        sim = Simulator()
        station = ProcessorSharingStation(sim, "s")
        for _ in range(5):
            station.submit(0.5, lambda: None)
        sim.run_all()
        assert station.completed == 5
        assert station.total_service == pytest.approx(2.5)


@settings(max_examples=25, deadline=None)
@given(demands=st.lists(st.floats(min_value=0.01, max_value=3.0),
                        min_size=1, max_size=8))
def test_ps_conservation(demands):
    """Total busy time equals total service demand (work conservation)."""
    sim = Simulator()
    station = ProcessorSharingStation(sim, "s", cores=1)
    for demand in demands:
        station.submit(demand, lambda: None)
    sim.run_all()
    _t, area = station.area_reading()
    assert area == pytest.approx(sum(demands), rel=1e-6)
    assert station.completed == len(demands)


@settings(max_examples=25, deadline=None)
@given(
    demands=st.lists(st.floats(min_value=0.05, max_value=2.0),
                     min_size=2, max_size=6),
    cores=st.integers(min_value=1, max_value=4),
)
def test_ps_finish_no_earlier_than_ideal(demands, cores):
    """No job finishes before its demand/speed (service bound)."""
    sim = Simulator()
    station = ProcessorSharingStation(sim, "s", cores=cores)
    finishes = {}
    for index, demand in enumerate(demands):
        station.submit(demand,
                       lambda i=index: finishes.setdefault(i, sim.now))
    sim.run_all()
    for index, demand in enumerate(demands):
        assert finishes[index] >= demand - 1e-9


class _ReferenceJob:
    __slots__ = ("demand", "on_done", "finish_v", "seq")

    def __init__(self, demand, on_done):
        self.demand = demand
        self.on_done = on_done
        self.finish_v = None
        self.seq = None


class _ReferenceStation:
    """Executable spec of the PS station: the one-call-per-step form,
    which cancels and reschedules the departure through
    ``Simulator.schedule`` on every change (one reschedule per admitted
    job).  The fused station must match it bit for bit."""

    def __init__(self, sim, cores=1, speed=1.0, concurrency_limit=None,
                 queue_limit=None):
        self.sim = sim
        self.cores = cores
        self.speed = speed
        self.concurrency_limit = concurrency_limit
        self.queue_limit = queue_limit
        self._active = []
        self._n_active = 0
        self._virtual = 0.0
        self._last_update = sim.now
        self._departure_event = None
        self._waiting = deque()
        self._seq = itertools.count()
        self.busy_area = 0.0
        self.completed = 0
        self.rejected = 0
        self.total_service = 0.0

    def _per_job_rate(self):
        if self._n_active == 0:
            return 0.0
        return self.speed * min(1.0, self.cores / self._n_active)

    def current_utilization(self):
        if self._n_active == 0:
            return 0.0
        return min(self._n_active, self.cores) / self.cores

    def _advance_clock(self):
        dt = self.sim.now - self._last_update
        if dt > 0:
            self.busy_area += self.current_utilization() * dt
            self._virtual += self._per_job_rate() * dt
            self._last_update = self.sim.now

    def submit(self, demand, on_done):
        self._advance_clock()
        job = _ReferenceJob(demand, on_done)
        if (self.concurrency_limit is not None
                and self._n_active >= self.concurrency_limit):
            if (self.queue_limit is not None
                    and len(self._waiting) >= self.queue_limit):
                self.rejected += 1
                return False
            self._waiting.append(job)
            return True
        self._start(job)
        return True

    def _start(self, job):
        job.seq = next(self._seq)
        job.finish_v = self._virtual + job.demand
        heapq.heappush(self._active, (job.finish_v, job.seq, job))
        self._n_active += 1
        self._reschedule()

    def _reschedule(self):
        if self._departure_event is not None:
            self._departure_event.cancel()
            self._departure_event = None
        if self._n_active == 0:
            return
        finish_v = self._active[0][0]
        rate = self._per_job_rate()
        remaining_v = max(0.0, finish_v - self._virtual)
        self._departure_event = self.sim.schedule(remaining_v / rate,
                                                  self._depart)

    def _depart(self):
        self._departure_event = None
        self._advance_clock()
        finished = []
        while self._active and self._active[0][0] <= self._virtual + 1e-12:
            _fv, _seq, job = heapq.heappop(self._active)
            self._n_active -= 1
            finished.append(job)
        if not finished:
            self._reschedule()
            return
        while self._waiting and (
                self.concurrency_limit is None
                or self._n_active < self.concurrency_limit):
            self._start(self._waiting.popleft())
        self._reschedule()
        for job in finished:
            self.completed += 1
            self.total_service += job.demand
            job.on_done()

    def area_reading(self):
        self._advance_clock()
        return self.sim.now, self.busy_area


# Dyadic times and demands, so arrivals tie with departures exactly.
_TIMES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
_DEMANDS = st.sampled_from([0.0, 0.0, 0.125, 0.25, 0.5, 1.0, 1.5, 0.3])
#: A job: (arrival time, demand, follow-up demand submitted from its
#: completion callback or None).
_JOBS = st.lists(st.tuples(_TIMES, _DEMANDS, st.none() | _DEMANDS),
                 min_size=1, max_size=14)


def _drive(station_factory, jobs):
    """Run *jobs* through a fresh station; returns what is observable."""
    sim = Simulator()
    station = station_factory(sim)
    log = []

    def arrive(ident, demand, follow_up):
        def on_done():
            log.append((ident, sim.now.hex(), station.completed,
                        station.total_service.hex()))
            if follow_up is not None:
                arrive(-ident - 1, follow_up, None)()
        return lambda: log.append(
            (ident, "accepted" if station.submit(demand, on_done)
             else "rejected"))

    for ident, (at, demand, follow_up) in enumerate(jobs):
        sim.schedule_at(at, arrive(ident, demand, follow_up))
    sim.run_all()
    now, area = station.area_reading()
    return (log, area.hex(), station.completed, station.rejected,
            station.total_service.hex(), sim.events_processed, now)


@settings(max_examples=200, deadline=None)
@given(jobs=_JOBS, cores=st.integers(1, 4),
       speed=st.sampled_from([1.0, 0.5, 2.0, 0.3]),
       concurrency_limit=st.none() | st.integers(1, 4),
       queue_limit=st.none() | st.integers(0, 3))
def test_fused_station_matches_reference(jobs, cores, speed,
                                         concurrency_limit, queue_limit):
    """Completion times, busy area, counters and events processed are
    bit-identical to the one-reschedule-per-change station."""
    def limits(cls):
        return lambda sim: cls(sim, cores=cores, speed=speed,
                               concurrency_limit=concurrency_limit,
                               queue_limit=queue_limit)

    expected = _drive(limits(_ReferenceStation), jobs)
    fused = _drive(lambda sim: ProcessorSharingStation(
        sim, "s", cores=cores, speed=speed,
        concurrency_limit=concurrency_limit, queue_limit=queue_limit), jobs)
    assert fused == expected


def _linear_next_state(states, row, draw):
    """The successor by a linear scan of the running row sums."""
    cumulative = 0.0
    for state, probability in zip(states, row):
        cumulative += probability
        if draw < cumulative:
            return state
    return states[-1]


@settings(max_examples=150, deadline=None)
@given(weights=st.lists(st.lists(st.sampled_from([0, 0, 1, 2, 3, 7]),
                                 min_size=1, max_size=6)
                        .filter(any), min_size=1, max_size=4),
       draws=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8))
def test_next_state_matches_linear_scan(weights, draws):
    """Bisecting the precomputed thresholds picks the state the linear
    scan picks: for random draws, for draws exactly on a threshold and
    one ulp either side, and past rows with zero-probability states."""
    width = max(len(w) for w in weights)
    states = tuple(f"s{i}" for i in range(width))
    rows = [[weight / sum(ws) for weight in ws + [0] * (width - len(ws))]
            for ws in weights]
    rows = (rows + [rows[-1]] * width)[:width]
    matrix = TransitionMatrix(states, rows)
    for state, row in zip(states, rows):
        probes = list(draws) + [0.0, 1.0]
        cumulative = 0.0
        for probability in row:
            cumulative += probability
            probes += [cumulative, math.nextafter(cumulative, 0.0),
                       math.nextafter(cumulative, 2.0)]
        for draw in probes:
            assert matrix.next_state(state, draw) == \
                _linear_next_state(states, row, draw)


class TestMva:
    def _stations(self):
        return [mva.MvaStation("app", 0.0285), mva.MvaStation("db", 0.00415)]

    def test_low_load_linear(self):
        result = mva.solve(self._stations(), think_time=7.0, users=1)
        assert result.throughput == pytest.approx(1 / (7.0 + 0.03265))
        assert result.response_time == pytest.approx(0.03265)

    def test_bottleneck_identification(self):
        result = mva.solve(self._stations(), think_time=7.0, users=300)
        assert result.bottleneck() == "app"

    def test_saturation_throughput_capped(self):
        result = mva.solve(self._stations(), think_time=7.0, users=1000)
        assert result.throughput <= 1 / 0.0285 + 1e-9
        assert result.throughput == pytest.approx(1 / 0.0285, rel=0.01)

    def test_knee_matches_calibration(self):
        knee = mva.saturation_users(self._stations(), 7.0)
        # One JOnAS app server saturates around 245 users at wr=15%.
        assert 240 <= knee <= 255

    def test_monotone_throughput(self):
        results = mva.sweep(self._stations(), 7.0, range(1, 400, 50))
        throughputs = [r.throughput for r in results.values()]
        assert throughputs == sorted(throughputs)

    def test_utilization_bounded(self):
        result = mva.solve(self._stations(), 7.0, 2000)
        for value in result.station_utilization.values():
            assert value <= 1.0 + 1e-9

    def test_zero_users(self):
        result = mva.solve(self._stations(), 7.0, 0)
        assert result.throughput == 0.0

    def test_duplicate_names_rejected(self):
        with pytest.raises(SimulationError):
            mva.solve([mva.MvaStation("x", 1), mva.MvaStation("x", 2)],
                      1.0, 10)

    def test_multiserver_demand_scaling(self):
        single = mva.solve([mva.MvaStation("db", 0.004)], 7.0, 500)
        double = mva.solve([mva.MvaStation("db", 0.004, servers=2)],
                           7.0, 500)
        assert double.response_time < single.response_time

    def test_asymptotic_response(self):
        r = mva.asymptotic_response(self._stations(), 7.0, 1000)
        assert r == pytest.approx(1000 * 0.0285 - 7.0)


def test_sim_matches_mva_single_station():
    """Cross-validation: closed PS network, simulation vs exact MVA.

    Exponential demands + PS is product-form, so exact MVA applies; the
    simulation must land within a few percent at moderate load.
    """
    from repro.sim.rng import RandomStreams

    users, think, demand = 60, 2.0, 0.05
    sim = Simulator()
    station = ProcessorSharingStation(sim, "s", cores=1)
    rng = RandomStreams(123)
    completed = []

    def issue(user):
        def on_done():
            completed.append(sim.now)
            think_delay = rng.exponential("think", think)
            sim.schedule(think_delay, lambda: issue(user))
        station.submit(rng.exponential("demand", demand), on_done)

    for user in range(users):
        sim.schedule(rng.uniform("start", 0, think), lambda u=user: issue(u))
    horizon = 400.0
    sim.run_until(horizon)
    # Discard the first quarter as warm-up.
    measured = [t for t in completed if t > horizon / 4]
    throughput = len(measured) / (horizon * 3 / 4)
    expected = mva.solve([mva.MvaStation("s", demand)], think, users)
    assert throughput == pytest.approx(expected.throughput, rel=0.05)
    assert not math.isnan(throughput)
