"""The analytic fast-path tier and the fidelity-aware API.

The contracts under test:

- the Schweitzer AMVA solver tracks exact MVA away from saturation and
  dispatches through the one ``sim.solve`` entry point;
- its exact root in throughput matches the damped fixed-point
  iteration it replaced, respects the operational-law bounds, is
  monotone in the population, and takes a bounded number of steps;
- an invalid model is refused when it is built, a solve checks only
  its population or rate, and a solved, pickled or replaced model
  solves exactly like a fresh one;
- a runner builds one analytic model per workload ladder, and rebuilds
  it when a host is quarantined;
- the knees and ``planner_decisions`` rows of one RUBiS and one RUBBoS
  analytic knee exploration, and of a tiered, an analytic promotion and
  a budget-wrapped analytic knee exploration, stay exactly as recorded;
- ``fidelity="analytic"`` campaigns are byte-stable across worker
  counts, and the default ``fidelity="des"`` path is untouched;
- a tiered (``fidelity="auto"``) exploration finds the same knee as a
  pure DES exploration within one workload-ladder step, confirms it
  with DES trials, and resumes byte-identically after a kill;
- a million-user characterization of the 4-16-8 topology completes in
  seconds, not simulation-hours;
- the service plane carries fidelity over the wire and dispatches
  analytic trials on the fleet's fast lane;
- ``repro trace`` renders the per-trial fidelity tier on both new
  databases and databases written before the tier existed.
"""

import dataclasses
import hashlib
import os
import pickle
import sqlite3
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    plan_campaign,
    resume_campaign,
    run_adaptive,
    run_campaign,
    solve,
)
from repro.core.campaign import META_FIDELITY, ObservationCampaign
from repro.errors import ExperimentError, SimulationError
from repro.planner.policy import KNEE, NO_KNEE, PROMOTE, STOP
from repro.sim import (
    ANALYTIC,
    AUTO,
    DES,
    AnalyticModel,
    AnalyticStation,
    analytic,
    check_fidelity,
    mva,
)
from repro.spec.catalog import get_platform
from repro.workloads.calibration import RUBIS
from tests.conftest import assert_declared_schema

KNEE_TBL = """
benchmark rubis;
platform emulab;

experiment "adaptive" {
    topology 1-1-1;
    workload 100, 200, 300, 400, 500, 600, 700, 800;
    write_ratio 15%;
    trial { warmup 2s; run 10s; cooldown 2s; }
    slo { response_time 1.0s; error_ratio 10%; }
}
"""

SCALEOUT_TBL = """
benchmark rubis;
platform emulab;

experiment "scaleout" {
    topology 1-2-2;
    workload 200, 400, 600, 800, 1000, 1200, 1400, 1600;
    write_ratio 25%;
    trial { warmup 2s; run 10s; cooldown 2s; }
    slo { response_time 1.0s; error_ratio 10%; }
}
"""

MILLION_TBL = """
benchmark rubis;
platform emulab;

experiment "million" {
    topology 4-16-8;
    workload 1000, 2000, 4000, 8000, 16000, 32000, 64000, 125000,
             250000, 500000, 1000000;
    write_ratio 15%;
    trial { warmup 2s; run 10s; cooldown 2s; }
    slo { response_time 1.0s; error_ratio 10%; }
}
"""


def observation_dump(database):
    assert database.integrity_check() == []
    return {
        table: database.dump_rows(table)
        for table in ("trials", "host_cpu", "state_metrics",
                      "planner_decisions")
    }


def _stations(write_ratio=0.15):
    return [
        mva.MvaStation("web", RUBIS.web_s),
        mva.MvaStation("app", RUBIS.app_mean(write_ratio)),
        mva.MvaStation("db", RUBIS.db_mean(write_ratio)),
    ]


class TestAnalyticSolver:
    @pytest.mark.parametrize("users", [1, 10, 60, 140])
    def test_tracks_exact_mva_below_saturation(self, users):
        exact = solve(_stations(), fidelity="mva", users=users,
                      think_time=RUBIS.think_time_s)
        fluid = solve(_stations(), fidelity=ANALYTIC, users=users,
                      think_time=RUBIS.think_time_s)
        assert fluid.throughput == pytest.approx(exact.throughput,
                                                 rel=0.02)
        assert fluid.response_time == pytest.approx(exact.response_time,
                                                    rel=0.05)

    def test_million_users_solves_in_milliseconds(self):
        start = time.perf_counter()
        result = solve(_stations(), fidelity=ANALYTIC, users=1_000_000,
                       think_time=RUBIS.think_time_s)
        assert time.perf_counter() - start < 1.0
        # Fully saturated: throughput pinned at the bottleneck's
        # capacity, response time dominated by its queue.
        heaviest = max(_stations(), key=lambda s: s.demand)
        assert result.throughput == pytest.approx(1.0 / heaviest.demand,
                                                  rel=0.01)
        assert result.bottleneck() == heaviest.name

    def test_dispatcher_rejects_mismatched_tiers(self):
        with pytest.raises(SimulationError, match="users="):
            solve(_stations(), fidelity=ANALYTIC)
        with pytest.raises(SimulationError, match="fidelity 'des'"):
            solve(_stations(), fidelity=DES, users=10,
                  think_time=RUBIS.think_time_s)
        with pytest.raises(SimulationError, match="unknown fidelity"):
            solve(_stations(), fidelity="quantum", users=10,
                  think_time=RUBIS.think_time_s)
        model = AnalyticModel(
            stations=(AnalyticStation("db", 0.005),),
            think_time=RUBIS.think_time_s)
        with pytest.raises(SimulationError, match="'des'"):
            solve(model, fidelity=DES, users=10)

    def test_check_fidelity_names_the_trio(self):
        for name in (DES, ANALYTIC, AUTO):
            assert check_fidelity(name) == name
        with pytest.raises(SimulationError, match="unknown fidelity"):
            check_fidelity("exact")


#: Root steps any closed solve may take; the safeguarded Newton root
#: needs single digits in practice.
MAX_ROOT_STEPS = 64

#: Populations from a single user up to a million.
USERS = st.integers(1, 300) | st.integers(1, 1_000_000)


@st.composite
def closed_models(draw, replicas=st.integers(1, 4)):
    """Random 1-4 station closed models with every n-tier mechanism the
    closed solve applies: multi-server stations, replicated writes
    (``write_demand <= demand``), pure delay and think time."""
    stations = []
    for index in range(draw(st.integers(1, 4))):
        demand = draw(st.floats(1e-3, 0.05))
        stations.append(AnalyticStation(
            f"s{index}", demand, servers=draw(st.integers(1, 4)),
            write_demand=demand * draw(st.floats(0.0, 1.0))))
    return AnalyticModel(
        stations=tuple(stations),
        think_time=draw(st.just(0.0) | st.floats(0.0, 7.0)),
        delay=draw(st.just(0.0) | st.floats(0.0, 0.01)),
        replicas=draw(replicas))


def _reference_schweitzer(model, users, tolerance=1e-13):
    """The damped Schweitzer fixed point the exact solve replaced,
    iterated until no queue moves by more than *tolerance* relative,
    then polished by Newton steps on the same equations.  Returns
    ``(throughput, queues)``.

    The step test alone does not bound the error: it stops short of the
    fixed point by up to ``step / (1 - rate)``, and with two near-tied
    bottlenecks at a large population the damped map contracts at a
    rate within 1e-4 of one, which leaves the queues 1e-9 short."""
    demands = [s.effective_demand() for s in model.stations]
    writes = [s.write_demand / s.servers for s in model.stations]
    harmonic = sum(1.0 / k for k in range(1, model.replicas + 1))
    overcount = (model.replicas - harmonic) / model.replicas
    weights = [d - overcount * w for d, w in zip(demands, writes)]
    alpha = (users - 1) / users

    def schweitzer(queue):
        stretch = [1.0 + alpha * q for q in queue]
        response = model.delay + sum(
            n * s for n, s in zip(weights, stretch))
        throughput = users / (response + model.think_time)
        return throughput, stretch, [
            throughput * d * s for d, s in zip(demands, stretch)]

    queue = [users / len(demands)] * len(demands)
    for _ in range(1_000_000):
        throughput, stretch, updated = schweitzer(queue)
        if all(abs(new - old) <= tolerance * new
               for new, old in zip(updated, queue)):
            break
        queue = [0.5 * (old + new) for old, new in zip(queue, updated)]
    else:
        raise AssertionError("reference iteration did not converge")
    queue = updated
    for _ in range(4):
        # Newton on q = F(q).  The Jacobian of F - I is
        # diag(X*alpha*d - 1) - u v', with u = d * stretch and
        # v = X^2 * alpha * weights / N; Sherman-Morrison solves it.
        throughput, stretch, updated = schweitzer(queue)
        diagonal = [throughput * alpha * d - 1.0 for d in demands]
        u = [d * s / g for d, s, g in zip(demands, stretch, diagonal)]
        y = [(q - f) / g for q, f, g in zip(queue, updated, diagonal)]
        v = [throughput ** 2 * alpha * n / users for n in weights]
        scale = (sum(a * b for a, b in zip(v, y))
                 / (1.0 - sum(a * b for a, b in zip(v, u))))
        queue = [q + dy + du * scale for q, dy, du in zip(queue, y, u)]
    throughput, _, updated = schweitzer(queue)
    return throughput, updated


@settings(max_examples=150, deadline=None)
@given(model=closed_models(), users=USERS)
def test_exact_solve_matches_the_reference_iteration(model, users):
    throughput, queues = _reference_schweitzer(model, users)
    result = analytic.solve_model(model, users)
    assert result.iterations <= MAX_ROOT_STEPS
    assert result.converged
    assert result.throughput == pytest.approx(throughput, rel=1e-9)
    assert list(result.station_queue.values()) == pytest.approx(
        queues, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(model=closed_models(), users=USERS)
def test_throughput_respects_the_operational_bounds(model, users):
    """``X <= min(N / (D + delay + Z), 1 / D_max)`` without replicated
    writes.  The RAIDb-1 correction lowers the zero-load response below
    ``D + delay`` and lets X pass ``1 / D_max`` near the knee, so with
    replicas only the corrected load bound and the first pole of the
    Schweitzer equations remain."""
    result = analytic.solve_model(model, users)
    assert result.iterations <= MAX_ROOT_STEPS
    demands = [s.effective_demand() for s in model.stations]
    zero_load = analytic.solve_model(model, 0).response_time
    bound = users / (zero_load + model.think_time)
    if model.replicas == 1:
        bound = min(bound, 1.0 / max(demands))
    assert result.throughput <= bound * (1 + 1e-12)
    alpha = (users - 1) / users
    assert result.throughput * alpha * max(demands) < 1.0


@settings(max_examples=60, deadline=None)
@given(model=closed_models(replicas=st.just(1)),
       ladder=st.lists(USERS, min_size=2, max_size=12, unique=True))
def test_throughput_is_non_decreasing_in_users(model, ladder):
    """Without replicated writes X never falls as N grows.  (With them
    the RAIDb-1 correction lets X overshoot ``1 / D_max`` near the knee
    and settle back, so the ladder there is not monotone.)"""
    solved = [analytic.solve_model(model, n) for n in sorted(ladder)]
    for lighter, heavier in zip(solved, solved[1:]):
        assert heavier.iterations <= MAX_ROOT_STEPS
        assert heavier.throughput >= lighter.throughput * (1 - 1e-9)


@settings(max_examples=200, deadline=None)
@given(demands=st.lists(st.floats(1e-3, 0.05), min_size=1, max_size=5),
       think_time=st.floats(0.0, 7.0),
       users=st.integers(1, 300))
def test_tracks_exact_mva_on_product_form_networks(demands, think_time,
                                                   users):
    """Single-server stations, no caps, no timeouts: the approximation
    stays within 7 % of exact MVA on throughput and 30 % on response
    time (its worst cases sit near 6.8 % and 25 %)."""
    stations = [mva.MvaStation(f"s{index}", demand)
                for index, demand in enumerate(demands)]
    exact = solve(stations, fidelity="mva", users=users,
                  think_time=think_time)
    fluid = solve(stations, fidelity=ANALYTIC, users=users,
                  think_time=think_time)
    assert fluid.iterations <= MAX_ROOT_STEPS
    assert fluid.throughput == pytest.approx(exact.throughput, rel=0.07)
    assert fluid.response_time == pytest.approx(exact.response_time,
                                                rel=0.30)


def test_degenerate_closed_model_is_a_typed_failure():
    # Unbounded throughput is a property of a solve with users > 0:
    # the same model still has a zero-load point.
    model = AnalyticModel(stations=(AnalyticStation("idle", 0.0),),
                          think_time=0.0)
    assert analytic.solve_model(model, 0).response_time == 0.0
    with pytest.raises(SimulationError, match="unbounded"):
        analytic.solve_model(model, 10)
    # More write work than work would give the station a negative
    # weight in the response time, and the root no unique solution:
    # such a model is refused when it is built.
    with pytest.raises(SimulationError, match="writes more"):
        AnalyticModel(
            stations=(AnalyticStation("db", 0.01, write_demand=0.02),),
            think_time=1.0, replicas=2)


#: One invalid model per check :class:`AnalyticModel` makes when it is
#: built: the fields that break it and the error it raises.
INVALID_MODELS = {
    "negative-think-time": (
        dict(think_time=-1.0), "think time must be non-negative"),
    "no-stations": (dict(stations=()), "at least one station"),
    "duplicate-names": (
        dict(stations=(AnalyticStation("db", 0.01),
                       AnalyticStation("db", 0.02))),
        "duplicate station names"),
    "negative-demand": (
        dict(stations=(AnalyticStation("db", -0.01),)), "negative demand"),
    "writes-more-than-demand": (
        dict(stations=(AnalyticStation("db", 0.01, write_demand=0.02),)),
        "writes more"),
    "no-replicas": (dict(replicas=0), "replicas must be >= 1"),
}


@pytest.mark.parametrize("fields,match", list(INVALID_MODELS.values()),
                         ids=list(INVALID_MODELS))
def test_an_invalid_model_is_refused_when_built(fields, match):
    # A model is checked once, when it is built; ``replace`` builds.
    valid = AnalyticModel(stations=(AnalyticStation("app", 0.01),
                                    AnalyticStation("db", 0.01)),
                          think_time=1.0, replicas=2)
    with pytest.raises(SimulationError, match=match):
        AnalyticModel(**{"stations": valid.stations,
                         "think_time": 1.0, **fields})
    with pytest.raises(SimulationError, match=match):
        dataclasses.replace(valid, **fields)


def test_model_builders_surface_the_construction_errors():
    duplicated = [mva.MvaStation("db", 0.01), mva.MvaStation("db", 0.02)]
    with pytest.raises(SimulationError, match="duplicate station names"):
        analytic.solve_stations(duplicated, 1.0, 10)
    with pytest.raises(SimulationError, match="duplicate station names"):
        solve(duplicated, fidelity=ANALYTIC, users=10, think_time=1.0)
    with pytest.raises(SimulationError, match="at least one station"):
        solve([], fidelity=ANALYTIC, users=10, think_time=1.0)
    node = get_platform("emulab").node_type()
    hosts = {"app": [("app1", node)], "db": [("db1", node)]}
    with pytest.raises(SimulationError,
                       match="think time must be non-negative"):
        analytic.ntier_model("rubis", hosts, 0.15, think_time=-1.0)


def test_a_solve_checks_only_its_own_argument():
    model = AnalyticModel(stations=(AnalyticStation("db", 0.01),),
                          think_time=1.0)
    with pytest.raises(SimulationError, match="users must be"):
        analytic.solve_model(model, -1)
    with pytest.raises(SimulationError, match="arrival rate"):
        analytic.solve_open(model, 0.0)
    idle = AnalyticModel(stations=(AnalyticStation("idle", 0.0),),
                         think_time=1.0)
    assert analytic.solve_model(idle, 10).throughput == pytest.approx(10.0)
    with pytest.raises(SimulationError, match="zero demand"):
        analytic.solve_open(idle, 5.0)


@settings(max_examples=100, deadline=None)
@given(model=closed_models(), first=USERS, users=USERS,
       rate=st.floats(0.1, 2000.0))
def test_a_solved_model_solves_like_a_fresh_one(model, first, users,
                                                rate):
    """A solve leaves nothing on the model that a later one reads:
    every later solve must equal, bit for bit, a solve of a fresh
    equal model at any population or rate."""
    analytic.solve_model(model, first)
    assert analytic.solve_model(model, users) == analytic.solve_model(
        dataclasses.replace(model), users)
    assert analytic.solve_open(model, rate) == analytic.solve_open(
        dataclasses.replace(model), rate)


@settings(max_examples=100, deadline=None)
@given(model=closed_models(), users=USERS, rate=st.floats(0.1, 2000.0),
       think_time=st.floats(0.0, 7.0))
def test_copied_models_solve_bit_identically(model, users, rate,
                                             think_time):
    """What a model works out when it is built travels with it: an
    unpickled copy, a ``replace``d copy and a fresh build solve to the
    same bits, and a ``replace`` that changes a field solves like a
    model built with that field."""
    fields = {field.name: getattr(model, field.name)
              for field in dataclasses.fields(model)}
    fresh = AnalyticModel(**fields)
    copies = [pickle.loads(pickle.dumps(model)), dataclasses.replace(model)]
    for copy in copies:
        assert copy == fresh and hash(copy) == hash(fresh)
        assert repr(copy) == repr(fresh)
        assert analytic.solve_model(copy, users) == analytic.solve_model(
            fresh, users)
        assert analytic.solve_open(copy, rate) == analytic.solve_open(
            fresh, rate)
    changed = dataclasses.replace(copies[0], think_time=think_time)
    rebuilt = AnalyticModel(**{**fields, "think_time": think_time})
    assert analytic.solve_model(changed, users) == analytic.solve_model(
        rebuilt, users)


#: Three topologies by two write ratios: six workload ladders.
LADDERS_TBL = """
benchmark rubis; platform emulab;
experiment "ladders" {
    topology 1-1-1, 1-2-1, 1-2-2;
    workload 100 to 2000 step 100;
    write_ratio 0%, 15%;
}
"""


class TestModelPerLadder:
    """A runner builds one analytic model per workload ladder."""

    def test_knee_exploration_builds_one_model_per_group(self,
                                                         monkeypatch):
        built = []
        ntier_model = analytic.ntier_model

        def counted(benchmark, tier_hosts, write_ratio, **kwargs):
            built.append((tuple(len(tier_hosts.get(tier, ()))
                                for tier in ("web", "app", "db")),
                          write_ratio))
            return ntier_model(benchmark, tier_hosts, write_ratio,
                               **kwargs)

        monkeypatch.setattr(analytic, "ntier_model", counted)
        report = run_adaptive(LADDERS_TBL, policy=KNEE, fidelity=ANALYTIC)
        assert report.outcome.executed > 6 * 2
        assert len(built) == len(set(built)) == 6

    def test_a_quarantine_rebuilds_the_preview(self):
        def runner(quarantined=None):
            campaign = ObservationCampaign(KNEE_TBL, node_count=8)
            if quarantined is not None:
                campaign.cluster.quarantine(quarantined)
            experiment = campaign.spec.experiments[0]
            return campaign.runner, experiment, experiment.topologies[0]

        def point(runner, experiment, topology, workload):
            return runner.run_point(experiment, topology, workload, 0.15,
                                    fidelity=ANALYTIC)

        live = runner()
        first = point(*live, 100)
        app = next(host for host, tier in first.tier_of_host.items()
                   if tier == "app")
        live[0].cluster.quarantine(app)
        second = point(*live, 200)
        fresh = point(*runner(app), 200)
        assert app not in second.tier_of_host
        assert (second.host_cpu, second.tier_of_host) == (
            fresh.host_cpu, fresh.tier_of_host)


#: Knee explorations whose decisions are pinned below: one RUBiS
#: (app-bound) and one RUBBoS (DB-bound) family on the analytic tier.
PINNED_EXPLORATIONS = {
    "rubis": """
benchmark rubis; platform emulab;
experiment "pinned-rubis" {
    topology 1-1-1, 1-2-1, 1-2-2;
    workload 50 to 4000 step 50;
    write_ratio 0%, 15%, 30%;
}
""",
    "rubbos": """
benchmark rubbos; platform emulab;
experiment "pinned-rubbos" {
    topology 1-1-1, 1-2-1, 1-1-2;
    workload 50 to 6000 step 50;
    write_ratio 0%, 15%, 30%;
}
""",
}

#: ``(knees, trials executed, planner_decisions row count, sha256 of
#: the rows' reprs)``, as recorded with the damped fixed-point solver.
PINNED_DECISIONS = {
    "rubis": (
        [("1-1-1", 0.0, 300), ("1-1-1", 0.15, 350), ("1-1-1", 0.3, 400),
         ("1-2-1", 0.0, 600), ("1-2-1", 0.15, 650), ("1-2-1", 0.3, 800),
         ("1-2-2", 0.0, 600), ("1-2-2", 0.15, 650), ("1-2-2", 0.3, 800)],
        72, 730,
        "631b2e9e096d5820d3f7b8d2d8995f43acb90d0b7d22ac958da289ad0faf6abf",
    ),
    "rubbos": (
        [("1-1-1", 0.0, 2650), ("1-1-1", 0.15, 2900), ("1-1-1", 0.3, 3200),
         ("1-2-1", 0.0, 2650), ("1-2-1", 0.15, 2900), ("1-2-1", 0.3, 3200),
         ("1-1-2", 0.0, 4200), ("1-1-2", 0.15, 4200),
         ("1-1-2", 0.3, 4200)],
        81, 1090,
        "c8a0e35d8d91156fb615e7148fa26fbd141a72acd86adc1d73c167a5b7fe435e",
    ),
}


class TestPinnedDecisions:
    """The solver may change in the low bits; a knee or a decision may
    not."""

    @pytest.mark.parametrize("family", sorted(PINNED_EXPLORATIONS))
    def test_knees_and_decisions_are_unchanged(self, family):
        report = run_adaptive(PINNED_EXPLORATIONS[family], policy=KNEE,
                              fidelity=ANALYTIC)
        knees = [(d.topology, d.write_ratio, d.workload)
                 for d in report.outcome.knees if d.action == KNEE]
        rows = report.database.dump_rows("planner_decisions")
        digest = hashlib.sha256(
            "\n".join(map(repr, rows)).encode()).hexdigest()
        assert (knees, report.outcome.executed, len(rows),
                digest) == PINNED_DECISIONS[family]


#: Explorations whose planner logs are pinned beside the knee ones: a
#: tiered (analytic exploration, DES confirmation), an analytic
#: promotion walk, and a budget-wrapped analytic knee bisection whose
#: budget runs out after two groups concluded.
PINNED_TIERED_EXPLORATIONS = {
    "tiered": (dict(policy=KNEE, fidelity=AUTO), """
benchmark rubis; platform emulab;
experiment "pinned-tiered" {
    topology 1-1-1, 1-2-1;
    workload 50 to 1000 step 50;
    write_ratio 0%, 15%;
    trial { warmup 1s; run 5s; cooldown 1s; }
    slo { response_time 1.0s; error_ratio 10%; }
}
"""),
    "promote": (dict(policy="promote", fidelity=ANALYTIC), """
benchmark rubis; platform emulab;
experiment "pinned-promote" {
    topology 1-1-1, 1-2-1, 1-2-2, 1-4-2, 1-4-4;
    workload 100 to 2000 step 100;
    write_ratio 0%, 15%, 30%;
}
"""),
    "budget": (dict(policy=KNEE, fidelity=ANALYTIC, budget=14), """
benchmark rubis; platform emulab;
experiment "pinned-budget" {
    topology 1-1-1, 1-4-2;
    workload 50 to 1000 step 50;
    write_ratio 0%, 30%;
}
"""),
}

#: ``(concluding knee/no-knee/promote/stop decisions, trials executed,
#: planner_decisions row count, sha256 of the rows' reprs)``, recorded
#: before knee decisions were made at their tier instead of stamped.
PINNED_TIERED_DECISIONS = {
    "tiered": (
        [("knee", "1-1-1", 0.0, 500), ("knee", "1-1-1", 0.15, 600),
         ("knee", "1-2-1", 0.0, 850), ("no-knee", "1-2-1", 0.15, None)],
        60, 120,
        "a643463cecbfbd5c3f763f24b9e462c67e17b1dbd2f21468bb5d252e21dfb3f3",
    ),
    "promote": (
        [("promote", "1-2-1", 0.0, 300), ("promote", "1-2-1", 0.15, 400),
         ("promote", "1-2-1", 0.3, 400), ("promote", "1-4-2", 0.0, 600),
         ("promote", "1-4-2", 0.15, 700), ("promote", "1-4-2", 0.3, 800),
         ("stop", "1-4-2", 0.0, 1200), ("stop", "1-4-2", 0.15, 1300),
         ("stop", "1-4-2", 0.3, 1600)],
        47, 171,
        "be8f85688415dd1f242e29496d2839b4c3885cd9e724c863425d6c19299fe07c",
    ),
    "budget": (
        [("no-knee", "1-4-2", 0.0, None), ("no-knee", "1-4-2", 0.3, None)],
        14, 53,
        "34e40c8a822e03ddf8cf9ff0decb09e15b2fda640e9594770694d1fd8c03ee84",
    ),
}


class TestPinnedTierDecisions:
    """Where a decision's tier is set may change; the log may not."""

    @pytest.mark.parametrize("family", sorted(PINNED_TIERED_EXPLORATIONS))
    def test_conclusions_and_decisions_are_unchanged(self, family):
        options, tbl = PINNED_TIERED_EXPLORATIONS[family]
        report = run_adaptive(tbl, **options)
        concluded = [(d.action, d.topology, d.write_ratio, d.workload)
                     for d in report.outcome.decisions
                     if d.action in (KNEE, NO_KNEE, PROMOTE, STOP)]
        rows = report.database.dump_rows("planner_decisions")
        digest = hashlib.sha256(
            "\n".join(map(repr, rows)).encode()).hexdigest()
        assert (concluded, report.outcome.executed, len(rows),
                digest) == PINNED_TIERED_DECISIONS[family]

    def test_budget_and_loop_notes_keep_their_tiers(self):
        options, tbl = PINNED_TIERED_EXPLORATIONS["budget"]
        report = run_adaptive(tbl, **options)
        assert report.outcome.budget_exhausted
        tiers = {d.action: d.fidelity for d in report.outcome.decisions}
        assert tiers["budget-exhausted"] == ANALYTIC
        assert tiers[NO_KNEE] == ANALYTIC
        options, tbl = PINNED_TIERED_EXPLORATIONS["promote"]
        report = run_adaptive(tbl, **options)
        assert report.outcome.decisions[-1].action == "converged"
        assert report.outcome.decisions[-1].fidelity == DES


class TestFidelityCampaigns:
    def test_analytic_grid_byte_stable_across_jobs(self):
        def run(jobs):
            campaign = ObservationCampaign(KNEE_TBL, node_count=8)
            campaign.run(jobs=jobs, fidelity=ANALYTIC)
            return campaign.database
        assert observation_dump(run(1)) == observation_dump(run(4))

    def test_analytic_rows_carry_their_tier(self):
        report = run_campaign(KNEE_TBL, node_count=8, fidelity=ANALYTIC)
        rows = report.database.query()
        assert len(rows) == 8
        assert {r.fidelity for r in rows} == {ANALYTIC}
        assert report.database.get_meta(META_FIDELITY) == ANALYTIC
        # The analytic tier reproduces the DES knee shape: the SLO
        # break sits between the same ladder rungs.
        by_load = {r.workload: r for r in rows}
        assert by_load[100].metrics.mean_response_s < 1.0
        assert by_load[800].metrics.mean_response_s > 1.0

    def test_default_fidelity_is_des(self):
        report = run_campaign(KNEE_TBL, node_count=8)
        assert {r.fidelity for r in report.database.query()} == {DES}
        assert report.database.get_meta(META_FIDELITY) == DES

    def test_fixed_grid_rejects_auto(self):
        with pytest.raises(ExperimentError, match="adaptive-exploration"):
            run_campaign(KNEE_TBL, node_count=8, fidelity=AUTO)

    def test_query_filters_by_fidelity(self):
        campaign = ObservationCampaign(KNEE_TBL, node_count=8)
        campaign.run_adaptive(policy="knee", fidelity=AUTO)
        rows = campaign.database.query(fidelity=ANALYTIC)
        assert rows and all(r.fidelity == ANALYTIC for r in rows)
        des_rows = campaign.database.query(fidelity=DES)
        assert des_rows and all(r.fidelity == DES for r in des_rows)

    def test_des_insert_keeps_the_analytic_row(self):
        # The tiered flow depends on both tiers of one sweep point
        # coexisting: the DES confirmation must not replace the
        # analytic exploration row.
        campaign = ObservationCampaign(KNEE_TBL, node_count=8)
        campaign.run_adaptive(policy="knee", fidelity=AUTO)
        keys = {(r.workload, r.fidelity)
                for r in campaign.database.query()}
        confirmed = {w for w, f in keys if f == DES}
        assert confirmed and all((w, ANALYTIC) in keys
                                 for w in confirmed)


class TestTieredExploration:
    @pytest.mark.parametrize("tbl", [KNEE_TBL, SCALEOUT_TBL])
    def test_knee_within_one_ladder_step_of_des(self, tbl):
        tiered = run_adaptive(tbl, policy="knee", fidelity=AUTO,
                              node_count=16)
        des = run_adaptive(tbl, policy="knee", node_count=16)
        tiered_knees = [d for d in tiered.outcome.knees
                        if d.action == KNEE]
        des_knees = [d for d in des.outcome.knees if d.action == KNEE]
        assert len(tiered_knees) == len(des_knees) == 1
        from repro.spec.tbl import parse as parse_tbl
        ladder = list(parse_tbl(tbl).experiments[0].workloads)
        gap = abs(ladder.index(tiered_knees[0].workload)
                  - ladder.index(des_knees[0].workload))
        assert gap <= 1

    def test_knee_is_des_confirmed(self):
        report = run_adaptive(KNEE_TBL, policy="knee", fidelity=AUTO,
                              node_count=8)
        knees = [d for d in report.outcome.knees if d.action == KNEE]
        assert len(knees) == 1
        assert "DES-confirmed" in knees[0].reason
        # Both the knee and the pass point below it hold a DES trial.
        des_loads = {r.workload for r in report.database.query()
                     if r.fidelity == DES}
        assert knees[0].workload in des_loads

    def test_auto_requires_a_tiered_capable_policy(self):
        with pytest.raises(ExperimentError, match="tiered"):
            run_adaptive(KNEE_TBL, policy="grid", fidelity=AUTO,
                         node_count=8)
        report = run_adaptive(KNEE_TBL, policy="tiered", node_count=8,
                              fidelity=AUTO)
        assert report.policy == "tiered"

    def test_analytic_exploration_never_touches_des(self):
        report = run_adaptive(KNEE_TBL, policy="knee",
                              fidelity=ANALYTIC, node_count=8)
        assert report.policy == "knee"
        rows = report.database.query()
        assert rows and {r.fidelity for r in rows} == {ANALYTIC}
        decisions = report.database.planner_decisions()
        measured = [d for d in decisions if d["action"] == "measure"]
        assert measured and all(d["fidelity"] == ANALYTIC
                                for d in measured)

    def test_jobs_do_not_change_tiered_decisions_or_rows(self):
        def explore(jobs):
            campaign = ObservationCampaign(KNEE_TBL, node_count=8)
            campaign.run_adaptive(
                policy="knee", fidelity=AUTO, jobs=jobs)
            return campaign.database
        assert observation_dump(explore(1)) == observation_dump(explore(4))

    def test_plan_campaign_previews_analytic_rounds(self):
        preview = plan_campaign(KNEE_TBL, policy="knee",
                                fidelity=ANALYTIC)
        assert preview.decisions
        assert all(d.fidelity == ANALYTIC for d in preview.decisions)
        tiered = plan_campaign(KNEE_TBL, policy="knee", fidelity=AUTO)
        assert tiered.policy_name == "tiered"
        assert all(d.fidelity == ANALYTIC for d in tiered.decisions)


class TestTieredResume:
    class _Kill(Exception):
        pass

    def _killed_database(self, after):
        campaign = ObservationCampaign(KNEE_TBL, node_count=8)
        seen = []

        def killer(result):
            seen.append(result)
            if len(seen) == after:
                raise self._Kill()

        with pytest.raises(self._Kill):
            campaign.run_adaptive(policy="knee", fidelity=AUTO,
                                  on_result=killer)
        return campaign.database

    @pytest.mark.parametrize("after", [1, 3, 5])
    def test_killed_tiered_exploration_resumes_byte_identically(
            self, after):
        reference = ObservationCampaign(KNEE_TBL, node_count=8)
        reference.run_adaptive(policy="knee", fidelity=AUTO)
        database = self._killed_database(after=after)
        assert database.get_meta(META_FIDELITY) == AUTO
        report = resume_campaign(database)
        assert report.policy == "tiered"
        assert observation_dump(database) == \
            observation_dump(reference.database)


class TestMillionUsers:
    def test_auto_explore_characterizes_a_million_users_fast(self):
        start = time.perf_counter()
        report = run_adaptive(MILLION_TBL, policy="knee", fidelity=AUTO,
                              node_count=40)
        wall = time.perf_counter() - start
        assert wall < 10.0
        knees = [d for d in report.outcome.knees if d.action == KNEE]
        assert len(knees) == 1
        # The calibrated 4-16-8 DB tier saturates near 4000 users;
        # the exploration lands the knee on that ladder rung without
        # ever running DES above it.
        assert knees[0].workload == 4000
        des_loads = {r.workload for r in report.database.query()
                     if r.fidelity == DES}
        assert des_loads and max(des_loads) <= 8000
        analytic_loads = {r.workload for r in report.database.query()
                          if r.fidelity == ANALYTIC}
        assert 1_000_000 in analytic_loads


class TestServiceFidelity:
    def test_fidelity_crosses_the_wire_and_uses_the_fast_lane(
            self, tmp_path):
        from repro.service.client import CampaignClient
        from repro.service.http import ServiceDaemon

        daemon = ServiceDaemon(jobs=2)
        try:
            client = CampaignClient(daemon.start())
            db_path = tmp_path / "analytic.db"
            cid = client.submit(KNEE_TBL, db_path=db_path, jobs=2,
                                fidelity=ANALYTIC)
            record = client.wait(cid, timeout=120)
            assert record["state"] == "done"
            assert record["fidelity"] == ANALYTIC
            stats = client.status()["fleet"]
            assert stats["fast_workers"] >= 2
            assert stats["dispatched"] == record["trials"]
        finally:
            daemon.stop()
        from repro.results.database import ResultsDatabase
        merged = ResultsDatabase(db_path)
        try:
            local = ObservationCampaign(KNEE_TBL, node_count=36)
            local.run(fidelity=ANALYTIC)
            assert merged.dump_rows("trials") == \
                local.database.dump_rows("trials")
            assert merged.get_meta(META_FIDELITY) == ANALYTIC
        finally:
            merged.close()

    def test_daemon_resume_recovers_fidelity_from_meta(self, tmp_path):
        from repro.results.database import ResultsDatabase
        from repro.service.controller import CampaignController

        # Seed a completed analytic checkpoint, then resume it with no
        # explicit fidelity: the controller must recover the tier from
        # campaign_meta instead of falling back to DES.
        db_path = tmp_path / "resume.db"
        campaign = ObservationCampaign(
            KNEE_TBL, database=ResultsDatabase(db_path), node_count=8)
        campaign.run(fidelity=ANALYTIC)
        campaign.database.close()
        controller = CampaignController(jobs=2)
        try:
            cid = controller.submit(db_path=db_path, resume=True)
            record = controller.wait(cid, timeout=120)
            assert record["state"] == "done"
            assert record["trials"] == 0       # everything checkpointed
            assert record["skipped"] == 8
        finally:
            controller.shutdown()
        merged = ResultsDatabase(db_path)
        try:
            assert {r.fidelity for r in merged.query()} == {ANALYTIC}
        finally:
            merged.close()


# The seed schema, frozen: what a pre-fidelity database looks like on
# disk.  The migration test writes this verbatim and lets the
# constructor upgrade it.
_LEGACY_TRIALS = """
CREATE TABLE trials (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment_name TEXT NOT NULL, benchmark TEXT NOT NULL,
    platform TEXT NOT NULL, topology TEXT NOT NULL,
    workload INTEGER NOT NULL, write_ratio REAL NOT NULL,
    seed INTEGER NOT NULL, status TEXT NOT NULL,
    completed_requests INTEGER NOT NULL, errors INTEGER NOT NULL,
    timeouts INTEGER NOT NULL, rejections INTEGER NOT NULL,
    duration_s REAL NOT NULL, throughput REAL NOT NULL,
    mean_response_s REAL NOT NULL, p50_response_s REAL NOT NULL,
    p90_response_s REAL NOT NULL, p99_response_s REAL NOT NULL,
    collected_bytes INTEGER NOT NULL, script_lines INTEGER NOT NULL,
    config_lines INTEGER NOT NULL, generated_files INTEGER NOT NULL,
    machine_count INTEGER NOT NULL,
    UNIQUE (experiment_name, topology, workload, write_ratio, seed)
)
"""

_LEGACY_DECISIONS = """
CREATE TABLE planner_decisions (
    round INTEGER NOT NULL, seq INTEGER NOT NULL,
    policy TEXT NOT NULL, experiment_name TEXT NOT NULL,
    action TEXT NOT NULL, topology TEXT, workload INTEGER,
    write_ratio REAL, reason TEXT NOT NULL,
    PRIMARY KEY (round, seq)
)
"""


def _downgrade_to_legacy(path):
    """Strip the fidelity column, reproducing a pre-tier database."""
    connection = sqlite3.connect(path)
    columns = ("id, experiment_name, benchmark, platform, topology, "
               "workload, write_ratio, seed, status, completed_requests, "
               "errors, timeouts, rejections, duration_s, throughput, "
               "mean_response_s, p50_response_s, p90_response_s, "
               "p99_response_s, collected_bytes, script_lines, "
               "config_lines, generated_files, machine_count")
    with connection:
        connection.execute("PRAGMA foreign_keys=OFF")
        connection.execute("PRAGMA legacy_alter_table=ON")
        connection.execute("ALTER TABLE trials RENAME TO trials_current")
        connection.execute(_LEGACY_TRIALS)
        connection.execute(
            f"INSERT INTO trials SELECT {columns} FROM trials_current")
        connection.execute("DROP TABLE trials_current")
        connection.execute(
            "ALTER TABLE planner_decisions RENAME TO decisions_current")
        connection.execute(_LEGACY_DECISIONS)
        connection.execute(
            "INSERT INTO planner_decisions SELECT round, seq, policy, "
            "experiment_name, action, topology, workload, write_ratio, "
            "reason FROM decisions_current")
        connection.execute("DROP TABLE decisions_current")
    connection.close()


class TestTraceFidelityColumn:
    def _traced_database(self, tmp_path, **kwargs):
        from repro.obs import Tracer
        from repro.results.database import ResultsDatabase

        path = tmp_path / "traced.db"
        campaign = ObservationCampaign(
            KNEE_TBL, database=ResultsDatabase(path), node_count=8,
            tracer=Tracer())
        campaign.run_adaptive(policy="knee", **kwargs)
        campaign.database.close()
        return path

    def test_trace_renders_the_tier_column(self, tmp_path, capsys):
        from repro.cli import main

        path = self._traced_database(tmp_path, fidelity=AUTO)
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert " tier " in out
        assert "analytic" in out
        assert "policy 'tiered'" in out

    def test_trace_renders_on_a_pre_tier_database(self, tmp_path,
                                                  capsys):
        from repro.cli import main
        from repro.results.database import ResultsDatabase

        path = self._traced_database(tmp_path)
        _downgrade_to_legacy(path)
        # Reopening migrates in place: the tier column reappears with
        # every historical row backfilled as DES.
        migrated = ResultsDatabase(path)
        try:
            assert_declared_schema(migrated)
            assert {r.fidelity for r in migrated.query()} == {DES}
        finally:
            migrated.close()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert " tier " in out
        assert " des " in out


class TestFidelityCli:
    @pytest.fixture
    def tbl_file(self, tmp_path):
        path = tmp_path / "knee.tbl"
        path.write_text(KNEE_TBL)
        return path

    def test_explore_auto_reports_a_confirmed_knee(self, tbl_file,
                                                   tmp_path, capsys):
        from repro.cli import main

        db = tmp_path / "auto.db"
        status = main(["explore", "--tbl", str(tbl_file),
                       "--db", str(db), "--fidelity", "auto", "--quiet"])
        assert status == 0
        out = capsys.readouterr().out
        assert "DES-confirmed SLO knee" in out
        assert os.path.exists(db)

    def test_run_rejects_auto(self, tbl_file, tmp_path, capsys):
        from repro.cli import main

        status = main(["run", "--tbl", str(tbl_file),
                       "--db", str(tmp_path / "x.db"),
                       "--fidelity", "auto", "--quiet"])
        assert status == 1
        assert "adaptive-exploration" in capsys.readouterr().err

    def test_figure_accepts_analytic(self, tmp_path, capsys):
        from repro.cli import main

        status = main(["figure", "--id", "figure1", "--scale", "0.2",
                       "--fidelity", "analytic"])
        assert status == 0
        assert "Figure 1." in capsys.readouterr().out
