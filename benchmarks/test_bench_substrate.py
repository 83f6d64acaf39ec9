"""Microbenchmarks of the substrate itself (proper multi-round timing).

These quantify the costs the figure reproductions are built on: raw
event throughput of the discrete-event core, the processor-sharing
station, Mulini generation, MVA solving, and a full deploy cycle.
Regressions here multiply directly into figure-bench wall time.
"""

from repro.generator import Mulini
from repro.sim import ProcessorSharingStation, Simulator, mva
from repro.spec.mof import load_resource_model, render_resource_mof
from repro.spec.topology import Topology


def test_bench_event_loop_throughput(benchmark):
    """Schedule+fire cost of the bare event loop (100k events)."""

    def run():
        sim = Simulator()
        count = 100_000

        def chain():
            nonlocal count
            count -= 1
            if count > 0:
                sim.schedule(0.001, chain)

        sim.schedule(0.001, chain)
        sim.run_all()
        return sim.events_processed

    events = benchmark(run)
    assert events == 100_000


def test_bench_run_until_with_cancellations(benchmark):
    """The campaign pattern: run_until over a heap full of tombstones.

    100 closed-loop users each arm a timeout per request, cancel it on
    completion and think before the next request (20k requests), as
    NTierSimulation does.  Timeouts never fire; their tombstones are
    dropped without being counted.
    """

    def run():
        sim = Simulator()
        remaining = [20_000]

        def on_timeout():
            raise AssertionError("a cancelled timeout fired")

        def issue():
            if remaining[0] == 0:
                return
            remaining[0] -= 1
            timeout = sim.schedule(8.0, on_timeout)

            def complete():
                timeout.cancel()
                sim.schedule(0.05, issue)

            sim.schedule(0.01, complete)

        for user in range(100):
            sim.schedule(user * 0.001, issue)
        sim.run_until(1e6)
        assert sim.peek_time() is None
        return sim.events_processed

    events = benchmark(run)
    # One issue and one completion per request, plus each user's final
    # issue that finds the budget spent.
    assert events == 2 * 20_000 + 100


def test_bench_ps_station_throughput(benchmark):
    """Arrival/departure cost with 200 resident PS jobs (20k jobs)."""

    def run():
        sim = Simulator()
        station = ProcessorSharingStation(sim, "s", cores=2)
        remaining = [20_000]

        def feed():
            if remaining[0] > 0:
                remaining[0] -= 1
                station.submit(0.01, feed)

        for _ in range(200):
            feed()
        sim.run_all()
        return station.completed

    completed = benchmark(run)
    assert completed == 20_000


def test_bench_worker_pool_station(benchmark):
    """Admission through a worker pool and accept queue, and rejection
    past them: 40 clients make 20k offers to a 2-core station with 8
    workers and 16 queue slots; a refused client offers again 50 ms
    later."""

    def run():
        sim = Simulator()
        station = ProcessorSharingStation(sim, "s", cores=2,
                                          concurrency_limit=8,
                                          queue_limit=16)
        remaining = [20_000]

        def offer():
            if remaining[0] > 0:
                remaining[0] -= 1
                if not station.submit(0.01, offer):
                    sim.schedule(0.05, offer)

        for _ in range(40):
            offer()
        sim.run_all()
        return station.completed, station.rejected

    completed, rejected = benchmark(run)
    # Every offer is either served or refused.
    assert (completed, rejected) == (7704, 12296)


def test_bench_mva_solve(benchmark):
    """Exact MVA across 3 stations for 3000 customers."""
    stations = [mva.MvaStation("web", 0.0015),
                mva.MvaStation("app", 0.0285, servers=12),
                mva.MvaStation("db", 0.00415, servers=2)]

    result = benchmark(mva.solve, stations, 7.0, 3000)
    assert result.throughput > 0


def test_bench_bundle_generation(benchmark):
    """Mulini generation cost for a 1-8-2 bundle (~90 artifacts)."""
    from repro.experiments.sweep import build_experiment

    model = load_resource_model(render_resource_mof("rubis", "emulab"))
    mulini = Mulini(model)
    experiment, _tbl = build_experiment(
        name="bench", benchmark="rubis", platform="emulab",
        topologies=[Topology(1, 8, 2)], workloads=(1700,),
    )

    bundle = benchmark(mulini.generate, experiment, Topology(1, 8, 2),
                       1700, 0.15)
    assert bundle.file_count() > 80


def test_bench_full_deploy_cycle(benchmark):
    """Generate + execute run.sh + extract + verify for 1-2-1."""
    from repro.experiments.ablations import deployed_rubis_system

    system = benchmark.pedantic(
        deployed_rubis_system, args=(2, 1, 300), rounds=3, iterations=1,
    )
    assert system.topology() == Topology(1, 2, 1)


def test_bench_trial_simulation(benchmark):
    """One 300-user RUBiS trial (34 s simulated) end to end."""
    from repro.sim import NTierSimulation
    from repro.experiments.ablations import deployed_rubis_system

    system = deployed_rubis_system(2, 1, 300, trial=(14.0, 15.0, 5.0))

    def run():
        harness = NTierSimulation(system)
        return len(harness.run())

    requests = benchmark.pedantic(run, rounds=3, iterations=1)
    assert requests > 500
