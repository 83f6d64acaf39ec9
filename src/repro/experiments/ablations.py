"""Ablation studies of the design choices DESIGN.md calls out.

Three questions the reproduction's shape depends on:

1. **RAIDb-1 write replication** — how far does DB scale-out fall below
   linear because writes execute on every replica?  (This is the
   mechanism behind the paper's 1700 -> ~2900 crossover.)
2. **Observation vs analytical model** — where does exact MVA track the
   simulated observations and where does it diverge?  (The paper's core
   argument for the observational approach, Sections I/VI.)
3. **Balancer policy** — does mod_jk-style round-robin cost anything
   against least-connections at the app tier?
"""

from __future__ import annotations

from repro.deploy import DeploymentEngine
from repro.experiments.sweep import build_experiment
from repro.generator import HostPlan, Mulini
from repro.monitoring import attach_monitors, summarize_records
from repro.sim import NTierSimulation, mva, solve
from repro.spec.mof import load_resource_model, render_resource_mof
from repro.spec.tbl import TrialPhases
from repro.spec.topology import Topology
from repro.vcluster import VirtualCluster
from repro.workloads.calibration import RUBIS


def deployed_rubis_system(apps, dbs, users, write_ratio=0.15,
                          trial=(14.0, 25.0, 4.0), seed=42,
                          platform="emulab", app_server=None):
    """Build a real DeployedSystem through the full pipeline.

    Generates, deploys and verifies a fresh RUBiS topology on its own
    virtual cluster — the same path the experiment runner takes — and
    hands back the deployed system for ad-hoc simulation (ablations).
    """
    topology = Topology(1, apps, dbs)
    experiment, _tbl = build_experiment(
        name="ablation", benchmark="rubis", platform=platform,
        topologies=[topology], workloads=(users,),
        write_ratios=(write_ratio,), trial=TrialPhases(*trial), seed=seed,
        app_server=app_server,
    )
    model = load_resource_model(render_resource_mof(
        "rubis", platform, app_server=app_server,
    ))
    # Size the pool so the default node type covers every server even
    # on mixed platforms (Emulab reserves ~a quarter as low-end nodes).
    cluster = VirtualCluster(platform,
                             node_count=2 * topology.total_servers() + 6)
    allocation = cluster.allocate(topology)
    plan = HostPlan.from_allocation(allocation)
    bundle = Mulini(model).generate(experiment, topology, users,
                                    write_ratio, host_plan=plan)
    deployment = DeploymentEngine(cluster=cluster).deploy(
        bundle, allocation, experiment=experiment, topology=topology,
        workload=users, write_ratio=write_ratio,
    )
    return deployment.system


def _simulate(system, balancer_policy="rr"):
    """Run a system's trial; returns (TrialMetrics, harness)."""
    harness = NTierSimulation(system, balancer_policy=balancer_policy)
    emitters = attach_monitors(harness)
    records = harness.run()
    for emitter in emitters:
        emitter.stop()
    driver = system.driver
    window = (driver.warmup, driver.warmup + driver.run)
    return summarize_records(records, window), harness


def raidb_scaling(system_factory, workload, replica_counts=(1, 2, 3),
                  write_ratio=0.15):
    """Measured vs idealized DB scale-out at *workload* users.

    *system_factory(dbs, users, write_ratio)* builds a DeployedSystem;
    returns rows with measured throughput, the RAIDb-1 analytical
    capacity and the idealized (linear, read-only-style) capacity.
    """
    single_capacity = 1.0 / RUBIS.db_backend_mean(write_ratio, 1)
    rows = []
    for replicas in replica_counts:
        system = system_factory(replicas, workload, write_ratio)
        metrics, _harness = _simulate(system)
        raidb_capacity = 1.0 / RUBIS.db_backend_mean(write_ratio, replicas)
        rows.append({
            "replicas": replicas,
            "throughput": metrics.throughput,
            "mean_response_s": metrics.mean_response_s,
            "error_ratio": metrics.error_ratio,
            "raidb_capacity": raidb_capacity,
            "linear_capacity": replicas * single_capacity,
        })
    return rows


def mva_vs_observation(system_factory, workloads, write_ratio=0.15):
    """Model tiers against simulated observation across *workloads*.

    Both analytical tiers — exact MVA and the Schweitzer AMVA fluid
    solver — run through the :func:`repro.sim.solve` dispatcher over
    the same calibrated demands the simulator draws from.  Rows carry
    all three predictions plus per-tier (web/app/db) residence deltas
    between the fluid approximation and the exact recursion, so the
    bench shows both where the product-form models track the
    observations (below the knee) and how far the fast tier strays
    from the exact one at each station.
    """
    stations = [
        mva.MvaStation("web", RUBIS.web_s),
        mva.MvaStation("app", RUBIS.app_mean(write_ratio)),
        mva.MvaStation("db", RUBIS.db_mean(write_ratio)),
    ]
    rows = []
    for users in workloads:
        system = system_factory(users)
        metrics, _harness = _simulate(system)
        exact = solve(stations, fidelity="mva", users=users,
                      think_time=RUBIS.think_time_s)
        fluid = solve(stations, fidelity="analytic", users=users,
                      think_time=RUBIS.think_time_s)
        row = {
            "users": users,
            "observed_rt_ms": metrics.mean_response_s * 1000,
            "mva_rt_ms": exact.response_time * 1000,
            "analytic_rt_ms": fluid.response_time * 1000,
            "observed_x": metrics.throughput,
            "mva_x": exact.throughput,
            "analytic_x": fluid.throughput,
            "observed_errors": metrics.error_ratio,
        }
        for station in stations:
            delta = (fluid.station_residence[station.name]
                     - exact.station_residence[station.name])
            row[f"{station.name}_delta_ms"] = delta * 1000
        rows.append(row)
    return rows


def balancer_policies(system_factory, workloads, policies=("rr", "least")):
    """Round-robin vs least-connections at identical workloads."""
    rows = []
    for users in workloads:
        row = {"users": users}
        for policy in policies:
            system = system_factory(users)
            metrics, _harness = _simulate(system, balancer_policy=policy)
            row[f"{policy}_rt_ms"] = metrics.mean_response_s * 1000
            row[f"{policy}_x"] = metrics.throughput
        rows.append(row)
    return rows


def disk_sensitivity(users=250, write_ratio=0.5,
                     platforms=("rohan", "warp")):
    """Disk-spindle sensitivity across hardware platforms (Table 2).

    Same workload on Rohan (10000 RPM) and Warp (5400 RPM): the slower
    spindle runs proportionally busier, but at the calibrated demands
    the database CPU remains the bottleneck — validating the
    calibration's CPU-located knees against the disk substrate.
    """
    rows = []
    for platform in platforms:
        system = deployed_rubis_system(apps=2, dbs=1, users=users,
                                       write_ratio=write_ratio,
                                       platform=platform)
        metrics, harness = _simulate(system)
        backend = harness.db_backends[0]
        elapsed = harness.sim.now
        rows.append({
            "platform": platform,
            "disk_rpm": backend.disk.speed * 10000,
            "disk_util": backend.disk.area_reading()[1] / elapsed,
            "db_cpu_util": backend.cpu.area_reading()[1] / elapsed,
            "mean_response_s": metrics.mean_response_s,
            "throughput": metrics.throughput,
        })
    return rows


def per_station_balance(harness):
    """Per-app-station completed counts — fairness of the balancer."""
    return {station.name: station.completed
            for station in harness.app_balancer.stations}


def render_rows(title, rows, columns, formats=None):
    """Generic ASCII table for ablation rows."""
    formats = formats or {}
    header = "".join(f"{c:>16}" for c in columns)
    lines = [title, header]
    for row in rows:
        rendered = ""
        for column in columns:
            value = row[column]
            fmt = formats.get(column, "{:.2f}"
                              if isinstance(value, float) else "{}")
            rendered += f"{fmt.format(value):>16}"
        lines.append(rendered)
    return "\n".join(lines)
