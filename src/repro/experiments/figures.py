"""Declarative reproductions of every figure and table in the paper.

Each ``figure*``/``table*`` function builds the corresponding sweep (via
TBL), runs it end to end on a virtual cluster, and returns a
:class:`FigureResult` with the derived data and an ASCII rendering of
the same rows/series the paper reports.  ``scale`` shrinks trial phases
(the paper's 60/300/60 s RUBiS trials at ``scale=1.0``); the workload
strides default to bench-friendly values and widen to the paper's grids
by argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.runner import ExperimentRunner
from repro.experiments.sweep import build_experiment
from repro.generator import Mulini
from repro.results import analysis, report
from repro.sim import DES
from repro.spec.mof import load_resource_model, render_resource_mof
from repro.spec.tbl import expand_range
from repro.spec.topology import Topology, topology_grid
from repro.vcluster import VirtualCluster

#: Default trial-phase scale for the benchmark harness: 10% of the
#: paper's periods (6 s warm-up / 30 s run / 6 s cool-down for RUBiS).
BENCH_SCALE = 0.1


@dataclass
class FigureResult:
    """One reproduced figure/table: data, rendering and raw trials."""

    figure_id: str
    title: str
    data: object
    rendered: str
    results: list = field(default_factory=list)
    tbl_source: str = ""

    def store(self, database):
        for result in self.results:
            database.insert(result, replace=True)
        return database


def make_cluster(platform, node_count=36):
    return VirtualCluster(platform, node_count=node_count)


def make_runner(platform, benchmark, app_server=None, db_node_type=None,
                cluster=None, node_count=36, tracer=None):
    node_types = {"db": db_node_type} if db_node_type else None
    model = load_resource_model(render_resource_mof(
        benchmark, platform, app_server=app_server, node_types=node_types,
    ))
    cluster = cluster or make_cluster(platform, node_count)
    return ExperimentRunner(cluster=cluster, resource_model=model,
                            tracer=tracer)


def _run(figure_id, title, runner, experiment, tbl):
    results = runner.run_experiment(experiment)
    return figure_id, title, results, tbl


# ---------------------------------------------------------------------------
# Figures 1 and 2: RUBiS on JOnAS baseline (Emulab, 1-1-1, slow DB node).
# ---------------------------------------------------------------------------

def run_rubis_jonas_baseline(scale=BENCH_SCALE, workload_step=50,
                             ratio_step=0.1, cluster=None, seed=42,
                             jobs=1, tracer=None, fidelity=DES):
    """The Figure 1/2 sweep: 50..250 users x 0..90% writes (IV.A)."""
    experiment, tbl = build_experiment(
        name="rubis-jonas-baseline", benchmark="rubis", platform="emulab",
        topologies=[Topology(1, 1, 1)],
        workloads=expand_range(50, 250, workload_step),
        write_ratios=expand_range(0.0, 0.9, ratio_step),
        db_node_type="emulab_low",     # the deliberately slow DB host
        scale=scale, seed=seed,
    )
    runner = make_runner("emulab", "rubis", db_node_type="emulab-low",
                         cluster=cluster, node_count=12, tracer=tracer)
    return runner.run_experiment(experiment, jobs=jobs,
                                 fidelity=fidelity), tbl


def figure1(scale=BENCH_SCALE, workload_step=50, ratio_step=0.1,
            results=None, tbl="", jobs=1, tracer=None, fidelity=DES):
    """Figure 1: RUBiS on JOnAS response-time surface."""
    if results is None:
        results, tbl = run_rubis_jonas_baseline(scale, workload_step,
                                                ratio_step, jobs=jobs,
                                                tracer=tracer,
                                                fidelity=fidelity)
    surface = analysis.response_surface(results, "1-1-1", value="response")
    rendered = report.render_surface(
        "Figure 1. RUBiS on JOnAS response time (ms), 1-1-1 on Emulab",
        surface,
    )
    return FigureResult("figure1", "RUBiS on JOnAS response time",
                        surface, rendered, results, tbl)


def figure2(scale=BENCH_SCALE, workload_step=50, ratio_step=0.1,
            results=None, tbl="", jobs=1, tracer=None, fidelity=DES):
    """Figure 2: RUBiS on JOnAS application-server CPU utilization."""
    if results is None:
        results, tbl = run_rubis_jonas_baseline(scale, workload_step,
                                                ratio_step, jobs=jobs,
                                                tracer=tracer,
                                                fidelity=fidelity)
    surface = analysis.response_surface(results, "1-1-1", value="app_cpu")
    rendered = report.render_surface(
        "Figure 2. RUBiS on JOnAS app-server CPU utilization (%), 1-1-1",
        surface, y_format="{:.0f}",
    )
    return FigureResult("figure2", "RUBiS on JOnAS app-server CPU",
                        surface, rendered, results, tbl)


# ---------------------------------------------------------------------------
# Figure 3: RUBiS on Weblogic baseline (Warp, 1-1-1).
# ---------------------------------------------------------------------------

def figure3(scale=BENCH_SCALE, workload_step=100, ratio_step=0.1,
            cluster=None, seed=42, jobs=1, tracer=None, fidelity=DES):
    """Figure 3: Weblogic replaces JOnAS; 100..600 users (IV.B)."""
    experiment, tbl = build_experiment(
        name="rubis-weblogic-baseline", benchmark="rubis", platform="warp",
        topologies=[Topology(1, 1, 1)],
        workloads=expand_range(100, 600, workload_step),
        write_ratios=expand_range(0.0, 0.9, ratio_step),
        app_server="weblogic", scale=scale, seed=seed,
    )
    runner = make_runner("warp", "rubis", app_server="weblogic",
                         cluster=cluster, node_count=12, tracer=tracer)
    results = runner.run_experiment(experiment, jobs=jobs,
                                    fidelity=fidelity)
    surface = analysis.response_surface(results, "1-1-1", value="response")
    rendered = report.render_surface(
        "Figure 3. RUBiS on Weblogic response time (ms), 1-1-1 on Warp",
        surface,
    )
    return FigureResult("figure3", "RUBiS on Weblogic response time",
                        surface, rendered, results, tbl)


# ---------------------------------------------------------------------------
# Figure 4: RUBBoS baseline (Emulab, 1-1-1, two mixes).
# ---------------------------------------------------------------------------

def figure4(scale=BENCH_SCALE, workload_step=500, cluster=None, seed=42,
            jobs=1, tracer=None, fidelity=DES):
    """Figure 4: RUBBoS 100% read vs 85/15, 500..5000 users (IV.C)."""
    experiment, tbl = build_experiment(
        name="rubbos-baseline", benchmark="rubbos", platform="emulab",
        topologies=[Topology(1, 1, 1)],
        workloads=expand_range(500, 5000, workload_step),
        write_ratios=(0.0, 0.15),
        scale=scale, seed=seed,
    )
    runner = make_runner("emulab", "rubbos", cluster=cluster,
                         node_count=12, tracer=tracer)
    results = runner.run_experiment(experiment, jobs=jobs,
                                    fidelity=fidelity)
    readonly = analysis.response_time_series(results, "1-1-1",
                                             write_ratio=0.0)
    mixed = analysis.response_time_series(results, "1-1-1",
                                          write_ratio=0.15)
    data = {"100% read": readonly, "85% read / 15% write": mixed}
    rendered = report.render_multi_series(
        "Figure 4. RUBBoS baseline response time (ms), 1-1-1 on Emulab",
        data,
    )
    return FigureResult("figure4", "RUBBoS baseline response time",
                        data, rendered, results, tbl)


# ---------------------------------------------------------------------------
# Figures 5 and 6: RUBiS on JOnAS scale-out (Emulab, wr = 15%).
# ---------------------------------------------------------------------------

def _scaleout(name, app_range, db_range, workloads, scale, cluster, seed,
              jobs=1, tracer=None, fidelity=DES):
    experiment, tbl = build_experiment(
        name=name, benchmark="rubis", platform="emulab",
        topologies=list(topology_grid(1, app_range, db_range)),
        workloads=workloads, write_ratios=(0.15,),
        scale=scale, seed=seed,
    )
    runner = make_runner("emulab", "rubis", cluster=cluster, node_count=36,
                         tracer=tracer)
    return runner.run_experiment(experiment, jobs=jobs,
                                 fidelity=fidelity), tbl


def figure5(scale=BENCH_SCALE, workload_step=300, max_workload=2100,
            cluster=None, seed=42, jobs=1, tracer=None, fidelity=DES):
    """Figure 5: scale-out response time, 2-8 app x 1-3 db servers."""
    results, tbl = _scaleout(
        "rubis-scaleout-2to8", range(2, 9), range(1, 4),
        expand_range(300, max_workload, workload_step), scale, cluster,
        seed, jobs=jobs, tracer=tracer, fidelity=fidelity,
    )
    data = {
        topology: analysis.response_time_series(results, topology)
        for topology in sorted({r.topology_label for r in results})
    }
    rendered = report.render_multi_series(
        "Figure 5. RUBiS on JOnAS scale-out response time (ms), "
        "2-8 app servers x 1-3 DB servers, wr=15%",
        data,
    )
    return FigureResult("figure5", "RUBiS scale-out RT (2-8 app)",
                        data, rendered, results, tbl)


def figure6(scale=BENCH_SCALE, workload_step=400, cluster=None, seed=42,
            jobs=1, tracer=None, fidelity=DES):
    """Figure 6: scale-out response time, 8-12 app x 1-3 db servers."""
    results, tbl = _scaleout(
        "rubis-scaleout-8to12", range(8, 13), range(1, 4),
        expand_range(1700, 2900, workload_step), scale, cluster, seed,
        jobs=jobs, tracer=tracer, fidelity=fidelity,
    )
    data = {
        topology: analysis.response_time_series(results, topology)
        for topology in sorted({r.topology_label for r in results})
    }
    rendered = report.render_multi_series(
        "Figure 6. RUBiS on JOnAS scale-out response time (ms), "
        "8-12 app servers x 1-3 DB servers, wr=15%",
        data,
    )
    return FigureResult("figure6", "RUBiS scale-out RT (8-12 app)",
                        data, rendered, results, tbl)


# ---------------------------------------------------------------------------
# Figures 7 and 8: database-tier scale-out detail.
# ---------------------------------------------------------------------------

def run_db_scaleout(scale=BENCH_SCALE, workload_step=300, cluster=None,
                    seed=42, jobs=1, tracer=None, fidelity=DES):
    """The Figure 7/8 sweep: the five configurations the paper plots."""
    topologies = [Topology(1, 8, 1), Topology(1, 8, 2), Topology(1, 8, 3),
                  Topology(1, 12, 2), Topology(1, 12, 3)]
    experiment, tbl = build_experiment(
        name="rubis-db-scaleout", benchmark="rubis", platform="emulab",
        topologies=topologies,
        workloads=expand_range(1100, 2900, workload_step),
        write_ratios=(0.15,), scale=scale, seed=seed,
    )
    runner = make_runner("emulab", "rubis", cluster=cluster, node_count=36,
                         tracer=tracer)
    return runner.run_experiment(experiment, jobs=jobs,
                                 fidelity=fidelity), tbl


def figure7(scale=BENCH_SCALE, workload_step=300, results=None, tbl="",
            cluster=None, seed=42, jobs=1, tracer=None, fidelity=DES):
    """Figure 7: response-time differences between DB configurations."""
    if results is None:
        results, tbl = run_db_scaleout(scale, workload_step, cluster, seed,
                                       jobs=jobs, tracer=tracer,
                                       fidelity=fidelity)
    data = {
        "1DB-2DB (8 app)": analysis.response_time_difference(
            results, "1-8-1", "1-8-2"),
        "2DB-3DB (8 app)": analysis.response_time_difference(
            results, "1-8-2", "1-8-3"),
        "2DB-3DB (12 app)": analysis.response_time_difference(
            results, "1-12-2", "1-12-3"),
    }
    rendered = report.render_multi_series(
        "Figure 7. RUBiS scale-out response-time difference (ms) "
        "between DB configurations", data,
    )
    return FigureResult("figure7", "DB-config response-time differences",
                        data, rendered, results, tbl)


def figure8(scale=BENCH_SCALE, workload_step=300, results=None, tbl="",
            cluster=None, seed=42, jobs=1, tracer=None, fidelity=DES):
    """Figure 8: DB-tier CPU utilization, the three critical cases.

    The paper's three curves show "gradual saturation of the database
    servers' CPU utilization at 1700 users (1 server) and 2700 users
    (2 servers) ... the third curve shows the non-saturation" — i.e.
    1-8-1, 1-12-2 and 1-12-3 (with 12 app servers the app tier no
    longer caps the load before the DB knees).
    """
    if results is None:
        results, tbl = run_db_scaleout(scale, workload_step, cluster, seed,
                                       jobs=jobs, tracer=tracer,
                                       fidelity=fidelity)
    data = {
        topology: analysis.db_cpu_series(results, topology)
        for topology in ("1-8-1", "1-12-2", "1-12-3")
    }
    rendered = report.render_multi_series(
        "Figure 8. RUBiS scale-out DB-tier CPU utilization (%)",
        data, y_format="{:>10.0f}",
    )
    return FigureResult("figure8", "DB-tier CPU utilization",
                        data, rendered, results, tbl)


# ---------------------------------------------------------------------------
# Table 6: improvement of adding app vs DB servers at 500 users.
# ---------------------------------------------------------------------------

def table6(scale=BENCH_SCALE, cluster=None, seed=42, workload=500,
           jobs=1, tracer=None, fidelity=DES):
    """Table 6: % RT improvement from 1-1-1 at 500 users (V.B)."""
    topologies = [Topology(1, 1, 1), Topology(1, 2, 1), Topology(1, 3, 1),
                  Topology(1, 4, 1), Topology(1, 1, 2), Topology(1, 1, 3)]
    experiment, tbl = build_experiment(
        name="rubis-table6", benchmark="rubis", platform="emulab",
        topologies=topologies, workloads=(workload,), write_ratios=(0.15,),
        scale=scale, seed=seed,
    )
    runner = make_runner("emulab", "rubis", cluster=cluster, node_count=12,
                         tracer=tracer)
    results = runner.run_experiment(experiment, jobs=jobs,
                                    fidelity=fidelity)
    table = analysis.improvement_table(
        results, "1-1-1", workload, 0.15,
        app_range=range(2, 5), db_range=range(2, 4),
    )
    rendered = report.render_improvement_table(
        f"Table 6. % response-time improvement over 1-1-1 at "
        f"{workload} users (wr=15%)", table,
    )
    return FigureResult("table6", "Improvement of adding servers",
                        table, rendered, results, tbl)


# ---------------------------------------------------------------------------
# Table 7: average throughput per configuration and load.
# ---------------------------------------------------------------------------

def table7(scale=BENCH_SCALE, workload_step=100, cluster=None, seed=42,
           jobs=1, tracer=None, fidelity=DES):
    """Table 7: throughput for 1-2-1..1-4-3, loads 300..1000 (V.B)."""
    topologies = list(topology_grid(1, range(2, 5), range(1, 4)))
    workloads = expand_range(300, 1000, workload_step)
    experiment, tbl = build_experiment(
        name="rubis-table7", benchmark="rubis", platform="emulab",
        topologies=topologies, workloads=workloads, write_ratios=(0.15,),
        scale=scale, seed=seed,
    )
    runner = make_runner("emulab", "rubis", cluster=cluster, node_count=12,
                         tracer=tracer)
    results = runner.run_experiment(experiment, jobs=jobs,
                                    fidelity=fidelity)
    table = analysis.throughput_table(
        results, [t.label() for t in topologies], workloads,
    )
    rendered = report.render_throughput_table(
        "Table 7. RUBiS measured average throughput (req/s); "
        "'-' marks trials that could not complete", table,
    )
    return FigureResult("table7", "RUBiS throughput table",
                        table, rendered, results, tbl)


# ---------------------------------------------------------------------------
# Supplemental experiments the paper ran but did not plot.
# ---------------------------------------------------------------------------

def supplemental_rubbos_scaleout(scale=BENCH_SCALE, workload_step=500,
                                 cluster=None, seed=42, jobs=1,
                                 tracer=None, fidelity=DES):
    """RUBBoS scale-out on its bottleneck, the database tier.

    The conclusion mentions "the scale-out experiments ... for RUBBoS
    also on the bottleneck the database server" without a figure.  With
    the read-only mix, RAIDb-1 read-balancing scales almost linearly
    (no writes to replicate): the 2000-user single-DB knee moves to
    ~4000 with two replicas.
    """
    experiment, tbl = build_experiment(
        name="rubbos-db-scaleout", benchmark="rubbos", platform="emulab",
        topologies=[Topology(1, 1, 1), Topology(1, 1, 2),
                    Topology(1, 1, 3)],
        workloads=expand_range(1000, 4500, workload_step),
        write_ratios=(0.0,), scale=scale, seed=seed,
    )
    runner = make_runner("emulab", "rubbos", cluster=cluster,
                         node_count=14, tracer=tracer)
    results = runner.run_experiment(experiment, jobs=jobs,
                                    fidelity=fidelity)
    data = {
        topology: analysis.response_time_series(results, topology)
        for topology in ("1-1-1", "1-1-2", "1-1-3")
    }
    rendered = report.render_multi_series(
        "Supplemental: RUBBoS DB scale-out response time (ms), "
        "read-only mix", data,
    )
    return FigureResult("supplemental_rubbos_scaleout",
                        "RUBBoS DB scale-out", data, rendered, results,
                        tbl)


def supplemental_weblogic_scaleout(scale=BENCH_SCALE, workload_step=300,
                                   cluster=None, seed=42, jobs=1,
                                   tracer=None, fidelity=DES):
    """Scale-out RUBiS on Weblogic (Table 3's fourth experiment set).

    The paper ran 1-2-1 .. 1-6-2 on Warp; with two CPUs per node each
    Weblogic server carries ~490 users, so the app-tier ladder climbs
    twice as fast as JOnAS's.
    """
    experiment, tbl = build_experiment(
        name="rubis-weblogic-scaleout", benchmark="rubis",
        platform="warp",
        topologies=list(topology_grid(1, range(2, 7), range(1, 3))),
        workloads=expand_range(300, 2700, workload_step),
        write_ratios=(0.15,), app_server="weblogic", scale=scale,
        seed=seed,
    )
    runner = make_runner("warp", "rubis", app_server="weblogic",
                         cluster=cluster, node_count=14, tracer=tracer)
    results = runner.run_experiment(experiment, jobs=jobs,
                                    fidelity=fidelity)
    data = {
        topology: analysis.response_time_series(results, topology)
        for topology in sorted({r.topology_label for r in results})
    }
    rendered = report.render_multi_series(
        "Supplemental: RUBiS on Weblogic scale-out response time (ms), "
        "2-6 app servers x 1-2 DB servers (Warp), wr=15%", data,
    )
    return FigureResult("supplemental_weblogic_scaleout",
                        "Weblogic scale-out", data, rendered, results,
                        tbl)


# ---------------------------------------------------------------------------
# Tables 1 and 2: software and hardware catalogs.
# ---------------------------------------------------------------------------

def table1():
    """Table 1: summary of software configurations, from the catalog."""
    from repro.spec import catalog
    lines = ["Table 1. Summary of software configurations",
             f"{'benchmark':<10} {'tier':<6} {'package':<10} "
             f"{'version':<14} {'daemon':<22}"]
    rows = []
    for benchmark, stack in sorted(catalog.BENCHMARK_STACKS.items()):
        for tier in ("web", "app", "db"):
            for name in stack.get(tier, ()):
                package = catalog.get_package(name)
                rows.append((benchmark, tier, package))
                lines.append(
                    f"{benchmark:<10} {tier:<6} {package.name:<10} "
                    f"{package.version:<14} {package.daemon:<22}"
                )
    return FigureResult("table1", "Software configurations", rows,
                        "\n".join(lines))


def table2():
    """Table 2: summary of hardware platforms, from the catalog."""
    from repro.spec import catalog
    lines = ["Table 2. Summary of hardware platforms",
             f"{'platform':<9} {'node type':<13} {'description':<58}"]
    rows = []
    for name, platform in sorted(catalog.PLATFORMS.items()):
        for type_name, node_type in sorted(platform.node_types.items()):
            rows.append((name, node_type))
            lines.append(
                f"{name:<9} {type_name:<13} {node_type.describe():<58}"
            )
        lines.append(f"{'':9} {'os':<13} {platform.os_name}, "
                     f"kernel {platform.kernel}")
    return FigureResult("table2", "Hardware platforms", rows,
                        "\n".join(lines))


# ---------------------------------------------------------------------------
# Tables 3-5: management-scale accounting (generation, no execution).
# ---------------------------------------------------------------------------

def _generation_set(name, benchmark, platform, topologies, workloads,
                    write_ratios, app_server=None, db_node_type=None):
    experiment, _tbl = build_experiment(
        name=name, benchmark=benchmark, platform=platform,
        topologies=topologies, workloads=workloads,
        write_ratios=write_ratios, app_server=app_server,
        db_node_type=db_node_type,
    )
    model = load_resource_model(render_resource_mof(
        benchmark, platform, app_server=app_server,
    ))
    mulini = Mulini(model)
    script_lines = config_lines = files = machines = 0
    bundles = 0
    estimated_bytes = 0
    for topology, workload, _ratio, bundle in \
            mulini.generate_sweep(experiment):
        script_lines += bundle.script_line_total()
        config_lines += bundle.config_line_total()
        files += bundle.file_count()
        machines += topology.machine_count()
        bundles += 1
        estimated_bytes += estimate_collected_bytes(experiment, topology,
                                                    workload)
    return {
        "set": name,
        "experiments": bundles,
        "script_lines": script_lines,
        "config_lines": config_lines,
        "generated_files": files,
        "machine_count": machines,
        "collected_mb": estimated_bytes / 1e6,
    }


def estimate_collected_bytes(experiment, topology, workload):
    """Estimated monitor + driver data volume for one trial.

    sysstat: one line of ~22 bytes per metric per interval per monitored
    host; driver log: ~45 bytes per request at roughly N/Z requests per
    second over the run period.  Used by the Table 3 reproduction, where
    executing the full paper-scale sweeps is generation-bound.
    """
    hosts = topology.total_servers() + 1          # + client
    duration = experiment.trial.total()
    samples = duration / experiment.monitor.interval
    sysstat_bytes = hosts * samples * len(experiment.monitor.metrics) * 22
    request_rate = workload / experiment.think_time
    driver_bytes = request_rate * experiment.trial.run * 45
    return int(sysstat_bytes + driver_bytes)


def table3(paper_scale=True):
    """Table 3: the management scale of the four experiment sets.

    Generates every bundle of every sweep point (no execution) and sums
    the script/config lines, file and machine counts; data volume is
    estimated per trial (see :func:`estimate_collected_bytes`).
    """
    step = 50 if paper_scale else 100
    sets = [
        _generation_set(
            "Baseline RUBiS on JOnAS", "rubis", "emulab",
            [Topology(1, 1, 1)], expand_range(50, 250, step),
            expand_range(0.0, 0.9, 0.1), db_node_type="emulab_low",
        ),
        _generation_set(
            "Baseline RUBiS on Weblogic", "rubis", "warp",
            [Topology(1, 1, 1)], expand_range(100, 600, step),
            expand_range(0.0, 0.9, 0.1), app_server="weblogic",
        ),
        _generation_set(
            "Scale-out RUBiS on JOnAS", "rubis", "emulab",
            list(topology_grid(1, range(2, 13), range(1, 4))),
            expand_range(300, 2900, 200 if paper_scale else 400),
            (0.15,),
        ),
        _generation_set(
            "Scale-out RUBiS on Weblogic", "rubis", "warp",
            list(topology_grid(1, range(2, 7), range(1, 3))),
            expand_range(300, 1500, 200 if paper_scale else 400),
            (0.15,), app_server="weblogic",
        ),
    ]
    rendered = report.render_management_scale(
        "Table 3. Scale of experiments run (regenerated)", sets,
    )
    return FigureResult("table3", "Scale of experiments", sets, rendered)


def table4(topology=Topology(1, 2, 2)):
    """Table 4: example generated scripts with line counts (1-2-2)."""
    model = load_resource_model(render_resource_mof("rubis", "emulab"))
    mulini = Mulini(model)
    experiment, _tbl = build_experiment(
        name="rubis-table4", benchmark="rubis", platform="emulab",
        topologies=[topology], workloads=(500,), write_ratios=(0.15,),
    )
    bundle = mulini.generate(experiment, topology, 500, 0.15)
    interesting = [
        ("run.sh", "Calls all the other subscripts to install, configure "
                   "and execute a RUBiS experiment"),
        ("scripts/TOMCAT1_install.sh", "Installs Tomcat server #1"),
        ("scripts/TOMCAT1_configure.sh", "Configures Tomcat server #1"),
        ("scripts/TOMCAT1_ignition.sh", "Starts Tomcat server #1"),
        ("scripts/TOMCAT1_stop.sh", "Stops Tomcat server #1"),
        ("scripts/SYS_MON_APP1_install.sh",
         "Installs system monitoring tools on app server #1"),
        ("scripts/SYS_MON_APP1_ignition.sh",
         "Starts system monitoring tools on app server #1"),
    ]
    entries = [(name, bundle.line_count(name), comment)
               for name, comment in interesting]
    rendered = report.render_bundle_table(
        "Table 4. Examples of generated scripts (1-2-2 configuration)",
        entries,
    )
    return FigureResult("table4", "Examples of generated scripts",
                        {"entries": entries, "bundle": bundle}, rendered)


def table5(topology=Topology(1, 2, 2)):
    """Table 5: example configuration files modified by Mulini (1-2-2)."""
    model = load_resource_model(render_resource_mof("rubis", "emulab"))
    mulini = Mulini(model)
    experiment, _tbl = build_experiment(
        name="rubis-table5", benchmark="rubis", platform="emulab",
        topologies=[topology], workloads=(500,), write_ratios=(0.15,),
    )
    bundle = mulini.generate(experiment, topology, 500, 0.15)
    interesting = [
        ("config/APACHE1_workers2.properties",
         "Configures Apache to connect to application server tier"),
        ("config/CJDBC1_mysqldb-raidb1-elba.xml",
         "Configures C-JDBC controller to connect to databases"),
        ("config/JONAS1_monitor-local.properties",
         "Configures the application-level probe monitor"),
    ]
    entries = [(name, bundle.line_count(name), comment)
               for name, comment in interesting]
    rendered = report.render_bundle_table(
        "Table 5. Examples of configuration files modified (1-2-2)",
        entries,
    )
    return FigureResult("table5", "Examples of configuration files",
                        {"entries": entries, "bundle": bundle}, rendered)
