"""Analysis over observed trials: the shapes behind each figure/table.

Every function consumes :class:`TrialResult` lists (usually from the
results database) and produces plain data structures; rendering to text
lives in ``report.py``.
"""

from __future__ import annotations

from repro.errors import ResultsError
from repro.experiments.trial import DNF


def _indexed(results):
    index = {}
    for result in results:
        index[result.key()] = result
    return index


def _only(results, **filters):
    kept = results
    if "topology" in filters:
        kept = [r for r in kept
                if r.topology_label == filters["topology"]]
    if "write_ratio" in filters:
        target = filters["write_ratio"]
        kept = [r for r in kept if abs(r.write_ratio - target) < 1e-9]
    if "workload" in filters:
        kept = [r for r in kept if r.workload == filters["workload"]]
    return kept


def response_time_series(results, topology, write_ratio=None):
    """[(workload, mean RT ms)] for one topology (Figures 4-6 lines)."""
    rows = _only(results, topology=topology)
    if write_ratio is not None:
        rows = _only(rows, write_ratio=write_ratio)
    rows.sort(key=lambda r: r.workload)
    return [(r.workload, r.response_time_ms()) for r in rows]


def response_surface(results, topology, value="response"):
    """{(workload, write_ratio): value} — Figures 1-3 surfaces.

    ``value`` selects mean response time in ms (``response``) or the
    app-tier CPU percentage (``app_cpu``, Figure 2).
    """
    surface = {}
    for result in _only(results, topology=topology):
        key = (result.workload, round(result.write_ratio, 6))
        if value == "response":
            surface[key] = result.response_time_ms()
        elif value == "app_cpu":
            surface[key] = result.tier_cpu("app")
        elif value == "db_cpu":
            surface[key] = result.tier_cpu("db")
        else:
            raise ResultsError(f"unknown surface value {value!r}")
    return surface


def response_time_difference(results, topology_a, topology_b,
                             write_ratio=None):
    """[(workload, RT_a - RT_b ms)] at shared workloads (Figure 7)."""
    series_a = dict(response_time_series(results, topology_a, write_ratio))
    series_b = dict(response_time_series(results, topology_b, write_ratio))
    shared = sorted(set(series_a) & set(series_b))
    if not shared:
        raise ResultsError(
            f"no shared workloads between {topology_a} and {topology_b}"
        )
    return [(workload, series_a[workload] - series_b[workload])
            for workload in shared]


def db_cpu_series(results, topology, write_ratio=None):
    """[(workload, mean DB CPU %)] — Figure 8 lines."""
    rows = _only(results, topology=topology)
    if write_ratio is not None:
        rows = _only(rows, write_ratio=write_ratio)
    rows.sort(key=lambda r: r.workload)
    return [(r.workload, r.tier_cpu("db")) for r in rows]


def improvement_table(results, base_topology, workload, write_ratio,
                      app_range, db_range):
    """Table 6: % response-time improvement over the base configuration.

    Returns ``{"app": {k: pct}, "db": {k: pct}}`` where k is the number
    of servers in the grown tier and pct the improvement of growing the
    base to k servers in that tier (holding the other tier at base).
    """
    index = _indexed(results)
    base_key = (base_topology, workload, round(write_ratio, 6))
    base = index.get(base_key)
    if base is None:
        raise ResultsError(f"missing base trial {base_key}")
    base_rt = base.response_time_ms()
    if base_rt <= 0:
        raise ResultsError("base trial has zero response time")
    web, app, db = (int(x) for x in base_topology.split("-"))
    table = {"app": {}, "db": {}}
    for count in app_range:
        key = (f"{web}-{count}-{db}", workload, round(write_ratio, 6))
        if key in index:
            rt = index[key].response_time_ms()
            table["app"][count] = 100.0 * (base_rt - rt) / base_rt
    for count in db_range:
        key = (f"{web}-{app}-{count}", workload, round(write_ratio, 6))
        if key in index:
            rt = index[key].response_time_ms()
            table["db"][count] = 100.0 * (base_rt - rt) / base_rt
    return table


def throughput_table(results, topologies, workloads):
    """Table 7: {topology: {workload: throughput-or-None}}.

    ``None`` marks a DNF trial — the paper's missing squares for
    experiments that could not complete at high load.
    """
    index = _indexed(results)
    table = {}
    for topology in topologies:
        row = {}
        for workload in workloads:
            matches = [r for (t, w, _wr), r in index.items()
                       if t == topology and w == workload]
            if not matches:
                row[workload] = None
                continue
            result = matches[0]
            row[workload] = None if result.status == DNF \
                else result.throughput()
        table[topology] = row
    return table


def saturation_workload(results, topology, slo_response_s,
                        write_ratio=None):
    """Smallest workload whose mean RT violates the SLO, or None.

    This is the capacity-planning read of a scale-out line: "the 1-2-1
    configuration saturates at about 500 users" (V.B).  It is a
    response-time reading: it takes the bare RT bound, ignores the
    error budget and DNF status, and so is not an SLO verdict (that is
    :func:`repro.core.bottleneck.slo_violated`).
    """
    series = response_time_series(results, topology, write_ratio)
    for workload, rt_ms in series:
        if rt_ms > slo_response_s * 1000.0:
            return workload
    return None


def aggregate_repetitions(results):
    """Collapse repeated trials (same point, different seeds).

    Returns ``{point_key: {"n", "mean_rt_ms", "std_rt_ms",
    "mean_throughput", "dnf"}}`` — mean/stddev across repetitions and
    the count of DNF repetitions.  This quantifies the paper's
    observation that CPU-saturated cells "contain significant random
    fluctuations".
    """
    by_point = {}
    for result in results:
        by_point.setdefault(result.key(), []).append(result)
    aggregated = {}
    for key, repetitions in by_point.items():
        rts = [r.response_time_ms() for r in repetitions]
        throughputs = [r.throughput() for r in repetitions]
        n = len(rts)
        mean_rt = sum(rts) / n
        variance = sum((rt - mean_rt) ** 2 for rt in rts) / n
        aggregated[key] = {
            "n": n,
            "mean_rt_ms": mean_rt,
            "std_rt_ms": variance ** 0.5,
            "mean_throughput": sum(throughputs) / n,
            "dnf": sum(1 for r in repetitions if r.status == DNF),
        }
    return aggregated


def management_scale(results_by_set):
    """Table 3 rows: per experiment set, generated-script KLOC, config
    lines, machine count and collected data volume.

    *results_by_set* maps a set name to its TrialResult list.
    """
    rows = []
    for name, results in results_by_set.items():
        if not results:
            raise ResultsError(f"experiment set {name!r} has no trials")
        rows.append({
            "set": name,
            "experiments": len(results),
            "script_lines": sum(r.script_lines for r in results),
            "config_lines": sum(r.config_lines for r in results),
            "generated_files": sum(r.generated_files for r in results),
            "machine_count": sum(r.machine_count for r in results),
            "collected_mb": sum(r.collected_bytes for r in results) / 1e6,
        })
    return rows
