"""Bottleneck detection from observed monitor data.

"When a bottleneck is found (e.g., by the observation of response times
longer than specified by service level objectives), we use Mulini to
generate new experiments with larger configurations" (Section II).  The
detector reads the same per-tier CPU figures the sysstat pipeline
collected — observation, not modelling.

The SLO verdict is stated here once (:func:`slo_violated`), with the
ladder readings every knee read from stored rows is built on:
:func:`ladders`, :func:`first_violation` and :func:`last_pass`.
"""

from __future__ import annotations

from repro.errors import ExperimentError

#: A tier is considered saturated above this mean CPU utilization.
SATURATION_CPU_PERCENT = 85.0

#: Tiers eligible for scale-out (clients are not a system resource).
SCALABLE_TIERS = ("web", "app", "db")


def tier_utilizations(result):
    """{tier: mean CPU %} for the scalable tiers of one trial."""
    return {tier: result.tier_cpu(tier) for tier in SCALABLE_TIERS
            if any(t == tier for t in result.tier_of_host.values())}


def detect_bottleneck(result, threshold=SATURATION_CPU_PERCENT):
    """The saturated tier of one trial, or None.

    When several tiers exceed the threshold the most utilized one is
    reported — it is the one whose scale-out moves the knee.
    """
    utilizations = tier_utilizations(result)
    saturated = {tier: cpu for tier, cpu in utilizations.items()
                 if cpu >= threshold}
    if not saturated:
        return None
    return max(saturated, key=saturated.get)


def colocation_of(result):
    """``{vm host: (physical, [cotenants])}`` parsed back out of a
    trial's observation rows.

    Consolidated trials record one synthetic ``host_cpu`` row per
    tenant, named ``<physical>/<member>`` with tier ``physical`` (see
    the runner's ``_surface_colocation``) — membership rides the
    observation tables, so attribution works on a loaded database with
    no access to the cluster that ran the trial.  Dedicated trials
    return ``{}``.
    """
    members = {}                      # physical -> [member, ...]
    for host, tier in sorted(result.tier_of_host.items()):
        if tier != "physical" or "/" not in host:
            continue
        physical, member = host.split("/", 1)
        members.setdefault(physical, []).append(member)
    placement = {}
    for physical, tenants in members.items():
        for member in tenants:
            placement[member] = (
                physical, [m for m in tenants if m != member])
    return placement


def interference_attribution(result, threshold=SATURATION_CPU_PERCENT):
    """Saturated hosts whose pressure is (partly) a cotenant's fault.

    Returns ``[{host, physical, cotenants, cpu}, ...]`` for every
    consolidated host at or above *threshold* — the scenario plane's
    answer to "is this tier slow, or is its neighbour loud?".
    """
    placement = colocation_of(result)
    attributions = []
    for host, (physical, cotenants) in placement.items():
        cpu = result.host_cpu.get(host)
        if cpu is None or cpu < threshold or not cotenants:
            continue
        attributions.append({
            "host": host,
            "physical": physical,
            "cotenants": cotenants,
            "cpu": cpu,
        })
    return attributions


def slo_violated(result, slo):
    """SLO check on a trial: response time or error budget exceeded.

    A trial that did not finish (DNF) violates by definition: its
    metrics are empty or partial — an empty
    :func:`~repro.experiments.trial.empty_metrics` record would
    otherwise read as a 0 ms response time and *pass* — and a
    configuration that cannot complete the benchmark certainly does not
    meet its service level objective.
    """
    if not result.completed:
        return True
    return (result.metrics.mean_response_s > slo.response_time
            or result.metrics.error_ratio > slo.error_ratio)


def ladders(results, target=None):
    """``{(topology_label, write_ratio): ladder}`` over *results*.

    A ladder is one group's results sorted by ``(workload, seed)``, so a
    point's repetitions sit side by side in seed order; the groups
    iterate in sorted-key order.  Rungs above *target* are dropped.
    """
    groups = {}
    for result in results:
        if target is not None and result.workload > target:
            continue
        key = (result.topology_label, result.write_ratio)
        groups.setdefault(key, []).append(result)
    return {key: sorted(groups[key], key=lambda r: (r.workload, r.seed))
            for key in sorted(groups)}


def first_violation(ladder, slo):
    """The first result of *ladder* that violates *slo*, or None."""
    return next((r for r in ladder if slo_violated(r, slo)), None)


def last_pass(results, slo):
    """The largest workload among *results* that meets *slo*, or None."""
    return max((r.workload for r in results if not slo_violated(r, slo)),
               default=None)


def diagnose(result, slo, threshold=SATURATION_CPU_PERCENT):
    """A structured observation for one trial.

    Returns a dict with the SLO verdict, the saturated tier (if any)
    and per-tier utilizations — the record the scale-out strategy acts
    on.
    """
    bottleneck = detect_bottleneck(result, threshold)
    violated = slo_violated(result, slo)
    verdict = {
        "topology": result.topology_label,
        "workload": result.workload,
        "status": result.status,
        "slo_violated": violated,
        "bottleneck": bottleneck,
        "utilizations": tier_utilizations(result),
        "response_time_ms": result.response_time_ms(),
        "error_ratio": result.metrics.error_ratio,
    }
    interference = interference_attribution(result, threshold)
    if interference:
        verdict["interference"] = interference
    return verdict


def bottleneck_progression(results, slo, threshold=SATURATION_CPU_PERCENT):
    """Diagnose an increasing-workload series; returns the first
    violating diagnosis (with its bottleneck) or None if the whole
    series met the SLO.
    """
    ordered = sorted(results, key=lambda r: r.workload)
    if not ordered:
        raise ExperimentError("no results to diagnose")
    first = first_violation(ordered, slo)
    return None if first is None else diagnose(first, slo, threshold)
