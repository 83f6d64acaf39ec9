"""Expectation checking: did the observation land in the asserted range?

A scenario's ``expects`` dict is the executable half of its
description.  :func:`check_expectations` turns stored trial rows back
into the scenario's verdicts — SLO knee, violation flag, peak open-loop
backlog — and returns human-readable failures for every range missed.
An empty list is the pass signal the CLI and the CI smoke job key off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bottleneck import last_pass, slo_violated
from repro.spec.tbl.ast import ServiceLevelObjective


def scenario_slo(scenario):
    """The :class:`ServiceLevelObjective` a scenario's trials face."""
    return ServiceLevelObjective(
        response_time=scenario.slo_response_ms / 1000.0,
        error_ratio=scenario.slo_error_ratio,
    )


def measured_knee(results, slo):
    """The largest workload whose trial met the SLO (0: none did).

    The paper reads knees off increasing-workload ladders; this is the
    same read on stored rows, usable on any database the scenario's
    trials landed in.
    """
    return last_pass(results, slo) or 0


def check_expectations(scenario, results):
    """Failure strings for every expectation *results* missed.

    *results* are the scenario's stored :class:`TrialResult` rows
    (``database.query(scenario=name)``).  Returns ``[]`` when every
    asserted range holds.
    """
    if not results:
        return [f"{scenario.name}: no trials recorded"]
    failures = []
    expects = scenario.expects
    slo = scenario_slo(scenario)
    knee = measured_knee(results, slo)
    if "knee_min" in expects and knee < expects["knee_min"]:
        failures.append(
            f"{scenario.name}: knee at {knee} users, expected "
            f">= {expects['knee_min']}")
    if "knee_max" in expects and knee > expects["knee_max"]:
        failures.append(
            f"{scenario.name}: knee at {knee} users, expected "
            f"<= {expects['knee_max']}")
    if "slo_violation" in expects:
        violated = any(slo_violated(r, slo) for r in results)
        if violated != bool(expects["slo_violation"]):
            failures.append(
                f"{scenario.name}: expected "
                f"{'an' if expects['slo_violation'] else 'no'} SLO "
                f"violation, observed "
                f"{'one' if violated else 'none'}")
    if "max_backlog_min" in expects:
        backlog = max((r.metrics.backlog for r in results), default=0)
        if backlog < expects["max_backlog_min"]:
            failures.append(
                f"{scenario.name}: peak backlog {backlog}, expected "
                f">= {expects['max_backlog_min']}")
    return failures


@dataclass
class ScenarioOutcome:
    """What ``repro scenarios run`` hands back: the campaign report
    plus the expectation verdicts."""

    scenario: object
    report: object
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def describe(self):
        lines = [f"scenario {self.scenario.name}: "
                 f"{'expectations met' if self.ok else 'FAILED'}"]
        lines.extend(f"  {failure}" for failure in self.failures)
        return "\n".join(lines)
