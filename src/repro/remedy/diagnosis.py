"""Detector: fold observations into typed diagnoses.

The paper's thesis is that the observed resource and application
metrics are enough to *locate* an n-tier system's bottleneck; this
module is that location step made explicit.  A :class:`Detector` reads
a slice of recorded trials — nothing live, nothing sampled — and folds
three observation planes into :class:`Diagnosis` records:

- CPU saturation from :func:`repro.core.bottleneck.detect_bottleneck`
  (the paper's "which tier ran out first" question),
- injected-fault blame riding on DNF trials' ``failures`` rows (the
  fault plane's attribution of *why* a trial could not complete),
- quarantine sentences the runner pronounced on repeatedly-blamed
  hosts (also from ``failures`` — the trial where the sentence fell).

Diagnoses are pure functions of the result rows passed in: same
observations, same diagnoses, in the same order — the property the
byte-identical ``repro heal`` resume contract is built on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bottleneck import (
    SATURATION_CPU_PERCENT,
    detect_bottleneck,
    first_violation,
    ladders,
)
from repro.errors import RemedyError
from repro.experiments.trial import DNF
from repro.faults.retry import QUARANTINED

#: A tier's mean CPU crossed the saturation threshold at the first
#: SLO-violating rung — the paper's classic bottleneck.
SATURATION = "saturation"
#: The first SLO-violating rung is a DNF whose failures blame an
#: injected fault on a specific host.
INJECTED_FAULT = "injected-fault"
#: A host sits in quarantine — capacity the campaign lost.
QUARANTINE = "quarantine"
#: The SLO is violated but neither saturation nor a fault explains it.
SLO_VIOLATION = "slo-violation"


@dataclass(frozen=True)
class Diagnosis:
    """One observed problem, localized enough to act on.

    *kind* is one of :data:`SATURATION`, :data:`INJECTED_FAULT`,
    :data:`QUARANTINE`, :data:`SLO_VIOLATION`.  *topology*,
    *write_ratio* and *workload* pin the sweep point the evidence came
    from; *tier* names the saturated tier (saturation only); *host* and
    *fault_kind* carry fault attribution (injected-fault, quarantine).
    *evidence* is a human-readable one-liner of what was observed.
    """

    kind: str
    experiment: str
    topology: str
    write_ratio: float
    workload: int = None
    tier: str = None
    fault_kind: str = None
    host: str = None
    evidence: str = ""

    def to_dict(self):
        data = {
            "kind": self.kind,
            "experiment": self.experiment,
            "topology": self.topology,
            "write_ratio": self.write_ratio,
            "workload": self.workload,
            "evidence": self.evidence,
        }
        for key, value in (("tier", self.tier),
                           ("fault_kind", self.fault_kind),
                           ("host", self.host)):
            if value is not None:
                data[key] = value
        return data

    def describe(self):
        where = f"{self.topology} wr={self.write_ratio:.0%}"
        if self.workload is not None:
            where += f" u={self.workload}"
        return f"[{self.kind}] {where}: {self.evidence}"


class Detector:
    """Fold trial results into an ordered list of diagnoses.

    *slo* is the experiment's service-level objective; *threshold* the
    CPU saturation percentage; *target* caps the workloads considered
    (rungs above the heal target are not this loop's problem).
    """

    def __init__(self, slo, *, threshold=SATURATION_CPU_PERCENT,
                 target=None):
        self.slo = slo
        self.threshold = threshold
        self.target = target

    def diagnose(self, results):
        """Diagnoses for *results*, deterministically ordered.

        Per ``(topology, write_ratio)`` ladder the *first* violating
        rung is diagnosed — the knee is where the paper looks, and
        everything above it usually shares the same cause.  Quarantine
        diagnoses come from the ``failures`` riding on the results
        themselves (not from the database's historical quarantine
        record), so a healed re-measurement stops re-reporting hosts a
        previous round already dealt with.
        """
        if not results:
            raise RemedyError("no observations to diagnose")
        groups = ladders(results, self.target)
        diagnoses = []
        for ladder in groups.values():
            first_bad = first_violation(ladder, self.slo)
            if first_bad is not None:
                diagnoses.append(self._classify(first_bad))
        diagnoses.extend(self._quarantine_diagnoses(groups))
        return diagnoses

    def _classify(self, result):
        """Why did this rung violate the SLO?"""
        blamed = next((f for f in result.failures if f.fault_kind), None)
        if result.status == DNF and blamed is not None:
            return Diagnosis(
                kind=INJECTED_FAULT,
                experiment=result.experiment_name,
                topology=result.topology_label,
                write_ratio=result.write_ratio,
                workload=result.workload,
                fault_kind=blamed.fault_kind,
                host=blamed.host,
                evidence=(f"DNF after {result.attempts} attempt(s); "
                          f"{blamed.fault_kind} blamed on "
                          f"{blamed.host or 'an unknown host'}"),
            )
        tier = detect_bottleneck(result, self.threshold)
        if tier is not None:
            utilization = max(
                cpu for host, cpu in result.host_cpu.items()
                if result.tier_of_host.get(host) == tier)
            return Diagnosis(
                kind=SATURATION,
                experiment=result.experiment_name,
                topology=result.topology_label,
                write_ratio=result.write_ratio,
                workload=result.workload,
                tier=tier,
                evidence=(f"{tier} tier saturated at "
                          f"{utilization:.0f}% CPU"),
            )
        return Diagnosis(
            kind=SLO_VIOLATION,
            experiment=result.experiment_name,
            topology=result.topology_label,
            write_ratio=result.write_ratio,
            workload=result.workload,
            evidence=(f"SLO violated ({result.status}, mean response "
                      f"{result.metrics.mean_response_s * 1000:.0f} ms, "
                      f"error ratio {result.metrics.error_ratio:.3f}) "
                      f"with no saturated tier"),
        )

    def _quarantine_diagnoses(self, groups):
        """One diagnosis per host the *groups* ladders quarantined."""
        sentenced = {}
        for ladder in groups.values():
            for result in ladder:
                for failure in result.failures:
                    if failure.resolution != QUARANTINED:
                        continue
                    sentenced.setdefault(failure.host, (result, failure))
        diagnoses = []
        for host in sorted(sentenced):
            result, failure = sentenced[host]
            cause = failure.cause or "repeatedly blamed"
            prefix = f"host {host} quarantined: "
            if cause.startswith(prefix):      # sentence text repeats it
                cause = cause[len(prefix):]
            diagnoses.append(Diagnosis(
                kind=QUARANTINE,
                experiment=result.experiment_name,
                topology=result.topology_label,
                write_ratio=result.write_ratio,
                workload=result.workload,
                fault_kind=failure.fault_kind,
                host=host,
                evidence=f"host {host} quarantined: {cause}",
            ))
        return diagnoses
