"""Verifier/scorer: rank candidate patches, judge their shadow trials.

DiPerF's lesson is that evaluating a candidate fix is itself a
measurement campaign; this module is the *judgement* half of that
campaign.  The pipeline runs the shadow trials (analytic pre-screens,
DES confirmations) through the ordinary scheduler machinery; here live
the pure functions that turn those observations into a ranking and an
accept/reject decision — pure so a resumed heal, re-reading the same
stored trials, reaches byte-identical verdicts.

Scoring is expected improvement over trial cost:

- a tier promotion's gain is how far the analytically *predicted*
  supported load moves toward the heal target;
- a fault-strip or quarantine-release's gain is the whole gap between
  the measured baseline and the target (the fault, not capacity, is
  what's in the way);
- cost is 1 plus the servers a promotion adds plus the DES
  confirmation trials the candidate needs.

The verifier never trusts the analytic tier with the final word: a
candidate is *confirmed* only when its DES shadow trials complete
within the SLO and strictly improve on the measured baseline at the
diagnosed rung.
"""

from __future__ import annotations

from itertools import takewhile

from repro.core.bottleneck import ladders, slo_violated


def progression_supported(results, slo, target=None):
    """Largest workload supported by an *unbroken* passing ladder.

    Unlike ``PerformanceMap.supported_users`` (the max passing rung
    regardless of holes), healing cares about progression: a ladder
    that fails at u=100 but passes at u=400 is not "supporting 400
    users" — its low rungs are broken, which is exactly what heal must
    notice.  Returns the best such workload across all ``(topology,
    write_ratio)`` ladders in *results*, or 0 when even the first rung
    fails.
    """
    return max((result.workload
                for ladder in ladders(results, target).values()
                for result in takewhile(
                    lambda r: not slo_violated(r, slo), ladder)),
               default=0)


def improves(candidate_result, baseline_result, slo):
    """Did the shadow trial beat the measured baseline at this rung?

    The candidate must itself satisfy the SLO; given that, a missing
    or SLO-violating baseline is beaten by definition, and a passing
    baseline must be beaten on throughput.
    """
    if slo_violated(candidate_result, slo):
        return False
    if baseline_result is None or slo_violated(baseline_result, slo):
        return True
    return (candidate_result.metrics.throughput
            > baseline_result.metrics.throughput)


class Verdict:
    """One candidate's rank entry: gain, cost, score, confirmation."""

    def __init__(self, candidate, seq, *, gain, cost,
                 predicted_supported=None):
        self.candidate = candidate
        self.seq = seq
        self.gain = gain
        self.cost = cost
        self.score = round(gain / cost, 6) if cost else 0.0
        self.predicted_supported = predicted_supported
        self.confirmed = False
        self.confirm_detail = ""

    def to_dict(self):
        data = {
            "candidate": self.candidate.to_dict(),
            "gain": round(self.gain, 6),
            "cost": self.cost,
            "score": self.score,
            "confirmed": self.confirmed,
        }
        if self.predicted_supported is not None:
            data["predicted_supported"] = self.predicted_supported
        if self.confirm_detail:
            data["confirm_detail"] = self.confirm_detail
        return data


def score_candidates(candidates, *, baseline_supported, target,
                     predictions=None, confirm_points=1):
    """Rank *candidates* by expected improvement per unit trial cost.

    *predictions* maps a candidate's index to its analytically
    predicted supported workload (promotions only — host patches fix a
    fault the analytic tier cannot even see, since faults fire only at
    DES fire points).  Returns :class:`Verdict` objects sorted best
    first; ties break on proposal order, keeping the ranking a pure
    function of the candidate list.
    """
    predictions = predictions or {}
    span = max(target, 1)
    verdicts = []
    for seq, candidate in enumerate(candidates):
        predicted = predictions.get(seq)
        if predicted is not None:
            gain = max(predicted - baseline_supported, 0) / span
        else:
            gain = max(target - baseline_supported, 0) / span
        cost = 1 + candidate.added_servers + confirm_points
        verdicts.append(Verdict(candidate, seq, gain=gain, cost=cost,
                                predicted_supported=predicted))
    verdicts.sort(key=lambda v: (-v.score, v.seq))
    return verdicts
