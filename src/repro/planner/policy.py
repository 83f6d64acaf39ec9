"""Experiment-selection policies: which sweep points to try next.

"When a bottleneck is found (e.g., by the observation of response
times longer than specified by service level objectives), we use
Mulini to generate new experiments with larger configurations"
(Section II).  A :class:`Policy` is that sentence as code: given the
:class:`~repro.planner.frontier.ObservationFrontier`, propose the next
batch of points — and nothing else.  Policies never touch wall clocks
or ambient RNG; every proposal is a function of recorded observations,
so the same policy over the same observations emits the same decision
log at any worker count.

Policies may keep internal walk state (the promotion policy's current
rung, the knee policy's concluded groups and judged rungs) because the
adaptive loop replays identically on resume: state only ever derives
from the observations the frontier fed back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bottleneck import (
    SATURATION_CPU_PERCENT,
    detect_bottleneck,
    slo_violated,
)
from repro.errors import ExperimentError
from repro.sim import ANALYTIC, AUTO, DES

#: Decision actions the planner records (the ``planner_decisions``
#: table's vocabulary).
MEASURE = "measure"
PRUNE = "prune"
KNEE = "knee"
NO_KNEE = "no-knee"
PROMOTE = "promote"
STOP = "stop"
CONVERGED = "converged"
BUDGET_EXHAUSTED = "budget-exhausted"

#: The policy names the CLI/meta round-trip accepts.
POLICY_NAMES = ("grid", "knee", "promote", "tiered")


@dataclass
class Decision:
    """One planner decision — one or, for a prune, many rows of the
    decision log.

    *point* carries the live :class:`SweepPoint` for a ``measure``
    decision so the loop can act on it; it never persists (the
    topology/workload/write_ratio columns do) and is excluded from
    equality so logs compare by their recorded content alone.

    A ``prune`` covers a range of one group's ladder: *rungs* is a
    ``range`` of rung indexes into *ladder*, the group's workloads, and
    the decision stands for one log row per rung (:meth:`rows`,
    :meth:`expand`).  So concluding a group costs one decision per run
    of unmeasured rungs, not one per pruned point.

    A plain record, not a frozen one: frozen construction pays one
    ``object.__setattr__`` per field.  So a decision is mutable and
    unhashable; nothing assigns to or hashes one once it is made.
    """

    action: str
    reason: str
    topology: str = None
    workload: int = None
    write_ratio: float = None
    #: which solver tier carries out (or concluded) this decision; part
    #: of the persisted log, so resumed tiered explorations replay the
    #: same analytic/DES split byte for byte.
    fidelity: str = DES
    point: object = field(default=None, compare=False, repr=False)
    rungs: object = field(default=None, compare=False, repr=False)
    ladder: object = field(default=None, compare=False, repr=False)

    @classmethod
    def measure(cls, point, reason, fidelity=DES):
        return cls(action=MEASURE, reason=reason,
                   topology=point.topology.label(),
                   workload=point.workload,
                   write_ratio=point.write_ratio, fidelity=fidelity,
                   point=point)

    @classmethod
    def prune(cls, label, write_ratio, ladder, rungs, reason,
              fidelity=DES):
        """Prune *rungs* (a ``range``) of group *label*/*write_ratio*,
        whose workload ladder is *ladder*."""
        return cls(action=PRUNE, reason=reason, topology=label,
                   write_ratio=write_ratio, fidelity=fidelity,
                   rungs=rungs, ladder=ladder)

    @classmethod
    def note(cls, action, reason, topology=None, workload=None,
             write_ratio=None, fidelity=DES):
        return cls(action=action, reason=reason, topology=topology,
                   workload=workload, write_ratio=write_ratio,
                   fidelity=fidelity)

    def rows(self):
        """The decision's log rows, ``(action, topology, workload,
        write_ratio, reason, fidelity)``; a prune has one per rung."""
        if self.rungs is None:
            return ((self.action, self.topology, self.workload,
                     self.write_ratio, self.reason, self.fidelity),)
        return [(PRUNE, self.topology, workload, self.write_ratio,
                 self.reason, self.fidelity)
                for workload in self.ladder[self.rungs.start:
                                            self.rungs.stop]]

    def expand(self):
        """The decision as one :class:`Decision` per log row."""
        if self.rungs is None:
            return [self]
        return [Decision(action, reason, topology, workload, write_ratio,
                         fidelity)
                for action, topology, workload, write_ratio, reason,
                fidelity in self.rows()]

    def describe(self):
        where = ""
        if self.topology is not None:
            where = f" {self.topology}"
            if self.workload is not None:
                where += f" u={self.workload}"
        tier = f" [{self.fidelity}]" if self.fidelity != DES else ""
        return f"{self.action}{where}{tier}: {self.reason}"


def _judge_once(judged, rung, result, slo):
    """*result*'s SLO verdict, memoized in *judged* as ``rung ->
    (result, verdict)``.

    Each observation is judged once; a rung observed again (a DES
    confirmation replacing an analytic result) is judged anew.
    """
    memo = judged.get(rung)
    if memo is None or memo[0] is not result:
        memo = judged[rung] = (result, slo_violated(result, slo))
    return memo[1]


class Policy:
    """The policy protocol (also usable as a base class).

    :meth:`propose` returns the next round's :class:`Decision` list;
    an empty-``measure`` round means the policy is done.  Subclasses
    must be deterministic functions of the frontier's observations.
    *fidelity* is the tier the policy's decisions are created at.
    """

    name = "?"
    fidelity = DES

    def propose(self, frontier):
        raise NotImplementedError


class GridPolicy(Policy):
    """The exhaustive baseline: every unresolved point, one round.

    Reproduces today's fixed-grid campaign behaviour exactly —
    proposals come out in the canonical sweep order
    :meth:`ExperimentDef.points` enumerates, so the executed-trial
    table matches :meth:`ObservationCampaign.run` byte for byte.
    """

    name = "grid"

    def __init__(self, fidelity=DES):
        self.fidelity = fidelity

    def propose(self, frontier):
        return [Decision.measure(point, "exhaustive grid sweep",
                                 self.fidelity)
                for point in frontier.unresolved()]


class KneeBisectionPolicy(Policy):
    """Bisect each workload ladder to the SLO-violation knee.

    Round one measures each group's lightest and heaviest workloads;
    every later round bisects the bracket between the heaviest known-
    good and lightest known-violating workloads (per
    :func:`~repro.core.bottleneck.slo_violated`; a DNF trial violates
    by definition).  When the bracket closes, the interior points the
    bisection never ran are pruned with their inferred verdicts and a
    ``knee``/``no-knee`` decision concludes the group — the measured
    knee and the largest in-SLO workload are exactly what the full
    grid would have found, at O(log n) trials per ladder.
    """

    name = "knee"

    def __init__(self, slo=None, fidelity=DES):
        self.slo = slo
        self.fidelity = fidelity
        self._concluded = set()
        self._judged = {}            # group_id -> {rung: (result, verdict)}

    def propose(self, frontier):
        slo = self.slo if self.slo is not None \
            else frontier.experiment.slo
        decisions = []
        for topology, write_ratio in frontier.groups():
            group_id = (topology.label(), round(write_ratio, 6))
            if group_id in self._concluded:
                continue
            decisions.extend(
                self._group(frontier, group_id, write_ratio, slo))
        return decisions

    def _group(self, frontier, group_id, write_ratio, slo):
        workloads = frontier.workloads()
        judged = self._judged.setdefault(group_id, {})
        verdicts = {rung: _judge_once(judged, rung, result, slo)
                    for rung, result
                    in frontier.measured_rungs(group_id).items()}
        last = len(workloads) - 1
        proposals = []
        ends = ((0, "lightest"), (last, "heaviest"))[:2 if last else 1]
        for rung, side in ends:
            if rung not in verdicts:
                point = frontier.rung_point(group_id, rung)
                if not frontier.is_pruned(point):
                    proposals.append(Decision.measure(
                        point, f"bisection endpoint ({side} workload)",
                        self.fidelity))
        if proposals:
            return proposals
        highest_pass = max(
            (i for i, violated in verdicts.items() if not violated),
            default=-1)
        lowest_violation = min(
            (i for i, violated in verdicts.items() if violated),
            default=len(workloads))
        if lowest_violation - highest_pass > 1:
            mid = (highest_pass + lowest_violation) // 2
            bracket = (workloads[max(highest_pass, 0)],
                       workloads[min(lowest_violation, last)])
            return [Decision.measure(
                frontier.rung_point(group_id, mid),
                f"bisect bracket {bracket[0]}..{bracket[1]}",
                self.fidelity)]
        # Bracket closed: conclude the group and prune the rungs the
        # bisection proved it never needed to run, one range a run.
        below = (f"inferred in-SLO (below measured pass at "
                 f"u={workloads[highest_pass]})")
        above = (f"inferred SLO-violating (above measured violation at "
                 f"u={workloads[min(lowest_violation, last)]})")
        label = group_id[0]
        decisions = [
            Decision.prune(label, write_ratio, workloads, rungs, reason,
                           self.fidelity)
            for start, stop, reason in ((0, highest_pass + 1, below),
                                        (highest_pass + 1, last + 1, above))
            for rungs in frontier.open_runs(group_id, start, stop)]
        if lowest_violation <= last:
            knee = workloads[lowest_violation]
            decisions.append(Decision.note(
                KNEE,
                f"SLO knee at u={knee} on {label} "
                f"(largest in-SLO workload: "
                f"{workloads[highest_pass] if highest_pass >= 0 else 'none'})",
                topology=label, workload=knee, write_ratio=write_ratio,
                fidelity=self.fidelity))
        else:
            decisions.append(Decision.note(
                NO_KNEE,
                f"no SLO violation up to u={workloads[last]} on {label}",
                topology=label, workload=None, write_ratio=write_ratio,
                fidelity=self.fidelity))
        self._concluded.add(group_id)
        return decisions


class TieredFidelityPolicy(Policy):
    """Explore analytically, confirm the knee with DES.

    The fidelity-tier composition the analytic fast path exists for:
    an inner :class:`KneeBisectionPolicy` walks each workload ladder on
    millisecond-cheap analytic solves, and only the knee it lands on is
    re-measured with the DES simulator — the knee (expected to violate
    the SLO) and the largest in-SLO workload (expected to pass).  When
    DES contradicts the analytic verdict the hypothesis walks one
    ladder step in the indicated direction and re-confirms, so the
    concluding ``knee``/``no-knee`` decision is always DES-grounded.
    Confirmation state derives purely from the frontier's observations
    (distinguished by :attr:`TrialResult.fidelity`), so a resumed
    tiered exploration replays the same decision log byte for byte.
    """

    name = "tiered"

    def __init__(self, slo=None):
        self.slo = slo
        self._inner = KneeBisectionPolicy(slo=slo, fidelity=ANALYTIC)
        self._confirming = {}        # open group_id -> hypothesis dict

    def propose(self, frontier):
        slo = self.slo if self.slo is not None \
            else frontier.experiment.slo
        decisions = []
        for decision in self._inner.propose(frontier):
            if decision.action in (KNEE, NO_KNEE):
                # The inner policy concluded a group on analytic
                # evidence alone; swallow its verdict and open the DES
                # confirmation for that group instead.
                group_id = (decision.topology,
                            round(decision.write_ratio, 6))
                self._confirming[group_id] = self._hypothesis(
                    frontier, decision)
            else:
                decisions.append(decision)
        for group_id in sorted(self._confirming):
            decisions.extend(self._confirm(
                frontier, group_id, self._confirming[group_id], slo))
        return decisions

    def _hypothesis(self, frontier, decision):
        """The analytic conclusion as (knee rung, pass rung) over the
        workload ladder; either side may be None at the ladder's edge."""
        if decision.action == NO_KNEE:
            knee, passed = None, len(frontier.workloads()) - 1
        else:
            knee = frontier.workloads().index(decision.workload)
            passed = knee - 1 if knee > 0 else None
        return {"write_ratio": decision.write_ratio,
                "knee": knee, "pass": passed, "judged": {}}

    def _confirm(self, frontier, group_id, state, slo):
        workloads = frontier.workloads()
        last = len(workloads) - 1
        while True:
            targets = []
            if state["knee"] is not None:
                targets.append(("knee", state["knee"], True))
            if state["pass"] is not None:
                targets.append(("pass", state["pass"], False))
            proposals = []
            verdicts = {}
            for role, index, expect in targets:
                point = frontier.rung_point(group_id, index)
                result = frontier.result_at(point)
                if result is None or result.fidelity != DES:
                    if not frontier.is_pending(point):
                        proposals.append(Decision.measure(
                            point,
                            f"DES confirmation of analytic {role} "
                            f"(expect {'violation' if expect else 'pass'})"))
                else:
                    verdicts[role] = _judge_once(
                        state["judged"], index, result, slo)
            if proposals:
                return proposals
            if len(verdicts) < len(targets):
                return []            # DES measurements still in flight
            # Walk the hypothesis when DES contradicts it; the pass
            # side is checked first so a non-monotonic pair resolves
            # conservatively (toward lighter workloads).
            if state["pass"] is not None and verdicts["pass"]:
                state["knee"] = state["pass"]
                state["pass"] = state["pass"] - 1 \
                    if state["pass"] > 0 else None
                continue
            if state["knee"] is not None and not verdicts["knee"]:
                if state["knee"] == last:
                    state["pass"] = last
                    state["knee"] = None
                else:
                    state["pass"] = state["knee"]
                    state["knee"] = state["knee"] + 1
                continue
            return self._conclude(group_id, state, workloads)

    def _conclude(self, group_id, state, workloads):
        del self._confirming[group_id]
        label = group_id[0]
        write_ratio = state["write_ratio"]
        if state["knee"] is None:
            return [Decision.note(
                NO_KNEE,
                f"DES confirms no SLO violation up to "
                f"u={workloads[-1]} on {label} (analytic exploration)",
                topology=label, workload=None, write_ratio=write_ratio)]
        knee = workloads[state["knee"]]
        largest = workloads[state["pass"]] \
            if state["pass"] is not None else "none"
        return [Decision.note(
            KNEE,
            f"DES-confirmed SLO knee at u={knee} on {label} "
            f"(largest in-SLO workload: {largest}; "
            f"explored analytically)",
            topology=label, workload=knee, write_ratio=write_ratio)]


class TopologyPromotionPolicy(Policy):
    """Walk the workload ladder, promoting only the saturated tier.

    The paper's reconfiguration narrative: start from the smallest
    declared topology, raise the workload until the SLO breaks, ask
    :func:`~repro.core.bottleneck.detect_bottleneck` which tier
    saturated, and promote to the smallest declared topology that adds
    servers to exactly that tier — 1-1-1 walking toward 1-12-3 without
    ever measuring a configuration the observations didn't call for.
    Workloads below the violation point are pruned on the promoted
    topology (it dominates the one that carried them), and the old
    topology's heavier workloads are pruned as already-violating.
    """

    name = "promote"

    def __init__(self, slo=None, threshold=SATURATION_CPU_PERCENT,
                 fidelity=DES):
        self.slo = slo
        self.threshold = threshold
        self.fidelity = fidelity
        self._walks = {}

    def propose(self, frontier):
        slo = self.slo if self.slo is not None \
            else frontier.experiment.slo
        decisions = []
        for write_ratio in frontier.write_ratios():
            decisions.extend(self._advance(frontier, write_ratio, slo))
        return decisions

    @staticmethod
    def _ladder(frontier):
        return sorted(frontier.topologies(),
                      key=lambda t: (t.total_servers(), t.label()))

    def _advance(self, frontier, write_ratio, slo):
        ladder = self._ladder(frontier)
        walk = self._walks.setdefault(round(write_ratio, 6), {
            "current": ladder[0],
            "workload_index": 0,
            "visited": {ladder[0].label()},
            "done": False,
        })
        if walk["done"]:
            return []
        workloads = frontier.workloads()
        out = []
        while True:
            current = walk["current"]
            if walk["workload_index"] >= len(workloads):
                out.append(Decision.note(
                    STOP,
                    f"{current.label()} carries the heaviest workload "
                    f"u={workloads[-1]} within SLO; nothing left to "
                    f"promote for",
                    topology=current.label(), workload=workloads[-1],
                    write_ratio=write_ratio, fidelity=self.fidelity))
                walk["done"] = True
                return out
            workload = workloads[walk["workload_index"]]
            point = frontier.point(current, workload, write_ratio)
            result = frontier.result_at(point)
            if result is None:
                if frontier.is_pruned(point):
                    walk["workload_index"] += 1
                    continue
                out.append(Decision.measure(
                    point,
                    f"ascending walk on {current.label()}", self.fidelity))
                return out
            if not slo_violated(result, slo):
                walk["workload_index"] += 1
                continue
            tier = detect_bottleneck(result, self.threshold)
            if tier is None:
                out.append(Decision.note(
                    STOP,
                    f"SLO violated at u={workload} on {current.label()} "
                    f"with no saturated tier; scaling will not help",
                    topology=current.label(), workload=workload,
                    write_ratio=write_ratio, fidelity=self.fidelity))
                walk["done"] = True
                return out
            candidate = next(
                (t for t in ladder
                 if t.label() not in walk["visited"]
                 and t.count(tier) > current.count(tier)
                 and t.dominates(current)),
                None)
            if candidate is None:
                out.append(Decision.note(
                    STOP,
                    f"{tier} tier saturated at u={workload} but the "
                    f"experiment family declares no larger {tier} "
                    f"topology dominating {current.label()}",
                    topology=current.label(), workload=workload,
                    write_ratio=write_ratio, fidelity=self.fidelity))
                walk["done"] = True
                return out
            out.append(Decision.note(
                PROMOTE,
                f"{tier} tier saturated "
                f"({result.tier_cpu(tier):.0f}% CPU) at u={workload}; "
                f"promoting {current.label()} -> {candidate.label()}",
                topology=candidate.label(), workload=workload,
                write_ratio=write_ratio, fidelity=self.fidelity))
            # Prune what the walk already knows: the promoted topology's
            # lighter workloads (each carried within SLO) and the old
            # topology's heavier ones (each already violating).
            rounded = round(write_ratio, 6)
            out.extend(
                Decision.prune(
                    candidate.label(), write_ratio, workloads,
                    range(rung, rung + 1),
                    f"{current.label()} already carried "
                    f"u={workloads[rung]} within SLO", self.fidelity)
                for rungs in frontier.open_runs(
                    (candidate.label(), rounded), 0, walk["workload_index"])
                for rung in rungs)
            out.extend(
                Decision.prune(
                    current.label(), write_ratio, workloads, rungs,
                    f"{current.label()} already violates the SLO "
                    f"at u={workload}", self.fidelity)
                for rungs in frontier.open_runs(
                    (current.label(), rounded), walk["workload_index"] + 1,
                    len(workloads)))
            walk["visited"].add(candidate.label())
            walk["current"] = candidate
            # Re-test the violating workload on the promoted topology.


class BudgetedExplorer(Policy):
    """Composite wrapping any policy with a hard trial budget.

    The budget counts *trials* (points x repetitions).  Proposals past
    the budget are deferred — never silently dropped: the round that
    hits the wall records a ``budget-exhausted`` decision naming how
    many points were deferred, and the loop stops.  A later
    ``run_adaptive`` with a larger budget (or a grid run) picks up the
    same frontier from the database and finishes the job.
    """

    def __init__(self, policy, budget):
        if budget < 1:
            raise ExperimentError(
                f"planner budget must be at least 1 trial, got {budget}")
        self.policy = policy
        self.name = policy.name
        self.fidelity = getattr(policy, "fidelity", DES)
        self.budget = budget
        self._spent = 0
        self._exhausted = False

    def propose(self, frontier):
        if self._exhausted:
            return []
        decisions = self.policy.propose(frontier)
        repetitions = frontier.experiment.repetitions
        kept = []
        deferred = 0
        for decision in decisions:
            if decision.action != MEASURE:
                kept.append(decision)
                continue
            if self._spent + repetitions > self.budget:
                deferred += 1
                continue
            self._spent += repetitions
            kept.append(decision)
        if deferred:
            kept.append(Decision.note(
                BUDGET_EXHAUSTED,
                f"trial budget {self.budget} exhausted after "
                f"{self._spent} trial(s); {deferred} proposed point(s) "
                f"deferred", fidelity=self.fidelity))
            self._exhausted = True
        return kept


def make_policy(policy, *, slo=None, budget=None, fidelity=DES):
    """The policy an exploration at *fidelity* runs, optionally
    budget-wrapped: a CLI/meta name (``grid``/``knee``/``promote``/
    ``tiered``; ``"auto"`` is ``tiered``) built to create its decisions
    at *fidelity*, or a :class:`Policy` instance already proposing at it.
    """
    name = policy if isinstance(policy, str) else policy.name
    if fidelity == AUTO:
        if policy not in ("knee", "tiered") and name != "tiered":
            raise ExperimentError(
                f"fidelity 'auto' explores with the tiered knee policy; "
                f"policy {name!r} does not support it — pass fidelity "
                f"'des' or 'analytic'")
        policy = "tiered" if policy == "knee" else policy
        fidelity = DES
    elif name == "tiered" and fidelity != DES:
        raise ExperimentError(
            "policy 'tiered' confirms its knees with DES; explore with "
            "it at fidelity 'auto', not 'analytic'")
    if policy == "grid":
        policy = GridPolicy(fidelity)
    elif policy == "knee":
        policy = KneeBisectionPolicy(slo=slo, fidelity=fidelity)
    elif policy == "promote":
        policy = TopologyPromotionPolicy(slo=slo, fidelity=fidelity)
    elif policy == "tiered":
        policy = TieredFidelityPolicy(slo=slo)
    elif isinstance(policy, str):
        raise ExperimentError(
            f"unknown planner policy {policy!r}; "
            f"known: {', '.join(POLICY_NAMES)}")
    elif getattr(policy, "fidelity", DES) != fidelity:
        raise ExperimentError(
            f"fidelity {fidelity!r} needs a policy built at that tier; "
            f"policy {name!r} proposes at another")
    if budget is not None:
        policy = BudgetedExplorer(policy, budget)
    return policy
