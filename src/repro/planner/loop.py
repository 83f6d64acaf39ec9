"""The closed loop: propose a batch, execute it, fold results back in.

:class:`AdaptivePlanner` is the subsystem's engine.  Each round it asks
the policy for decisions, applies the prunes to the frontier, expands
the measures into :class:`~repro.experiments.scheduler.TrialTask`
batches (repetitions included, task indices cumulative across rounds),
hands them to an ``execute`` callback supplied by the campaign layer,
and feeds the observed results back.  The loop itself holds no policy
logic and no I/O — determinism lives here by omission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from repro.experiments.scheduler import TrialTask
from repro.planner.frontier import ObservationFrontier
from repro.planner.policy import (
    BUDGET_EXHAUSTED,
    CONVERGED,
    KNEE,
    MEASURE,
    NO_KNEE,
    PRUNE,
    Decision,
)

#: Hard stop against a policy that never converges.  A policy that is a
#: pure function of observations can propose at most one round per
#: unresolved point, so any correct policy finishes well under this.
MAX_ROUNDS = 10_000


@dataclass
class AdaptiveOutcome:
    """What an adaptive exploration did and concluded."""

    experiment: object
    policy_name: str
    rounds: int = 0
    executed: int = 0            # trials actually run (incl. repetitions)
    pruned_points: int = 0
    converged: bool = False
    budget_exhausted: bool = False
    #: the rounds' decisions as proposed (a prune covers a rung range)
    log: list = field(default_factory=list)
    knees: list = field(default_factory=list)   # knee/no-knee Decisions

    @property
    def decisions(self):
        """The decision log, one :class:`Decision` per log row."""
        return [row for decision in self.log for row in decision.expand()]

    def universe_size(self):
        return self.experiment.point_count()

    def savings_ratio(self):
        """Fraction of the grid's trials this exploration skipped."""
        grid = self.universe_size() * self.experiment.repetitions
        if grid == 0:
            return 0.0
        return 1.0 - (self.executed / grid)

    def describe(self):
        verdict = "converged" if self.converged else (
            "budget exhausted" if self.budget_exhausted else "stopped")
        return (f"policy={self.policy_name} rounds={self.rounds} "
                f"trials={self.executed}/"
                f"{self.universe_size() * self.experiment.repetitions} "
                f"pruned={self.pruned_points} ({verdict})")


@dataclass(frozen=True)
class PlanPreview:
    """A dry-run of a policy's first round (``repro explore --dry-run``)."""

    experiment_name: str
    policy_name: str
    universe: int
    repetitions: int
    decisions: tuple

    def describe(self):
        measures = sum(1 for d in self.decisions if d.action == MEASURE)
        lines = [
            f"experiment {self.experiment_name!r}: "
            f"{self.universe} sweep point(s) x {self.repetitions} "
            f"repetition(s)",
            f"policy {self.policy_name!r} first round: "
            f"{measures} point(s) to measure",
        ]
        lines.extend(f"  {d.describe()}" for d in self.decisions)
        return "\n".join(lines)


class AdaptivePlanner:
    """Run one experiment family's closed exploration loop.

    The *execute* callback receives the round's tasks and must return
    their :class:`TrialResult`\\ s aligned index-for-index — the
    campaign layer owns scheduling, persistence, and resume; the
    planner only decides what to run next.
    """

    def __init__(self, experiment, policy, *, tracer=None):
        self.experiment = experiment
        self.policy = policy
        self.tracer = tracer
        self.frontier = ObservationFrontier(experiment)

    def run(self, execute, *, on_round=None):
        outcome = AdaptiveOutcome(experiment=self.experiment,
                                  policy_name=self.policy.name)
        next_index = 0
        for round_no in range(1, MAX_ROUNDS + 1):
            decisions = list(self.policy.propose(self.frontier))
            measures = []
            for decision in decisions:
                if decision.action == MEASURE:
                    measures.append(decision)
                elif decision.action == PRUNE:
                    self.frontier.prune(
                        (decision.topology, round(decision.write_ratio, 6)),
                        decision.rungs)
                    outcome.pruned_points += len(decision.rungs)
                elif decision.action in (KNEE, NO_KNEE):
                    outcome.knees.append(decision)
                elif decision.action == BUDGET_EXHAUSTED:
                    outcome.budget_exhausted = True
            if not measures:
                if not outcome.budget_exhausted:
                    decisions.append(Decision.note(
                        CONVERGED,
                        f"frontier resolved after {outcome.executed} "
                        f"trial(s); nothing left to propose"))
                    outcome.converged = True
                outcome.rounds = round_no
                outcome.log.extend(decisions)
                self._count(decisions)
                if on_round is not None:
                    on_round(round_no, decisions)
                break
            tasks = []
            for decision in measures:
                point = decision.point
                self.frontier.mark_pending(point)
                for repetition in range(self.experiment.repetitions):
                    tasks.append(TrialTask(
                        index=next_index,
                        experiment=self.experiment,
                        topology=point.topology,
                        workload=point.workload,
                        write_ratio=point.write_ratio,
                        repetition=repetition,
                        fidelity=decision.fidelity,
                    ))
                    next_index += 1
            outcome.rounds = round_no
            outcome.log.extend(decisions)
            self._count(decisions)
            if on_round is not None:
                on_round(round_no, decisions)
            results = execute(tasks)
            if len(results) != len(tasks):
                raise RuntimeError(
                    f"planner round {round_no}: execute returned "
                    f"{len(results)} result(s) for {len(tasks)} task(s)")
            outcome.executed += len(tasks)
            for decision, task, result in zip(
                    (d for d in measures
                     for _ in range(self.experiment.repetitions)),
                    tasks, results):
                if task.repetition == 0:
                    self.frontier.observe(decision.point, result)
        else:
            raise RuntimeError(
                f"planner did not converge within {MAX_ROUNDS} rounds "
                f"(policy {self.policy.name!r})")
        return outcome

    def _count(self, decisions):
        if self.tracer is None:
            return
        self.tracer.count("planner.rounds")
        for decision in decisions:
            if decision.action == MEASURE:
                self.tracer.count("planner.points_proposed")
            elif decision.action == PRUNE:
                self.tracer.count("planner.points_pruned",
                                  len(decision.rungs))


def log_rows(round_no, decisions, policy_name, experiment_name):
    """One round's ``planner_decisions`` rows, in decision order; a
    prune decision gives one row per pruned rung."""
    return [(round_no, seq, policy_name, experiment_name) + row
            for seq, row in enumerate(chain.from_iterable(
                decision.rows() for decision in decisions))]


def plan_preview(experiment, policy):
    """Dry-run *policy*'s first round against an empty frontier."""
    decisions = policy.propose(ObservationFrontier(experiment))
    return PlanPreview(
        experiment_name=experiment.name,
        policy_name=policy.name,
        universe=experiment.point_count(),
        repetitions=experiment.repetitions,
        decisions=tuple(row for decision in decisions
                        for row in decision.expand()),
    )
