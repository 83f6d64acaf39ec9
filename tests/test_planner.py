"""Planner plane tests: frontier, policies, loop, adaptive campaigns.

The contracts under test:

- decisions are pure functions of recorded observations, so the same
  policy over the same spec yields the same decision log and
  byte-identical executed-trial tables at any worker count;
- an adaptive exploration only ever runs points of the declared grid;
- a killed exploration resumes to the same database as an
  uninterrupted one;
- GridPolicy reproduces today's exhaustive campaign exactly;
- the ladder-indexed knee policy, creating each decision at its tier,
  decides exactly what the full-rescan bisection stamped afterwards
  decided, on random ladders and verdicts.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    plan_campaign,
    resume_campaign,
    run_adaptive,
    run_experiment,
)
from repro.core.campaign import (
    META_PLANNER_EXPERIMENT,
    META_PLANNER_POLICY,
    ObservationCampaign,
)
from repro.errors import ExperimentError
from repro.planner import (
    AdaptivePlanner,
    BudgetedExplorer,
    Decision,
    GridPolicy,
    KneeBisectionPolicy,
    ObservationFrontier,
    TopologyPromotionPolicy,
    log_rows,
    make_policy,
    plan_preview,
)
from repro.planner.policy import (
    BUDGET_EXHAUSTED,
    KNEE,
    MEASURE,
    NO_KNEE,
    PROMOTE,
    PRUNE,
    STOP,
    Policy,
)
from repro.sim import ANALYTIC, DES
from repro.spec.tbl import parse as parse_tbl

# One topology, an 8-rung workload ladder with its SLO knee at u=200:
# the grid costs 8 trials, the bisection 4.
KNEE_TBL = """
benchmark rubis;
platform emulab;

experiment "adaptive" {
    topology 1-1-1;
    workload 100, 200, 300, 400, 500, 600, 700, 800;
    write_ratio 15%;
    trial { warmup 2s; run 10s; cooldown 2s; }
    slo { response_time 1.0s; error_ratio 10%; }
}
"""

# A topology family for the promotion walk: the app tier saturates
# first, so the walk should climb the app ladder and never touch the
# topologies the observations don't call for.
PROMO_TBL = """
benchmark rubis;
platform emulab;

experiment "promo" {
    topology 1-1-1, 1-2-1, 1-2-2, 1-4-2;
    workload 100, 300, 500, 700;
    write_ratio 15%;
    trial { warmup 2s; run 10s; cooldown 2s; }
    slo { response_time 1.0s; error_ratio 10%; }
}
"""


def experiment_of(tbl):
    return parse_tbl(tbl).experiments[0]


def observation_dump(database):
    assert database.integrity_check() == []
    return {
        table: database.dump_rows(table)
        for table in ("trials", "host_cpu", "state_metrics",
                      "planner_decisions")
    }


class TestObservationFrontier:
    def test_universe_is_the_declared_grid(self):
        frontier = ObservationFrontier(experiment_of(KNEE_TBL))
        assert len(frontier.universe) == 8
        assert frontier.workloads() == [100, 200, 300, 400,
                                        500, 600, 700, 800]
        assert [t.label() for t in frontier.topologies()] == ["1-1-1"]

    def test_point_outside_universe_raises(self):
        frontier = ObservationFrontier(experiment_of(KNEE_TBL))
        topology = frontier.topologies()[0]
        with pytest.raises(ExperimentError, match="not a sweep point"):
            frontier.point(topology, 999, 0.15)

    def test_prune_never_overrides_a_measurement(self):
        # Policies prune the open runs, which skip every measured rung.
        frontier = ObservationFrontier(experiment_of(KNEE_TBL))
        point = frontier.universe[2]
        group = ("1-1-1", 0.15)
        frontier.observe(point, object())
        runs = frontier.open_runs(group, 0, 8)
        assert runs == [range(0, 2), range(3, 8)]
        for rungs in runs:
            frontier.prune(group, rungs)
        assert frontier.is_measured(point)
        assert not frontier.is_pruned(point)
        assert frontier.is_pruned(frontier.universe[3])
        assert frontier.open_runs(group, 0, 8) == []

    def test_unresolved_excludes_pending(self):
        frontier = ObservationFrontier(experiment_of(KNEE_TBL))
        frontier.mark_pending(frontier.universe[0])
        assert frontier.universe[0] not in frontier.unresolved()
        assert len(frontier.unresolved()) == 7


class TestPolicies:
    def test_make_policy_names(self):
        assert make_policy("grid").name == "grid"
        assert make_policy("knee").name == "knee"
        assert make_policy("promote").name == "promote"
        with pytest.raises(ExperimentError, match="unknown planner"):
            make_policy("genetic")

    def test_budget_wrapping_keeps_inner_name(self):
        policy = make_policy("knee", budget=4)
        assert isinstance(policy, BudgetedExplorer)
        assert policy.name == "knee"
        with pytest.raises(ExperimentError, match="at least 1"):
            make_policy("knee", budget=0)

    def test_grid_policy_proposes_canonical_order(self):
        frontier = ObservationFrontier(experiment_of(PROMO_TBL))
        decisions = GridPolicy().propose(frontier)
        assert all(d.action == MEASURE for d in decisions)
        assert [d.point for d in decisions] == list(frontier.universe)

    def test_knee_first_round_is_the_endpoints(self):
        preview = plan_preview(experiment_of(KNEE_TBL),
                               KneeBisectionPolicy())
        workloads = [d.workload for d in preview.decisions]
        assert workloads == [100, 800]

    def test_budget_defers_and_stops(self):
        frontier = ObservationFrontier(experiment_of(KNEE_TBL))
        policy = BudgetedExplorer(GridPolicy(), budget=3)
        decisions = policy.propose(frontier)
        measures = [d for d in decisions if d.action == MEASURE]
        assert len(measures) == 3
        assert decisions[-1].action == BUDGET_EXHAUSTED
        assert "5 proposed point(s) deferred" in decisions[-1].reason
        assert policy.propose(frontier) == []

    def test_decision_equality_ignores_live_point(self):
        frontier = ObservationFrontier(experiment_of(KNEE_TBL))
        a = Decision.measure(frontier.universe[0], "why")
        b = Decision(action=MEASURE, reason="why", topology="1-1-1",
                     workload=100, write_ratio=0.15)
        assert a == b


class TestAdaptiveKnee:
    def _explore(self, jobs=1, **kwargs):
        campaign = ObservationCampaign(KNEE_TBL, node_count=8)
        report = campaign.run_adaptive(
            policy="knee", jobs=jobs, **kwargs)
        return campaign, report

    def test_finds_knee_with_half_the_trials(self):
        campaign, report = self._explore()
        outcome = report.outcome
        assert outcome.converged and not outcome.budget_exhausted
        assert outcome.executed == 4            # grid would run 8
        assert outcome.savings_ratio() >= 0.5
        knees = [d for d in outcome.knees if d.action == KNEE]
        assert len(knees) == 1
        assert knees[0].workload == 200

    def test_knee_matches_the_exhaustive_grid(self):
        from repro.core.bottleneck import slo_violated

        campaign, report = self._explore()
        grid = ObservationCampaign(KNEE_TBL, node_count=8)
        grid.run()
        experiment = grid.spec.experiments[0]
        violating = sorted(
            r.workload for r in grid.database.query()
            if slo_violated(r, experiment.slo))
        assert report.outcome.knees[0].workload == violating[0]

    def test_decision_log_persisted_in_order(self):
        campaign, _report = self._explore()
        decisions = campaign.database.planner_decisions()
        assert [(d["round"], d["seq"]) for d in decisions] == \
            sorted((d["round"], d["seq"]) for d in decisions)
        actions = [d["action"] for d in decisions]
        assert actions[-1] == "converged"
        assert "knee" in actions

    def test_jobs_do_not_change_decisions_or_rows(self):
        campaign_1, _ = self._explore(jobs=1)
        campaign_4, _ = self._explore(jobs=4)
        assert observation_dump(campaign_1.database) == \
            observation_dump(campaign_4.database)

    def test_measured_points_are_a_subset_of_the_grid(self):
        campaign, _report = self._explore()
        grid_keys = {
            (t.label(), w, round(wr, 6))
            for t, w, wr in campaign.spec.experiments[0].points()
        }
        for result in campaign.database.query():
            assert result.key() in grid_keys

    def test_no_knee_when_slo_never_breaks(self):
        relaxed = KNEE_TBL.replace(
            "workload 100, 200, 300, 400, 500, 600, 700, 800;",
            "workload 10, 25, 50, 75, 100;")
        campaign = ObservationCampaign(relaxed, node_count=8)
        report = campaign.run_adaptive(policy="knee")
        outcome = report.outcome
        assert outcome.executed == 2             # the two endpoints
        assert [d.action for d in outcome.knees] == [NO_KNEE]

    def test_budget_exhaustion_is_recorded(self):
        campaign, report = self._explore(budget=2)
        assert report.outcome.budget_exhausted
        assert not report.outcome.converged
        assert report.outcome.executed == 2
        actions = [d["action"] for d in
                   campaign.database.planner_decisions()]
        assert "budget-exhausted" in actions
        assert campaign.database.get_meta("planner_budget") == "2"

    def test_report_carries_planner_and_cache_lines(self):
        _campaign, report = self._explore()
        summary = report.summary()
        assert "policy knee" in summary
        assert "pruned" in summary
        assert report.policy == "knee"
        assert report.rounds == report.outcome.rounds
        assert isinstance(report.cache_stats, dict)


class TestAdaptivePromotion:
    def test_walk_promotes_only_the_saturated_tier(self):
        campaign = ObservationCampaign(PROMO_TBL, node_count=12)
        report = campaign.run_adaptive(policy="promote")
        decisions = campaign.database.planner_decisions()
        promotions = [d for d in decisions if d["action"] == PROMOTE]
        assert [d["topology"] for d in promotions] == ["1-2-1", "1-4-2"]
        # 1-2-2 adds a DB server the observations never called for: the
        # walk must not have measured it.
        measured = {r.topology_label for r in campaign.database.query()}
        assert "1-2-2" not in measured
        assert report.outcome.executed < 16      # grid size

    def test_walk_stops_with_a_recorded_reason(self):
        campaign = ObservationCampaign(PROMO_TBL, node_count=12)
        campaign.run_adaptive(policy="promote")
        stops = [d for d in campaign.database.planner_decisions()
                 if d["action"] == STOP]
        assert len(stops) == 1
        assert "heaviest workload" in stops[0]["reason"]


class TestGridEquivalence:
    def test_grid_policy_stores_exactly_the_fixed_sweep(self):
        adaptive = ObservationCampaign(KNEE_TBL, node_count=8)
        adaptive.run_adaptive(policy="grid")
        fixed = ObservationCampaign(KNEE_TBL, node_count=8)
        fixed.run()
        for table in ("trials", "host_cpu", "state_metrics"):
            assert adaptive.database.dump_rows(table) == \
                fixed.database.dump_rows(table)


class TestResumeAdaptive:
    class _Kill(Exception):
        pass

    def _killed_database(self, after):
        campaign = ObservationCampaign(KNEE_TBL, node_count=8)
        seen = []

        def killer(result):
            seen.append(result)
            if len(seen) == after:
                raise self._Kill()

        with pytest.raises(self._Kill):
            campaign.run_adaptive(policy="knee", on_result=killer)
        return campaign.database

    def test_killed_exploration_resumes_byte_identically(self):
        reference = ObservationCampaign(KNEE_TBL, node_count=8)
        reference.run_adaptive(policy="knee")
        database = self._killed_database(after=2)
        assert database.count() == 2
        report = resume_campaign(database)
        assert report.skipped == 2
        assert observation_dump(database) == \
            observation_dump(reference.database)

    def test_resume_dispatches_on_planner_meta(self):
        database = self._killed_database(after=1)
        assert database.get_meta(META_PLANNER_POLICY) == "knee"
        assert database.get_meta(META_PLANNER_EXPERIMENT) == "adaptive"
        report = resume_campaign(database)
        assert report.policy == "knee"
        assert report.outcome is not None

    def test_completed_exploration_resumes_to_a_noop(self):
        campaign = ObservationCampaign(KNEE_TBL, node_count=8)
        first = campaign.run_adaptive(policy="knee")
        again = campaign.run_adaptive(policy="knee", resume=True)
        assert again.trials == 0
        assert again.skipped == first.trials
        assert observation_dump(campaign.database)["trials"] != []


TWO_EXPERIMENT_TBL = """
benchmark rubis; platform emulab;
experiment "a" { topology 1-1-1; workload 100; write_ratio 15%;
    trial { warmup 1s; run 5s; cooldown 1s; } }
experiment "b" { topology 1-1-1; workload 100; write_ratio 15%;
    trial { warmup 1s; run 5s; cooldown 1s; } }
"""


class TestAdaptiveApi:
    def test_run_adaptive_facade(self):
        report = run_adaptive(KNEE_TBL, policy="knee", node_count=8)
        assert report.outcome.executed == 4
        assert report.database.decision_count() > 0

    def test_plan_campaign_is_a_pure_dry_run(self):
        preview = plan_campaign(KNEE_TBL, policy="knee")
        assert preview.policy_name == "knee"
        assert preview.universe == 8
        assert len(preview.decisions) == 2
        assert "bisection endpoint" in preview.describe()

    def test_multi_experiment_spec_needs_a_name(self):
        with pytest.raises(ExperimentError, match="pick one by name"):
            run_adaptive(TWO_EXPERIMENT_TBL, node_count=8)
        report = run_adaptive(TWO_EXPERIMENT_TBL, experiment="b",
                              node_count=8)
        assert report.experiments == ["b"]

    #: Each entry point, and how to read back the experiment it chose.
    ONE_EXPERIMENT_ENTRIES = {
        "run_experiment": (
            lambda **kw: run_experiment(TWO_EXPERIMENT_TBL, node_count=8,
                                        **kw),
            lambda results: {r.experiment_name for r in results}),
        "plan_campaign": (
            lambda **kw: plan_campaign(TWO_EXPERIMENT_TBL, **kw),
            lambda preview: {preview.experiment_name}),
        "run_adaptive": (
            lambda **kw: run_adaptive(TWO_EXPERIMENT_TBL, node_count=8,
                                      **kw),
            lambda report: set(report.experiments)),
    }

    @pytest.mark.parametrize("entry", sorted(ONE_EXPERIMENT_ENTRIES))
    def test_one_experiment_rule_is_stated_once(self, entry):
        call, chosen = self.ONE_EXPERIMENT_ENTRIES[entry]
        with pytest.raises(ExperimentError) as refused:
            call()
        assert str(refused.value) == (
            "spec declares 2 experiments (a, b); pick one by name")
        assert chosen(call(experiment="b")) == {"b"}


class TestPlannerLoopContract:
    def test_execute_must_align_results(self):
        experiment = experiment_of(KNEE_TBL)
        planner = AdaptivePlanner(experiment, KneeBisectionPolicy())
        with pytest.raises(RuntimeError, match="result"):
            planner.run(lambda tasks: [])

    def test_promotion_policy_is_replayable(self):
        # Two fresh policy instances fed the same observations make the
        # same decisions — the property resume relies on.
        experiment = experiment_of(PROMO_TBL)
        campaign = ObservationCampaign(PROMO_TBL, node_count=12)

        def run_with(policy):
            planner = AdaptivePlanner(experiment, policy)
            log = []

            def execute(tasks):
                return [campaign.runner.run_task(task) for task in tasks]

            outcome = planner.run(
                execute,
                on_round=lambda n, ds: log.extend(
                    (n, d.action, d.topology, d.workload, d.reason)
                    for d in ds))
            return log, outcome.executed

        first = run_with(TopologyPromotionPolicy())
        second = run_with(TopologyPromotionPolicy())
        assert first == second


class TestTraceReportSections:
    def test_planner_and_cache_sections_render(self):
        from repro.obs import Tracer
        from repro.obs.report import render_trace_report

        campaign = ObservationCampaign(KNEE_TBL, node_count=8,
                                       tracer=Tracer())
        campaign.run_adaptive(policy="knee")
        report = render_trace_report(campaign.database)
        assert "Planner decisions" in report
        assert "policy 'knee'" in report
        assert "Hot-path caches" in report

    def test_fixed_grid_trace_has_no_planner_section(self):
        from repro.obs import Tracer
        from repro.obs.report import render_trace_report

        campaign = ObservationCampaign(KNEE_TBL, node_count=8,
                                       tracer=Tracer())
        campaign.run()
        report = render_trace_report(campaign.database)
        assert "Planner decisions" not in report


def _point_prune(label, write_ratio, workloads, rung, reason):
    """A prune of one point, its workload filled in as the decision
    log's row (see :func:`_point_log_rows`) reads it."""
    return Decision(action=PRUNE, reason=reason, topology=label,
                    workload=workloads[rung], write_ratio=write_ratio,
                    rungs=range(rung, rung + 1), ladder=workloads)


def _point_log_rows(round_no, decisions, policy_name, experiment_name):
    """A round's rows as they were built from one decision per row."""
    return [(round_no, seq, policy_name, experiment_name, d.action,
             d.topology, d.workload, d.write_ratio, d.reason, d.fidelity)
            for seq, d in enumerate(decisions)]


class _RescanKnee(Policy):
    """The knee bisection before the frontier indexed its ladders: every
    round rebuilds each open group's points and re-judges every
    measured rung, and every decision is created at the DES tier."""

    name = "knee"

    def __init__(self, violated):
        self.violated = violated
        self._concluded = set()

    def propose(self, frontier):
        decisions = []
        for topology, write_ratio in frontier.groups():
            group_id = (topology.label(), round(write_ratio, 6))
            if group_id not in self._concluded:
                decisions.extend(self._group(frontier, topology,
                                             write_ratio, group_id))
        return decisions

    def _group(self, frontier, topology, write_ratio, group_id):
        workloads = frontier.workloads()
        points = [frontier.point(topology, w, write_ratio)
                  for w in workloads]
        verdicts = {}
        for index, point in enumerate(points):
            result = frontier.result_at(point)
            if result is not None:
                verdicts[index] = self.violated(result)
        last = len(workloads) - 1
        proposals = []
        if 0 not in verdicts and not frontier.is_pruned(points[0]):
            proposals.append(Decision.measure(
                points[0], "bisection endpoint (lightest workload)"))
        if last != 0 and last not in verdicts \
                and not frontier.is_pruned(points[last]):
            proposals.append(Decision.measure(
                points[last], "bisection endpoint (heaviest workload)"))
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
                points[mid], f"bisect bracket {bracket[0]}..{bracket[1]}")]
        decisions = []
        for index, point in enumerate(points):
            if index in verdicts or frontier.is_pruned(point):
                continue
            if index <= highest_pass:
                reason = (f"inferred in-SLO (below measured pass at "
                          f"u={workloads[highest_pass]})")
            else:
                reason = (f"inferred SLO-violating (above measured "
                          f"violation at u={workloads[lowest_violation]})")
            decisions.append(_point_prune(topology.label(), write_ratio,
                                          workloads, index, reason))
        label = topology.label()
        if lowest_violation <= last:
            knee = workloads[lowest_violation]
            decisions.append(Decision.note(
                KNEE,
                f"SLO knee at u={knee} on {label} "
                f"(largest in-SLO workload: "
                f"{workloads[highest_pass] if highest_pass >= 0 else 'none'})",
                topology=label, workload=knee, write_ratio=write_ratio))
        else:
            decisions.append(Decision.note(
                NO_KNEE,
                f"no SLO violation up to u={workloads[last]} on {label}",
                topology=label, workload=None, write_ratio=write_ratio))
        self._concluded.add(group_id)
        return decisions


class _RescanBudget(Policy):
    """The trial budget as it wrapped the rescanning policy."""

    name = "knee"

    def __init__(self, policy, budget):
        self.policy = policy
        self.budget = budget
        self._spent = 0
        self._exhausted = False

    def propose(self, frontier):
        if self._exhausted:
            return []
        kept = []
        deferred = 0
        for decision in self.policy.propose(frontier):
            if decision.action != MEASURE:
                kept.append(decision)
            elif self._spent + 1 > self.budget:
                deferred += 1
            else:
                self._spent += 1
                kept.append(decision)
        if deferred:
            kept.append(Decision.note(
                BUDGET_EXHAUSTED,
                f"trial budget {self.budget} exhausted after "
                f"{self._spent} trial(s); {deferred} proposed point(s) "
                f"deferred"))
            self._exhausted = True
        return kept


class _Stamped(Policy):
    """Every decision copied into the analytic tier after the fact."""

    name = "knee"

    def __init__(self, policy):
        self.policy = policy

    def propose(self, frontier):
        return [dataclasses.replace(decision, fidelity=ANALYTIC)
                for decision in self.policy.propose(frontier)]


class _Observed:
    """A fake trial result carrying its SLO verdict."""

    def __init__(self, violated):
        self.violated = violated


@st.composite
def _explorations(draw):
    workloads = draw(st.lists(st.integers(1, 100_000), min_size=1,
                              max_size=100, unique=True))
    topologies = draw(st.lists(st.sampled_from(["1-1-1", "1-2-1", "1-2-2"]),
                               min_size=1, max_size=3, unique=True))
    ratios = draw(st.lists(st.sampled_from(["0%", "15%", "30%"]),
                           min_size=1, max_size=2, unique=True))
    verdicts = {}
    for topology in topologies:
        for ratio in ratios:
            if draw(st.booleans()):          # a monotone curve
                knee = draw(st.integers(0, len(workloads)))
                ladder = sorted(workloads)
                for rung, workload in enumerate(ladder):
                    verdicts[topology, workload, ratio] = rung >= knee
            else:
                for workload in workloads:
                    verdicts[topology, workload, ratio] = \
                        draw(st.booleans())
    budget = draw(st.none() | st.integers(1, len(verdicts)))
    tbl = (f'benchmark rubis; platform emulab;\n'
           f'experiment "random" {{\n'
           f'    topology {", ".join(topologies)};\n'
           f'    workload {", ".join(map(str, workloads))};\n'
           f'    write_ratio {", ".join(ratios)};\n'
           f'}}\n')
    return tbl, verdicts, budget


class TestKneeMatchesFullRescan:
    @settings(max_examples=60, deadline=None)
    @given(exploration=_explorations(),
           fidelity=st.sampled_from([DES, ANALYTIC]))
    def test_same_decisions_as_the_rescanning_bisection(self, exploration,
                                                        fidelity):
        tbl, verdicts, budget = exploration
        experiment = experiment_of(tbl)

        def execute(tasks):
            return [_Observed(verdicts[
                task.topology.label(), task.workload,
                f"{round(task.write_ratio * 100)}%"]) for task in tasks]

        def explore(policy):
            outcome = AdaptivePlanner(experiment, policy).run(execute)
            return outcome.decisions, outcome.executed

        judged = []

        def violated(result, slo):
            judged.append(result)
            return result.violated

        with mock.patch("repro.planner.policy.slo_violated", violated):
            new = explore(make_policy("knee", budget=budget,
                                      fidelity=fidelity))
        reference = _RescanKnee(lambda result: result.violated)
        if budget is not None:
            reference = _RescanBudget(reference, budget)
        if fidelity == ANALYTIC:
            reference = _Stamped(reference)
        assert new == explore(reference)
        assert all(d.fidelity == fidelity for d in new[0]
                   if d.action != "converged")
        # Each observed result is judged once.
        assert len(judged) == len({id(r) for r in judged}) <= new[1]


class _PerPointPromotion(TopologyPromotionPolicy):
    """The promotion walk as it pruned before range prunes: one prune
    per unresolved point, each checked against the frontier."""

    def _advance(self, frontier, write_ratio, slo):
        from repro.planner import policy as policy_module

        ladder = self._ladder(frontier)
        walk = self._walks.setdefault(round(write_ratio, 6), {
            "current": ladder[0], "workload_index": 0,
            "visited": {ladder[0].label()}, "done": False})
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
                    write_ratio=write_ratio))
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
                    point, f"ascending walk on {current.label()}"))
                return out
            if not policy_module.slo_violated(result, slo):
                walk["workload_index"] += 1
                continue
            tier = policy_module.detect_bottleneck(result, self.threshold)
            if tier is None:
                out.append(Decision.note(
                    STOP,
                    f"SLO violated at u={workload} on {current.label()} "
                    f"with no saturated tier; scaling will not help",
                    topology=current.label(), workload=workload,
                    write_ratio=write_ratio))
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
                    write_ratio=write_ratio))
                walk["done"] = True
                return out
            out.append(Decision.note(
                PROMOTE,
                f"{tier} tier saturated "
                f"({result.tier_cpu(tier):.0f}% CPU) at u={workload}; "
                f"promoting {current.label()} -> {candidate.label()}",
                topology=candidate.label(), workload=workload,
                write_ratio=write_ratio))
            for index in range(walk["workload_index"]):
                lighter = frontier.point(candidate, workloads[index],
                                         write_ratio)
                if not frontier.is_resolved(lighter):
                    out.append(_point_prune(
                        candidate.label(), write_ratio, workloads, index,
                        f"{current.label()} already carried "
                        f"u={workloads[index]} within SLO"))
            for index in range(walk["workload_index"] + 1,
                               len(workloads)):
                heavier = frontier.point(current, workloads[index],
                                         write_ratio)
                if not frontier.is_resolved(heavier):
                    out.append(_point_prune(
                        current.label(), write_ratio, workloads, index,
                        f"{current.label()} already violates the SLO "
                        f"at u={workload}"))
            walk["visited"].add(candidate.label())
            walk["current"] = candidate


class _Saturated(_Observed):
    """A fake trial result carrying its verdict and saturated tier."""

    def __init__(self, violated, tier):
        super().__init__(violated)
        self.tier = tier

    def tier_cpu(self, tier):
        return 97.0


def _decision_log(experiment, policy, execute, record=log_rows):
    """``(planner_decisions rows, knees, trials, pruned points)`` of one
    exploration, each round's rows built by *record* (by default as a
    campaign records them)."""
    rows = []
    outcome = AdaptivePlanner(experiment, policy).run(
        execute, on_round=lambda round_no, decisions: rows.extend(
            record(round_no, decisions, policy.name, experiment.name)))
    assert len(rows) == len(outcome.decisions)
    return rows, outcome.knees, outcome.executed, outcome.pruned_points


def _verdict_execute(verdicts):
    def execute(tasks):
        return [verdicts[task.topology.label(), task.workload,
                         f"{round(task.write_ratio * 100)}%"]
                for task in tasks]
    return execute


class TestRangePrunesLogLikePointPrunes:
    """Range prunes write the same ``planner_decisions`` rows — order,
    reasons and fidelity — and reach the same knees as one prune per
    point did."""

    @settings(max_examples=60, deadline=None)
    @given(exploration=_explorations(),
           fidelity=st.sampled_from([DES, ANALYTIC]))
    def test_knee_and_budget(self, exploration, fidelity):
        tbl, verdicts, budget = exploration
        experiment = experiment_of(tbl)
        execute = _verdict_execute(
            {key: _Observed(violated) for key, violated in verdicts.items()})
        with mock.patch("repro.planner.policy.slo_violated",
                        lambda result, slo: result.violated):
            new = _decision_log(experiment, make_policy(
                "knee", budget=budget, fidelity=fidelity), execute)
        reference = _RescanKnee(lambda result: result.violated)
        if budget is not None:
            reference = _RescanBudget(reference, budget)
        if fidelity == ANALYTIC:
            reference = _Stamped(reference)
        assert new == _decision_log(experiment, reference, execute,
                                    _point_log_rows)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_promotion_walk_and_budget(self, data):
        topologies = data.draw(st.lists(
            st.sampled_from(["1-1-1", "1-2-1", "1-1-2", "1-2-2", "1-4-2",
                             "2-2-1", "1-4-1"]),
            min_size=1, max_size=5, unique=True))
        workloads = data.draw(st.lists(st.integers(1, 5000), min_size=1,
                                       max_size=12, unique=True))
        ratios = data.draw(st.lists(st.sampled_from(["0%", "15%", "30%"]),
                                    min_size=1, max_size=2, unique=True))
        outcomes = st.tuples(st.booleans(),
                             st.sampled_from([None, "web", "app", "db"]))
        results = {(topology, workload, ratio): _Saturated(
                       *data.draw(outcomes))
                   for topology in topologies for workload in workloads
                   for ratio in ratios}
        budget = data.draw(st.none() | st.integers(1, len(results)))
        experiment = experiment_of(
            f'benchmark rubis; platform emulab;\n'
            f'experiment "walk" {{\n'
            f'    topology {", ".join(topologies)};\n'
            f'    workload {", ".join(map(str, workloads))};\n'
            f'    write_ratio {", ".join(ratios)};\n'
            f'}}\n')
        execute = _verdict_execute(results)

        def explore(policy, record=log_rows):
            if budget is not None:
                policy = BudgetedExplorer(policy, budget)
            return _decision_log(experiment, policy, execute, record)

        with mock.patch("repro.planner.policy.slo_violated",
                        lambda result, slo: result.violated), \
                mock.patch("repro.planner.policy.detect_bottleneck",
                           lambda result, threshold: result.tier):
            assert explore(TopologyPromotionPolicy()) == \
                explore(_PerPointPromotion(), _point_log_rows)
