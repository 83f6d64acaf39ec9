"""Remediation-plane tests: detect -> propose -> verify -> schedule.

The acceptance bar mirrors the fault plane's: every heal decision is a
pure function of recorded observations, so a ``repro heal`` run twice
— or killed at any cut point and re-run — must leave byte-identical
``remediations`` and trial tables behind.  The
loop must also always explain itself: when nothing can be done, the
report carries the proposer's rejections and the capacity planner's
infeasibility verdict instead of a silent no-op.
"""

import pytest

from repro import FaultPlan, FaultSpec, RetryPolicy, run_campaign
from repro.errors import RemedyError
from repro.faults import EVERY_ATTEMPT
from repro.remedy import (
    BUDGET_EXHAUSTED,
    HEALED,
    HEALTHY,
    INJECTED_FAULT,
    NO_CANDIDATE,
    PROMOTE_TIER,
    QUARANTINE,
    RELEASE_HOST,
    REPLACE_HOST,
    SLO_VIOLATION,
    Detector,
    Diagnosis,
    Proposer,
    apply_patch,
    heal_campaign,
    progression_supported,
)
from repro.results.database import ResultsDatabase
from repro.sim import DES
from repro.spec.tbl import parse as parse_tbl

FAULTED_TBL = """
benchmark rubis; platform emulab;
experiment "healdemo" {
    topology 1-1-1;
    workload 50, 100, 150, 200;
    write_ratio 15%;
    trial { warmup 3s; run 15s; cooldown 3s; }
}
"""

KNEE_TBL = """
benchmark rubis; platform emulab;
experiment "knee" {
    topology 1-1-1;
    workload 200, 400;
    write_ratio 15%;
    trial { warmup 3s; run 15s; cooldown 3s; }
}
"""

#: A persistent, non-transient crash pinned to node-1: the first two
#: rungs DNF (and quarantine the host) before the ladder shifts to
#: node-2 — the canonical "faulty machine" a heal must replace.
CRASH_PLAN = FaultPlan([FaultSpec(kind="host-crash", target="node-1",
                                  rate=1.0, attempts=EVERY_ATTEMPT,
                                  transient=False)], seed=3)
CRASH_RETRY = RetryPolicy(max_attempts=2, quarantine_after=2)

#: Byte-identity covers the science, the chaos record, and the heal's
#: own decision log.
HEAL_TABLES = ("trials", "host_cpu", "state_metrics", "failures",
               "remediations")


def faulted_db():
    database = ResultsDatabase()
    run_campaign(FAULTED_TBL, database=database, faults=CRASH_PLAN,
                 retry=CRASH_RETRY)
    return database


def heal_dump(database):
    assert database.integrity_check() == []
    return {table: database.dump_rows(table) for table in HEAL_TABLES}


@pytest.fixture(scope="module")
def faulted_heal():
    """The reference: a faulted campaign healed sequentially."""
    database = faulted_db()
    report = heal_campaign(database)
    return database, report, heal_dump(database)


# ---------------------------------------------------------------------------
# Detector


class TestDetector:
    def test_faulted_ladder_yields_fault_and_quarantine(self,
                                                        faulted_heal):
        database, _report, _dump = faulted_heal
        spec = parse_tbl(FAULTED_TBL)
        experiment = spec.experiment("healdemo")
        baseline = database.query(experiment_name="healdemo",
                                  fidelity=DES)
        diagnoses = Detector(experiment.slo).diagnose(baseline)
        kinds = [d.kind for d in diagnoses]
        assert kinds == [INJECTED_FAULT, QUARANTINE]
        fault, sentence = diagnoses
        assert fault.host == "node-1"
        assert fault.fault_kind == "host-crash"
        assert fault.workload == 50          # the knee, not every rung
        assert "blamed on node-1" in fault.evidence
        assert sentence.host == "node-1"
        assert sentence.evidence.count("quarantined") == 1

    def test_healthy_ladder_yields_nothing(self):
        report = run_campaign(KNEE_TBL)
        spec = parse_tbl(KNEE_TBL)
        experiment = spec.experiment("knee")
        results = [r for r in report.database.query()
                   if r.workload <= 200]
        assert Detector(experiment.slo,
                        target=200).diagnose(results) == []

    def test_no_observations_is_an_error(self):
        spec = parse_tbl(FAULTED_TBL)
        detector = Detector(spec.experiment("healdemo").slo)
        with pytest.raises(RemedyError, match="no observations"):
            detector.diagnose([])


# ---------------------------------------------------------------------------
# Proposer


def _experiment(tbl, name):
    return parse_tbl(tbl).experiment(name)


class TestProposer:
    def test_fault_diagnoses_become_host_patches(self, faulted_heal):
        database, _report, _dump = faulted_heal
        experiment = _experiment(FAULTED_TBL, "healdemo")
        baseline = database.query(experiment_name="healdemo",
                                  fidelity=DES)
        diagnoses = Detector(experiment.slo).diagnose(baseline)
        proposer = Proposer(experiment, CRASH_PLAN, 36)
        candidates, rejections = proposer.propose(diagnoses)
        assert [c.kind for c in candidates] == [REPLACE_HOST,
                                                RELEASE_HOST]
        assert rejections == []
        replace, release = candidates
        assert replace.target == "node-1"
        assert replace.drop_faults == (0,)   # the crash spec's index
        assert release.probation > 0

    def test_saturation_promotes_within_node_budget(self):
        experiment = _experiment(KNEE_TBL, "knee")
        diagnosis = Diagnosis(kind="saturation", experiment="knee",
                              topology="1-1-1", write_ratio=0.15,
                              workload=400, tier="app",
                              evidence="app tier saturated")
        candidates, rejections = Proposer(experiment, None,
                                          36).propose([diagnosis])
        assert [c.new_topology for c in candidates] == ["1-2-1", "1-3-1"]
        assert all(c.kind == PROMOTE_TIER for c in candidates)
        assert rejections == []
        # A 5-node cluster fits neither promotion.
        candidates, rejections = Proposer(experiment, None,
                                          5).propose([diagnosis])
        assert candidates == []
        assert len(rejections) == 2
        assert "5 nodes" in rejections[0].reason

    def test_typed_pool_probe_can_veto_a_promotion(self):
        experiment = _experiment(KNEE_TBL, "knee")
        diagnosis = Diagnosis(kind="saturation", experiment="knee",
                              topology="1-1-1", write_ratio=0.15,
                              tier="db", evidence="db tier saturated")
        proposer = Proposer(
            experiment, None, 36,
            allocatable=lambda t: f"no spare db node for {t.label()}"
                if t.db > 1 else None)
        candidates, rejections = proposer.propose([diagnosis])
        assert candidates == []
        assert all("no spare db node" in r.reason for r in rejections)

    def test_untraceable_fault_and_unknown_kind_are_rejected(self):
        experiment = _experiment(FAULTED_TBL, "healdemo")
        orphan = Diagnosis(kind=INJECTED_FAULT, experiment="healdemo",
                           topology="1-1-1", write_ratio=0.15,
                           fault_kind="monitor-truncate", host="node-9",
                           evidence="DNF")
        mystery = Diagnosis(kind=SLO_VIOLATION, experiment="healdemo",
                            topology="1-1-1", write_ratio=0.15,
                            evidence="slow with no saturated tier")
        candidates, rejections = Proposer(experiment, CRASH_PLAN,
                                          36).propose([orphan, mystery])
        assert candidates == []
        assert "untraceable" in rejections[0].reason
        assert "no remediation rule" in rejections[1].reason


class TestApplyPatch:
    def test_patches_are_pure(self):
        experiment = _experiment(FAULTED_TBL, "healdemo")
        diagnoses = [Diagnosis(kind=QUARANTINE, experiment="healdemo",
                               topology="1-1-1", write_ratio=0.15,
                               fault_kind="host-crash", host="node-1",
                               evidence="quarantined")]
        (release,), _ = Proposer(experiment, CRASH_PLAN,
                                 36).propose(diagnoses)
        topologies = tuple(experiment.topologies)
        retry = CRASH_RETRY
        new_topos, new_plan, new_retry = apply_patch(
            release, topologies, CRASH_PLAN, retry)
        # The crash spec targeting node-1 is stripped; the original
        # plan and policy objects are untouched.
        assert new_plan is None or not new_plan.specs
        assert len(CRASH_PLAN.specs) == 1
        assert new_retry.probation_trials == release.probation
        assert retry.probation_trials == 0
        assert new_topos == topologies


# ---------------------------------------------------------------------------
# The closed loop, end to end


class TestHealEndToEnd:
    def test_faulted_campaign_heals(self, faulted_heal):
        database, report, _dump = faulted_heal
        assert report.outcome == HEALED
        assert report.healthy
        assert report.baseline_supported == 0
        assert report.healed_supported == 200 == report.target
        assert [p.kind for p in report.applied] == [REPLACE_HOST]
        assert report.final_experiment == "healdemo@healed.r1"
        healed = database.query(
            experiment_name="healdemo@healed.r1", fidelity=DES)
        assert len(healed) == 4
        assert all(r.completed for r in healed)
        assert "supported 0 -> 200 of 200 users" in report.summary()
        assert "applied: replace host node-1" in report.describe()

    def test_remediations_log_tells_the_whole_story(self, faulted_heal):
        database, _report, _dump = faulted_heal
        stages = [(row[0], row[2], row[3])
                  for row in database.dump_rows("remediations")]
        assert stages == [
            (1, "diagnosis", INJECTED_FAULT),
            (1, "diagnosis", QUARANTINE),
            (1, "candidate", REPLACE_HOST),
            (1, "candidate", RELEASE_HOST),
            (1, "verdict", REPLACE_HOST),
            (1, "verdict", RELEASE_HOST),
            (1, "confirm", REPLACE_HOST),
            (1, "apply", REPLACE_HOST),
            (1, "remeasure", "ladder"),
            (2, "outcome", HEALED),
        ]
        assert database.remediation_count() == 10

    def test_heal_parameters_persist_for_resume(self, faulted_heal):
        database, report, _dump = faulted_heal
        assert database.get_meta("heal_experiment") == "healdemo"
        assert database.get_meta("heal_target") == "200"
        assert database.get_meta("heal_outcome") == HEALED
        assert "replace-host" in database.get_meta("heal_patches")
        assert report.spent <= report.budget

    def test_healthy_campaign_is_a_no_op_heal(self):
        database = ResultsDatabase()
        run_campaign(FAULTED_TBL, database=database)
        report = heal_campaign(database)
        assert report.outcome == HEALTHY
        assert report.applied == []
        assert report.trials == 0
        stages = [row[2] for row in database.dump_rows("remediations")]
        assert stages == ["outcome"]

    def test_saturation_heals_by_promotion(self):
        database = ResultsDatabase()
        run_campaign(KNEE_TBL, database=database)
        lines = []
        report = heal_campaign(database, on_progress=lines.append)
        assert report.outcome == HEALED
        (patch,) = report.applied
        assert patch.kind == PROMOTE_TIER
        assert patch.target == "app"
        assert patch.new_topology in ("1-2-1", "1-3-1")
        assert report.baseline_supported == 200
        assert report.healed_supported == 400
        # The analytic pre-screen ran (free) before the DES confirm.
        prescreen = database.query(fidelity="analytic")
        assert any("@r1.c" in r.experiment_name for r in prescreen)
        assert any("saturated" in line for line in lines)

    def test_unfit_cluster_surfaces_infeasibility(self):
        database = ResultsDatabase()
        run_campaign(KNEE_TBL, database=database, node_count=7)
        report = heal_campaign(database)
        assert report.outcome == NO_CANDIDATE
        assert not report.healthy
        # Satellite (f): the typed-pool rejections AND the capacity
        # planner's InfeasiblePlan verdict both reach the report.
        assert any("'emulab-high'" in reason
                   for reason in report.reasons)
        assert any("infeasible" in reason for reason in report.reasons)
        assert report.describe().count("why not:") >= 2
        stages = [row[2] for row in database.dump_rows("remediations")]
        assert "infeasible" in stages

    def test_budget_exhaustion_is_explicit_and_persisted(self):
        database = faulted_db()
        report = heal_campaign(database, budget=1)
        assert report.outcome == BUDGET_EXHAUSTED
        assert report.spent == 1
        assert any("budget 1" in reason for reason in report.reasons)
        # A re-run with no arguments replays under the stored budget.
        again = heal_campaign(database)
        assert again.outcome == BUDGET_EXHAUSTED
        assert again.budget == 1


class TestHealErrors:
    def test_heal_needs_a_campaign(self):
        with pytest.raises(Exception, match="campaign meta"):
            heal_campaign(ResultsDatabase())

    def test_heal_needs_des_observations(self):
        database = ResultsDatabase()
        run_campaign(FAULTED_TBL, database=database, fidelity="analytic")
        with pytest.raises(RemedyError, match="no DES observations"):
            heal_campaign(database)

    def test_parameters_are_validated(self):
        database = faulted_db()
        with pytest.raises(RemedyError, match="heal_budget"):
            heal_campaign(database, budget=0)
        with pytest.raises(RemedyError, match="lowest rung"):
            heal_campaign(database, target=10)


# ---------------------------------------------------------------------------
# Determinism: re-run, kill + resume


class StopHeal(Exception):
    pass


class TestHealDeterminism:
    def test_repeated_heal_is_idempotent(self, faulted_heal):
        database, first, reference = faulted_heal
        again = heal_campaign(database)
        assert again.outcome == first.outcome
        assert again.trials == 0
        assert again.reused == first.trials + first.reused
        assert heal_dump(database) == reference

    @pytest.mark.parametrize("cut_after", [1, 3])
    def test_killed_heal_resumes_byte_identically(self, faulted_heal,
                                                  cut_after):
        _db, first, reference = faulted_heal
        database = faulted_db()
        executed = []

        def interrupt(result):
            executed.append(result)
            if len(executed) == cut_after:
                raise StopHeal

        with pytest.raises(StopHeal):
            heal_campaign(database, on_trial=interrupt)
        assert len(executed) == cut_after
        report = heal_campaign(database)
        assert report.outcome == HEALED
        assert report.reused >= cut_after
        assert report.trials == first.trials - cut_after
        assert heal_dump(database) == reference


class TestHealCli:
    def test_heal_cli_local(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "faulted.sqlite")
        database = ResultsDatabase(db)
        run_campaign(FAULTED_TBL, database=database, faults=CRASH_PLAN,
                     retry=CRASH_RETRY)
        database.close()
        assert main(["heal", db]) == 0
        out = capsys.readouterr().out
        assert "heal healed" in out
        assert "applied: replace host node-1" in out
        assert f"remediation log stored in {db}" in out

    def test_heal_cli_missing_db_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["heal", str(tmp_path / "nope.sqlite")]) == 1
        assert "no results database" in capsys.readouterr().err


class TestProgressionSupported:
    def test_holes_do_not_count_as_support(self, faulted_heal):
        database, _report, _dump = faulted_heal
        experiment = _experiment(FAULTED_TBL, "healdemo")
        baseline = database.query(experiment_name="healdemo",
                                  fidelity=DES)
        # Rungs 150/200 pass on node-2, but the ladder's first rungs
        # DNF — supported load is 0, not 200.
        assert any(r.completed for r in baseline)
        assert progression_supported(baseline, experiment.slo) == 0
        healed = database.query(
            experiment_name="healdemo@healed.r1", fidelity=DES)
        assert progression_supported(healed, experiment.slo) == 200
