"""Fault-plane tests: determinism, retry, quarantine, resume.

The acceptance bar for the chaos plane is observational equivalence:
a campaign that suffered (and survived) injected transient faults must
store byte-identical observation tables — ``trials``, ``host_cpu``,
``state_metrics`` — to a fault-free sequential run.  Failures land in
their own ``failures`` table and fault spans in ``spans``, so the
record of the chaos never perturbs the science.
"""

import threading
import time

import pytest

from repro import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    Tracer,
    resume_campaign,
    run_campaign,
    trace_report,
)
from repro.deploy import DeploymentEngine
from repro.errors import (
    AllocationError,
    ClusterError,
    FaultPlanError,
    SpecError,
    TrialFailed,
)
from repro.faults import EVERY_ATTEMPT, GAVE_UP, NO_RETRY, as_policy
from repro.results.database import ResultsDatabase
from repro.results.export import from_csv, to_csv, to_json
from repro.spec.topology import Topology
from repro.vcluster import VirtualCluster

CAMPAIGN_TBL = """
benchmark rubis; platform emulab;
experiment "chaos" {
    topology 1-1-1, 1-2-1;
    workload 100, 200;
    write_ratio 15%;
    trial { warmup 3s; run 15s; cooldown 3s; }
}
"""

SINGLE_TBL = """
benchmark rubis; platform emulab;
experiment "single" {
    topology 1-1-1;
    workload 100;
    write_ratio 15%;
    trial { warmup 3s; run 15s; cooldown 3s; }
}
"""

#: The observation tables that must never differ between a fault-free
#: run and a chaos run that recovered via retries.
OBSERVATION_TABLES = ("trials", "host_cpu", "state_metrics")

CHAOS_PLAN = FaultPlan([
    FaultSpec(kind="host-crash", target="node-*", rate=0.5),
    FaultSpec(kind="monitor-truncate", rate=0.4),
], seed=11)

#: Retries without quarantine: repeated blame against one host would
#: otherwise pull it from the pool and shift later trials onto
#: different host names (quarantine has its own tests below).
CHAOS_RETRY = RetryPolicy(max_attempts=3, quarantine_after=10)


def observation_dump(database):
    # Byte-identity means nothing if the file is internally broken:
    # every dump doubles as a referential-integrity audit (the replace
    # path once orphaned child rows of replaced trials).
    assert database.integrity_check() == []
    return {table: database.dump_rows(table)
            for table in OBSERVATION_TABLES}


@pytest.fixture(scope="module")
def baseline():
    """Fault-free sequential campaign: the byte-comparison reference."""
    report = run_campaign(CAMPAIGN_TBL)
    return observation_dump(report.database)


# ---------------------------------------------------------------------------
# The plan language


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        keys = [("chaos", "1-1-1", w, 0.15, s)
                for w in (100, 200, 300) for s in (0, 1)]
        one = FaultPlan([FaultSpec(kind="host-crash", rate=0.5)], seed=7)
        two = FaultPlan([FaultSpec(kind="host-crash", rate=0.5)], seed=7)
        assert one.schedule(keys, attempts=3) == two.schedule(keys,
                                                             attempts=3)

    def test_different_seed_different_schedule(self):
        keys = [("chaos", "1-1-1", w, 0.15, 0) for w in range(100, 1100,
                                                              100)]
        spec = FaultSpec(kind="host-crash", rate=0.5)
        one = FaultPlan([spec], seed=7)
        two = FaultPlan([spec], seed=8)
        assert one.schedule(keys) != two.schedule(keys)

    def test_json_round_trip(self):
        plan = FaultPlan([
            FaultSpec(kind="daemon-kill", target="mysqld", rate=0.25,
                      attempts=2, experiment="chaos", transient=False),
            FaultSpec(kind="alloc-exhausted"),
        ], seed=42)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultSpec(kind="meteor-strike")

    def test_rate_validated(self):
        with pytest.raises(FaultPlanError, match="rate"):
            FaultSpec(kind="host-crash", rate=1.5)

    def test_bad_json_rejected(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(FaultPlanError, match="'faults' list"):
            FaultPlan.from_json("[]")
        with pytest.raises(FaultPlanError, match="unknown fault spec"):
            FaultPlan.from_json('{"faults": [{"kind": "host-crash", '
                                '"surprise": 1}]}')

    def test_fault_heals_after_attempt_budget(self):
        plan = FaultPlan([FaultSpec(kind="host-crash", attempts=1)])
        key = ("chaos", "1-1-1", 100, 0.15, 0)
        assert plan.draw(key, 0)
        assert not plan.draw(key, 1)

    def test_every_attempt_never_heals(self):
        plan = FaultPlan([FaultSpec(kind="host-crash",
                                    attempts=EVERY_ATTEMPT)])
        key = ("chaos", "1-1-1", 100, 0.15, 0)
        for attempt in range(5):
            assert plan.draw(key, attempt)

    def test_experiment_glob_scopes_faults(self):
        plan = FaultPlan([FaultSpec(kind="host-crash",
                                    experiment="chaos-*")])
        assert plan.draw(("chaos-a", "1-1-1", 100, 0.15, 0), 0)
        assert not plan.draw(("baseline", "1-1-1", 100, 0.15, 0), 0)


class TestRetryPolicy:
    def test_transient_classification(self):
        policy = RetryPolicy()
        assert policy.is_transient(ClusterError("node down"))
        assert not policy.is_transient(SpecError("bad TBL"))
        assert not policy.is_transient(ValueError("logic bug"))

    def test_trial_failed_judged_by_cause(self):
        policy = RetryPolicy()
        wrapped = TrialFailed("lost after window",
                              cause=ClusterError("node down"))
        assert policy.is_transient(wrapped)
        assert not policy.is_transient(TrialFailed("error budget"))

    def test_backoff_is_deterministic_geometry(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_factor=2.0)
        assert [policy.backoff_s(n) for n in (1, 2, 3)] == [1.0, 2.0, 4.0]

    def test_as_policy_normalization(self):
        assert as_policy(None) is NO_RETRY
        assert as_policy(1) is NO_RETRY
        assert as_policy(4).max_attempts == 4
        policy = RetryPolicy(max_attempts=2)
        assert as_policy(policy) is policy

    def test_validation(self):
        with pytest.raises(Exception, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(Exception, match="quarantine_after"):
            RetryPolicy(quarantine_after=0)


# ---------------------------------------------------------------------------
# Observational equivalence under chaos


class TestChaosDeterminism:
    def test_recovered_campaign_matches_fault_free_run(self, baseline):
        report = run_campaign(CAMPAIGN_TBL, faults=CHAOS_PLAN, retry=CHAOS_RETRY)
        db = report.database
        assert report.trials == 4 and report.dnf == 0
        # The plan must actually have bitten, or this test proves nothing.
        assert db.failure_count() > 0
        assert report.retried > 0
        assert observation_dump(db) == baseline

    def test_parallel_chaos_matches_fault_free_run(self, baseline):
        report = run_campaign(CAMPAIGN_TBL, faults=CHAOS_PLAN, retry=CHAOS_RETRY,
                              jobs=3)
        db = report.database
        assert report.dnf == 0
        assert db.failure_count() > 0
        assert observation_dump(db) == baseline

    def test_failures_table_reconstructs_attempts(self):
        report = run_campaign(CAMPAIGN_TBL, faults=CHAOS_PLAN, retry=CHAOS_RETRY)
        db = report.database
        retried = [result for result in db.query() if result.retried]
        assert retried
        for result in retried:
            assert result.completed
            assert len(result.failures) == result.attempts - 1
            assert all(f.transient for f in result.failures)
            assert all(f.fault_kind for f in result.failures)


# ---------------------------------------------------------------------------
# Checkpoint / resume


class StopCampaign(Exception):
    pass


class TestResume:
    def test_interrupted_campaign_resumes_exactly_remaining(self,
                                                            baseline):
        database = ResultsDatabase()
        seen = []

        def interrupt(result):
            seen.append(result)
            if len(seen) == 2:
                raise StopCampaign

        with pytest.raises(StopCampaign):
            run_campaign(CAMPAIGN_TBL, database=database,
                         faults=CHAOS_PLAN, retry=CHAOS_RETRY, on_result=interrupt)
        assert database.count() == 2

        report = resume_campaign(database)
        assert report.skipped == 2
        assert report.trials == 2
        assert database.count() == 4
        assert len(set(database.trial_keys())) == 4
        assert observation_dump(database) == baseline

    def test_resume_of_complete_campaign_is_a_no_op(self):
        database = ResultsDatabase()
        run_campaign(CAMPAIGN_TBL, database=database, retry=3)
        report = resume_campaign(database)
        assert report.trials == 0
        assert report.skipped == 4
        assert database.count() == 4

    def test_resume_restores_fault_plan_and_policy(self):
        database = ResultsDatabase()
        run_campaign(CAMPAIGN_TBL, database=database, faults=CHAOS_PLAN,
                     retry=RetryPolicy(max_attempts=5))
        from repro.core.campaign import ObservationCampaign
        campaign = ObservationCampaign.from_database(database)
        assert campaign.fault_plan == CHAOS_PLAN
        assert campaign.retry_policy.max_attempts == 5

    def test_resume_needs_campaign_meta(self):
        from repro.core.campaign import ObservationCampaign
        with pytest.raises(Exception, match="campaign meta"):
            ObservationCampaign.from_database(ResultsDatabase())


# ---------------------------------------------------------------------------
# Quarantine


class TestQuarantine:
    def test_persistent_host_fault_quarantines_and_completes(self):
        plan = FaultPlan([FaultSpec(kind="host-crash", target="node-1",
                                    attempts=EVERY_ATTEMPT)], seed=3)
        tracer = Tracer()
        report = run_campaign(
            CAMPAIGN_TBL, faults=plan, tracer=tracer,
            retry=RetryPolicy(max_attempts=4, quarantine_after=2))
        db = report.database
        assert report.trials == 4 and report.dnf == 0
        assert "node-1" in report.quarantined
        quarantined = db.quarantined_hosts()
        assert "node-1" in quarantined
        assert "failed attempts" in quarantined["node-1"]
        names = {span.name for _info, spans in db.traced_trials()
                 for span in spans}
        assert "fault" in names and "quarantine" in names
        rendered = trace_report(db)
        assert "Injected faults" in rendered
        assert "quarantined node-1" in rendered

    def test_structural_hosts_cannot_be_quarantined(self):
        cluster = VirtualCluster("emulab", node_count=8)
        for name in ("control", "client"):
            with pytest.raises(ClusterError, match="structural"):
                cluster.quarantine(name)

    def test_quarantined_host_leaves_the_pool(self):
        cluster = VirtualCluster("emulab", node_count=14)
        assert cluster.quarantine("node-1", reason="test")
        assert not cluster.quarantine("node-1")          # idempotent
        allocation = cluster.allocate(Topology(1, 1, 1))
        held = {h.name for h in allocation.all_server_hosts()}
        assert "node-1" not in held
        cluster.release(allocation)
        assert cluster.is_quarantined("node-1")
        assert cluster.quarantined() == {"node-1": "test"}

    def test_release_restores_a_fresh_host_to_the_pool(self):
        cluster = VirtualCluster("emulab", node_count=14)
        cluster.host("node-1").fs.write("/tmp/scar", "leftover state")
        assert cluster.quarantine("node-1", reason="test")
        assert cluster.release_quarantine("node-1")
        assert not cluster.release_quarantine("node-1")  # idempotent
        assert not cluster.release_quarantine("node-9")  # never sentenced
        assert not cluster.is_quarantined("node-1")
        assert cluster.quarantined() == {}
        # The released host is re-allocatable and comes back clean —
        # a replacement machine, not the scarred one.
        allocation = cluster.allocate(Topology(1, 1, 1))
        held = {h.name for h in allocation.all_server_hosts()}
        assert "node-1" in held
        assert not cluster.host("node-1").fs.exists("/tmp/scar")


# ---------------------------------------------------------------------------
# Probation: quarantine sentences expire after good behaviour


class TestProbation:
    def test_policy_round_trip_and_validation(self):
        policy = RetryPolicy(max_attempts=3, quarantine_after=2,
                             probation_trials=4)
        assert policy.to_dict()["probation_trials"] == 4
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        with pytest.raises(Exception, match="probation_trials"):
            RetryPolicy(probation_trials=-1)

    def test_released_host_serves_again_and_can_be_resentenced(self):
        # A crash pinned to node-1 that never heals: the host is
        # quarantined, paroled after two clean trials elsewhere, bitten
        # again on its first trial back, and re-quarantined on a single
        # repeat offence (blame restarts one below the threshold).
        plan = FaultPlan([FaultSpec(kind="host-crash", target="node-1",
                                    rate=1.0, attempts=EVERY_ATTEMPT)],
                         seed=3)
        tracer = Tracer()
        report = run_campaign(
            CAMPAIGN_TBL, faults=plan, tracer=tracer,
            retry=RetryPolicy(max_attempts=4, quarantine_after=2,
                              probation_trials=2))
        db = report.database
        assert report.trials == 4 and report.dnf == 0
        names = [span.name for _info, spans in db.traced_trials()
                 for span in spans]
        assert names.count("probation-release") == 2
        assert names.count("quarantine") == 2
        resolutions = [
            (f.host, f.resolution)
            for result in db.query() for f in result.failures]
        assert resolutions.count(("node-1", "quarantined")) == 2

    def test_without_probation_the_sentence_is_permanent(self):
        plan = FaultPlan([FaultSpec(kind="host-crash", target="node-1",
                                    rate=1.0, attempts=EVERY_ATTEMPT)],
                         seed=3)
        tracer = Tracer()
        report = run_campaign(
            CAMPAIGN_TBL, faults=plan, tracer=tracer,
            retry=RetryPolicy(max_attempts=4, quarantine_after=2))
        db = report.database
        assert report.trials == 4 and report.dnf == 0
        names = [span.name for _info, spans in db.traced_trials()
                 for span in spans]
        assert names.count("quarantine") == 1
        assert "probation-release" not in names


# ---------------------------------------------------------------------------
# Enriched DNF records and export round-trip (satellite d)


class TestDNFRecords:
    def test_non_transient_fault_gives_up_with_enriched_record(self):
        plan = FaultPlan([FaultSpec(kind="archive-corrupt",
                                    transient=False)])
        report = run_campaign(SINGLE_TBL, faults=plan, retry=3)
        db = report.database
        assert report.trials == 1 and report.dnf == 1
        (result,) = db.query()
        assert not result.completed
        assert result.attempts == 1                  # never retried
        (failure,) = db.failures_for(1)
        assert failure.resolution == GAVE_UP
        assert failure.fault_kind == "archive-corrupt"
        assert failure.phase == "deploy"
        assert not failure.transient

    def test_partial_metrics_survive_into_dnf_row(self):
        plan = FaultPlan([FaultSpec(kind="monitor-truncate",
                                    attempts=EVERY_ATTEMPT)])
        report = run_campaign(SINGLE_TBL, faults=plan,
                              retry=RetryPolicy(max_attempts=2))
        db = report.database
        (result,) = db.query()
        assert not result.completed
        assert result.attempts == 2
        # The fault fires after the run window: the simulation's partial
        # observations survive into the DNF row instead of zeroes.
        assert result.metrics.completed > 0
        assert result.metrics.throughput > 0
        failures = db.failures_for(1)
        assert [f.resolution for f in failures] == ["retried", GAVE_UP]
        assert all(f.phase == "collect" for f in failures)
        assert failures[0].backoff_s > 0

    def test_failures_round_trip_through_export(self):
        plan = FaultPlan([FaultSpec(kind="monitor-truncate",
                                    attempts=EVERY_ATTEMPT)])
        report = run_campaign(SINGLE_TBL, faults=plan,
                              retry=RetryPolicy(max_attempts=2))
        results = report.database.query()

        import json
        (row,) = json.loads(to_json(results))
        assert row["attempts"] == 2
        exported = row["failures"]
        assert len(exported) == 2
        assert exported[0]["fault_kind"] == "monitor-truncate"
        assert exported[0]["phase"] == "collect"
        assert exported[-1]["resolution"] == GAVE_UP

        (parsed,) = from_csv(to_csv(results))
        assert parsed["attempts"] == 2


# ---------------------------------------------------------------------------
# Satellite regressions: idempotent teardown, blocking-wait release


class TestHostIdempotency:
    def test_kill_twice_is_a_no_op(self):
        cluster = VirtualCluster("emulab", node_count=8)
        host = cluster.host("node-1")
        host.fs.write("/opt/x/bin/thing", "#!/bin/sh\n")
        process = host.spawn(["/opt/x/bin/thing"], background=True)
        assert host.kill(process.pid) is process
        assert host.kill(process.pid) is process     # already dead: no-op
        assert host.kill(999, strict=False) is None
        with pytest.raises(ClusterError, match="no such process"):
            host.kill(999)

    def test_kill_by_name_twice_is_a_no_op(self):
        cluster = VirtualCluster("emulab", node_count=8)
        host = cluster.host("node-1")
        host.fs.write("/opt/x/bin/thing", "#!/bin/sh\n")
        host.spawn(["/opt/x/bin/thing"], background=True)
        assert len(host.kill_by_name("thing")) == 1
        assert host.kill_by_name("thing") == []

    def test_engine_teardown_twice_is_a_no_op(self):
        from repro.generator import HostPlan, Mulini
        from repro.spec.mof import load_resource_model, render_resource_mof
        from repro.spec.tbl import parse as parse_tbl

        cluster = VirtualCluster("emulab", node_count=14)
        spec = parse_tbl(SINGLE_TBL)
        experiment = spec.experiment("single")
        mulini = Mulini(load_resource_model(
            render_resource_mof("rubis", "emulab")))
        allocation = cluster.allocate(Topology(1, 1, 1))
        bundle = mulini.generate(
            experiment, Topology(1, 1, 1), 100, 0.15,
            host_plan=HostPlan.from_allocation(allocation))
        engine = DeploymentEngine(cluster=cluster)
        deployment = engine.deploy(bundle, allocation)
        engine.teardown(deployment)
        engine.teardown(deployment)                  # must not raise
        engine.cleanup_failed(bundle, allocation)
        engine.cleanup_failed(bundle, allocation)    # must not raise


class TestBlockingWaitRelease:
    def test_release_after_failed_trial_wakes_waiters(self):
        # 7 nodes -> 5 workers, 3 of the default type: one 1-1-1
        # allocation exhausts them and a second must block.
        cluster = VirtualCluster("emulab", node_count=7)
        first = cluster.allocate(Topology(1, 1, 1))
        got = []

        def waiter():
            got.append(cluster.allocate(Topology(1, 1, 1), wait=True,
                                        timeout=30))

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not got                       # genuinely blocked
        # The failure path releases exactly like the success path.
        cluster.release(first)
        thread.join(timeout=30)
        assert not thread.is_alive() and len(got) == 1
        assert {h.name for h in got[0].all_server_hosts()}

    def test_waiting_for_the_impossible_raises_immediately(self):
        cluster = VirtualCluster("emulab", node_count=7)
        with pytest.raises(AllocationError, match="in total"):
            cluster.allocate(Topology(4, 4, 4), wait=True, timeout=30)

    def test_parallel_chaos_campaign_with_retries_completes(self):
        # End-to-end regression for the waiter-release path: a chaos
        # campaign at jobs>1 where failed attempts release allocations
        # must run to completion rather than deadlock.
        report = run_campaign(CAMPAIGN_TBL, faults=CHAOS_PLAN, retry=CHAOS_RETRY,
                              jobs=2)
        assert report.trials == 4 and report.dnf == 0
