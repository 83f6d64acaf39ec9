"""Tests for the core characterization/capacity/strategy/campaign API."""

import pytest

from repro.core import (
    CapacityPlanner,
    ObservationCampaign,
    PerformanceMap,
    ScaleOutStrategy,
    detect_bottleneck,
    diagnose,
    slo_violated,
)
from repro.core.bottleneck import bottleneck_progression
from repro.errors import ResultsError, TblError
from repro.experiments.figures import make_runner
from repro.results import ResultsDatabase
from repro.spec.tbl import ServiceLevelObjective
from tests.test_results import make_result


class TestBottleneck:
    def test_detects_saturated_app_tier(self):
        result = make_result(app_cpu=95.0, db_cpu=30.0)
        assert detect_bottleneck(result) == "app"

    def test_detects_most_utilized_when_several_saturated(self):
        result = make_result(app_cpu=88.0, db_cpu=97.0)
        assert detect_bottleneck(result) == "db"

    def test_no_bottleneck_below_threshold(self):
        result = make_result(app_cpu=60.0, db_cpu=30.0)
        assert detect_bottleneck(result) is None

    def test_slo_violated_on_rt(self):
        slo = ServiceLevelObjective(response_time=0.1, error_ratio=0.1)
        assert slo_violated(make_result(mean_rt=0.5), slo)
        assert not slo_violated(make_result(mean_rt=0.05), slo)

    def test_diagnose_structure(self):
        slo = ServiceLevelObjective(response_time=0.1)
        verdict = diagnose(make_result(mean_rt=0.5, app_cpu=95.0), slo)
        assert verdict["slo_violated"]
        assert verdict["bottleneck"] == "app"
        assert verdict["utilizations"]["app"] == 95.0

    def test_progression_finds_first_violation(self):
        slo = ServiceLevelObjective(response_time=0.1)
        results = [
            make_result(workload=100, mean_rt=0.05, app_cpu=40),
            make_result(workload=200, mean_rt=0.08, app_cpu=70),
            make_result(workload=300, mean_rt=0.9, app_cpu=99),
        ]
        verdict = bottleneck_progression(results, slo)
        assert verdict["workload"] == 300
        assert verdict["bottleneck"] == "app"

    def test_progression_none_when_all_good(self):
        slo = ServiceLevelObjective(response_time=10.0)
        results = [make_result(workload=100, mean_rt=0.05)]
        assert bottleneck_progression(results, slo) is None

    def test_dnf_violates_slo(self):
        # A DNF row carries empty metrics (mean RT 0.0), which a naive
        # threshold check reads as a pass; a trial that could not
        # complete the benchmark violates by definition.
        from repro.experiments.trial import DNF, empty_metrics

        slo = ServiceLevelObjective(response_time=0.1, error_ratio=0.1)
        dnf = make_result(status=DNF, mean_rt=0.0)
        assert dnf.metrics.mean_response_s <= slo.response_time
        assert slo_violated(dnf, slo)
        assert empty_metrics().mean_response_s == 0.0

    def test_diagnose_reports_dnf_status(self):
        from repro.experiments.trial import DNF

        slo = ServiceLevelObjective(response_time=0.1)
        verdict = diagnose(make_result(status=DNF, mean_rt=0.0,
                                       app_cpu=99.0), slo)
        assert verdict["status"] == DNF
        assert verdict["slo_violated"]
        assert verdict["bottleneck"] == "app"

    def test_diagnose_handles_failed_result_without_hosts(self):
        # failed_result rows have no host_cpu/tier_of_host at all —
        # diagnose must not require monitor data to render a verdict.
        from repro.experiments.trial import AttemptFailure, failed_result
        from repro.spec.tbl import parse as parse_tbl
        from repro.spec.topology import Topology

        spec = parse_tbl(
            'benchmark rubis; platform emulab; experiment "e" { '
            "topology 1-1-1; workload 100; write_ratio 15%; "
            "trial { warmup 1s; run 5s; cooldown 1s; } }")
        dnf = failed_result(
            spec.experiments[0], Topology.parse("1-1-1"), 100, 0.15, 42,
            failures=[AttemptFailure(attempt=1, phase="deploy",
                                     cause="host crashed",
                                     error_type="DeploymentError",
                                     transient=True, resolution="gave-up")],
            attempts=1)
        slo = ServiceLevelObjective(response_time=0.1)
        verdict = diagnose(dnf, slo)
        assert verdict["slo_violated"]
        assert verdict["bottleneck"] is None
        assert verdict["utilizations"] == {}

    def test_progression_with_dnf_mixed_in(self):
        # The knee lands on the DNF even though its raw metrics would
        # read as the healthiest trial of the series.
        from repro.experiments.trial import DNF

        slo = ServiceLevelObjective(response_time=1.0, error_ratio=0.1)
        results = [
            make_result(workload=300, mean_rt=0.0, status=DNF,
                        app_cpu=0.0, db_cpu=0.0),
            make_result(workload=100, mean_rt=0.05, app_cpu=40),
            make_result(workload=200, mean_rt=0.08, app_cpu=70),
        ]
        verdict = bottleneck_progression(results, slo)
        assert verdict["workload"] == 300
        assert verdict["status"] == DNF

    def test_progression_dnf_before_clean_violation(self):
        from repro.experiments.trial import DNF

        slo = ServiceLevelObjective(response_time=0.5)
        results = [
            make_result(workload=100, mean_rt=0.05),
            make_result(workload=200, mean_rt=0.0, status=DNF),
            make_result(workload=300, mean_rt=2.0, app_cpu=99),
        ]
        verdict = bottleneck_progression(results, slo)
        assert verdict["workload"] == 200    # first violation, the DNF


class TestPerformanceMap:
    def _map(self):
        results = []
        for topology, capacity in (("1-1-1", 245), ("1-2-1", 490)):
            for workload in (100, 200, 300, 400, 500):
                rt = 0.04 if workload <= capacity \
                    else workload / (capacity / 7.0) - 7.0
                results.append(make_result(topology, workload, mean_rt=rt))
        return PerformanceMap(results)

    def test_exact_point(self):
        pmap = self._map()
        assert pmap.response_time("1-1-1", 100) == pytest.approx(0.04)

    def test_interpolation_between_points(self):
        pmap = self._map()
        rt_250 = pmap.response_time("1-1-1", 250)
        rt_200 = pmap.response_time("1-1-1", 200)
        rt_300 = pmap.response_time("1-1-1", 300)
        assert rt_200 < rt_250 < rt_300
        assert rt_250 == pytest.approx((rt_200 + rt_300) / 2)

    def test_clamps_outside_observed_range(self):
        pmap = self._map()
        assert pmap.response_time("1-1-1", 10) == \
            pmap.response_time("1-1-1", 100)
        assert pmap.response_time("1-1-1", 9999) == \
            pmap.response_time("1-1-1", 500)

    def test_supported_users(self):
        # RT(1-1-1): 0.04 up to 200, 1.57 @300, 4.43 @400, 7.3 @500.
        pmap = self._map()
        slo = ServiceLevelObjective(response_time=1.0)
        assert pmap.supported_users("1-1-1", slo) == 200
        assert pmap.supported_users("1-2-1", slo) == 500

    def test_knee_detection(self):
        pmap = self._map()
        assert pmap.knee("1-1-1") == 300
        assert pmap.knee("1-2-1") == 500

    def test_unknown_topology(self):
        with pytest.raises(ResultsError):
            self._map().response_time("9-9-9", 100)

    def test_from_database(self):
        with ResultsDatabase() as db:
            db.insert(make_result())
            pmap = PerformanceMap.from_database(db)
            assert pmap.topologies() == ["1-1-1"]


class TestCapacityPlanner:
    def _planner(self):
        results = []
        for topology, capacity in (("1-1-1", 245), ("1-2-1", 490),
                                   ("1-3-1", 735), ("1-2-2", 510)):
            for workload in (100, 300, 500, 700):
                rt = 0.04 if workload <= capacity \
                    else workload / (capacity / 7.0) - 7.0
                results.append(make_result(topology, workload, mean_rt=rt))
        return CapacityPlanner(PerformanceMap(results))

    def test_minimal_plan_for_light_load(self):
        plan = self._planner().plan(
            100, ServiceLevelObjective(response_time=1.0))
        assert plan.topology == "1-1-1"
        assert plan.total_servers == 3

    def test_minimal_plan_for_500_users(self):
        # Against a tight 100 ms SLO, 1-2-1 is just past its knee at 500
        # users (RT 143 ms); 1-3-1 is the smallest compliant topology.
        plan = self._planner().plan(
            500, ServiceLevelObjective(response_time=0.1))
        # 1-2-1 (4 servers) is past its knee; 1-3-1 and 1-2-2 tie at
        # five servers and both comply.
        assert plan.topology in ("1-3-1", "1-2-2")
        assert plan.total_servers == 5

    def test_prefers_fewer_servers_over_faster(self):
        # 1-2-2 also carries 500 users but needs 5 servers vs 1-3-1's 5:
        # tie broken by expected response time; both beat over-provision.
        plan = self._planner().plan(
            300, ServiceLevelObjective(response_time=1.0))
        assert plan.topology == "1-2-1"

    def test_unsatisfiable_returns_infeasible_plan(self):
        plan = self._planner().plan(
            5000, ServiceLevelObjective(response_time=0.5))
        assert not plan.feasible
        assert plan.users == 5000
        assert "5000" in plan.reason
        # The nearest measured configuration is named, so the operator
        # knows where the observations ran out: 1-3-1 carries the most
        # users (700) of anything measured.
        assert plan.nearest_topology == "1-3-1"
        assert plan.nearest_supported_users == 700
        assert "1-3-1" in plan.describe()

    def test_plan_range_marks_unsatisfiable(self):
        plans = self._planner().plan_range(
            [100, 5000], ServiceLevelObjective(response_time=1.0))
        assert plans[100].feasible
        assert not plans[5000].feasible
        assert plans[5000].nearest_topology == "1-3-1"

    def test_over_provisioning_raises_when_infeasible(self):
        with pytest.raises(ResultsError, match="infeasible"):
            self._planner().over_provisioning(
                5000, ServiceLevelObjective(response_time=0.5), "1-3-1")

    def test_over_provisioning(self):
        planner = self._planner()
        waste = planner.over_provisioning(
            100, ServiceLevelObjective(response_time=1.0), "1-3-1")
        assert waste == 2

    def test_describe(self):
        plan = self._planner().plan(
            100, ServiceLevelObjective(response_time=1.0))
        assert "1-1-1" in plan.describe()


class TestScaleOutStrategy:
    def test_strategy_grows_app_tier_first(self):
        runner = make_runner("emulab", "rubis", node_count=16)
        strategy = ScaleOutStrategy(runner, "rubis", "emulab", scale=0.05)
        slo = ServiceLevelObjective(response_time=1.0, error_ratio=0.1)
        outcome = strategy.explore(
            slo, workload_start=200, workload_step=200, max_workload=800,
            max_app=4, max_trials=12,
        )
        actions = [step.action for step in outcome.steps]
        assert "scale app" in actions
        assert "scale db" not in actions      # app is the RUBiS bottleneck
        # The exploration must have measurably raised capacity.
        assert outcome.max_supported_workload(slo) >= 400

    def test_strategy_records_reasons(self):
        runner = make_runner("emulab", "rubis", node_count=12)
        strategy = ScaleOutStrategy(runner, "rubis", "emulab", scale=0.05)
        slo = ServiceLevelObjective(response_time=1.0, error_ratio=0.1)
        outcome = strategy.explore(
            slo, workload_start=300, workload_step=300, max_workload=600,
            max_app=2, max_trials=6,
        )
        assert all(step.reason for step in outcome.steps)
        assert outcome.final_topology() is not None


class TestObservationCampaign:
    TBL = """
    benchmark rubis; platform emulab;
    experiment "mini" {
        topology 1-1-1, 1-2-1;
        workload 100, 300;
        write_ratio 15%;
        trial { warmup 3s; run 15s; cooldown 3s; }
    }
    """

    def test_campaign_end_to_end(self):
        campaign = ObservationCampaign(self.TBL, node_count=10)
        report = campaign.run()
        assert report.trials == 4
        assert report.completed >= 3
        assert campaign.database.count() == 4
        pmap = campaign.performance_map()
        assert set(pmap.topologies()) == {"1-1-1", "1-2-1"}
        # 1-2-1 handles 300 users gracefully, 1-1-1 does not.
        assert pmap.response_time("1-2-1", 300) < \
            pmap.response_time("1-1-1", 300) / 3

    def test_campaign_subset_selection(self):
        campaign = ObservationCampaign(self.TBL, node_count=10)
        report = campaign.run(experiment_names=["mini"])
        assert report.experiments == ["mini"]

    def test_campaign_progress_callback(self):
        campaign = ObservationCampaign(self.TBL, node_count=10)
        seen = []
        campaign.run(on_result=lambda r: seen.append(r.workload))
        assert sorted(seen) == [100, 100, 300, 300]

    def test_campaign_validates_spec(self):
        bad = """
        benchmark rubis; platform emulab;
        experiment "huge" { topology 1-40-3; workload 100; }
        """
        with pytest.raises(Exception):
            ObservationCampaign(bad, node_count=10)


class TestIngestReplace:
    """A campaign looks up a stored trial to replace only for the keys
    its database held when the run started."""

    TBL = """
    benchmark rubis; platform emulab;
    experiment "ingest" {
        topology 1-1-1, 1-2-1;
        workload 100, 300;
        write_ratio 15%;
    }
    """
    #: Overlaps TBL at u=300, so a second run replaces two trials.
    AGAIN = TBL.replace("100, 300", "300, 500")
    TABLES = ("trials", "host_cpu", "state_metrics", "spans", "failures")

    def _two_runs(self, path):
        with ResultsDatabase(str(path)) as database:
            for tbl in (self.TBL, self.AGAIN):
                ObservationCampaign(tbl, node_count=10, database=database) \
                    .run(fidelity="analytic")
            return {table: database.dump_rows(table)
                    for table in self.TABLES}

    def test_rerun_into_a_populated_file_replaces_as_every_lookup_did(
            self, tmp_path, monkeypatch):
        tables = self._two_runs(tmp_path / "held.sqlite")
        monkeypatch.setattr(
            ResultsDatabase, "insert_many",
            lambda self, results, replace=(): [
                self.insert(result, replace=True) for result in results])
        assert tables == self._two_runs(tmp_path / "lookup-all.sqlite")
        assert [row[4:6] for row in tables["trials"]] == [
            ("1-1-1", 100), ("1-2-1", 100), ("1-1-1", 300), ("1-1-1", 500),
            ("1-2-1", 300), ("1-2-1", 500)]

    def test_only_held_keys_are_looked_up(self):
        database = ResultsDatabase()
        lookups = []
        database._db.set_trace_callback(
            lambda sql: lookups.append(sql)
            if sql.startswith("SELECT id FROM trials WHERE") else None)
        ObservationCampaign(self.TBL, node_count=10, database=database) \
            .run(fidelity="analytic")
        assert lookups == []
        ObservationCampaign(self.AGAIN, node_count=10, database=database) \
            .run(fidelity="analytic")
        assert len(lookups) == 2            # the two u=300 trials
        assert database.count() == 6

    def test_a_key_stored_twice_in_one_campaign_is_refused(self):
        # A campaign flushes its results with the keys it held at start;
        # a key it produced twice is not among them.
        database = ResultsDatabase()
        result = make_result()
        with pytest.raises(ResultsError, match="duplicate trial"):
            database.insert_many([result, result], replace=set())
        assert database.count() == 0

    def test_a_repeated_sweep_entry_is_refused_before_any_trial(self):
        duplicated = self.TBL.replace("100, 300", "100, 100")
        with pytest.raises(TblError, match="workload 100 listed twice"):
            ObservationCampaign(duplicated, node_count=10)

    def test_a_held_key_is_replaced_once_per_campaign(self):
        database = ResultsDatabase()
        result = make_result()
        database.insert(result)
        held = set(database.trial_keys())
        database.insert_many([result], replace=held)
        assert held == set() and database.count() == 1
        with pytest.raises(ResultsError, match="duplicate trial"):
            database.insert_many([result], replace=held)
