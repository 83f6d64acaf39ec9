"""Tests for the results database, analysis functions and reports."""

import pytest

from repro.errors import ResultsError
from repro.experiments.trial import COMPLETED, DNF, TrialResult
from repro.monitoring.metrics import TrialMetrics
from repro.results import ResultsDatabase, analysis, report
from tests.conftest import assert_declared_schema


def make_result(topology="1-1-1", workload=100, write_ratio=0.15,
                mean_rt=0.05, throughput=None, status=COMPLETED,
                experiment="exp", app_cpu=50.0, db_cpu=20.0, seed=42,
                script_lines=1000, collected=100000):
    throughput = workload / 7.0 if throughput is None else throughput
    metrics = TrialMetrics(
        completed=int(throughput * 30), errors=0, timeouts=0, rejections=0,
        duration_s=30.0, throughput=throughput, mean_response_s=mean_rt,
        p50_response_s=mean_rt, p90_response_s=mean_rt * 2,
        p99_response_s=mean_rt * 3,
    )
    return TrialResult(
        experiment_name=experiment, benchmark="rubis", platform="emulab",
        topology_label=topology, workload=workload, write_ratio=write_ratio,
        seed=seed, status=status, metrics=metrics,
        host_cpu={"node-1": app_cpu, "node-2": db_cpu, "client": 2.0},
        tier_of_host={"node-1": "app", "node-2": "db", "client": "client"},
        collected_bytes=collected, script_lines=script_lines,
        config_lines=60, generated_files=40, machine_count=5,
    )


class TestDatabase:
    def test_fresh_database_has_the_declared_schema(self):
        with ResultsDatabase() as db:
            assert_declared_schema(db)

    def test_insert_and_query_roundtrip(self):
        with ResultsDatabase() as db:
            db.insert(make_result(workload=100))
            db.insert(make_result(workload=200))
            rows = db.query(topology="1-1-1")
            assert len(rows) == 2
            assert rows[0].workload == 100
            assert rows[0].metrics.throughput == pytest.approx(100 / 7.0)
            assert rows[0].host_cpu["node-1"] == 50.0
            assert rows[0].tier_of_host["node-2"] == "db"

    def test_duplicate_rejected(self):
        with ResultsDatabase() as db:
            db.insert(make_result())
            with pytest.raises(ResultsError, match="duplicate trial"):
                db.insert(make_result())

    def test_only_the_unique_key_reads_as_a_duplicate(self):
        # A NaN metric fails NOT NULL, not the trial key: the error
        # names the constraint and does not call the row a duplicate.
        with ResultsDatabase() as db:
            with pytest.raises(ResultsError) as refused:
                db.insert(make_result(mean_rt=float("nan")))
            assert "NOT NULL" in str(refused.value)
            assert "duplicate" not in str(refused.value)
            assert db.count() == 0

    def test_replace_allowed(self):
        with ResultsDatabase() as db:
            db.insert(make_result(mean_rt=0.05))
            db.insert(make_result(mean_rt=0.09), replace=True)
            rows = db.query()
            assert len(rows) == 1
            assert rows[0].metrics.mean_response_s == pytest.approx(0.09)

    def test_replace_does_not_orphan_children(self):
        # Regression: the old replace path deleted child rows keyed on
        # the *new* trial's id — a no-op that left the replaced trial's
        # host_cpu/state_metrics/spans/failures rows orphaned whenever
        # foreign-key enforcement was off, which is SQLite's default
        # posture for any other reader of the file.
        with ResultsDatabase() as db:
            db._db.execute("PRAGMA foreign_keys = OFF")
            db.insert(make_result())
            db.insert(make_result(mean_rt=0.09), replace=True)
            assert db.integrity_check() == []
            (trial_id,) = [row[0] for row in db.dump_rows("trials")]
            host_rows = db.dump_rows("host_cpu")
            assert len(host_rows) == 3          # one trial's worth
            assert {row[0] for row in host_rows} == {trial_id}
            assert {row[0] for row in db.dump_rows("state_metrics")} \
                <= {trial_id}

    def test_integrity_check_reports_orphans(self):
        with ResultsDatabase() as db:
            db._db.execute("PRAGMA foreign_keys = OFF")
            db._db.execute(
                "INSERT INTO host_cpu (trial_id, host, tier, cpu_percent) "
                "VALUES (999, 'node-1', 'app', 50.0)")
            problems = db.integrity_check()
            assert problems == ["host_cpu: 1 row(s) orphaned from trials"]

    def test_insert_many_matches_serial_inserts(self):
        serial = ResultsDatabase()
        for workload in (100, 200, 300):
            serial.insert(make_result(workload=workload))
        batched = ResultsDatabase()
        ids = batched.insert_many(
            [make_result(workload=w) for w in (100, 200, 300)])
        assert len(ids) == 3
        for table in ("trials", "host_cpu", "state_metrics"):
            assert batched.dump_rows(table) == serial.dump_rows(table)

    def test_insert_many_rolls_back_whole_batch(self):
        with ResultsDatabase() as db:
            db.insert(make_result(workload=200))
            with pytest.raises(ResultsError):
                db.insert_many([make_result(workload=100),
                                make_result(workload=200)])   # duplicate
            # Nothing from the failed batch may remain — not even the
            # workload=100 trial that inserted cleanly before the
            # duplicate aborted the transaction.
            assert db.count() == 1
            assert len(db.query(workload=100)) == 0
            assert db.integrity_check() == []

    def test_filters(self):
        with ResultsDatabase() as db:
            db.insert(make_result(topology="1-1-1", workload=100))
            db.insert(make_result(topology="1-2-1", workload=100))
            db.insert(make_result(topology="1-2-1", workload=200,
                                  status=DNF))
            assert len(db.query(topology="1-2-1")) == 2
            assert len(db.query(status=DNF)) == 1
            assert len(db.query(workload=100)) == 2
            assert db.count() == 3

    def test_write_ratio_filter_tolerant(self):
        with ResultsDatabase() as db:
            db.insert(make_result(write_ratio=0.30000000001))
            assert len(db.query(write_ratio=0.3)) == 1

    def test_aggregates(self):
        with ResultsDatabase() as db:
            db.insert(make_result(workload=100, collected=1000))
            db.insert(make_result(workload=200, collected=2000))
            assert db.total_collected_bytes() == 3000
            assert db.experiments() == ["exp"]
            assert db.topologies() == ["1-1-1"]


class TestAnalysis:
    def _scaleout_results(self):
        results = []
        # 1-1-1 saturates at ~245, 1-2-1 at ~490.
        for workload in (100, 300, 500):
            rt1 = 0.04 if workload <= 245 else (workload / 35.0 - 7.0)
            rt2 = 0.04 if workload <= 490 else (workload / 70.0 - 7.0)
            results.append(make_result("1-1-1", workload, mean_rt=rt1))
            results.append(make_result("1-2-1", workload, mean_rt=rt2))
        return results

    def test_response_time_series_sorted(self):
        series = analysis.response_time_series(self._scaleout_results(),
                                               "1-2-1")
        assert [w for w, _rt in series] == [100, 300, 500]

    def test_response_surface(self):
        results = [make_result(workload=w, write_ratio=r, mean_rt=0.01 * w)
                   for w in (50, 100) for r in (0.0, 0.5)]
        surface = analysis.response_surface(results, "1-1-1")
        assert surface[(100, 0.5)] == pytest.approx(1000.0)
        assert len(surface) == 4

    def test_surface_app_cpu(self):
        results = [make_result(app_cpu=77.0)]
        surface = analysis.response_surface(results, "1-1-1",
                                            value="app_cpu")
        assert surface[(100, 0.15)] == pytest.approx(77.0)

    def test_response_time_difference(self):
        diffs = analysis.response_time_difference(
            self._scaleout_results(), "1-1-1", "1-2-1")
        as_dict = dict(diffs)
        assert as_dict[100] == pytest.approx(0.0, abs=1e-6)
        assert as_dict[500] > 0     # 1-1-1 much slower at 500 users

    def test_difference_requires_shared_workloads(self):
        with pytest.raises(ResultsError):
            analysis.response_time_difference(
                [make_result("1-1-1", 100)], "1-1-1", "1-2-1")

    def test_improvement_table(self):
        results = [
            make_result("1-1-1", 500, mean_rt=4.0),
            make_result("1-2-1", 500, mean_rt=0.4),
            make_result("1-1-2", 500, mean_rt=3.5),
        ]
        table = analysis.improvement_table(
            results, "1-1-1", 500, 0.15, app_range=[2], db_range=[2])
        assert table["app"][2] == pytest.approx(90.0)
        assert table["db"][2] == pytest.approx(12.5)

    def test_improvement_requires_base(self):
        with pytest.raises(ResultsError):
            analysis.improvement_table([], "1-1-1", 500, 0.15, [2], [2])

    def test_throughput_table_marks_dnf(self):
        results = [
            make_result("1-2-1", 300, throughput=42.0),
            make_result("1-2-1", 800, throughput=10.0, status=DNF),
        ]
        table = analysis.throughput_table(results, ["1-2-1"], [300, 800])
        assert table["1-2-1"][300] == pytest.approx(42.0)
        assert table["1-2-1"][800] is None

    def test_saturation_workload(self):
        # RT(1-1-1): 0.04s @100, 1.57s @300, 7.28s @500 against a 2s SLO.
        results = self._scaleout_results()
        assert analysis.saturation_workload(results, "1-1-1", 2.0) == 500
        assert analysis.saturation_workload(results, "1-2-1", 2.0) is None

    def test_db_cpu_series(self):
        results = [make_result(workload=100, db_cpu=30.0),
                   make_result(workload=200, db_cpu=60.0)]
        series = analysis.db_cpu_series(results, "1-1-1")
        assert series == [(100, 30.0), (200, 60.0)]

    def test_management_scale(self):
        rows = analysis.management_scale({
            "set-a": [make_result(script_lines=5000, collected=2_000_000)],
        })
        assert rows[0]["script_lines"] == 5000
        assert rows[0]["collected_mb"] == pytest.approx(2.0)


class TestReport:
    def test_render_surface_grid(self):
        surface = {(50, 0.0): 40.0, (50, 0.1): 38.0,
                   (100, 0.0): 55.0, (100, 0.1): 50.0}
        text = report.render_surface("Fig", surface)
        assert "0%" in text and "10%" in text
        assert "50" in text and "100" in text

    def test_render_multi_series_missing_points(self):
        text = report.render_multi_series(
            "T", {"a": [(1, 2.0)], "b": [(2, 3.0)]})
        assert "-" in text

    def test_render_throughput_table_dnf(self):
        text = report.render_throughput_table(
            "T7", {"1-2-1": {300: 42.0, 800: None}})
        assert "42.0" in text
        assert "-" in text

    def test_render_improvement_table(self):
        text = report.render_improvement_table(
            "T6", {"app": {2: 84.3}, "db": {2: 13.0}})
        assert "84.3" in text and "13.0" in text

    def test_render_management_scale(self):
        rows = [{"set": "s", "experiments": 10, "script_lines": 120000,
                 "config_lines": 900, "generated_files": 500,
                 "machine_count": 60, "collected_mb": 696.0}]
        text = report.render_management_scale("T3", rows)
        assert "120.0" in text and "696.0" in text
