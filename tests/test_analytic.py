"""The analytic fast-path tier and the fidelity-aware API.

The contracts under test:

- the Schweitzer AMVA solver tracks exact MVA away from saturation and
  dispatches through the one ``sim.solve`` entry point;
- ``fidelity="analytic"`` campaigns are byte-stable across worker
  counts, and the default ``fidelity="des"`` path is untouched;
- a tiered (``fidelity="auto"``) exploration finds the same knee as a
  pure DES exploration within one workload-ladder step, confirms it
  with DES trials, and resumes byte-identically after a kill;
- a million-user characterization of the 4-16-8 topology completes in
  seconds, not simulation-hours;
- the service plane carries fidelity over the wire and dispatches
  analytic trials on the fleet's fast lane;
- ``repro trace`` renders the per-trial fidelity tier on both new
  databases and databases written before the tier existed.
"""

import os
import sqlite3
import time

import pytest

from repro.api import (
    plan_campaign,
    resume_campaign,
    run_adaptive,
    run_campaign,
    solve,
)
from repro.core.campaign import META_FIDELITY, ObservationCampaign
from repro.errors import ExperimentError, SimulationError
from repro.planner.policy import KNEE
from repro.sim import (
    ANALYTIC,
    AUTO,
    DES,
    AnalyticModel,
    AnalyticStation,
    check_fidelity,
    mva,
)
from repro.workloads.calibration import RUBIS
from tests.conftest import assert_declared_schema

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

SCALEOUT_TBL = """
benchmark rubis;
platform emulab;

experiment "scaleout" {
    topology 1-2-2;
    workload 200, 400, 600, 800, 1000, 1200, 1400, 1600;
    write_ratio 25%;
    trial { warmup 2s; run 10s; cooldown 2s; }
    slo { response_time 1.0s; error_ratio 10%; }
}
"""

MILLION_TBL = """
benchmark rubis;
platform emulab;

experiment "million" {
    topology 4-16-8;
    workload 1000, 2000, 4000, 8000, 16000, 32000, 64000, 125000,
             250000, 500000, 1000000;
    write_ratio 15%;
    trial { warmup 2s; run 10s; cooldown 2s; }
    slo { response_time 1.0s; error_ratio 10%; }
}
"""


def observation_dump(database):
    assert database.integrity_check() == []
    return {
        table: database.dump_rows(table)
        for table in ("trials", "host_cpu", "state_metrics",
                      "planner_decisions")
    }


def _stations(write_ratio=0.15):
    return [
        mva.MvaStation("web", RUBIS.web_s),
        mva.MvaStation("app", RUBIS.app_mean(write_ratio)),
        mva.MvaStation("db", RUBIS.db_mean(write_ratio)),
    ]


class TestAnalyticSolver:
    @pytest.mark.parametrize("users", [1, 10, 60, 140])
    def test_tracks_exact_mva_below_saturation(self, users):
        exact = solve(_stations(), fidelity="mva", users=users,
                      think_time=RUBIS.think_time_s)
        fluid = solve(_stations(), fidelity=ANALYTIC, users=users,
                      think_time=RUBIS.think_time_s)
        assert fluid.throughput == pytest.approx(exact.throughput,
                                                 rel=0.02)
        assert fluid.response_time == pytest.approx(exact.response_time,
                                                    rel=0.05)

    def test_million_users_solves_in_milliseconds(self):
        start = time.perf_counter()
        result = solve(_stations(), fidelity=ANALYTIC, users=1_000_000,
                       think_time=RUBIS.think_time_s)
        assert time.perf_counter() - start < 1.0
        # Fully saturated: throughput pinned at the bottleneck's
        # capacity, response time dominated by its queue.
        heaviest = max(_stations(), key=lambda s: s.demand)
        assert result.throughput == pytest.approx(1.0 / heaviest.demand,
                                                  rel=0.01)
        assert result.bottleneck() == heaviest.name

    def test_dispatcher_rejects_mismatched_tiers(self):
        with pytest.raises(SimulationError, match="users="):
            solve(_stations(), fidelity=ANALYTIC)
        with pytest.raises(SimulationError, match="fidelity 'des'"):
            solve(_stations(), fidelity=DES, users=10,
                  think_time=RUBIS.think_time_s)
        with pytest.raises(SimulationError, match="unknown fidelity"):
            solve(_stations(), fidelity="quantum", users=10,
                  think_time=RUBIS.think_time_s)
        model = AnalyticModel(
            stations=(AnalyticStation("db", 0.005),),
            think_time=RUBIS.think_time_s)
        with pytest.raises(SimulationError, match="'des'"):
            solve(model, fidelity=DES, users=10)

    def test_check_fidelity_names_the_trio(self):
        for name in (DES, ANALYTIC, AUTO):
            assert check_fidelity(name) == name
        with pytest.raises(SimulationError, match="unknown fidelity"):
            check_fidelity("exact")


class TestFidelityCampaigns:
    def test_analytic_grid_byte_stable_across_jobs(self):
        def run(jobs):
            campaign = ObservationCampaign(KNEE_TBL, node_count=8)
            campaign.run(jobs=jobs,
                         backend="thread" if jobs > 1 else None,
                         fidelity=ANALYTIC)
            return campaign.database
        assert observation_dump(run(1)) == observation_dump(run(4))

    def test_analytic_rows_carry_their_tier(self):
        report = run_campaign(KNEE_TBL, node_count=8, fidelity=ANALYTIC)
        rows = report.database.query()
        assert len(rows) == 8
        assert {r.fidelity for r in rows} == {ANALYTIC}
        assert report.database.get_meta(META_FIDELITY) == ANALYTIC
        # The analytic tier reproduces the DES knee shape: the SLO
        # break sits between the same ladder rungs.
        by_load = {r.workload: r for r in rows}
        assert by_load[100].metrics.mean_response_s < 1.0
        assert by_load[800].metrics.mean_response_s > 1.0

    def test_default_fidelity_is_des(self):
        report = run_campaign(KNEE_TBL, node_count=8)
        assert {r.fidelity for r in report.database.query()} == {DES}
        assert report.database.get_meta(META_FIDELITY) == DES

    def test_fixed_grid_rejects_auto(self):
        with pytest.raises(ExperimentError, match="adaptive-exploration"):
            run_campaign(KNEE_TBL, node_count=8, fidelity=AUTO)

    def test_query_filters_by_fidelity(self):
        campaign = ObservationCampaign(KNEE_TBL, node_count=8)
        campaign.run_adaptive(policy="knee", fidelity=AUTO)
        rows = campaign.database.query(fidelity=ANALYTIC)
        assert rows and all(r.fidelity == ANALYTIC for r in rows)
        des_rows = campaign.database.query(fidelity=DES)
        assert des_rows and all(r.fidelity == DES for r in des_rows)

    def test_des_insert_keeps_the_analytic_row(self):
        # The tiered flow depends on both tiers of one sweep point
        # coexisting: the DES confirmation must not replace the
        # analytic exploration row.
        campaign = ObservationCampaign(KNEE_TBL, node_count=8)
        campaign.run_adaptive(policy="knee", fidelity=AUTO)
        keys = {(r.workload, r.fidelity)
                for r in campaign.database.query()}
        confirmed = {w for w, f in keys if f == DES}
        assert confirmed and all((w, ANALYTIC) in keys
                                 for w in confirmed)


class TestTieredExploration:
    @pytest.mark.parametrize("tbl", [KNEE_TBL, SCALEOUT_TBL])
    def test_knee_within_one_ladder_step_of_des(self, tbl):
        tiered = run_adaptive(tbl, policy="knee", fidelity=AUTO,
                              node_count=16)
        des = run_adaptive(tbl, policy="knee", node_count=16)
        tiered_knees = [d for d in tiered.outcome.knees
                        if d.action == KNEE]
        des_knees = [d for d in des.outcome.knees if d.action == KNEE]
        assert len(tiered_knees) == len(des_knees) == 1
        from repro.spec.tbl import parse as parse_tbl
        ladder = list(parse_tbl(tbl).experiments[0].workloads)
        gap = abs(ladder.index(tiered_knees[0].workload)
                  - ladder.index(des_knees[0].workload))
        assert gap <= 1

    def test_knee_is_des_confirmed(self):
        report = run_adaptive(KNEE_TBL, policy="knee", fidelity=AUTO,
                              node_count=8)
        knees = [d for d in report.outcome.knees if d.action == KNEE]
        assert len(knees) == 1
        assert "DES-confirmed" in knees[0].reason
        # Both the knee and the pass point below it hold a DES trial.
        des_loads = {r.workload for r in report.database.query()
                     if r.fidelity == DES}
        assert knees[0].workload in des_loads

    def test_auto_requires_a_tiered_capable_policy(self):
        with pytest.raises(ExperimentError, match="tiered"):
            run_adaptive(KNEE_TBL, policy="grid", fidelity=AUTO,
                         node_count=8)
        report = run_adaptive(KNEE_TBL, policy="tiered", node_count=8,
                              fidelity=AUTO)
        assert report.policy == "tiered"

    def test_analytic_exploration_never_touches_des(self):
        report = run_adaptive(KNEE_TBL, policy="knee",
                              fidelity=ANALYTIC, node_count=8)
        assert report.policy == "knee"
        rows = report.database.query()
        assert rows and {r.fidelity for r in rows} == {ANALYTIC}
        decisions = report.database.planner_decisions()
        measured = [d for d in decisions if d["action"] == "measure"]
        assert measured and all(d["fidelity"] == ANALYTIC
                                for d in measured)

    def test_jobs_do_not_change_tiered_decisions_or_rows(self):
        def explore(jobs):
            campaign = ObservationCampaign(KNEE_TBL, node_count=8)
            campaign.run_adaptive(
                policy="knee", fidelity=AUTO, jobs=jobs,
                backend="thread" if jobs > 1 else None)
            return campaign.database
        assert observation_dump(explore(1)) == observation_dump(explore(4))

    def test_plan_campaign_previews_analytic_rounds(self):
        preview = plan_campaign(KNEE_TBL, policy="knee",
                                fidelity=ANALYTIC)
        assert preview.decisions
        assert all(d.fidelity == ANALYTIC for d in preview.decisions)
        tiered = plan_campaign(KNEE_TBL, policy="knee", fidelity=AUTO)
        assert tiered.policy_name == "tiered"
        assert all(d.fidelity == ANALYTIC for d in tiered.decisions)


class TestTieredResume:
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
            campaign.run_adaptive(policy="knee", fidelity=AUTO,
                                  on_result=killer)
        return campaign.database

    @pytest.mark.parametrize("after", [1, 3, 5])
    def test_killed_tiered_exploration_resumes_byte_identically(
            self, after):
        reference = ObservationCampaign(KNEE_TBL, node_count=8)
        reference.run_adaptive(policy="knee", fidelity=AUTO)
        database = self._killed_database(after=after)
        assert database.get_meta(META_FIDELITY) == AUTO
        report = resume_campaign(database)
        assert report.policy == "tiered"
        assert observation_dump(database) == \
            observation_dump(reference.database)


class TestMillionUsers:
    def test_auto_explore_characterizes_a_million_users_fast(self):
        start = time.perf_counter()
        report = run_adaptive(MILLION_TBL, policy="knee", fidelity=AUTO,
                              node_count=40)
        wall = time.perf_counter() - start
        assert wall < 10.0
        knees = [d for d in report.outcome.knees if d.action == KNEE]
        assert len(knees) == 1
        # The calibrated 4-16-8 DB tier saturates near 4000 users;
        # the exploration lands the knee on that ladder rung without
        # ever running DES above it.
        assert knees[0].workload == 4000
        des_loads = {r.workload for r in report.database.query()
                     if r.fidelity == DES}
        assert des_loads and max(des_loads) <= 8000
        analytic_loads = {r.workload for r in report.database.query()
                          if r.fidelity == ANALYTIC}
        assert 1_000_000 in analytic_loads


class TestServiceFidelity:
    def test_fidelity_crosses_the_wire_and_uses_the_fast_lane(
            self, tmp_path):
        from repro.service.client import CampaignClient
        from repro.service.http import ServiceDaemon

        daemon = ServiceDaemon(jobs=2)
        try:
            client = CampaignClient(daemon.start())
            db_path = tmp_path / "analytic.db"
            cid = client.submit(KNEE_TBL, db_path=db_path, jobs=2,
                                fidelity=ANALYTIC)
            record = client.wait(cid, timeout=120)
            assert record["state"] == "done"
            assert record["fidelity"] == ANALYTIC
            stats = client.status()["fleet"]
            assert stats["fast_workers"] >= 2
            assert stats["dispatched"] == record["trials"]
        finally:
            daemon.stop()
        from repro.results.database import ResultsDatabase
        merged = ResultsDatabase(db_path)
        try:
            local = ObservationCampaign(KNEE_TBL, node_count=36)
            local.run(fidelity=ANALYTIC)
            assert merged.dump_rows("trials") == \
                local.database.dump_rows("trials")
            assert merged.get_meta(META_FIDELITY) == ANALYTIC
        finally:
            merged.close()

    def test_daemon_resume_recovers_fidelity_from_meta(self, tmp_path):
        from repro.results.database import ResultsDatabase
        from repro.service.controller import CampaignController

        # Seed a completed analytic checkpoint, then resume it with no
        # explicit fidelity: the controller must recover the tier from
        # campaign_meta instead of falling back to DES.
        db_path = tmp_path / "resume.db"
        campaign = ObservationCampaign(
            KNEE_TBL, database=ResultsDatabase(db_path), node_count=8)
        campaign.run(fidelity=ANALYTIC)
        campaign.database.close()
        controller = CampaignController(jobs=2)
        try:
            cid = controller.submit(db_path=db_path, resume=True)
            record = controller.wait(cid, timeout=120)
            assert record["state"] == "done"
            assert record["trials"] == 0       # everything checkpointed
            assert record["skipped"] == 8
        finally:
            controller.shutdown()
        merged = ResultsDatabase(db_path)
        try:
            assert {r.fidelity for r in merged.query()} == {ANALYTIC}
        finally:
            merged.close()


# The seed schema, frozen: what a pre-fidelity database looks like on
# disk.  The migration test writes this verbatim and lets the
# constructor upgrade it.
_LEGACY_TRIALS = """
CREATE TABLE trials (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment_name TEXT NOT NULL, benchmark TEXT NOT NULL,
    platform TEXT NOT NULL, topology TEXT NOT NULL,
    workload INTEGER NOT NULL, write_ratio REAL NOT NULL,
    seed INTEGER NOT NULL, status TEXT NOT NULL,
    completed_requests INTEGER NOT NULL, errors INTEGER NOT NULL,
    timeouts INTEGER NOT NULL, rejections INTEGER NOT NULL,
    duration_s REAL NOT NULL, throughput REAL NOT NULL,
    mean_response_s REAL NOT NULL, p50_response_s REAL NOT NULL,
    p90_response_s REAL NOT NULL, p99_response_s REAL NOT NULL,
    collected_bytes INTEGER NOT NULL, script_lines INTEGER NOT NULL,
    config_lines INTEGER NOT NULL, generated_files INTEGER NOT NULL,
    machine_count INTEGER NOT NULL,
    UNIQUE (experiment_name, topology, workload, write_ratio, seed)
)
"""

_LEGACY_DECISIONS = """
CREATE TABLE planner_decisions (
    round INTEGER NOT NULL, seq INTEGER NOT NULL,
    policy TEXT NOT NULL, experiment_name TEXT NOT NULL,
    action TEXT NOT NULL, topology TEXT, workload INTEGER,
    write_ratio REAL, reason TEXT NOT NULL,
    PRIMARY KEY (round, seq)
)
"""


def _downgrade_to_legacy(path):
    """Strip the fidelity column, reproducing a pre-tier database."""
    connection = sqlite3.connect(path)
    columns = ("id, experiment_name, benchmark, platform, topology, "
               "workload, write_ratio, seed, status, completed_requests, "
               "errors, timeouts, rejections, duration_s, throughput, "
               "mean_response_s, p50_response_s, p90_response_s, "
               "p99_response_s, collected_bytes, script_lines, "
               "config_lines, generated_files, machine_count")
    with connection:
        connection.execute("PRAGMA foreign_keys=OFF")
        connection.execute("PRAGMA legacy_alter_table=ON")
        connection.execute("ALTER TABLE trials RENAME TO trials_current")
        connection.execute(_LEGACY_TRIALS)
        connection.execute(
            f"INSERT INTO trials SELECT {columns} FROM trials_current")
        connection.execute("DROP TABLE trials_current")
        connection.execute(
            "ALTER TABLE planner_decisions RENAME TO decisions_current")
        connection.execute(_LEGACY_DECISIONS)
        connection.execute(
            "INSERT INTO planner_decisions SELECT round, seq, policy, "
            "experiment_name, action, topology, workload, write_ratio, "
            "reason FROM decisions_current")
        connection.execute("DROP TABLE decisions_current")
    connection.close()


class TestTraceFidelityColumn:
    def _traced_database(self, tmp_path, **kwargs):
        from repro.obs import Tracer
        from repro.results.database import ResultsDatabase

        path = tmp_path / "traced.db"
        campaign = ObservationCampaign(
            KNEE_TBL, database=ResultsDatabase(path), node_count=8,
            tracer=Tracer())
        campaign.run_adaptive(policy="knee", **kwargs)
        campaign.database.close()
        return path

    def test_trace_renders_the_tier_column(self, tmp_path, capsys):
        from repro.cli import main

        path = self._traced_database(tmp_path, fidelity=AUTO)
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert " tier " in out
        assert "analytic" in out
        assert "policy 'tiered'" in out

    def test_trace_renders_on_a_pre_tier_database(self, tmp_path,
                                                  capsys):
        from repro.cli import main
        from repro.results.database import ResultsDatabase

        path = self._traced_database(tmp_path)
        _downgrade_to_legacy(path)
        # Reopening migrates in place: the tier column reappears with
        # every historical row backfilled as DES.
        migrated = ResultsDatabase(path)
        try:
            assert_declared_schema(migrated)
            assert {r.fidelity for r in migrated.query()} == {DES}
        finally:
            migrated.close()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert " tier " in out
        assert " des " in out


class TestFidelityCli:
    @pytest.fixture
    def tbl_file(self, tmp_path):
        path = tmp_path / "knee.tbl"
        path.write_text(KNEE_TBL)
        return path

    def test_explore_auto_reports_a_confirmed_knee(self, tbl_file,
                                                   tmp_path, capsys):
        from repro.cli import main

        db = tmp_path / "auto.db"
        status = main(["explore", "--tbl", str(tbl_file),
                       "--db", str(db), "--fidelity", "auto", "--quiet"])
        assert status == 0
        out = capsys.readouterr().out
        assert "DES-confirmed SLO knee" in out
        assert os.path.exists(db)

    def test_run_rejects_auto(self, tbl_file, tmp_path, capsys):
        from repro.cli import main

        status = main(["run", "--tbl", str(tbl_file),
                       "--db", str(tmp_path / "x.db"),
                       "--fidelity", "auto", "--quiet"])
        assert status == 1
        assert "adaptive-exploration" in capsys.readouterr().err

    def test_figure_accepts_analytic(self, tmp_path, capsys):
        from repro.cli import main

        status = main(["figure", "--id", "figure1", "--scale", "0.2",
                       "--fidelity", "analytic"])
        assert status == 0
        assert "Figure 1." in capsys.readouterr().out
