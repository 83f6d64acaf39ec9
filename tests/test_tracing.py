"""Tests for the lifecycle flight recorder (repro.obs) and the
repro.api facade.

The load-bearing guarantees: every traced trial carries a full
eight-phase span tree; spans round-trip through the results database;
and — the PR 1 contract extended — a ``jobs=4`` run *with tracing on*
stores byte-identical observation tables to a ``jobs=1`` run with
tracing off.
"""

import warnings

import pytest

from repro.api import (
    open_results,
    run_campaign,
    run_experiment,
    trace_report,
)
from repro.core import ObservationCampaign
from repro.deploy import DeploymentEngine
from repro.errors import ExperimentError, ReproError, ResultsError
from repro.experiments import ExperimentRunner, build_experiment
from repro.experiments.figures import make_runner
from repro.experiments.scheduler import TrialScheduler
from repro.obs import (
    NULL_TRACER,
    TRIAL_PHASES,
    Tracer,
    as_tracer,
    flatten_span,
)
from repro.obs.report import phase_durations
from repro.results import ResultsDatabase
from repro.sim import NTierSimulation
from repro.spec.topology import Topology
from repro.vcluster import VirtualCluster
from tests.conftest import make_system

SMALL_TBL = """
benchmark rubis;
platform emulab;
experiment "traced" {
    topology 1-1-1;
    workload 100, 200;
    write_ratio 15%;
    trial { warmup 3s; run 6s; cooldown 1s; }
}
"""


def small_experiment(workloads=(100,), repetitions=1, seed=42):
    experiment, _tbl = build_experiment(
        name="traced", benchmark="rubis", platform="emulab",
        topologies=(Topology(1, 1, 1),), workloads=workloads,
        write_ratios=(0.15,), repetitions=repetitions, seed=seed,
        scale=0.05, min_warmup=3.0,
    )
    return experiment


class TestTracerCore:
    def test_nested_spans_flatten_in_dfs_preorder(self):
        tracer = Tracer()
        with tracer.span("trial", experiment="e") as root:
            with tracer.span("deploy"):
                with tracer.span("script", path="run.sh"):
                    pass
            with tracer.span("simulate"):
                pass
        records = tracer.export(root)
        assert [(r.span_id, r.parent_id, r.name) for r in records] == [
            (1, 0, "trial"), (2, 1, "deploy"), (3, 2, "script"),
            (4, 1, "simulate"),
        ]
        assert records[0].attributes == {"experiment": "e"}
        assert all(r.duration_s >= 0 for r in records)

    def test_annotate_targets_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.annotate(depth=2)
            tracer.annotate(depth=1)
        assert inner.attributes == {"depth": 2}
        assert outer.attributes == {"depth": 1}

    def test_exception_marks_span_errored_but_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("trial") as root:
                with tracer.span("deploy"):
                    raise ValueError("boom")
        records = flatten_span(root)
        assert records[1].status == "error"
        assert records[1].attributes["error"] == "ValueError"

    def test_counters_are_cumulative_and_signed(self):
        tracer = Tracer()
        tracer.count("tasks", 3)
        tracer.count("tasks", -1)
        assert tracer.counter("tasks") == 2
        assert tracer.counter("never") == 0

    def test_null_tracer_is_inert(self):
        assert as_tracer(None) is NULL_TRACER
        tracer = as_tracer(None)
        with tracer.span("trial", workload=5) as span:
            span.annotate(ignored=True)
            tracer.annotate(ignored=True)
        assert tracer.export(span) == []
        assert tracer.count("anything") == 0
        assert not tracer.enabled
        real = Tracer()
        assert as_tracer(real) is real

    def test_span_record_attributes_json_is_canonical(self):
        tracer = Tracer()
        with tracer.span("s", b=2, a=1) as span:
            pass
        record = tracer.export(span)[0]
        assert record.attributes_json() == '{"a": 1, "b": 2}'


class TestTracedTrial:
    def test_all_eight_phases_present_and_nonzero(self):
        tracer = Tracer()
        runner = make_runner("emulab", "rubis", node_count=10,
                             tracer=tracer)
        experiment = small_experiment()
        result = runner.run_experiment(experiment)[0]
        assert result.spans, "traced trial carries no spans"
        root = result.spans[0]
        assert root.name == "trial"
        assert root.attributes["topology"] == "1-1-1"
        assert root.attributes["status"] == result.status
        phases = phase_durations(result.spans)
        for phase in TRIAL_PHASES:
            assert phases[phase] > 0.0, f"phase {phase} missing or empty"
        # Per-script spans nest under the script-driven phases.
        script_spans = [s for s in result.spans if s.name == "script"]
        assert any(s.attributes["path"].endswith("run.sh")
                   for s in script_spans)
        # The simulation's own span nests under the simulate phase.
        assert any(s.name == "sim.run" for s in result.spans)

    def test_untraced_trial_carries_no_spans(self):
        runner = make_runner("emulab", "rubis", node_count=10)
        result = runner.run_experiment(small_experiment())[0]
        assert result.spans == []

    def test_scheduler_counters_track_tasks(self):
        tracer = Tracer()
        runner = make_runner("emulab", "rubis", node_count=10,
                             tracer=tracer)
        experiment = small_experiment(workloads=(100, 200))
        runner.run_experiment(experiment, jobs=2)
        assert tracer.counter("scheduler.tasks_queued") == 2
        assert tracer.counter("scheduler.tasks_done") == 2


class TestSpansInDatabase:
    def test_spans_round_trip(self):
        tracer = Tracer()
        database = ResultsDatabase()
        report = run_campaign(SMALL_TBL, database=database, node_count=10,
                              tracer=tracer)
        assert report.trials == 2
        assert database.span_count() > 0
        traced = database.traced_trials()
        assert len(traced) == 2
        info, spans = traced[0]
        assert info["experiment_name"] == "traced"
        assert spans[0].name == "trial"
        assert spans[0].parent_id == 0
        names = {span.name for span in spans}
        assert set(TRIAL_PHASES) <= names
        # Attributes deserialize back to real values.
        assert spans[0].attributes["workload"] == info["workload"]

    def test_replace_clears_stale_spans(self):
        tracer = Tracer()
        database = ResultsDatabase()
        run_campaign(SMALL_TBL, database=database, node_count=10,
                     tracer=tracer)
        first = database.span_count()
        run_campaign(SMALL_TBL, database=database, node_count=10,
                     tracer=tracer)
        assert database.count() == 2
        assert database.span_count() == first

    def test_untraced_run_stores_no_spans(self):
        database = ResultsDatabase()
        run_campaign(SMALL_TBL, database=database, node_count=10)
        assert database.span_count() == 0
        with pytest.raises(ResultsError, match="--trace"):
            trace_report(database)

    def test_dump_rows_rejects_unknown_table(self):
        with ResultsDatabase() as database:
            with pytest.raises(ResultsError):
                database.dump_rows("sqlite_master")


class TestTracingDeterminism:
    def test_traced_parallel_run_matches_untraced_sequential(self):
        """The acceptance criterion: jobs=4 with tracing on stores
        byte-identical observation tables to jobs=1 with tracing off
        (spans excluded)."""
        tbl = """
        benchmark rubis;
        platform emulab;
        experiment "f5-mini" {
            topology 1-2-1, 1-2-2, 1-3-1;
            workload 100, 200;
            write_ratio 15%;
            trial { warmup 3s; run 6s; cooldown 1s; }
        }
        """
        with ResultsDatabase() as plain, ResultsDatabase() as traced:
            run_campaign(tbl, database=plain, node_count=12, jobs=1)
            run_campaign(tbl, database=traced, node_count=12, jobs=4,
                         tracer=Tracer())
            assert plain.count() == traced.count() == 6
            assert plain.span_count() == 0
            assert traced.span_count() > 0
            for table in ("trials", "host_cpu", "state_metrics"):
                assert plain.dump_rows(table) == traced.dump_rows(table), \
                    f"table {table} diverged under tracing/jobs=4"


class TestTraceReport:
    def test_report_sections(self):
        tracer = Tracer()
        with ResultsDatabase() as database:
            run_campaign(SMALL_TBL, database=database, node_count=10,
                         tracer=tracer)
            rendered = trace_report(database)
        assert "Per-trial phase breakdown" in rendered
        assert "Slowest phases" in rendered
        assert "Worker utilization" in rendered
        for phase in TRIAL_PHASES:
            assert phase in rendered
        assert "traced 1-1-1 u=100" in rendered

    def test_report_filters_by_experiment(self):
        tracer = Tracer()
        with ResultsDatabase() as database:
            run_campaign(SMALL_TBL, database=database, node_count=10,
                         tracer=tracer)
            with pytest.raises(ResultsError):
                trace_report(database, experiment="nope")
            assert "traced" in trace_report(database, experiment="traced")

    def test_report_degrades_on_pre_planner_plane_databases(self):
        """Opening a database written before the planner plane creates
        an empty planner_decisions table, so it renders exactly like a
        fixed-grid run: no decisions section."""
        from repro.obs.report import render_planner_decisions

        with ResultsDatabase() as database:
            run_campaign(SMALL_TBL, database=database, node_count=10,
                         tracer=Tracer())
            assert render_planner_decisions(database) is None
            assert "Planner decisions" not in trace_report(database)


class TestApiFacade:
    def test_run_experiment_returns_results(self):
        results = run_experiment(SMALL_TBL, node_count=10)
        assert [r.workload for r in results] == [100, 200]
        assert all(r.experiment_name == "traced" for r in results)

    def test_run_experiment_requires_name_when_ambiguous(self):
        two = SMALL_TBL + """
        experiment "second" {
            topology 1-1-1;
            workload 100;
            write_ratio 15%;
            trial { warmup 3s; run 6s; cooldown 1s; }
        }
        """
        with pytest.raises(ExperimentError, match="second"):
            run_experiment(two, node_count=10)
        results = run_experiment(two, experiment="second", node_count=10)
        assert len(results) == 1

    def test_run_campaign_accepts_path_database(self, tmp_path):
        path = tmp_path / "obs.sqlite"
        report = run_campaign(SMALL_TBL, database=str(path), node_count=10)
        report.database.close()
        assert path.exists()
        with open_results(str(path), create=False) as database:
            assert database.count() == report.trials == 2

    def test_open_results_create_false_requires_file(self, tmp_path):
        with pytest.raises(ResultsError):
            open_results(str(tmp_path / "missing.sqlite"), create=False)

    def test_trace_report_accepts_path(self, tmp_path):
        path = tmp_path / "trace.sqlite"
        report = run_campaign(SMALL_TBL, database=str(path), node_count=10,
                              tracer=Tracer())
        report.database.close()
        assert "Per-trial phase breakdown" in trace_report(str(path))


#: Per constructor: its pre-keyword-only positional call and the
#: keyword call that replaces it, given a cluster, a resource model and
#: a synthetic deployed system.
_KEYWORD_ONLY_FORMS = {
    "DeploymentEngine": (
        lambda cluster, model, system: DeploymentEngine(cluster),
        lambda cluster, model, system: DeploymentEngine(cluster=cluster)),
    "NTierSimulation": (
        lambda cluster, model, system: NTierSimulation(system, 0.0005),
        lambda cluster, model, system: NTierSimulation(
            system, hop_latency=0.0005)),
    "ExperimentRunner": (
        lambda cluster, model, system: ExperimentRunner(cluster, model),
        lambda cluster, model, system: ExperimentRunner(
            cluster=cluster, resource_model=model)),
    "TrialScheduler": (
        lambda cluster, model, system: TrialScheduler(
            lambda: None, 2),
        lambda cluster, model, system: TrialScheduler(
            lambda: None, jobs=2)),
    "ObservationCampaign": (
        lambda cluster, model, system: ObservationCampaign(
            SMALL_TBL, None, None, 10),
        lambda cluster, model, system: ObservationCampaign(
            SMALL_TBL, node_count=10)),
}


@pytest.mark.parametrize("name", sorted(_KEYWORD_ONLY_FORMS))
def test_constructor_options_are_keyword_only(name):
    positional, keyword = _KEYWORD_ONLY_FORMS[name]
    cluster = VirtualCluster("emulab", node_count=10)
    model = make_runner("emulab", "rubis", node_count=10).resource_model
    system = make_system()
    with pytest.raises(TypeError):
        positional(cluster, model, system)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        built = keyword(cluster, model, system)
    assert type(built).__name__ == name


class TestDeprecatedPositionalForms:
    """The positional forms, once deprecated, are now removed outright."""

    def test_keyword_forms_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cluster = VirtualCluster("emulab", node_count=10)
            DeploymentEngine(cluster=cluster)
            TrialScheduler(lambda: None, jobs=2)
            ObservationCampaign(SMALL_TBL, node_count=10)

    def test_too_many_positionals_is_a_type_error(self):
        cluster = VirtualCluster("emulab", node_count=10)
        with pytest.raises(TypeError):
            DeploymentEngine(cluster, "extra", "args")


class TestTracingNeverBreaksErrors:
    def test_error_inside_phase_still_releases_and_reports(self):
        tracer = Tracer()
        runner = make_runner("emulab", "rubis", node_count=10,
                             tracer=tracer)
        experiment = small_experiment()

        def exploding_deploy(*_args, **_kwargs):
            raise ReproError("deploy sabotaged")

        runner.engine.deploy = exploding_deploy
        before = runner.cluster.free_count()
        with pytest.raises(ReproError, match="sabotaged"):
            runner.run_experiment(experiment)
        # The cluster was released despite the failure.
        assert runner.cluster.free_count() == before
