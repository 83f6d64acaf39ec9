"""Tests for the Testbed Language front end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TblError
from repro.experiments import enumerate_tasks
from repro.planner.frontier import ObservationFrontier
from repro.spec.tbl import (
    ExperimentDef,
    MonitorSpec,
    ServiceLevelObjective,
    TrialPhases,
    expand_range,
    parse,
    render_tbl,
    tokenize,
)
from repro.spec.topology import Topology

BASELINE_TBL = """
# RUBiS baseline, Figure 1 family.
benchmark rubis;
platform emulab;

experiment "figure1" {
    topology 1-1-1;
    workload 50 to 250 step 50;
    write_ratio 0% to 90% step 10%;
    think_time 7s;
    db_node_type emulab_low;
    trial { warmup 60s; run 300s; cooldown 60s; }
    slo { response_time 2000ms; error_ratio 10%; }
    monitor { interval 1s; metrics cpu, memory, disk, network; }
    timeout 20s;
    seed 7;
}
"""


class TestLexer:
    def test_topology_literal(self):
        tokens = tokenize("topology 1-8-2;")
        assert tokens[1].kind == "topo"
        assert tokens[1].value == "1-8-2"

    def test_duration_units(self):
        tokens = tokenize("300s 1500ms 2m 1h")
        assert [t.value for t in tokens] == [300.0, 1.5, 120.0, 3600.0]

    def test_percent_is_fraction(self):
        tokens = tokenize("15%")
        assert tokens[0].value == pytest.approx(0.15)

    def test_unknown_unit_rejected(self):
        with pytest.raises(TblError):
            tokenize("10furlongs")

    def test_plain_integer_stays_integer(self):
        tokens = tokenize("250")
        assert tokens[0].value == 250
        assert isinstance(tokens[0].value, int)

    def test_hash_and_slash_comments(self):
        assert tokenize("# one\n// two\nrun") [0].value == "run"

    def test_malformed_topology_rejected(self):
        with pytest.raises(TblError):
            tokenize("1-2-")


class TestParser:
    def test_parse_baseline_document(self):
        spec = parse(BASELINE_TBL)
        assert spec.benchmark == "rubis"
        assert spec.platform == "emulab"
        exp = spec.experiment("figure1")
        assert exp.topologies == (Topology(1, 1, 1),)
        assert exp.workloads == (50, 100, 150, 200, 250)
        assert len(exp.write_ratios) == 10
        assert exp.write_ratios[0] == pytest.approx(0.0)
        assert exp.write_ratios[-1] == pytest.approx(0.9)
        assert exp.trial == TrialPhases(60.0, 300.0, 60.0)
        assert exp.slo.response_time == pytest.approx(2.0)
        assert exp.slo.error_ratio == pytest.approx(0.10)
        assert exp.monitor.interval == 1.0
        assert exp.think_time == pytest.approx(7.0)
        assert exp.timeout == pytest.approx(20.0)
        assert exp.seed == 7
        assert exp.db_node_type == "emulab_low"

    def test_topology_list(self):
        spec = parse("""
        benchmark rubis; platform emulab;
        experiment "x" { topology 1-1-1, 1-2-1, 1-2-2; workload 100; }
        """)
        labels = [t.label() for t in spec.experiment("x").topologies]
        assert labels == ["1-1-1", "1-2-1", "1-2-2"]

    def test_topology_grid_expansion(self):
        spec = parse("""
        benchmark rubis; platform emulab;
        experiment "x" { topology 1-2-1 to 1-8-3; workload 100; }
        """)
        topologies = spec.experiment("x").topologies
        assert len(topologies) == 7 * 3
        assert topologies[0].label() == "1-2-1"
        assert topologies[-1].label() == "1-8-3"

    def test_topology_grid_must_dominate(self):
        with pytest.raises(TblError):
            parse("""
            benchmark rubis; platform emulab;
            experiment "x" { topology 1-8-1 to 1-2-3; workload 100; }
            """)

    def test_workload_comma_list(self):
        spec = parse("""
        benchmark rubbos; platform emulab;
        experiment "x" { topology 1-1-1; workload 300, 500, 700; }
        """)
        assert spec.experiment("x").workloads == (300, 500, 700)

    def test_default_trial_phases_per_benchmark(self):
        rubbos = parse("""
        benchmark rubbos; platform emulab;
        experiment "x" { topology 1-1-1; workload 500; }
        """)
        assert rubbos.experiment("x").trial == TrialPhases(150.0, 900.0, 150.0)

    def test_default_write_ratio_is_15_percent(self):
        spec = parse("""
        benchmark rubis; platform emulab;
        experiment "x" { topology 1-1-1; workload 100; }
        """)
        assert spec.experiment("x").write_ratios == (0.15,)

    def test_app_server_header_propagates(self):
        spec = parse("""
        benchmark rubis; platform warp; app_server weblogic;
        experiment "x" { topology 1-1-1; workload 100; }
        """)
        assert spec.experiment("x").app_server == "weblogic"

    def test_app_server_experiment_override(self):
        spec = parse("""
        benchmark rubis; platform warp; app_server jonas;
        experiment "x" {
            topology 1-1-1; workload 100; app_server weblogic;
        }
        """)
        assert spec.experiment("x").app_server == "weblogic"

    def test_missing_benchmark_rejected(self):
        with pytest.raises(TblError):
            parse('platform emulab; experiment "x" '
                  '{ topology 1-1-1; workload 1; }')

    def test_missing_topology_rejected(self):
        with pytest.raises(TblError):
            parse('benchmark rubis; platform emulab; '
                  'experiment "x" { workload 1; }')

    def test_missing_workload_rejected(self):
        with pytest.raises(TblError):
            parse('benchmark rubis; platform emulab; '
                  'experiment "x" { topology 1-1-1; }')

    def test_float_workload_rejected(self):
        with pytest.raises(TblError):
            parse('benchmark rubis; platform emulab; '
                  'experiment "x" { topology 1-1-1; workload 1.5; }')

    def test_unknown_setting_rejected(self):
        with pytest.raises(TblError):
            parse('benchmark rubis; platform emulab; '
                  'experiment "x" { topology 1-1-1; workload 1; frobnicate 2; }')

    def test_trial_requires_run(self):
        with pytest.raises(TblError):
            parse('benchmark rubis; platform emulab; experiment "x" '
                  '{ topology 1-1-1; workload 1; trial { warmup 1s; } }')

    def test_unknown_experiment_name(self):
        spec = parse(BASELINE_TBL)
        with pytest.raises(TblError):
            spec.experiment("nope")

    def test_points_enumeration(self):
        exp = parse(BASELINE_TBL).experiment("figure1")
        points = list(exp.points())
        assert len(points) == exp.point_count() == 5 * 10
        topo, workload, ratio = points[0]
        assert topo.label() == "1-1-1"


class TestAstValidation:
    def _make(self, **overrides):
        values = dict(
            name="x", benchmark="rubis", platform="emulab",
            topologies=(Topology(1, 1, 1),), workloads=(100,),
            write_ratios=(0.15,), trial=TrialPhases(1, 10, 1),
        )
        values.update(overrides)
        return ExperimentDef(**values)

    def test_bad_write_ratio(self):
        with pytest.raises(TblError):
            self._make(write_ratios=(1.5,))

    def test_bad_workload(self):
        with pytest.raises(TblError):
            self._make(workloads=(0,))

    def test_bad_think_time(self):
        with pytest.raises(TblError):
            self._make(think_time=0)

    @pytest.mark.parametrize("field, values, message", [
        ("topologies", (Topology(1, 1, 1), Topology(1, 2, 1),
                        Topology(1, 1, 1)), "topology '1-1-1' listed twice"),
        ("workloads", (100, 300, 100), "workload 100 listed twice"),
        ("write_ratios", (0.15, 0.15), "write_ratio 0.15 listed twice"),
    ])
    def test_repeated_sweep_entry_refused(self, field, values, message):
        with pytest.raises(TblError, match=message):
            self._make(**{field: values})

    def test_slo_bounds(self):
        with pytest.raises(TblError):
            ServiceLevelObjective(error_ratio=1.5)

    def test_monitor_unknown_metric(self):
        with pytest.raises(TblError):
            MonitorSpec(metrics=("cpu", "entropy"))

    def test_trial_scaled(self):
        scaled = TrialPhases(60, 300, 60).scaled(0.1)
        assert scaled.run == pytest.approx(30.0)
        assert scaled.total() == pytest.approx(42.0)

    def test_expand_range_int(self):
        assert expand_range(50, 250, 50) == (50, 100, 150, 200, 250)

    def test_expand_range_float_endpoint(self):
        values = expand_range(0.0, 0.9, 0.1)
        assert len(values) == 10
        assert values[-1] == pytest.approx(0.9)

    def test_expand_range_single(self):
        assert expand_range(42) == (42,)

    def test_expand_range_bad_step(self):
        with pytest.raises(TblError):
            expand_range(1, 10, 0)


class TestWriterRoundTrip:
    def test_render_parses_back(self):
        text = render_tbl(
            "rubis", "emulab",
            [dict(
                name="scaleout",
                topologies=(Topology(1, 2, 1), Topology(1, 3, 1)),
                workloads=(100, 200, 300),
                write_ratios=(0.15,),
                trial=TrialPhases(6, 30, 6),
                slo=ServiceLevelObjective(response_time=2.0,
                                          error_ratio=0.1),
                monitor=MonitorSpec(interval=1.0, metrics=("cpu", "disk")),
                think_time=7.0, timeout=20.0, seed=11,
            )],
        )
        spec = parse(text)
        exp = spec.experiment("scaleout")
        assert [t.label() for t in exp.topologies] == ["1-2-1", "1-3-1"]
        assert exp.workloads == (100, 200, 300)
        assert exp.write_ratios == (0.15,)
        assert exp.trial.run == pytest.approx(30.0)
        assert exp.monitor.metrics == ("cpu", "disk")
        assert exp.seed == 11

    def test_range_collapsing(self):
        text = render_tbl(
            "rubis", "emulab",
            [dict(name="r", topologies=(Topology(1, 1, 1),),
                  workloads=(50, 100, 150, 200, 250))],
        )
        assert "50 to 250 step 50" in text
        spec = parse(text)
        assert spec.experiment("r").workloads == (50, 100, 150, 200, 250)

    def test_write_ratio_rendered_as_percent(self):
        text = render_tbl(
            "rubis", "emulab",
            [dict(name="r", topologies=(Topology(1, 1, 1),),
                  workloads=(100,), write_ratios=(0.0, 0.45, 0.9))],
        )
        assert "write_ratio 0% to 90% step 45%;" in text
        spec = parse(text)
        assert spec.experiment("r").write_ratios[1] == pytest.approx(0.45)


_topology_labels = st.builds(
    lambda w, a, d: f"{w}-{a}-{d}", st.integers(1, 2), st.integers(1, 3),
    st.integers(1, 2))
_workload_lists = st.one_of(
    st.lists(st.integers(1, 30).map(lambda k: 50 * k), min_size=1,
             max_size=5).map(lambda ws: ", ".join(map(str, ws))),
    st.tuples(st.integers(1, 10), st.integers(0, 6), st.integers(1, 3))
    .map(lambda t: f"{50 * t[0]} to {50 * (t[0] + t[1] * t[2])} "
                   f"step {50 * t[2]}"))
_ratio_lists = st.lists(st.integers(0, 90), min_size=1, max_size=4) \
    .map(lambda rs: ", ".join(f"{r}%" for r in rs))


@settings(max_examples=60, deadline=None)
@given(topologies=st.lists(_topology_labels, min_size=1, max_size=4),
       workloads=_workload_lists, ratios=_ratio_lists,
       repetitions=st.integers(1, 3))
def test_sweep_points_are_unique_trial_keys(topologies, workloads, ratios,
                                            repetitions):
    """A spec either refuses a repeated sweep entry or enumerates
    exactly its points: what ``validate`` counts is what the grid runs,
    every task a distinct trial key, and the planner's universe."""
    text = (f"benchmark rubis; platform emulab;\n"
            f"experiment \"p\" {{ topology {', '.join(topologies)}; "
            f"workload {workloads}; write_ratio {ratios}; "
            f"repetitions {repetitions}; }}")
    declared = (topologies, workloads.split(", "), ratios.split(", "))
    if any(len(set(values)) < len(values) for values in declared):
        with pytest.raises(TblError, match="listed twice"):
            parse(text)
        return
    experiment = parse(text).experiment("p")
    points = experiment.point_count()
    tasks = enumerate_tasks(experiment)
    assert len(tasks) == points * repetitions
    assert len({task.key() for task in tasks}) == len(tasks)
    assert len(ObservationFrontier(experiment).universe) == points
