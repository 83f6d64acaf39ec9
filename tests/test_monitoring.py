"""Tests for sysstat emitters, collectors and application metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MonitoringError
from repro.monitoring import (
    attach_monitors,
    collect_sysstat_files,
    parse_request_log,
    parse_sysstat,
    render_request_log,
    summarize_collected_log,
    summarize_log,
    summarize_log_by_state,
    summarize_records,
)
from repro.monitoring import metrics as metrics_module
from repro.sim import NTierSimulation
from repro.sim.ntier import RequestRecord
from repro.vcluster import VirtualHost
from repro.spec import get_platform
from tests.conftest import make_driver, make_system


def _scan_backlog(text):
    """The backlog trailer found by scanning every line of the log."""
    for line in text.splitlines():
        if line.startswith("#backlog "):
            try:
                return int(line.split()[1])
            except (IndexError, ValueError):
                raise MonitoringError(
                    f"malformed backlog trailer: {line!r}") from None
    return None


def _record(issued, finished, status="ok", state="Home", user=0):
    return RequestRecord(user=user, state=state, issued_at=issued,
                         finished_at=finished, status=status,
                         is_write=False)


class TestSummarizeRecords:
    def test_basic_summary(self):
        records = [
            _record(1.0, 1.1), _record(2.0, 2.3), _record(3.0, 3.2),
            _record(4.0, 4.5, status="timeout"),
        ]
        metrics = summarize_records(records, (0.0, 10.0))
        assert metrics.completed == 3
        assert metrics.timeouts == 1
        assert metrics.errors == 1
        assert metrics.throughput == pytest.approx(0.3)
        assert metrics.mean_response_s == pytest.approx((0.1 + 0.3 + 0.2) / 3)
        assert metrics.error_ratio == pytest.approx(0.25)

    def test_window_filters_by_completion_time(self):
        records = [_record(0.5, 1.5), _record(5.0, 12.0)]
        metrics = summarize_records(records, (1.0, 10.0))
        assert metrics.completed == 1

    def test_in_flight_requests_ignored(self):
        records = [_record(1.0, float("nan"))]
        metrics = summarize_records(records, (0.0, 10.0))
        assert metrics.total == 0

    def test_percentiles_ordered(self):
        records = [_record(i, i + 0.01 * (i + 1)) for i in range(100)]
        metrics = summarize_records(records, (0.0, 200.0))
        assert metrics.p50_response_s <= metrics.p90_response_s
        assert metrics.p90_response_s <= metrics.p99_response_s

    def test_empty_window_rejected(self):
        with pytest.raises(MonitoringError):
            summarize_records([], (5.0, 5.0))


class TestRequestLog:
    def test_roundtrip(self):
        records = [_record(1.0, 1.25, state="ViewItem"),
                   _record(2.0, 2.5, status="timeout", state="StoreBid")]
        text = render_request_log(records)
        parsed = parse_request_log(text)
        assert len(parsed) == 2
        assert parsed[0].state == "ViewItem"
        assert parsed[0].response_s == pytest.approx(0.25)
        assert parsed[1].status == "timeout"

    def test_summarize_log_matches_records(self):
        records = [_record(float(i), i + 0.2) for i in range(1, 50)]
        text = render_request_log(records)
        from_log = summarize_log(text, (0.0, 100.0))
        direct = summarize_records(records, (0.0, 100.0))
        assert from_log.completed == direct.completed
        assert from_log.mean_response_s == pytest.approx(
            direct.mean_response_s, abs=1e-4)

    def test_one_parse_gives_both_summaries(self):
        records = [_record(float(i), i + 0.2, state=state)
                   for i, state in zip(range(1, 50), ["Home", "Bid"] * 25)]
        records.append(_record(60.0, float("nan")))
        window = (0.0, 100.0)
        text = render_request_log(records, window=window)
        assert summarize_collected_log(text, window) == (
            summarize_log(text, window),
            summarize_log_by_state(text, window))
        assert summarize_log(text, window).backlog == 1

    def test_a_des_trial_parses_its_log_once(self, monkeypatch):
        from repro.api import run_campaign

        calls = []
        parse = metrics_module.parse_request_log

        def counted(text):
            calls.append(len(text))
            return parse(text)

        monkeypatch.setattr(metrics_module, "parse_request_log", counted)
        report = run_campaign("""
benchmark rubis; platform emulab;
experiment "parse-once" {
    topology 1-1-1;
    workload 50, 100;
    write_ratio 15%;
    trial { warmup 1s; run 2s; cooldown 1s; }
}
""")
        assert report.trials == 2
        assert len(calls) == 2

    @settings(max_examples=80, deadline=None)
    @given(spans=st.lists(st.tuples(
               st.floats(0.0, 90.0),
               st.none() | st.floats(0.0, 5.0),
               st.sampled_from(["Home", "Bid", "ViewItem"])),
               max_size=12),
           windowed=st.booleans(),
           trailer=st.sampled_from(
               [None, "#backlog", "#backlog x", "#backlog 1.5",
                "#backlog  7", "#backlog -3", "#backlog 4 extra"]))
    def test_backlog_trailer_read_from_the_end(self, spans, windowed,
                                               trailer):
        # The trailer is read from the end of the text; on rendered logs
        # (with a trailer, without one, or with it mangled) that gives
        # exactly what scanning every line did, errors included.
        records = [_record(issued, issued + duration
                           if duration is not None else float("nan"),
                           state=state)
                   for issued, duration, state in spans]
        text = render_request_log(records,
                                  window=(0.0, 60.0) if windowed else None)
        if windowed and trailer is not None:
            body, _, _ = text.rstrip("\n").rpartition("\n")
            text = f"{body}\n{trailer}\n"

        def outcome(parse):
            try:
                return parse(text)
            except MonitoringError as error:
                return str(error)

        assert outcome(metrics_module.parse_log_backlog) == \
            outcome(_scan_backlog)

    def test_bad_log_rejected(self):
        with pytest.raises(MonitoringError):
            parse_request_log("not a log")

    def test_malformed_line_rejected(self):
        with pytest.raises(MonitoringError):
            parse_request_log("#requests hdr\n1.0 only three\n")


class TestSysstat:
    def test_emitters_write_parseable_files(self):
        driver = make_driver(users=80, warmup=5.0, run=20.0, cooldown=5.0)
        system = make_system(driver=driver)
        harness = NTierSimulation(system)
        emitters = attach_monitors(harness)
        harness.run()
        for emitter in emitters:
            emitter.flush()
        monitor = system.monitors[0]
        series = parse_sysstat(monitor.host.fs.read(monitor.output_path))
        assert series.host == monitor.host.name
        assert series.interval == 1.0
        # ~30 seconds of samples at 1 Hz.
        assert 25 <= len(series.series("cpu")) <= 31

    def test_app_cpu_reflects_load(self):
        driver = make_driver(users=300, warmup=5.0, run=30.0, cooldown=5.0)
        system = make_system(driver=driver)
        harness = NTierSimulation(system)
        emitters = attach_monitors(harness)
        harness.run()
        for emitter in emitters:
            emitter.flush()
        app_host = system.app_servers[0].host
        app_monitor = [m for m in system.monitors
                       if m.host is app_host][0]
        series = parse_sysstat(app_host.fs.read(app_monitor.output_path))
        # 300 users on one JOnAS server: saturated in steady state.
        assert series.mean("cpu", window=(10.0, 35.0)) > 85.0

    def test_client_host_reports_baseline(self):
        driver = make_driver(users=50, warmup=2.0, run=10.0, cooldown=2.0)
        system = make_system(driver=driver)
        harness = NTierSimulation(system)
        emitters = attach_monitors(harness)
        harness.run()
        for emitter in emitters:
            emitter.flush()
        client_monitor = [m for m in system.monitors
                          if m.host is system.client_host][0]
        series = parse_sysstat(
            system.client_host.fs.read(client_monitor.output_path))
        assert 0 < series.mean("cpu") < 10

    def test_memory_grows_with_load(self):
        light_driver = make_driver(users=30, warmup=2, run=15, cooldown=2)
        heavy_driver = make_driver(users=300, warmup=2, run=15, cooldown=2)

        def app_memory(driver):
            system = make_system(driver=driver)
            harness = NTierSimulation(system)
            emitters = attach_monitors(harness)
            harness.run()
            for emitter in emitters:
                emitter.flush()
            host = system.app_servers[0].host
            monitor = [m for m in system.monitors if m.host is host][0]
            series = parse_sysstat(host.fs.read(monitor.output_path))
            return series.peak("memory")

        assert app_memory(heavy_driver) > app_memory(light_driver)

    def test_parse_rejects_garbage(self):
        with pytest.raises(MonitoringError):
            parse_sysstat("no header\n1 cpu 2\n")

    def test_parse_rejects_missing_header_fields(self):
        with pytest.raises(MonitoringError):
            parse_sysstat("#sysstat 6.0.2 host=n1\n")

    def test_collect_sysstat_files(self):
        host = VirtualHost("control", get_platform("warp").node_type())
        host.fs.write(
            "/results/x/node-1.sysstat.dat",
            "#sysstat 6.0.2 host=node-1 interval=1 metrics=cpu\n"
            "1 cpu 50\n2 cpu 70\n",
        )
        host.fs.write("/results/x/requests.log", "#requests hdr\n")
        collected = collect_sysstat_files(host, "/results/x")
        assert set(collected) == {"node-1"}
        assert collected["node-1"].mean("cpu") == pytest.approx(60.0)


class TestSeriesErrorPaths:
    def _series(self):
        return parse_sysstat(
            "#sysstat 6.0.2 host=n1 interval=1 metrics=cpu,memory\n"
            "1 cpu 50\n2 cpu 70\n1 memory 10\n"
        )

    def test_unknown_metric_raises_monitoring_error_not_keyerror(self):
        series = self._series()
        with pytest.raises(MonitoringError) as excinfo:
            series.series("disk_io")
        message = str(excinfo.value)
        assert "disk_io" in message
        # The error names the metrics that *are* known — declared in
        # the header even if never sampled.
        assert "cpu" in message and "memory" in message
        assert not isinstance(excinfo.value, KeyError)

    def test_values_unknown_metric_raises(self):
        with pytest.raises(MonitoringError):
            self._series().values("nope")

    def test_empty_window_raises_instead_of_silent_zero(self):
        series = self._series()
        with pytest.raises(MonitoringError) as excinfo:
            series.values("cpu", window=(50.0, 60.0))
        message = str(excinfo.value)
        assert "selects no" in message
        assert "50" in message and "60" in message

    def test_mean_propagates_empty_window_error(self):
        with pytest.raises(MonitoringError):
            self._series().mean("cpu", window=(100.0, 200.0))

    def test_known_metrics_union_of_declared_and_sampled(self):
        series = parse_sysstat(
            "#sysstat 6.0.2 host=n1 interval=1 metrics=cpu\n"
            "1 cpu 50\n1 network 3\n"
        )
        assert series.known_metrics() == ["cpu", "network"]

    def test_populated_window_still_works(self):
        series = self._series()
        assert series.mean("cpu", window=(0.0, 10.0)) == pytest.approx(60.0)
