"""Behavioural tests for the n-tier simulation.

These pin the saturation structure the reproduction promises: per-app-
server knees near 250 users, DB knees near 1700/2900, the write-ratio
inversion, timeout/rejection error paths, and determinism.
"""

import hashlib

import pytest

from repro.sim import OK, REJECTED, TIMEOUT, NTierSimulation
from tests.conftest import make_driver, make_system


def run_point(users, apps=1, dbs=1, write_ratio=0.15, run=60.0,
              benchmark="rubis", seed=42, db_node_type=None, webs=1,
              timeout=8.0, app_server="jonas", platform="emulab"):
    driver = make_driver(benchmark=benchmark, users=users,
                         write_ratio=write_ratio, warmup=10.0, run=run,
                         cooldown=5.0, seed=seed, timeout=timeout)
    system = make_system(webs=webs, apps=apps, dbs=dbs, driver=driver,
                         db_node_type=db_node_type, app_server=app_server,
                         platform=platform)
    harness = NTierSimulation(system)
    records = harness.run()
    window = (driver.warmup, driver.warmup + driver.run)
    measured = [r for r in records
                if window[0] <= r.finished_at <= window[1]
                and r.finished_at == r.finished_at]   # drop NaN (in flight)
    ok = [r for r in measured if r.status == OK]
    errors = [r for r in measured if r.status != OK]
    throughput = len(ok) / driver.run
    mean_rt = (sum(r.response_time() for r in ok) / len(ok)) if ok else 0.0
    error_ratio = len(errors) / len(measured) if measured else 0.0
    return {
        "harness": harness, "throughput": throughput, "mean_rt": mean_rt,
        "error_ratio": error_ratio, "ok": ok, "system": system,
    }


class TestLightLoad:
    def test_response_time_near_demand_sum(self):
        result = run_point(users=50, run=60.0)
        # At 50 users the system is far below every knee: RT is around
        # the demand sum (~35 ms) plus hops, well under 150 ms.
        assert result["mean_rt"] < 0.15
        assert result["error_ratio"] == 0.0

    def test_throughput_tracks_population(self):
        # X ~= N / (Z + R) in the latency-bound regime.
        result = run_point(users=100, run=60.0)
        assert result["throughput"] == pytest.approx(100 / 7.0, rel=0.12)

    def test_scaling_population_scales_throughput(self):
        small = run_point(users=50, run=60.0)
        large = run_point(users=150, run=60.0)
        ratio = large["throughput"] / small["throughput"]
        assert ratio == pytest.approx(3.0, rel=0.15)


class TestAppServerKnee:
    def test_one_app_server_caps_near_35_per_second(self):
        # Capacity = 1 / D_app(0.15) = 35 req/s (=> ~245 users); measure
        # just past the knee, before timeout abandonment erodes goodput.
        result = run_point(users=280, run=60.0)
        assert result["throughput"] == pytest.approx(35.0, rel=0.10)

    def test_response_time_grows_past_knee(self):
        below = run_point(users=150, run=60.0)
        above = run_point(users=320, run=60.0)
        assert above["mean_rt"] > 5 * below["mean_rt"]

    def test_second_app_server_doubles_capacity(self):
        one = run_point(users=600, apps=1, run=40.0)
        two = run_point(users=600, apps=2, run=40.0)
        assert two["throughput"] > 1.7 * one["throughput"]

    def test_app_cpu_saturated_past_knee(self):
        result = run_point(users=350, run=40.0)
        system = result["system"]
        app_station = result["harness"].station_of(
            system.app_servers[0].host.name
        )
        _t, area = app_station.area_reading()
        total_time = result["harness"].sim.now
        assert area / total_time > 0.9

    def test_db_idle_when_app_is_bottleneck(self):
        result = run_point(users=350, run=40.0)
        system = result["system"]
        db_station = result["harness"].station_of(
            system.db_backends[0].host.name
        )
        _t, area = db_station.area_reading()
        assert area / result["harness"].sim.now < 0.35


class TestWriteRatioInversion:
    def test_high_write_ratio_short_response(self):
        # Figure 1's shape: at 250 users, wr=0 is saturated but wr=0.9
        # barely stresses the app tier.
        heavy = run_point(users=250, write_ratio=0.0, run=40.0)
        light = run_point(users=250, write_ratio=0.9, run=40.0)
        assert light["mean_rt"] < heavy["mean_rt"] / 4

    def test_write_ratio_shifts_load_toward_db(self):
        def db_over_app(write_ratio):
            result = run_point(users=150, write_ratio=write_ratio, run=40.0)
            harness = result["harness"]
            system = result["system"]
            app_area = harness.station_of(
                system.app_servers[0].host.name).area_reading()[1]
            db_area = harness.station_of(
                system.db_backends[0].host.name).area_reading()[1]
            return db_area / app_area

        # db:app demand ratio is 4/33 at wr=0 and 4.9/6 at wr=0.9.
        assert db_over_app(0.9) > 4 * db_over_app(0.0)


class TestDatabaseTier:
    def test_db_knee_near_1700_with_8_app_servers(self):
        result = run_point(users=1900, apps=8, dbs=1, run=40.0)
        # DB capacity = 1 / 0.00415 = 241 req/s.
        assert result["throughput"] == pytest.approx(241, rel=0.10)

    def test_second_db_lifts_1700_user_ceiling(self):
        one = run_point(users=2100, apps=9, dbs=1, run=30.0)
        two = run_point(users=2100, apps=9, dbs=2, run=30.0)
        assert two["mean_rt"] < one["mean_rt"] / 2

    def test_raidb1_write_replication_limits_scaling(self):
        # With 100% reads 2 DBs would double capacity; at wr=15% the
        # write-all rule caps the gain near 1.7x.
        one = run_point(users=2600, apps=12, dbs=1, run=30.0)
        two = run_point(users=2600, apps=12, dbs=2, run=30.0)
        gain = two["throughput"] / one["throughput"]
        assert 1.4 < gain < 1.95

    def test_slow_db_node_saturates_early(self):
        # The Emulab baseline's 600 MHz DB host inflates DB demand 5x.
        slow = run_point(users=300, write_ratio=0.9, run=40.0,
                         db_node_type="emulab-low")
        fast = run_point(users=300, write_ratio=0.9, run=40.0)
        assert slow["mean_rt"] > 3 * fast["mean_rt"]


class TestErrorPaths:
    def test_timeouts_at_heavy_overload(self):
        result = run_point(users=900, apps=2, run=40.0)
        # 900 users on ~490-user capacity: abandonment must appear.
        assert result["error_ratio"] > 0.10

    def test_no_errors_below_knee(self):
        result = run_point(users=400, apps=2, run=40.0)
        assert result["error_ratio"] < 0.02

    def test_timeout_records_have_status(self):
        result = run_point(users=900, apps=2, run=30.0)
        harness = result["harness"]
        statuses = {r.status for r in harness.records}
        assert TIMEOUT in statuses


class TestWeblogicOnWarp:
    def test_dual_core_warp_doubles_capacity(self):
        # Figure 3: Weblogic on Warp sustains ~2x the users of JOnAS on
        # Emulab — carried by the two 3.06 GHz CPUs per Warp node.
        jonas = run_point(users=700, run=30.0, platform="emulab")
        weblogic = run_point(users=700, run=30.0, platform="warp",
                             app_server="weblogic")
        assert weblogic["throughput"] > 1.6 * jonas["throughput"]


class TestRubbos:
    def test_readonly_saturates_before_submission_mix(self):
        readonly = run_point(users=2600, apps=1, dbs=1, write_ratio=0.0,
                             benchmark="rubbos", webs=0, run=30.0)
        mixed = run_point(users=2600, apps=1, dbs=1, write_ratio=0.15,
                          benchmark="rubbos", webs=0, run=30.0)
        assert readonly["mean_rt"] > 2 * mixed["mean_rt"]

    def test_db_is_the_rubbos_bottleneck(self):
        result = run_point(users=2400, apps=1, dbs=1, write_ratio=0.0,
                           benchmark="rubbos", webs=0, run=30.0)
        harness = result["harness"]
        system = result["system"]
        db_util = harness.station_of(
            system.db_backends[0].host.name).area_reading()[1]
        app_util = harness.station_of(
            system.app_servers[0].host.name).area_reading()[1]
        assert db_util > app_util


class TestDeterminism:
    def test_same_seed_same_records(self):
        first = run_point(users=120, run=30.0, seed=7)
        second = run_point(users=120, run=30.0, seed=7)
        assert first["throughput"] == second["throughput"]
        assert first["mean_rt"] == second["mean_rt"]

    def test_different_seed_differs(self):
        first = run_point(users=120, run=30.0, seed=7)
        second = run_point(users=120, run=30.0, seed=8)
        assert first["mean_rt"] != second["mean_rt"]


def _record_digest(records):
    digest = hashlib.sha256()
    for r in records:
        digest.update(repr((r.state, r.issued_at, r.finished_at, r.status,
                            r.is_write)).encode())
    return digest.hexdigest()


class TestPinnedSaturatedOutput:
    """Exact event counts and record digests of two saturated trials.

    Any change to event order (heap ordering, tie-breaking, cancellation)
    shows up here as a different count or digest, long before it would
    move a knee.
    """

    @pytest.mark.parametrize(
        "apps, dbs, point, events, n_records, sha256, statuses",
        [
            # RUBBoS 1-1-1 read-only, past the DB knee.
            (1, 1, dict(benchmark="rubbos", users=2400, write_ratio=0.0,
                        run=8.0, timeout=8.0),
             35711, 4210,
             "b4f636d9e8ef01096c22595e94ead0938e34ae64634d2209c2fedc3fcc8a2fcb",
             {OK, TIMEOUT}),
            # RUBiS 1-2-2 at 30 % writes: RAIDb-1 fan-out, timeouts and
            # rejections.
            (2, 2, dict(benchmark="rubis", users=1600, write_ratio=0.3,
                        run=6.0, timeout=4.0),
             16606, 2343,
             "b3cb2b511f67916ce00f944fb83918402b5032ea12a4142dad719ebea67ab488",
             {OK, TIMEOUT, REJECTED}),
        ],
        ids=["rubbos-111-read", "rubis-122-write30"],
    )
    def test_events_and_records_pinned(self, apps, dbs, point, events,
                                       n_records, sha256, statuses):
        driver = make_driver(warmup=2.0, cooldown=2.0, seed=3, **point)
        harness = NTierSimulation(make_system(apps=apps, dbs=dbs,
                                              driver=driver))
        records = harness.run()
        assert {r.status for r in records} == statuses
        assert harness.sim.events_processed == events
        assert len(records) == n_records
        assert _record_digest(records) == sha256
