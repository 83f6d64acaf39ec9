"""Campaign service plane tests: fleet, controller, shards, wire.

The headline contract is the same one the scheduler and hot-path
planes already carry, lifted to the daemon: two campaigns submitted
*concurrently* to one ``repro serve`` fleet must produce final results
databases byte-identical to sequential in-process runs — at any worker
count, after cancel + resume, and after killing the daemon and
resuming both campaigns on a fresh one.
"""

import gc
import json
import os
import threading
import time
import types
import weakref
from concurrent.futures import Future

import pytest

from repro import ObservationCampaign, api, hotpath
from repro.errors import (
    CampaignCancelled,
    ExperimentError,
    ServiceBusy,
    ServiceError,
)
from repro.results.database import ResultsDatabase, merge_shards, shard_path
from repro.service import (
    CampaignClient,
    CampaignController,
    ServiceDaemon,
    StreamingAggregator,
    WorkerFleet,
)
from repro.sim import ANALYTIC

TBL_A = """
benchmark rubis; platform emulab;
experiment "alpha" {
    topology 1-1-1, 1-2-1;
    workload 100, 300;
    write_ratio 10%;
    trial { warmup 2s; run 10s; cooldown 2s; }
}
"""

TBL_B = """
benchmark rubis; platform emulab;
experiment "beta" {
    topology 1-2-2;
    workload 200, 400, 600;
    write_ratio 20%;
    trial { warmup 2s; run 10s; cooldown 2s; }
}
"""

ADAPT_TBL = """
benchmark rubis; platform emulab;
experiment "knee" {
    topology 1-1-1, 1-2-1;
    workload 100, 200, 300, 400, 500;
    write_ratio 10%;
    trial { warmup 2s; run 10s; cooldown 2s; }
}
"""

#: Identity covers every persistent table.  campaign_meta is excluded
#: by design: it stores the hot-path cache counters, which legitimately
#: differ between a shared-plane daemon run and a standalone run.
TABLES = ("trials", "host_cpu", "state_metrics", "spans", "failures",
          "planner_decisions")


def full_dump(path):
    database = ResultsDatabase(path)
    try:
        return {table: database.dump_rows(table) for table in TABLES}
    finally:
        database.close()


def wait_done(controller, campaign_id, timeout=180):
    record = controller.wait(campaign_id, timeout=timeout)
    assert record is not None, f"campaign {campaign_id} did not settle"
    return record


# ---------------------------------------------------------------------------
# The fleet: fair shares, ceilings, ordered delivery, cancellation


class GatedRunner:
    """A fake trial runner whose tasks block until released, recording
    per-tenant concurrency highs along the way."""

    def __init__(self, gate=None, observed=None, tenant=None):
        self.gate = gate
        self.observed = observed
        self.tenant = tenant
        self._lock = threading.Lock()
        self._running = 0

    def run_task(self, task):
        if self.observed is not None:
            with self.observed["lock"]:
                running = self.observed["running"]
                running[self.tenant] = running.get(self.tenant, 0) + 1
                peaks = self.observed["peak"]
                peaks[self.tenant] = max(peaks.get(self.tenant, 0),
                                         running[self.tenant])
        try:
            if self.gate is not None:
                assert self.gate.wait(timeout=30)
            return ("done", self.tenant, task)
        finally:
            if self.observed is not None:
                with self.observed["lock"]:
                    self.observed["running"][self.tenant] -= 1


class TestWorkerFleet:
    def test_delivery_in_task_order_across_tenants(self):
        fleet = WorkerFleet(jobs=3)
        try:
            lease_a = fleet.attach("a", lambda: GatedRunner(tenant="a"),
                                   ceiling=2)
            lease_b = fleet.attach("b", lambda: GatedRunner(tenant="b"),
                                   ceiling=2)
            out = {}

            def run(name, lease, tasks):
                out[name] = lease.run_tasks(tasks)

            threads = [
                threading.Thread(target=run,
                                 args=("a", lease_a, list(range(7)))),
                threading.Thread(target=run,
                                 args=("b", lease_b, list("xyz"))),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert out["a"] == [("done", "a", i) for i in range(7)]
            assert out["b"] == [("done", "b", c) for c in "xyz"]
            stats = fleet.stats()
            assert stats["dispatched"] == 10
            assert stats["in_flight"] == 0
        finally:
            fleet.close()

    def test_ceiling_caps_a_campaign_below_fleet_capacity(self):
        observed = {"lock": threading.Lock(), "running": {}, "peak": {}}
        gate = threading.Event()
        fleet = WorkerFleet(jobs=4)
        try:
            lease = fleet.attach(
                "capped",
                lambda: GatedRunner(gate=gate, observed=observed,
                                    tenant="capped"),
                ceiling=2)
            done = []
            worker = threading.Thread(
                target=lambda: done.append(
                    lease.run_tasks(list(range(6)))))
            worker.start()
            deadline = time.time() + 10
            while time.time() < deadline:
                with observed["lock"]:
                    if observed["peak"].get("capped", 0) >= 2:
                        break
                time.sleep(0.02)
            gate.set()
            worker.join(timeout=30)
            assert done and len(done[0]) == 6
            # The fleet had 4 free workers; the campaign's jobs=2
            # ceiling must have kept it at 2 in flight.
            assert observed["peak"]["capped"] == 2
        finally:
            gate.set()
            fleet.close()

    def test_cancel_delivers_a_prefix_then_raises(self):
        gate = threading.Event()
        fleet = WorkerFleet(jobs=1)
        try:
            lease = fleet.attach(
                "doomed", lambda: GatedRunner(gate=gate, tenant="doomed"),
                ceiling=1)
            caught = []
            delivered = []
            worker = threading.Thread(
                target=lambda: caught.append(
                    _run_catching(lease, list(range(8)),
                                  delivered.append)))
            worker.start()
            time.sleep(0.2)          # let the first task start
            lease.cancel()
            gate.set()               # release the in-flight trial
            worker.join(timeout=30)
            assert isinstance(caught[0], CampaignCancelled)
            # Whatever arrived is an exact prefix of the task order.
            assert [task for _done, _t, task in delivered] == \
                list(range(len(delivered)))
            assert len(delivered) < 8
            with pytest.raises(CampaignCancelled):
                lease.run_tasks([99])
        finally:
            gate.set()
            fleet.close()

    def test_detached_campaign_is_rejected(self):
        fleet = WorkerFleet(jobs=1)
        try:
            lease = fleet.attach("gone", lambda: GatedRunner(tenant="g"))
            lease.close()
            with pytest.raises(ServiceError, match="not attached"):
                lease.run_tasks([1])
            with pytest.raises(ServiceError, match="already attached"):
                fleet.attach("other", lambda: None)
                fleet.attach("other", lambda: None)
        finally:
            fleet.close()

    def test_worker_error_fails_the_batch(self):
        class ExplodingRunner:
            def run_task(self, task):
                raise ServiceError(f"task {task} exploded")

        fleet = WorkerFleet(jobs=2)
        try:
            lease = fleet.attach("boom", ExplodingRunner)
            with pytest.raises(ServiceError, match="exploded"):
                lease.run_tasks([1, 2, 3])
        finally:
            fleet.close()

    def test_detach_frees_the_campaigns_worker_runners(self):
        # Each runner stands for a whole virtual cluster; a daemon that
        # kept one per finished campaign would grow without bound.
        alive = weakref.WeakSet()

        def factory(tenant):
            runner = GatedRunner(tenant=tenant)
            alive.add(runner)
            return runner

        fleet = WorkerFleet(jobs=1)
        try:
            for number in range(6):
                name = f"campaign-{number}"
                lease = fleet.attach(name, lambda n=name: factory(n))
                assert lease.run_tasks([1, 2]) == \
                    [("done", name, 1), ("done", name, 2)]
                lease.close()
            gc.collect()
            assert len(alive) <= 1
        finally:
            fleet.close()

    def test_a_campaign_builds_a_runner_per_concurrent_task(self):
        # Each runner stands for a cluster clone: a ceiling-1 campaign
        # needs one, however many pool threads its trials land on.
        built = []

        def factory():
            built.append(GatedRunner(tenant="one"))
            return built[-1]

        fleet = WorkerFleet(jobs=4)
        try:
            lease = fleet.attach("one", factory, ceiling=1)
            assert lease.run_tasks(range(50)) == \
                [("done", "one", n) for n in range(50)]
            assert len(built) == 1
        finally:
            fleet.close()

    def test_a_fleet_starts_no_thread_of_its_own(self):
        before = set(threading.enumerate())
        fleet = WorkerFleet(jobs=2)
        try:
            assert set(threading.enumerate()) == before
        finally:
            fleet.close()

    @pytest.mark.parametrize("pool", ["threads", "inline"])
    def test_instant_tasks_admit_inline_without_recursion(self, pool):
        # A task that is done before its callback is attached completes
        # inside pool.submit; admitting from there must loop, not
        # recurse, or a long batch overflows the stack.  The inline
        # pool makes that happen for every task.
        class EchoRunner:
            def run_task(self, task):
                return task

        fleet = WorkerFleet(jobs=2)
        if pool == "inline":
            fleet._pool.shutdown()
            fleet._pool = _InlinePool()
        try:
            lease = fleet.attach("echo", EchoRunner, ceiling=2)
            assert lease.run_tasks(range(3000)) == list(range(3000))
            assert fleet.stats()["dispatched"] == 3000
        finally:
            fleet.close()

    def test_analytic_lane_runs_while_every_main_worker_is_held(self):
        observed = {"lock": threading.Lock(), "running": {}, "peak": {}}
        gate = threading.Event()
        fleet = WorkerFleet(jobs=2)
        try:
            des = fleet.attach(
                "des", lambda: GatedRunner(gate=gate, observed=observed,
                                           tenant="des"),
                ceiling=2)
            held = threading.Thread(target=lambda: des.run_tasks([1, 2]))
            held.start()
            deadline = time.time() + 10
            while time.time() < deadline:
                with observed["lock"]:
                    if observed["running"].get("des", 0) == 2:
                        break
                time.sleep(0.02)
            assert fleet.stats()["in_flight"] == 2
            fast = fleet.attach("fast", lambda: GatedRunner(tenant="fast"),
                                ceiling=4)
            tasks = [types.SimpleNamespace(fidelity=ANALYTIC, n=n)
                     for n in range(5)]
            out = []
            batch = threading.Thread(
                target=lambda: out.append(fast.run_tasks(tasks)))
            batch.start()
            batch.join(timeout=10)
            # Delivered while both main-lane workers were still held.
            assert out == [[("done", "fast", task) for task in tasks]]
            gate.set()
            held.join(timeout=30)
            batch.join(timeout=30)
        finally:
            gate.set()
            fleet.close()


class _InlinePool:
    """A fleet lane whose tasks finish inside ``submit``, so every
    done-callback re-enters the fleet on the submitting thread."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True):
        pass


def _run_catching(lease, tasks, on_result):
    try:
        return lease.run_tasks(tasks, on_result)
    except Exception as error:          # noqa: BLE001 — relayed to asserts
        return error


# ---------------------------------------------------------------------------
# The streaming aggregator


class TestStreamingAggregator:
    def test_tap_attributes_per_campaign(self):
        report = api.run_campaign(TBL_A)
        results = report.database.query()
        aggregator = StreamingAggregator()
        tap_one = aggregator.tap("c1")
        tap_two = aggregator.tap("c2")
        for result in results:
            tap_one(result)
        tap_two(results[0])
        snap = aggregator.snapshot()
        assert snap["trials_observed"] == len(results) + 1
        assert snap["campaigns"]["c1"]["trials"] == len(results)
        assert snap["campaigns"]["c2"]["trials"] == 1
        assert snap["campaigns"]["c1"]["by_experiment"] == \
            {"alpha": len(results)}
        assert snap["campaigns"]["c1"]["peak_throughput"] > 0
        rendered = aggregator.render()
        assert "campaign service aggregate" in rendered
        assert "[c1]" in rendered and "[c2]" in rendered


# ---------------------------------------------------------------------------
# The controller: concurrent byte-identity, cancel/resume, kill/resume


@pytest.fixture(scope="module")
def sequential_dumps(tmp_path_factory):
    """Reference databases from plain in-process (CLI-equivalent) runs."""
    root = tmp_path_factory.mktemp("seq")
    paths = {"a": str(root / "a.db"), "b": str(root / "b.db"),
             "adaptive": str(root / "adaptive.db")}
    api.run_campaign(TBL_A, database=paths["a"]).database.close()
    api.run_campaign(TBL_B, database=paths["b"]).database.close()
    api.run_adaptive(ADAPT_TBL, policy="knee",
                     database=paths["adaptive"]).database.close()
    return {name: full_dump(path) for name, path in paths.items()}


class TestCampaignController:
    def test_concurrent_campaigns_match_sequential_runs(
            self, tmp_path, sequential_dumps):
        db_a = str(tmp_path / "a.db")
        db_b = str(tmp_path / "b.db")
        controller = CampaignController(jobs=4)
        try:
            id_a = controller.submit(TBL_A, db_path=db_a, jobs=3)
            id_b = controller.submit(TBL_B, db_path=db_b, jobs=2)
            rec_a = wait_done(controller, id_a)
            rec_b = wait_done(controller, id_b)
        finally:
            controller.shutdown()
        assert rec_a["state"] == "done" and rec_b["state"] == "done"
        assert full_dump(db_a) == sequential_dumps["a"]
        assert full_dump(db_b) == sequential_dumps["b"]
        # Shards published by rename (none left behind); the final
        # files are consistent.
        assert not os.path.exists(shard_path(db_a))
        assert not os.path.exists(shard_path(db_b))
        database = ResultsDatabase(db_a)
        assert database.integrity_check() == []
        database.close()
        # Tenant-attributed cache stats: each campaign recorded its own
        # traffic on the shared plane, not the other's.
        assert any(c.get("misses", 0) or c.get("hits", 0)
                   for c in rec_a["cache_stats"].values())

    def test_adaptive_campaign_matches_sequential_exploration(
            self, tmp_path, sequential_dumps):
        db = str(tmp_path / "adaptive.db")
        controller = CampaignController(jobs=3)
        try:
            campaign_id = controller.submit(ADAPT_TBL, db_path=db, jobs=3,
                                            policy="knee")
            record = wait_done(controller, campaign_id)
        finally:
            controller.shutdown()
        assert record["state"] == "done", record["error"]
        assert full_dump(db) == sequential_dumps["adaptive"]

    def test_cancel_checkpoints_and_resume_completes_identically(
            self, tmp_path, sequential_dumps):
        db = str(tmp_path / "a.db")
        controller = CampaignController(jobs=2)
        first_result = threading.Event()
        tap = controller.aggregator.observe
        controller.aggregator.observe = \
            lambda cid, res: (tap(cid, res), first_result.set())
        try:
            campaign_id = controller.submit(TBL_A, db_path=db, jobs=1)
            assert first_result.wait(timeout=60)
            controller.cancel(campaign_id)
            record = wait_done(controller, campaign_id)
            assert record["state"] == "cancelled"
            assert os.path.exists(shard_path(db))
            assert not os.path.exists(db)
            # Live resume: same id, same parameters, skips the stored
            # prefix, finishes the rest.
            assert controller.resume(campaign_id) == campaign_id
            record = wait_done(controller, campaign_id)
        finally:
            controller.shutdown()
        assert record["state"] == "done", record["error"]
        assert record["skipped"] >= 1
        assert full_dump(db) == sequential_dumps["a"]

    def test_daemon_kill_then_resume_both_campaigns(
            self, tmp_path, sequential_dumps):
        db_a = str(tmp_path / "a.db")
        db_b = str(tmp_path / "b.db")
        controller = CampaignController(jobs=2)
        started = threading.Event()
        tap = controller.aggregator.observe
        controller.aggregator.observe = \
            lambda cid, res: (tap(cid, res), started.set())
        id_a = controller.submit(TBL_A, db_path=db_a, jobs=1)
        id_b = controller.submit(TBL_B, db_path=db_b, jobs=1)
        assert started.wait(timeout=60)
        controller.shutdown(abort=True)     # the kill switch
        for campaign_id in (id_a, id_b):
            assert controller.status(campaign_id)["state"] in \
                ("cancelled", "done")
        # A fresh daemon, pointed at the checkpoints alone — no record
        # survives, identity comes from the shards' campaign_meta.
        fresh = CampaignController(jobs=2)
        try:
            new_a = fresh.resume(db_path=db_a, jobs=2)
            new_b = fresh.resume(db_path=db_b, jobs=2)
            rec_a = wait_done(fresh, new_a)
            rec_b = wait_done(fresh, new_b)
        finally:
            fresh.shutdown()
        assert rec_a["state"] == "done", rec_a["error"]
        assert rec_b["state"] == "done", rec_b["error"]
        assert full_dump(db_a) == sequential_dumps["a"]
        assert full_dump(db_b) == sequential_dumps["b"]

    def test_backpressure_rejects_past_max_active(self, tmp_path):
        controller = CampaignController(jobs=1, max_active=1)
        release = threading.Event()
        # Deterministic saturation: the campaign thread parks until
        # released, holding its RUNNING slot.
        controller._run_campaign = \
            lambda record: (release.wait(timeout=30),
                            controller._settle(record, "done", None))
        try:
            controller.submit(TBL_A, db_path=str(tmp_path / "x.db"))
            with pytest.raises(ServiceBusy, match="in flight"):
                controller.submit(TBL_A, db_path=str(tmp_path / "y.db"))
        finally:
            release.set()
            controller.shutdown()

    def test_unknown_campaign_and_bad_submit_are_service_errors(
            self, tmp_path):
        controller = CampaignController(jobs=1)
        try:
            with pytest.raises(ServiceError, match="unknown campaign"):
                controller.status("c999")
            with pytest.raises(ServiceError, match="needs tbl_text"):
                controller.submit(db_path=str(tmp_path / "x.db"))
            # A resume pointed at nothing settles as failed (the shard
            # check runs on the campaign thread, not in submit).
            ghost = controller.resume(db_path=str(tmp_path / "missing.db"))
            record = wait_done(controller, ghost, timeout=30)
            assert record["state"] == "failed"
            assert "nothing to resume" in record["error"]
        finally:
            controller.shutdown()


    def test_published_database_carries_its_run_card(self, tmp_path):
        db = str(tmp_path / "out.sqlite")
        controller = CampaignController(jobs=1)
        try:
            record = wait_done(controller,
                               controller.submit(TBL_A, db_path=db))
        finally:
            controller.shutdown()
        assert record["state"] == "done", record["error"]
        database = ResultsDatabase(db)
        try:
            cards = database.run_cards()
        finally:
            database.close()
        with open(f"{db}.run_card.json") as exported:
            assert [json.load(exported)] == cards
        assert sorted(os.listdir(tmp_path)) == \
            ["out.sqlite", "out.sqlite.run_card.json"]


class _Kill(Exception):
    pass


#: One resume contract, three campaign shapes: each row runs its
#: campaign (``run(campaign, on_result)``) and is killed after *after*
#: delivered trials.
RESUME_ROWS = {
    "grid": (TBL_A, lambda campaign, on_result: campaign.run(
        on_result=on_result), 2),
    "knee": (ADAPT_TBL, lambda campaign, on_result: campaign.run_adaptive(
        "knee", on_result=on_result), 2),
    "analytic-grid": (TBL_B, lambda campaign, on_result: campaign.run(
        fidelity=ANALYTIC, on_result=on_result), 1),
}


class TestResumeEntryPoints:
    """A killed campaign resumes to the uninterrupted run's bytes
    through both entry points: ``api.resume_campaign`` in process, and
    a fresh daemon's ``resume(db_path=...)``."""

    @staticmethod
    def _run(path, tbl, run, after=None):
        campaign = ObservationCampaign(tbl, database=ResultsDatabase(path))
        seen = []

        def killer(result):
            seen.append(result)
            if len(seen) == after:
                raise _Kill()

        try:
            if after is None:
                run(campaign, None)
            else:
                with pytest.raises(_Kill):
                    run(campaign, killer)
                assert campaign.database.count() == after
        finally:
            campaign.database.close()

    @pytest.mark.parametrize("row", sorted(RESUME_ROWS))
    def test_killed_campaign_resumes_identically(self, tmp_path, row):
        tbl, run, after = RESUME_ROWS[row]
        reference = str(tmp_path / "reference.db")
        self._run(reference, tbl, run)
        in_process = str(tmp_path / "api.db")
        self._run(in_process, tbl, run, after)
        api.resume_campaign(in_process).database.close()
        assert full_dump(in_process) == full_dump(reference)
        daemon = str(tmp_path / "daemon.db")
        self._run(daemon, tbl, run, after)
        controller = CampaignController(jobs=2)
        try:
            record = wait_done(controller,
                               controller.resume(db_path=daemon))
        finally:
            controller.shutdown()
        assert record["state"] == "done", record["error"]
        assert record["skipped"] == after
        assert full_dump(daemon) == full_dump(reference)


def test_meta_less_checkpoint_fails_the_way_the_cli_does(tmp_path):
    # One check states "no campaign meta": ObservationCampaign's.
    path = str(tmp_path / "bare.db")
    ResultsDatabase(path).close()
    with pytest.raises(ExperimentError, match="no campaign meta"):
        api.resume_campaign(path)
    controller = CampaignController(jobs=1)
    try:
        record = wait_done(controller, controller.resume(db_path=path))
    finally:
        controller.shutdown()
    assert record["state"] == "failed"
    assert record["error"].startswith(
        "ExperimentError: database carries no campaign meta")


# ---------------------------------------------------------------------------
# Shard merging beyond the single-campaign case


class TestMergeShards:
    def test_multi_shard_merge_namespaces_meta_and_offsets_rounds(
            self, tmp_path):
        shard_a = str(tmp_path / "a.shard")
        shard_b = str(tmp_path / "b.shard")
        api.run_adaptive(ADAPT_TBL, policy="knee",
                         database=shard_a).database.close()
        api.run_campaign(TBL_B, database=shard_b).database.close()
        merged = merge_shards([shard_a, shard_b],
                              str(tmp_path / "combined.db"),
                              namespace_meta=["knee", "grid"])
        try:
            assert merged.integrity_check() == []
            assert merged.get_meta("knee:tbl_text") == ADAPT_TBL
            assert merged.get_meta("grid:tbl_text") == TBL_B
            assert merged.get_meta("tbl_text") is None
            names = {r.experiment_name for r in merged.query()}
            assert names == {"knee", "beta"}
            # Decision rounds from shard A land unshifted (B has none),
            # and every trial row survived the merge.
            source_a = ResultsDatabase(shard_a)
            source_b = ResultsDatabase(shard_b)
            assert merged.count() == source_a.count() + source_b.count()
            assert merged.decision_count() == source_a.decision_count()
            source_a.close()
            source_b.close()
        finally:
            merged.close()


# ---------------------------------------------------------------------------
# The wire: daemon + thin client end to end


class TestHttpService:
    def test_submit_wait_status_aggregate_shutdown(self, tmp_path):
        db = str(tmp_path / "http.db")
        daemon = ServiceDaemon(port=0, jobs=2)
        url = daemon.start()
        client = CampaignClient(url)
        try:
            assert client.ping()
            campaign_id = client.submit(TBL_A, db_path=db, jobs=2)
            record = client.wait(campaign_id, timeout=120)
            assert record is not None and record["state"] == "done"
            state = client.status()
            assert state["fleet"]["workers"] == 2
            assert state["campaigns"][campaign_id]["state"] == "done"
            one = client.status(campaign_id)
            assert one["trials"] == record["trials"] > 0
            aggregate = client.aggregate()
            assert f"[{campaign_id}]" in aggregate["report"]
            with pytest.raises(ServiceError, match="unknown campaign"):
                client.status("c999")
        finally:
            client.shutdown()
            daemon.stop()
        time.sleep(0.2)
        assert not client.ping()
        database = ResultsDatabase(db)
        assert database.count() > 0
        database.close()

    def test_finished_campaigns_leave_no_tenant_counters(self, tmp_path):
        def tenant_keys():
            return sum(len(cache._tenant_hits) + len(cache._tenant_misses)
                       for cache in hotpath._caches.values())

        daemon = ServiceDaemon(port=0, jobs=1, max_active=1)
        client = CampaignClient(daemon.start())
        keys, totals = [], []
        try:
            for n in range(4):
                campaign_id = client.submit(
                    TBL_A, db_path=str(tmp_path / f"t{n}.db"))
                record = client.wait(campaign_id, timeout=120)
                assert record["state"] == "done", record["error"]
                assert any(c["hits"] or c["misses"]
                           for c in record["cache_stats"].values())
                keys.append(tenant_keys())
                totals.append(sum(c["hits"] + c["misses"]
                                  for c in hotpath.stats().values()))
        finally:
            client.shutdown()
            daemon.stop()
        assert keys == [keys[0]] * len(keys)
        # Plane-wide totals still count every campaign's lookups.
        assert totals == sorted(totals) and totals[-1] > totals[0]

    def test_unreachable_daemon_raises_service_error(self):
        client = CampaignClient("http://127.0.0.1:9", timeout=2)
        assert not client.ping()
        with pytest.raises(ServiceError, match="unreachable"):
            client.status()

    def test_busy_travels_as_service_busy(self, tmp_path, monkeypatch):
        daemon = ServiceDaemon(port=0, jobs=1, max_active=1)
        release = threading.Event()
        monkeypatch.setattr(
            daemon.controller, "_run_campaign",
            lambda record: (release.wait(timeout=30),
                            daemon.controller._settle(record, "done",
                                                      None)))
        url = daemon.start()
        client = CampaignClient(url)
        try:
            client.submit(TBL_A, db_path=str(tmp_path / "x.db"))
            with pytest.raises(ServiceBusy):
                client.submit(TBL_A, db_path=str(tmp_path / "y.db"))
        finally:
            release.set()
            daemon.stop()


# ---------------------------------------------------------------------------
# Bounded waiting: a dead daemon must never hang a client forever


class TestBoundedWait:
    def _scripted_client(self, responses):
        client = CampaignClient("http://test.invalid")
        calls = []

        def fake_call(method, path, body=None, timeout=None):
            calls.append((path, body["timeout"], timeout))
            return responses[min(len(calls), len(responses)) - 1]

        client._call = fake_call
        return client, calls

    def test_unbounded_wait_polls_in_bounded_slices(self):
        client, calls = self._scripted_client(
            [{"timed_out": True}, {"timed_out": True},
             {"state": "done"}])
        record = client.wait("c001", poll=5)     # no deadline at all
        assert record == {"state": "done"}
        # Three requests, each with a finite server-side slice and a
        # finite HTTP timeout — never an unbounded socket read.
        assert calls == [("/wait", 5, 15)] * 3

    def test_deadline_expires_across_slices(self):
        client, calls = self._scripted_client([{"timed_out": True}])
        assert client.wait("c001", timeout=7, poll=5) is None
        assert [ask for _path, ask, _t in calls] == [5, 2]

    def test_wait_on_a_dead_daemon_raises_within_a_slice(self):
        client = CampaignClient("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ServiceError, match="unreachable"):
            client.wait("c001", poll=1)


# ---------------------------------------------------------------------------
# The heal endpoint: auto-remediation as a service


HEAL_TBL = """
benchmark rubis; platform emulab;
experiment "healme" {
    topology 1-1-1;
    workload 50, 100;
    write_ratio 15%;
    trial { warmup 3s; run 15s; cooldown 3s; }
}
"""


def _faulted_heal_db(path):
    from repro import FaultPlan, FaultSpec, RetryPolicy
    from repro.faults import EVERY_ATTEMPT

    plan = FaultPlan([FaultSpec(kind="host-crash", target="node-1",
                                rate=1.0, attempts=EVERY_ATTEMPT,
                                transient=False)], seed=3)
    api.run_campaign(HEAL_TBL, database=path, faults=plan,
                     retry=RetryPolicy(max_attempts=2,
                                       quarantine_after=2)
                     ).database.close()


class TestHealService:
    def test_heal_a_database_round_trip(self, tmp_path):
        db = str(tmp_path / "faulted.db")
        _faulted_heal_db(db)
        daemon = ServiceDaemon(port=0, jobs=2)
        url = daemon.start()
        client = CampaignClient(url)
        try:
            heal_id = client.heal(db_path=db)
            assert heal_id.startswith("h")
            record = client.wait(heal_id, timeout=120)
            assert record is not None and record["state"] == "done"
            assert record["kind"] == "heal"
            assert "heal healed" in record["summary"]
            assert "replace host node-1" in record["summary"]
        finally:
            client.shutdown()
            daemon.stop()
        database = ResultsDatabase(db)
        assert database.remediation_count() > 0
        assert database.get_meta("heal_outcome") == "healed"
        assert database.integrity_check() == []
        database.close()

    def test_heal_by_id_waits_for_the_campaign(self, tmp_path):
        db = str(tmp_path / "healthy.db")
        daemon = ServiceDaemon(port=0, jobs=2)
        url = daemon.start()
        client = CampaignClient(url)
        try:
            campaign_id = client.submit(HEAL_TBL, db_path=db, jobs=2)
            heal_id = client.heal(campaign_id)
            record = client.wait(heal_id, timeout=120)
            assert record is not None and record["state"] == "done"
            assert "heal healthy" in record["summary"]
        finally:
            client.shutdown()
            daemon.stop()

    def test_heal_needs_a_target(self):
        daemon = ServiceDaemon(port=0, jobs=1)
        url = daemon.start()
        client = CampaignClient(url)
        try:
            with pytest.raises(ServiceError,
                               match="campaign_id or a db_path"):
                client.heal()
        finally:
            daemon.stop()

    def test_heal_cli_against_a_daemon(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "faulted.db")
        _faulted_heal_db(db)
        daemon = ServiceDaemon(port=0, jobs=2)
        url = daemon.start()
        try:
            assert main(["heal", db, "--url", url]) == 0
            out = capsys.readouterr().out
            assert "healing as h" in out
            assert "heal healed" in out
        finally:
            daemon.stop()


# ---------------------------------------------------------------------------
# The CLI front of the service surface


class TestServiceCli:
    def test_submit_status_cancel_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        tbl_file = tmp_path / "spec.tbl"
        tbl_file.write_text(TBL_A)
        db = str(tmp_path / "cli.db")
        daemon = ServiceDaemon(port=0, jobs=2)
        url = daemon.start()
        try:
            assert main(["submit", "--tbl", str(tbl_file), "--db", db,
                         "--jobs", "2", "--url", url, "--wait"]) == 0
            out = capsys.readouterr().out
            assert "submitted campaign" in out
            assert f"observations stored in {db}" in out
            assert main(["status", "--url", url]) == 0
            out = capsys.readouterr().out
            assert "done" in out and db in out
            assert main(["shutdown", "--url", url]) == 0
        finally:
            daemon.stop()
        assert full_dump(db)["trials"]

    def test_submit_without_tbl_or_resume_is_an_error(self, tmp_path,
                                                      capsys):
        from repro.cli import main

        assert main(["submit", "--db", str(tmp_path / "x.db")]) == 2
        assert "needs --tbl" in capsys.readouterr().err
