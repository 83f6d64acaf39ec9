"""Tests for scheduler-driven parallel campaign execution.

The hard requirement under test: a ``jobs=N`` run must produce the
same observations, in the same order, as a ``jobs=1`` run — and the
shared substrate (cluster allocator, results database) must survive
concurrent use without corruption.
"""

import contextlib
import dataclasses
import multiprocessing
import threading
import time
import warnings

import pytest

from repro.core import ObservationCampaign
from repro.errors import AllocationError, ExperimentError, ResultsError
from repro.experiments import build_experiment, scheduler
from repro.experiments.figures import make_runner
from repro.experiments.scheduler import (
    TrialScheduler,
    enumerate_tasks,
    executor_for,
)
from repro.results import ResultsDatabase
from repro.service.fleet import WorkerFleet
from repro.spec.topology import Topology
from repro.vcluster import VirtualCluster
from tests.test_results import make_result


def _experiment(name="sched", topologies=(Topology(1, 1, 1),),
                workloads=(100,), write_ratios=(0.15,), repetitions=1,
                seed=42):
    experiment, _tbl = build_experiment(
        name=name, benchmark="rubis", platform="emulab",
        topologies=topologies, workloads=workloads,
        write_ratios=write_ratios, repetitions=repetitions, seed=seed,
        scale=0.05, min_warmup=3.0,
    )
    return experiment


def _fingerprint(results):
    """Everything that identifies a trial's observation, in order."""
    return [
        (r.experiment_name, r.topology_label, r.workload, r.write_ratio,
         r.seed, r.status, r.metrics.completed, r.metrics.errors,
         r.metrics.mean_response_s, r.metrics.throughput,
         tuple(sorted(r.host_cpu.items())),
         tuple(sorted(r.tier_of_host.items())))
        for r in results
    ]


class TestTaskEnumeration:
    def test_canonical_order_points_outer_repetitions_inner(self):
        experiment = _experiment(topologies=(Topology(1, 1, 1),
                                             Topology(1, 2, 1)),
                                 workloads=(100, 200), repetitions=2)
        tasks = enumerate_tasks(experiment)
        assert len(tasks) == 8
        assert [t.index for t in tasks] == list(range(8))
        # points() iterates topologies outer, workloads inner; each
        # point repeats under seed, seed+1 before the next point.
        assert tasks[0].key() == ("sched", "1-1-1", 100, 0.15, 42, "des", "")
        assert tasks[1].key() == ("sched", "1-1-1", 100, 0.15, 43, "des", "")
        assert tasks[2].key() == ("sched", "1-1-1", 200, 0.15, 42, "des", "")
        assert tasks[4].key() == ("sched", "1-2-1", 100, 0.15, 42, "des", "")
        assert len({t.key() for t in tasks}) == 8

    def test_start_index_offsets_across_experiments(self):
        experiment = _experiment(workloads=(100, 200))
        tasks = enumerate_tasks(experiment, start_index=5)
        assert [t.index for t in tasks] == [5, 6]

    def test_tasks_are_immutable(self):
        task = enumerate_tasks(_experiment())[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.workload = 999

    def test_seed_derives_from_repetition(self):
        experiment = _experiment(repetitions=3, seed=7)
        tasks = enumerate_tasks(experiment)
        assert [t.seed for t in tasks] == [7, 8, 9]


_IDENTITY_TBL = """
benchmark rubis; platform emulab;
experiment "identity" {
    topology 1-1-1;
    workload 60, 120;
    write_ratio 15%;
    trial { warmup 2s; run 6s; cooldown 1s; }
    EXTRA
}
"""


class TestTrialIdentity:
    """One identity everywhere: the planned tasks, the stored keys and
    the stored results agree, and a resume finds nothing to run."""

    @pytest.mark.parametrize("extra, fidelity", [
        ('scenario "identity-probe"; consolidation 2;', "des"),
        ("", "analytic"),
        ("repetitions 2;", "des"),
    ], ids=["scenario", "analytic", "repetitions"])
    def test_tasks_keys_and_results_share_one_identity(self, extra,
                                                       fidelity):
        from repro.api import resume_campaign

        campaign = ObservationCampaign(
            _IDENTITY_TBL.replace("EXTRA", extra), node_count=10)
        tasks = campaign.enumerate_plan(campaign.select_experiments(),
                                        fidelity=fidelity)
        campaign.run(fidelity=fidelity)
        db = campaign.database
        planned = {task.key() for task in tasks}
        assert len(planned) == len(tasks)
        assert planned == set(db.trial_keys()) \
            == {result.trial_key() for result in db.query()}
        resumed = resume_campaign(db)
        assert (resumed.trials, resumed.skipped) == (0, len(tasks))


class TestTrialScheduler:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ExperimentError):
            TrialScheduler(lambda: None, jobs=0)

    def test_parallel_matches_sequential(self):
        experiment = _experiment(topologies=(Topology(1, 1, 1),
                                             Topology(1, 2, 1)),
                                 workloads=(100, 250), repetitions=2)
        runner = make_runner("emulab", "rubis", node_count=10)
        sequential = runner.run_experiment(experiment)
        parallel = runner.run_experiment(experiment, jobs=3)
        assert _fingerprint(parallel) == _fingerprint(sequential)

    def test_on_result_delivered_in_task_order(self):
        experiment = _experiment(workloads=(250, 100, 180))
        runner = make_runner("emulab", "rubis", node_count=10)
        seen = []
        runner.run_experiment(experiment, jobs=3,
                              on_result=lambda r: seen.append(r.workload))
        assert seen == [250, 100, 180]

    def test_worker_failure_propagates(self):
        experiment = _experiment(topologies=(Topology(1, 8, 1),))
        # Workers clone the runner's 6-node cluster, far too small for
        # a 1-8-1 topology: the scheduler must surface the failure.
        runner = make_runner("emulab", "rubis", node_count=6)
        with pytest.raises(AllocationError):
            runner.run_experiment(experiment, jobs=2)

    @pytest.mark.skipif(not scheduler.FORK, reason="the pool needs fork")
    def test_a_trials_own_type_error_propagates_as_itself(self):
        # A worker's TypeError is the trial's own bug, not a result
        # that failed to pickle: it surfaces unchanged, with no
        # warning, and no task is re-run in the calling process.
        _RAN_IN_THIS_PROCESS.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with TrialScheduler(_BuggyRunner, jobs=2) as pool:
                with pytest.raises(TypeError, match="task 2 is buggy"):
                    pool.run_tasks([0, 1, 2, 3])
        assert _RAN_IN_THIS_PROCESS == []


#: The tasks a :class:`_BuggyRunner` ran in this process; a forked
#: worker appends to its own copy.
_RAN_IN_THIS_PROCESS = []


class _BuggyRunner:
    """A runner stand-in whose task 2 raises ``TypeError``."""

    def run_task(self, task):
        _RAN_IN_THIS_PROCESS.append(task)
        if task == 2:
            raise TypeError("task 2 is buggy")
        return task


@contextlib.contextmanager
def _fleet_lease(runner):
    fleet = WorkerFleet(jobs=2)
    lease = fleet.attach("protocol", runner.clone, ceiling=2)
    try:
        yield lease
    finally:
        lease.close()
        fleet.close()


#: Every implementation of the executor protocol, built over a runner.
_EXECUTORS = {
    "runner": contextlib.nullcontext,
    "process-pool": lambda runner: TrialScheduler(runner.clone, jobs=2),
    "fleet-lease": _fleet_lease,
}


class _Echo:
    """A runner stand-in whose trials return their task."""

    def run_task(self, task):
        return task


class TestExecutorProtocol:
    """``run_tasks(tasks, on_result)`` means one thing everywhere:
    results in task order, *on_result* fired in task order."""

    @pytest.mark.parametrize("name", sorted(_EXECUTORS))
    def test_every_executor_delivers_the_same_results(self, name):
        if name == "process-pool" and not scheduler.FORK:
            pytest.skip("the pool needs fork")
        # Descending-then-ascending load, so pooled completions arrive
        # out of task order and must be buffered back into it.
        tasks = enumerate_tasks(_experiment(workloads=(250, 100, 180)))
        reference = make_runner("emulab", "rubis", node_count=10)
        expected = [reference.run_task(task) for task in tasks]
        runner = make_runner("emulab", "rubis", node_count=10)
        seen = []
        with _EXECUTORS[name](runner) as executor:
            results = executor.run_tasks(tasks, seen.append)
        assert _fingerprint(results) == _fingerprint(expected)
        assert _fingerprint(seen) == _fingerprint(expected)

    def test_executor_for_decides_jobs_once(self, monkeypatch):
        runner = make_runner("emulab", "rubis", node_count=10)
        with executor_for(runner, jobs=1) as executor:
            assert executor is runner
        with executor_for(runner, jobs=2) as executor:
            assert isinstance(executor, TrialScheduler)
            assert executor.jobs == 2
        with pytest.raises(ExperimentError, match="closed"):
            executor.run_tasks([])
        # Known work caps the pool: a lone task starts no pool.
        for work in (0, 1):
            with executor_for(runner, jobs=4, work=work) as executor:
                assert executor is runner
        with executor_for(runner, jobs=4, work=3) as executor:
            assert executor.jobs == 3
        with pytest.raises(ExperimentError, match="at least 1"):
            with executor_for(runner, jobs=0, work=5):
                pass
        # Without fork every batch runs inline.
        monkeypatch.setattr(scheduler, "FORK", False)
        with executor_for(runner, jobs=4) as executor:
            assert executor is runner

    def test_pool_builds_each_worker_runner_once(self):
        # Shared memory, so the forked workers' counts reach this process.
        built = multiprocessing.Value("i", 0)

        def factory():
            with built.get_lock():
                built.value += 1
            return _Echo()

        with TrialScheduler(factory, jobs=2) as pool:
            for batch in ([0, 1, 2], [3, 4], [5, 6, 7, 8]):
                assert pool.run_tasks(batch) == batch
        assert 1 <= built.value <= 2

    def test_closed_pool_refuses_work(self):
        pool = TrialScheduler(_Echo, jobs=2)
        assert pool.run_tasks([1]) == [1]
        pool.close()
        pool.close()                    # idempotent
        with pytest.raises(ExperimentError, match="closed"):
            pool.run_tasks([2])


class TestCampaignParallelEquivalence:
    TBL = """
    benchmark rubis; platform emulab;
    experiment "alpha" {
        topology 1-1-1, 1-2-1;
        workload 100, 250;
        write_ratio 15%;
        trial { warmup 3s; run 15s; cooldown 3s; }
    }
    experiment "beta" {
        topology 1-1-1;
        workload 150;
        write_ratio 0%, 30%;
        trial { warmup 3s; run 15s; cooldown 3s; }
    }
    """

    @staticmethod
    def _dump(database):
        """Every stored observation, ordered and stripped of row ids."""
        rows = []
        for result in database.query():
            rows.append(_fingerprint([result])[0]
                        + (tuple(sorted(result.per_state.items())),))
        return sorted(rows)

    def test_parallel_database_equals_sequential(self):
        sequential = ObservationCampaign(self.TBL, node_count=10)
        report_seq = sequential.run()
        parallel = ObservationCampaign(self.TBL, node_count=10)
        report_par = parallel.run(jobs=4)
        assert report_par.trials == report_seq.trials == 6
        assert report_par.completed == report_seq.completed
        assert report_par.dnf == report_seq.dnf
        assert report_par.by_experiment == {"alpha": 4, "beta": 2}
        assert self._dump(parallel.database) == \
            self._dump(sequential.database)

    def test_progress_callbacks_name_the_producing_experiment(self):
        campaign = ObservationCampaign(self.TBL, node_count=10)
        names = []
        lines = []
        campaign.run(jobs=2,
                     on_result=lambda r: names.append(r.experiment_name),
                     on_progress=lines.append)
        assert names == ["alpha"] * 4 + ["beta"] * 2
        assert len(lines) == 6
        assert all(line.startswith("[alpha]") or line.startswith("[beta]")
                   for line in lines)
        assert "trial 6/6" in lines[-1]


class TestClusterConcurrency:
    def test_no_double_allocation_under_contention(self):
        cluster = VirtualCluster("emulab", node_count=12)  # 10 free
        in_use = set()
        guard = threading.Lock()
        errors = []

        def hammer():
            try:
                for _ in range(8):
                    allocation = cluster.allocate(Topology(1, 1, 1),
                                                  wait=True, timeout=30)
                    names = [h.name
                             for h in allocation.all_server_hosts()]
                    with guard:
                        clashes = in_use.intersection(names)
                        assert not clashes, \
                            f"hosts allocated twice: {clashes}"
                        in_use.update(names)
                    time.sleep(0.001)
                    with guard:
                        in_use.difference_update(names)
                    cluster.release(allocation)
            except BaseException as exc:       # surfaced on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert cluster.free_count() == 10

    def test_wait_blocks_until_release(self):
        cluster = VirtualCluster("warp", node_count=5)    # 3 free
        first = cluster.allocate(Topology(1, 1, 1))       # takes all 3
        got = []

        def blocked():
            allocation = cluster.allocate(Topology(1, 1, 1), wait=True,
                                          timeout=30)
            got.append(allocation)
            cluster.release(allocation)

        thread = threading.Thread(target=blocked)
        thread.start()
        time.sleep(0.1)
        assert not got          # still waiting: every node is held
        cluster.release(first)
        thread.join(timeout=30)
        assert len(got) == 1
        assert cluster.free_count() == 3

    def test_wait_rejects_impossible_request_immediately(self):
        cluster = VirtualCluster("warp", node_count=5)    # 3 free
        holder = cluster.allocate(Topology(1, 1, 1))
        # 1-4-1 needs 6 nodes but the whole pool has 3: waiting could
        # never help, so this must raise instead of hanging.
        with pytest.raises(AllocationError):
            cluster.allocate(Topology(1, 4, 1), wait=True)
        cluster.release(holder)

    def test_wait_times_out(self):
        cluster = VirtualCluster("warp", node_count=5)
        holder = cluster.allocate(Topology(1, 1, 1))
        start = time.monotonic()
        with pytest.raises(AllocationError):
            cluster.allocate(Topology(1, 1, 1), wait=True, timeout=0.05)
        assert time.monotonic() - start < 5
        cluster.release(holder)

    def test_allocation_is_deterministic_lowest_node_first(self):
        cluster = VirtualCluster("emulab", node_count=10)
        first = cluster.allocate(Topology(1, 1, 1))
        names = sorted(h.name for h in first.all_server_hosts())
        cluster.release(first)
        second = cluster.allocate(Topology(1, 1, 1))
        assert sorted(h.name for h in second.all_server_hosts()) == names

    def test_clone_builds_identical_fresh_pool(self):
        cluster = VirtualCluster("emulab", node_count=10)
        held = cluster.allocate(Topology(1, 1, 1))
        clone = cluster.clone()
        assert clone.free_count() == 8          # clone starts pristine
        assert sorted(clone.hosts) == sorted(cluster.hosts)
        assert clone.hosts["node-1"] is not cluster.hosts["node-1"]
        cluster.release(held)


class TestDatabaseConcurrency:
    def test_concurrent_inserts_with_unique_key_replacement(self, tmp_path):
        database = ResultsDatabase(str(tmp_path / "obs.sqlite"))
        errors = []

        def writer(offset):
            try:
                for index in range(10):
                    # Distinct workloads plus one contended key that
                    # every thread rewrites via UNIQUE-key replacement.
                    database.insert(
                        make_result(workload=1000 + offset * 10 + index),
                        replace=True)
                    database.insert(make_result(workload=77), replace=True)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert database.count() == 40 + 1
        contended = database.query(workload=77)
        assert len(contended) == 1
        # Replacement never duplicates the per-host child rows.
        assert len(contended[0].host_cpu) == 3
        database.close()

    def test_duplicate_without_replace_still_rejected(self):
        with ResultsDatabase() as database:
            database.insert(make_result())
            with pytest.raises(ResultsError):
                database.insert(make_result())

    def test_close_is_idempotent_and_final(self):
        database = ResultsDatabase()
        database.insert(make_result())
        database.close()
        database.close()
        with pytest.raises(ResultsError):
            database.count()
