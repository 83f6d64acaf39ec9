"""Hot-path caching plane tests: correctness, invalidation, identity.

The caches exist to make campaigns cheap, but their contract is that
they are *invisible*: every artifact a cached path produces must be
byte-identical to what a cache-free build produces, results databases
included.  These tests pin that contract — plus the cache-specific
hazards: stale entries after a resource-model change, shared ASTs
leaking execution state, cloned clusters sharing mutable host state.
"""

import pytest

from repro import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    hotpath,
    run_adaptive,
    run_campaign,
)
from repro.generator.mulini import Mulini
from repro.planner.policy import KNEE
from repro.shellvm import ShellInterpreter, parse
from repro.spec import get_platform
from repro.spec.mof import load_resource_model, render_resource_mof
from repro.spec.tbl import parse as parse_tbl
from repro.vcluster import VirtualCluster, VirtualHost, VirtualNetwork

SWEEP_TBL = """
benchmark rubis; platform emulab;
experiment "sweep" {
    topology 1-1-1, 1-2-1;
    workload 100, 200;
    write_ratio 15%;
    trial { warmup 3s; run 15s; cooldown 3s; }
}
"""

CHAOS_TBL = """
benchmark rubis; platform emulab;
experiment "chaos" {
    topology 1-1-1, 1-2-1;
    workload 100, 200;
    write_ratio 15%;
    trial { warmup 3s; run 15s; cooldown 3s; }
}
"""

CHAOS_PLAN = FaultPlan([
    FaultSpec(kind="host-crash", target="node-*", rate=0.5),
    FaultSpec(kind="monitor-truncate", rate=0.4),
], seed=11)

CHAOS_RETRY = RetryPolicy(max_attempts=3, quarantine_after=10)

EXPLORE_TBL = """
benchmark rubbos; platform emulab;
experiment "explore" {
    topology 1-1-1, 1-2-2;
    workload 100 to 3000 step 100;
    write_ratio 0%, 30%;
}
"""

#: Every persistent table — the caches must be invisible in all of them.
ALL_TABLES = ("trials", "host_cpu", "state_metrics", "spans", "failures")


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts cold with caches on, and leaves them that way."""
    hotpath.set_enabled(True)
    hotpath.clear()
    yield
    hotpath.set_enabled(True)
    hotpath.clear()


def full_dump(database):
    return {table: database.dump_rows(table) for table in ALL_TABLES}


# ---------------------------------------------------------------------------
# The switch and the memo table


class TestMemoCache:
    def test_hit_returns_stored_object(self):
        cache = hotpath.MemoCache("test.basic", capacity=8)
        built = []

        def build():
            built.append(1)
            return {"value": 42}

        first = cache.get("k", build)
        second = cache.get("k", build)
        assert first is second
        assert built == [1]
        assert cache.snapshot_stats() == {"entries": 1, "hits": 1,
                                          "misses": 1}

    def test_disabled_bypasses_and_empties(self):
        cache = hotpath.MemoCache("test.switch", capacity=8)
        cache.get("k", lambda: "v")
        with hotpath.caches_disabled():
            assert not hotpath.enabled()
            assert cache.snapshot_stats()["entries"] == 0
            one = cache.get("k", lambda: [1])
            two = cache.get("k", lambda: [1])
            assert one is not two       # no interning while disabled
        assert hotpath.enabled()

    def test_capacity_is_a_backstop_not_an_error(self):
        cache = hotpath.MemoCache("test.cap", capacity=2)
        for key in range(5):
            cache.get(key, lambda k=key: k)
        assert cache.snapshot_stats()["entries"] <= 2
        assert cache.get(99, lambda: "fresh") == "fresh"

    def test_overflow_evicts_oldest_entry_only(self):
        # Regression: overflow must evict FIFO, never flush the table —
        # a flush would cold-start every concurrent tenant the moment
        # one campaign overflows.
        cache = hotpath.MemoCache("test.fifo", capacity=3)
        for key in ("a", "b", "c"):
            cache.get(key, lambda k=key: k.upper())
        cache.get("d", lambda: "D")          # evicts "a", keeps b/c
        built = []
        for key in ("b", "c", "d"):
            cache.get(key, lambda: built.append(key))
        assert built == []                   # survivors still served
        cache.get("a", lambda: built.append("a"))
        assert built == ["a"]                # the oldest was the victim

    def test_concurrent_same_key_reads_are_consistent(self):
        # Regression: reads take the table lock, so racing threads see
        # either a miss (and build) or the stored object — never a
        # torn/partial entry.  Every returned value must be correct.
        import threading

        cache = hotpath.MemoCache("test.race", capacity=64)
        results = []

        def probe():
            for i in range(200):
                results.append(cache.get(i % 8, lambda k=i % 8: k * 10))

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.snapshot_stats()
        assert stats["hits"] + stats["misses"] == 8 * 200
        assert set(results) == {k * 10 for k in range(8)}
        assert all(cache.get(k, lambda: "wrong") == k * 10
                   for k in range(8))


# ---------------------------------------------------------------------------
# Tenant plane: shared tables, per-campaign attribution, one global switch


class TestTenantPlane:
    def test_two_tenants_share_entries_but_not_attribution(self):
        cache = hotpath.MemoCache("test.tenants", capacity=8)
        with hotpath.tenant("camp-a"):
            cache.get("k", lambda: "v")          # a: miss
            cache.get("k", lambda: "v")          # a: hit
        with hotpath.tenant("camp-b"):
            cache.get("k", lambda: "v")          # b: hit on a's entry
        a = cache.snapshot_stats(tenant="camp-a")
        b = cache.snapshot_stats(tenant="camp-b")
        assert (a["hits"], a["misses"]) == (1, 1)
        assert (b["hits"], b["misses"]) == (1, 0)
        # Entries belong to the plane: both tenants see the shared size,
        # and the plane-wide counters aggregate both campaigns.
        assert a["entries"] == b["entries"] == 1
        plane = cache.snapshot_stats()
        assert (plane["hits"], plane["misses"]) == (2, 1)
        assert hotpath.stats(tenant="camp-b")["test.tenants"]["hits"] == 1

    def test_global_disable_still_clears_and_covers_all_tenants(self):
        cache = hotpath.MemoCache("test.globalswitch", capacity=8)
        with hotpath.tenant("camp-a"):
            cache.get("k", lambda: "v")
        with hotpath.caches_disabled():      # outside any tenant scope
            assert cache.snapshot_stats()["entries"] == 0
            with hotpath.tenant("camp-b"):
                assert not hotpath.enabled()
        assert hotpath.enabled()


# ---------------------------------------------------------------------------
# Bundle cache: identity and invalidation


class TestBundleCache:
    def _model(self, extra_mof=""):
        return load_resource_model(
            render_resource_mof("rubis", "emulab") + extra_mof)

    def _experiment(self):
        return parse_tbl(SWEEP_TBL).experiments[0]

    def test_cached_bundles_byte_identical_to_fresh(self):
        experiment = self._experiment()
        with hotpath.caches_disabled():
            fresh = {
                (topology.label(), workload, write_ratio):
                    Mulini(self._model()).generate(
                        experiment, topology, workload, write_ratio).files
                for topology, workload, write_ratio in experiment.points()
            }
        hotpath.clear()
        mulini = Mulini(self._model())
        for topology, workload, write_ratio in experiment.points():
            bundle = mulini.generate(experiment, topology, workload,
                                     write_ratio)
            key = (topology.label(), workload, write_ratio)
            assert bundle.files == fresh[key]
        # The sweep must actually have exercised the chassis cache:
        # 2 topologies -> 2 chassis misses, the other points reuse them.
        stats = hotpath.stats()["generator.chassis"]
        assert stats["misses"] == 2
        assert stats["hits"] == 2

    def test_chassis_serves_repeated_point(self):
        experiment = self._experiment()
        mulini = Mulini(self._model())
        topology, workload, write_ratio = next(iter(experiment.points()))
        first = mulini.generate(experiment, topology, workload, write_ratio)
        second = mulini.generate(experiment, topology, workload, write_ratio)
        assert first.files == second.files
        assert first is not second          # fresh Bundle, shared strings
        assert first.files is not second.files
        assert hotpath.stats()["generator.chassis"]["hits"] == 1

    def test_resource_model_change_invalidates(self):
        experiment = self._experiment()
        topology, workload, write_ratio = next(iter(experiment.points()))
        # Warm the cache with the stock model...
        default = Mulini(self._model()).generate(
            experiment, topology, workload, write_ratio)
        # ...then generate against a model with a package override:
        # the warm cache must not serve the stock chassis for it.
        tuned_model = self._model("""
        instance of Elba_PackageOverride {
            Package = "jonas";
            WorkerPool = 64;
        };
        """)
        cached = Mulini(tuned_model).generate(
            experiment, topology, workload, write_ratio)
        with hotpath.caches_disabled():
            fresh = Mulini(tuned_model).generate(
                experiment, topology, workload, write_ratio)
        assert cached.files == fresh.files
        assert cached.files != default.files


# ---------------------------------------------------------------------------
# Parse cache: interning without state leakage


class TestParseCache:
    def test_identical_text_is_interned(self):
        text = "X=1\necho $X\n"
        assert parse(text) is parse(text)
        with hotpath.caches_disabled():
            assert parse(text) is not parse(text)

    def test_shared_ast_executes_independently(self):
        network = VirtualNetwork()
        node_type = get_platform("warp").node_type()
        for name in ("node-1", "node-2"):
            network.attach(VirtualHost(name, node_type))
        interp = ShellInterpreter(network)
        script = (
            "echo tier=$TIER >> /tmp/report\n"
            "cat /tmp/report\n"
        )
        host_one = network.host("node-1")
        host_two = network.host("node-2")
        # Same text, so both executions run the same interned AST; each
        # must see only its own host's filesystem and variables.
        status, out_app = interp.run_text_on(host_one, script,
                                             variables={"TIER": "app"})
        assert status == 0
        status, out_db = interp.run_text_on(host_two, script,
                                            variables={"TIER": "db"})
        assert status == 0
        assert out_app.strip() == "tier=app"
        assert out_db.strip() == "tier=db"
        # Re-running on a mutated environment appends, never replays
        # stale state from the first execution.
        status, again = interp.run_text_on(host_one, script,
                                           variables={"TIER": "web"})
        assert status == 0
        assert again.strip().split("\n") == ["tier=app", "tier=web"]


# ---------------------------------------------------------------------------
# Cheap cluster clones: shared pristine state, isolated mutation


class TestClusterClone:
    def test_clone_matches_fresh_cluster(self):
        cluster = VirtualCluster("emulab", node_count=5)
        clone = cluster.clone()
        with hotpath.caches_disabled():
            stock = VirtualCluster("emulab", node_count=5)
        for fs in (clone.control.fs, stock.control.fs):
            assert list(fs.walk_files("/packages"))
        assert {path: clone.control.fs.read(path)
                for path in clone.control.fs.walk_files("/")} == \
               {path: stock.control.fs.read(path)
                for path in stock.control.fs.walk_files("/")}

    def test_clone_mutation_never_crosses_clusters(self):
        cluster = VirtualCluster("emulab", node_count=5)
        clone_a = cluster.clone()
        clone_b = cluster.clone()
        archive = next(iter(clone_a.control.fs.walk_files("/packages")))
        original = clone_a.control.fs.read(archive)
        clone_a.control.fs.write(archive, "CORRUPTED\n")
        assert clone_b.control.fs.read(archive) == original
        assert cluster.control.fs.read(archive) == original
        # Even a clone taken *after* the corruption starts pristine:
        # clones derive from the parent's pristine snapshot, not from
        # whatever a fault plan did to the parent since.
        cluster.control.fs.write(archive, "ALSO CORRUPTED\n")
        assert cluster.clone().control.fs.read(archive) == original

    def test_clone_works_with_caches_disabled(self):
        with hotpath.caches_disabled():
            cluster = VirtualCluster("emulab", node_count=5)
            clone = cluster.clone()
            archive = next(iter(clone.control.fs.walk_files("/packages")))
            assert clone.control.fs.read(archive) == \
                cluster.control.fs.read(archive)


# ---------------------------------------------------------------------------
# The headline invariant: a cached chaos campaign stores the same bytes


class TestCampaignIdentity:
    def test_parallel_chaos_campaign_identical_with_caches(self):
        # No tracer: span attributes carry the executing worker's name,
        # which legitimately differs across jobs counts.  Everything
        # else — including the failures the fault plan injects — must
        # be byte-identical between a cache-free sequential run and a
        # cached run, at jobs=4 and at jobs=1.
        with hotpath.caches_disabled():
            reference = run_campaign(CHAOS_TBL, faults=CHAOS_PLAN,
                                     retry=CHAOS_RETRY)
        assert reference.database.integrity_check() == []
        for jobs in (4, 1):
            hotpath.clear()
            report = run_campaign(CHAOS_TBL, faults=CHAOS_PLAN,
                                  retry=CHAOS_RETRY, jobs=jobs)
            assert report.dnf == 0
            assert report.database.failure_count() > 0
            assert full_dump(report.database) == \
                full_dump(reference.database)
            assert report.database.integrity_check() == []
        # The cached run must actually have hit the caches, or the
        # identity assertion proved nothing.  The jobs=4 workers are
        # forked, so their hits stay in the workers; the jobs=1 leg's
        # hits are this process's.
        stats = hotpath.stats()
        assert stats["generator.chassis"]["hits"] > 0
        assert stats["shellvm.parse"]["hits"] > 0

    def test_analytic_exploration_identical_with_caches(self):
        # An analytic exploration generates no bundle and runs no
        # script: its one cache is the resource model, shared by every
        # campaign of the same MOF text.
        def explore():
            report = run_adaptive(EXPLORE_TBL, policy=KNEE,
                                  fidelity="analytic")
            return {table: report.database.dump_rows(table)
                    for table in ALL_TABLES + ("planner_decisions",)}

        with hotpath.caches_disabled():
            reference = explore()
        hotpath.clear()
        assert explore() == explore() == reference
        assert reference["trials"] and reference["planner_decisions"]
        assert hotpath.stats()["spec.resource_model"] == {
            "entries": 1, "hits": 1, "misses": 1}
