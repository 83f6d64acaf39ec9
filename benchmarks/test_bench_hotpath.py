"""Hot-path caching benchmark: trials/sec with caches off vs on.

Runs the same overhead-dominated smoke campaign twice — once under
``hotpath.caches_disabled()`` and once with the caches warm-started
cold — and records the deterministic outcome to
``benchmarks/output/BENCH_hotpath.json`` and both rates to the
git-ignored ``BENCH_hotpath.timing.json`` beside it.
The campaign is deliberately dominated by apparatus cost (generation,
parsing, archive rendering) rather than simulated trial time, because
that is the cost the caching plane exists to amortize.

Two assertions gate the result:

* **Identity** — every persistent table (trials, host_cpu,
  state_metrics, spans, failures) is byte-identical between the legs.
  A deterministic tracer clock makes the span trees comparable.
* **Speedup** — the cached leg sustains at least twice the trials/sec
  of the cache-free leg.

CI additionally diffs the measured rate against the committed baseline
(``benchmarks/BENCH_hotpath.baseline.json``) and fails on a >20%
regression.
"""

import time

from repro import Tracer, hotpath, run_campaign

#: Short phases, low workloads, many points: apparatus-bound on purpose.
SMOKE_TBL = """
benchmark rubis; platform emulab;
experiment "hotpath-smoke" {
    topology 1-1-1, 1-2-1;
    workload 10, 20;
    write_ratio 10%, 20%;
    repetitions 8;
    trial { warmup 1s; run 2s; cooldown 1s; }
}
"""

ALL_TABLES = ("trials", "host_cpu", "state_metrics", "spans", "failures")


def _run_leg():
    # A frozen clock keeps span timings identical across legs; span
    # *structure* must already match, cache hit or miss.
    report = run_campaign(SMOKE_TBL, tracer=Tracer(clock=lambda: 0.0))
    return {table: report.database.dump_rows(table) for table in ALL_TABLES}


def test_bench_hotpath(write_bench):
    with hotpath.caches_disabled():
        start = time.perf_counter()
        reference = _run_leg()
        off_s = time.perf_counter() - start

    hotpath.clear()                     # cached leg starts cold
    start = time.perf_counter()
    cached = _run_leg()
    on_s = time.perf_counter() - start

    trials = len(reference["trials"])
    byte_identical = cached == reference
    off_rate = trials / off_s
    on_rate = trials / on_s
    speedup = off_rate and on_rate / off_rate

    write_bench("hotpath", {
        "campaign": "hotpath-smoke",
        "trials": trials,
        "byte_identical": byte_identical,
        "cache_stats": hotpath.stats(),
    }, {
        "caches_off": {"wall_s": round(off_s, 3),
                       "trials_per_sec": round(off_rate, 3)},
        "caches_on": {"wall_s": round(on_s, 3),
                      "trials_per_sec": round(on_rate, 3)},
        "speedup": round(speedup, 2),
    })

    assert byte_identical, "cached campaign diverged from cache-free run"
    assert trials == 64
    assert speedup >= 2.0, (
        f"hot-path caches bought only {speedup:.2f}x "
        f"({off_rate:.2f} -> {on_rate:.2f} trials/sec)"
    )
