"""Wall-clock benchmark: the flight recorder's tracing overhead.

Runs a reduced Figure 5 sweep twice — tracing off and tracing on.  The
trial and span counts go to the tracked
``benchmarks/output/BENCH_trace_overhead.json`` and both wall-clocks
to its git-ignored ``.timing.json`` sibling, so a run leaves the tree
clean.
The target is <5% overhead: spans are cheap (one ``perf_counter`` pair
plus a dict per phase), and the trial outcome must be bit-identical
either way, so tracing can stay on for real campaigns.

The hard assertion is deliberately looser than the target (shared CI
runners jitter); the measured number is what the report tracks.
"""

import time

from repro.experiments.figures import figure5
from repro.obs import Tracer

#: Reduced sweep: full topology grid, shorter trials and fewer loads.
SWEEP = dict(scale=0.05, max_workload=900, workload_step=300)


def _fingerprint(results):
    return [
        (r.experiment_name, r.topology_label, r.workload, r.write_ratio,
         r.seed, r.status, r.metrics.completed, r.metrics.mean_response_s,
         r.metrics.throughput)
        for r in results
    ]


def test_bench_trace_overhead(write_bench):
    start = time.perf_counter()
    plain = figure5(**SWEEP)
    plain_s = time.perf_counter() - start

    tracer = Tracer()
    start = time.perf_counter()
    traced = figure5(tracer=tracer, **SWEEP)
    traced_s = time.perf_counter() - start

    overhead = (traced_s - plain_s) / plain_s if plain_s else 0.0
    trials = len(traced.results)
    spans = sum(len(r.spans) for r in traced.results)
    report = (
        f"Trace overhead benchmark: Figure 5 reduced sweep "
        f"({trials} trials)\n"
        f"  tracing off   {plain_s:8.2f} s wall-clock\n"
        f"  tracing on    {traced_s:8.2f} s wall-clock "
        f"({spans} spans recorded)\n"
        f"  overhead      {overhead:8.1%}   (target < 5%)\n"
    )
    write_bench("trace_overhead", {"trials": trials, "spans": spans}, {
        "tracing_off_s": round(plain_s, 3),
        "tracing_on_s": round(traced_s, 3),
        "overhead": round(overhead, 4),
    })

    # Tracing must observe, never perturb: identical observations.
    assert _fingerprint(plain.results) == _fingerprint(traced.results)
    assert plain.data == traced.data
    assert all(r.spans for r in traced.results)
    assert all(not r.spans for r in plain.results)

    # Generous ceiling for noisy runners; the 5% target is the report's.
    assert overhead < 0.25, report
