"""Wall-clock benchmark: sequential vs parallel Figure 5 campaign.

Runs the Figure 5 scale-out sweep (2-8 app x 1-3 DB servers) twice —
``jobs=1`` and ``jobs=4`` on the fork pool — records both
wall-clocks to ``benchmarks/output/parallel_campaign.txt``, and proves
the parallel run reproduces the sequential observations exactly.

The speedup assertion is gated on the CPUs actually available: the
scheduler's forked workers can only beat one worker when the host has
cores to run them on.
"""

import os
import pathlib
import time

from repro.experiments.figures import figure5

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def _fingerprint(results):
    return sorted(
        (r.experiment_name, r.topology_label, r.workload, r.write_ratio,
         r.seed, r.status, r.metrics.completed, r.metrics.mean_response_s,
         r.metrics.throughput)
        for r in results
    )


def _available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                      # non-Linux
        return os.cpu_count() or 1


def test_bench_parallel_campaign():
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "4"))

    start = time.perf_counter()
    sequential = figure5()
    sequential_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = figure5(jobs=jobs)
    parallel_s = time.perf_counter() - start

    speedup = sequential_s / parallel_s if parallel_s else float("inf")
    cpus = _available_cpus()
    trials = len(sequential.results)
    report = (
        f"Parallel campaign benchmark: Figure 5 sweep "
        f"({trials} trials, {cpus} CPU(s) available)\n"
        f"  jobs=1        {sequential_s:8.1f} s wall-clock\n"
        f"  jobs={jobs:<8} {parallel_s:8.1f} s wall-clock\n"
        f"  speedup       {speedup:8.2f} x\n"
    )
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "parallel_campaign.txt").write_text(report)
    print()
    print(report)

    # The determinism guarantee: same sweep, same observations.
    assert _fingerprint(parallel.results) == _fingerprint(sequential.results)
    assert parallel.data == sequential.data

    # Speedup scales with the cores that exist to run the workers.
    if cpus >= 4 and jobs >= 4:
        assert speedup >= 2.0, report
    elif cpus >= 2 and jobs >= 2:
        assert speedup >= 1.2, report
