"""Campaign-throughput benchmark: trials per host second, and where
the time goes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload des-apparatus --seed 1 \\
        --seconds 15 --trace 0

One run, in one process: import the package, run the workload's round
three times cache-cold (the set-up, reported as the median), then run
warm timed rounds until ``--seconds`` worth of them are done.  Every
timed round starts with ``gc.collect()`` and writes to fresh databases,
so each does identical work; throughput is trials over the whole timed
window.  Every round's outputs are checked against the first cold
round's.

A short pure-Python calibration loop is timed before and after every
round, and every time the benchmark reports is scaled by the
reference host's calibration time over the round's: times read as the
reference host would have taken.  The shared host's speed moves by
±15 % in phases of seconds to minutes; scaling halved the run-to-run
spread of every timing.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds (the same round count) and prints the per-layer ledger (see
``ledger.py``).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human summary
goes to stderr.  The exit code is 1 when an output check failed, 2
when the package under ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Cache-cold set-up rounds per run; set-up time is their median.
SETUP_ROUNDS = 3
#: Fewest timed rounds a run makes, however short ``--seconds`` is.
MIN_ROUNDS = 3
#: A timing's tail is the highest percentile, up to :data:`TAIL_CAP`,
#: with at least this many samples beyond it.
TAIL_BEYOND = 10
#: Past p99 a tail is a handful of samples that GC pauses decide;
#: capped, it moved at most half as much from run to run.
TAIL_CAP = 99.0
#: Iterations of the calibration loop timed before and after every
#: round.
CALIBRATION_LOOP = 200_000
#: Seconds that loop takes on the reference host: a 2-vCPU x86 VM in
#: its fast phase.  Every time the benchmark reports is scaled to it.
CALIBRATION_REFERENCE_S = 0.015


def forget_bundles(hotpath):
    """Empty the exact-point bundle cache, if the program has one.

    It hits only when an identical campaign runs again, which every
    warm round after the first would be; emptying it makes each round
    generate its bundles as a fresh campaign does, while chassis and
    script caches stay warm as they would in a long-lived process.
    """
    cache = getattr(hotpath, "_caches", {}).get("generator.bundle")
    if cache is not None:
        cache.clear()


def calibration_s():
    """Seconds one fixed pure-Python loop takes right now."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return time.perf_counter() - started


def percentiles(samples):
    """``(p50, tail, tail percentile, n)`` of *samples*.

    The tail is the highest percentile up to :data:`TAIL_CAP` with
    :data:`TAIL_BEYOND` samples beyond it (the largest sample when
    there are too few).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n > 2 * TAIL_BEYOND:
        index = min(n - TAIL_BEYOND, math.ceil(n * TAIL_CAP / 100)) - 1
    else:
        index = n - 1
    return (statistics.median(ordered), ordered[index],
            100.0 * (index + 1) / n, n)


def check_campaign(run, reference, traced):
    """Problems with one campaign's outputs (empty when correct)."""
    spec = run.spec
    problems = []
    expected = (spec.trials, spec.completed, spec.dnf)
    got = (run.trials, run.completed, run.dnf)
    if got != expected:
        problems.append(f"{spec.label}: trials/completed/dnf {got}, "
                        f"expected {expected}")
    if not run.settled:
        problems.append(f"{spec.label}: campaign did not settle done")
    if run.failed_trials:
        problems.append(f"{spec.label}: {run.failed_trials} trial(s) "
                        f"had a failed attempt")
    problems.extend(f"{spec.label}: {p}" for p in run.problems)
    digests = dict(run.digests)
    if traced:
        # A traced round also stores its timed spans; every other
        # table must match the untraced reference byte for byte.
        digests["spans"] = reference["spans"]
    if digests != reference:
        problems.append(f"{spec.label}: table digests differ from the "
                        f"warm-up round's")
    return problems


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.rounds = max(MIN_ROUNDS,
                          round(seconds / workload.nominal_round_s))
        if trace:
            # Alternate untraced and traced rounds, at least two each.
            self.rounds = max(4, self.rounds)
        self.problems = []
        self.reference = None
        self.ledger = None
        self.cache_counts = defaultdict(lambda: {"hits": 0, "misses": 0})
        self.calibrations = []

    def run_round(self, tag, *, traced=False, cold=False):
        """One round; returns ``(host scale, campaign runs)``, checked.

        The host scale is the reference calibration time over the mean
        of the calibration loops timed just before and after the round:
        multiplying a time measured in the round by it gives the time
        the reference host would have taken.
        """
        hotpath = self.hotpath
        if cold:
            hotpath.clear()
        else:
            forget_bundles(hotpath)
        gc.collect()
        calibration = calibration_s()
        before = hotpath.stats()
        runs = self.workload.run_round(self.seed, tag,
                                       self.ledger if traced else None)
        calibration = (calibration + calibration_s()) / 2
        self.calibrations.append(calibration)
        if not cold:
            for name, counts in hotpath.stats().items():
                for key in ("hits", "misses"):
                    self.cache_counts[name][key] += \
                        counts[key] - before.get(name, {}).get(key, 0)
        if self.reference is None:
            self.reference = [run.digests for run in runs]
        for run, reference in zip(runs, self.reference):
            self.problems.extend(check_campaign(run, reference, traced))
        return CALIBRATION_REFERENCE_S / calibration, runs

    def execute(self, import_s):
        from repro import hotpath

        self.hotpath = hotpath
        workload = self.workload
        workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            started = time.perf_counter()
            workload.start(workdir)
            start_s = time.perf_counter() - started
            cold = [self.run_round(f"cold{k}", cold=True)
                    for k in range(SETUP_ROUNDS)]
            setup_s = statistics.median(
                scale * (import_s + start_s
                         + sum(run.wall_s for run in runs))
                for scale, runs in cold)
            if self.trace:
                from ledger import Ledger
                self.ledger = Ledger()
            plain, traced = [], []
            for k in range(self.rounds):
                if not (self.trace and k % 2):
                    plain.append(self.run_round(f"r{k}"))
                    continue
                self.ledger.install()
                try:
                    traced.append(self.run_round(f"t{k}", traced=True))
                finally:
                    self.ledger.uninstall()
            self.problems.extend(workload.cross_check(self.seed,
                                                      self.reference))
        finally:
            workload.close()
            shutil.rmtree(workdir, ignore_errors=True)
        return setup_s, plain, traced


def round_stats(rounds):
    """Trials per second over all rounds, plus the pooled timings, all
    scaled to the reference host.

    The rate is total trials over total campaign time rather than the
    median round's: the host alternates between a fast and a slow speed
    in phases of seconds, and a median round snaps to whichever phase
    held most of the run, while the whole-window rate averages them
    (over 20-s windows the median round spread twice as wide).
    """
    trials = wall = 0
    gaps, campaigns = [], []
    for scale, runs in rounds:
        for run in runs:
            trials += run.trials
            wall += run.wall_s * scale
            campaigns.append(run.wall_s * scale * 1000.0)
            previous = run.started
            for stamp in run.deliveries:
                gaps.append((stamp - previous) * scale * 1000.0)
                previous = stamp
    return trials / wall, gaps, campaigns


def end_to_end(setup_s, plain):
    rate, gaps, campaigns = round_stats(plain)
    trial_p50, trial_tail, trial_q, trial_n = percentiles(gaps)
    camp_p50, camp_tail, camp_q, camp_n = percentiles(campaigns)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (rate, "1/s"),
        "trial_ms.p50": (trial_p50, "ms"),
        "trial_ms.tail": (trial_tail, "ms"),
        "campaign_ms.p50": (camp_p50, "ms"),
        "campaign_ms.tail": (camp_tail, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    samples = (f"rounds={len(plain)} trial_ms n={trial_n} "
               f"tail=p{trial_q:.1f}; campaign_ms n={camp_n} "
               f"tail=p{camp_q:.1f}")
    return metrics, samples


def per_layer(bench, plain, traced):
    from ledger import Tally, hit_rates, layer_metrics

    tally = Tally()
    wall_s = 0.0
    trials_run = campaigns = explorations = planner_rounds = 0
    for _scale, runs in traced:
        for run in runs:
            tally.add(run.roots)
            wall_s += run.wall_s
            trials_run += run.trials
            campaigns += 1
            if run.spec.adaptive:
                explorations += 1
                planner_rounds += run.planner_rounds
    reference_rows = sum(table["rows"] for digests in bench.reference
                         for table in digests.values())
    reference_trials = sum(run.trials for run in plain[0][1])
    plain_s = statistics.median(scale * sum(r.wall_s for r in runs)
                                for scale, runs in plain)
    traced_s = statistics.median(scale * sum(r.wall_s for r in runs)
                                 for scale, runs in traced)
    metrics = layer_metrics(
        tally, wall_s=wall_s, campaigns=campaigns,
        explorations=explorations, planner_rounds=planner_rounds,
        trials_run=trials_run,
        rows_per_trial=reference_rows / reference_trials,
        hit_rate=hit_rates(bench.cache_counts),
        trace_overhead=traced_s / plain_s - 1.0)
    return metrics, f"traced rounds={len(traced)} campaigns={campaigns}"


def main(argv=None, *, size=1.0):
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'repro'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    import_s = time.perf_counter() - started
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    bench = Bench(WORKLOADS[args.workload](size), args.seed,
                  args.seconds, bool(args.trace))
    setup_s, plain, traced = bench.execute(import_s)
    if args.trace:
        metrics, samples = per_layer(bench, plain, traced)
    else:
        metrics, samples = end_to_end(setup_s, plain)
    timed = [runs for _scale, runs in plain + traced]
    expected = sum(run.spec.trials for runs in timed for run in runs)
    delivered = sum(run.trials for runs in timed for run in runs)
    campaigns = sum(len(runs) for runs in timed)
    failed = (max(0, expected - delivered)
              + sum(run.failed_trials for runs in timed for run in runs)
              + sum(not run.settled for runs in timed for run in runs))
    attempted = expected + campaigns
    correct = not bench.problems
    for problem in bench.problems[:20]:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} {samples}; "
          f"failed_ratio={failed / attempted:.4f} ({failed}/{attempted}); "
          f"calibration_s median={statistics.median(bench.calibrations):.4f}"
          f" (reference {CALIBRATION_REFERENCE_S})", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34} {value:14.6f} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else 0.0,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
