"""Shellvm compiler benchmark: the DES trial's shell hot loop, timed.

Since the hot-path caching plane made parsing effectively free, the
tree-walking shell interpreter is the hot loop of every DES trial —
each trial replays the generated deployment chassis (install,
configure, ignition, stop) command by command.  The compiler
(``repro.shellvm.compiler``) removes that walk: scripts become
partially-evaluated closures specialized on the point-invariant
chassis.  This benchmark measures exactly the cost the compiler
exists to remove, following ``test_bench_hotpath.py``'s precedent of
isolating the subsystem's own plane rather than diluting it with
unrelated apparatus.

Three gates:

* **Identity** — the 64-trial smoke campaign stores byte-identical
  tables (trials, host_cpu, state_metrics, spans, failures) under the
  compiled engine and the ``REPRO_SHELLVM=interp`` oracle.  A frozen
  tracer clock makes the span trees comparable.
* **Speedup** — one *shell cycle* is the smoke bundle's full
  ``run.sh`` + ``teardown.sh`` replay on a live virtual cluster: the
  shell work of one trial, with the DES floor (simulation, collection,
  row insertion) that the compiler does not own factored out.  The
  compiled engine must sustain at least twice the interpreted
  cycles/sec, measured as the median of ABBA-paired rounds so clock
  drift cancels.
* **Context** — full-campaign trials/sec for both engines is recorded
  (not gated at 2x: the campaign wall includes the simulation and
  collection floor, which dilutes the shell speedup to ~1.5x).  CI
  diffs the compiled rates against the committed baseline
  (``benchmarks/BENCH_shellvm.baseline.json``) and fails on a >20%
  regression.
"""

import gc
import os
import statistics
import time

from repro import Tracer, hotpath, run_campaign
from repro.generator.artifacts import HostPlan
from repro.generator.mulini import Mulini
from repro.shellvm.interpreter import ShellInterpreter
from repro.spec.mof import load_resource_model, render_resource_mof
from repro.spec.tbl import parse
from repro.vcluster.cluster import VirtualCluster

#: Short phases, a real chassis (8 and 12 app servers), many
#: repetitions: 64 trials whose per-trial shell work is the paper's
#: actual deployment script volume.
SMOKE_TBL = """
benchmark rubis; platform emulab;
experiment "shellvm-smoke" {
    topology 1-8-1, 1-12-1;
    workload 5;
    write_ratio 5%, 10%, 15%, 20%;
    repetitions 8;
    trial { warmup 1s; run 1s; cooldown 1s; }
}
"""

ALL_TABLES = ("trials", "host_cpu", "state_metrics", "spans", "failures")

#: Shell cycles per measured leg; small enough to stay cache-warm,
#: large enough to average out allocator jitter.
CYCLES = 50

#: ABBA-paired measurement rounds; the reported speedup is the median.
ROUNDS = 5


def _engine(name):
    """Set the engine for interpreters constructed from here on."""
    os.environ["REPRO_SHELLVM"] = name


def _campaign_leg(engine):
    """Run the 64-trial smoke under *engine*; tables + wall seconds."""
    _engine(engine)
    start = time.perf_counter()
    # The frozen clock keeps span timings identical across legs; span
    # *structure* must already match, compiled or interpreted.
    report = run_campaign(SMOKE_TBL, tracer=Tracer(clock=lambda: 0.0))
    wall = time.perf_counter() - start
    tables = {table: report.database.dump_rows(table)
              for table in ALL_TABLES}
    return tables, wall


def _smoke_bundle():
    """The generated chassis for the smoke's first experiment point."""
    spec = parse(SMOKE_TBL)
    experiment = spec.experiments[0]
    mulini = Mulini(load_resource_model(
        render_resource_mof(experiment.benchmark, experiment.platform)))
    topology = experiment.topologies[0]
    return mulini.generate(experiment, topology,
                           experiment.workloads[0],
                           experiment.write_ratios[0],
                           host_plan=HostPlan.synthetic(topology))


def _cycle_seconds(bundle, engine, cycles=CYCLES):
    """Mean seconds per run.sh + teardown.sh replay under *engine*.

    A fresh cluster per leg keeps state accumulation (process tables,
    result files) from drifting the measurement across legs.
    """
    _engine(engine)
    cluster = VirtualCluster("emulab", node_count=36)
    control = cluster.host("control")
    run_path = bundle.install_to(control)
    teardown = bundle.path_of("teardown.sh")
    interp = ShellInterpreter(cluster.network)

    def cycle():
        status, _output = interp.run_script_file(control, run_path)
        assert status == 0, f"run.sh exited {status}"
        interp.run_script_file(control, teardown)

    cycle()                             # warm parse/compile caches
    # A collector pause inside a 50-cycle leg is the largest single
    # noise source on a loaded machine; collect up front, then keep
    # the collector out of the timed window.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(cycles):
            cycle()
        return (time.perf_counter() - start) / cycles
    finally:
        gc.enable()


def test_bench_shellvm(write_bench):
    previous = os.environ.get("REPRO_SHELLVM")
    hotpath.clear()
    try:
        # -- identity: the compiled engine must be unobservable --------
        reference, interp_wall = _campaign_leg("interp")
        compiled, compiled_wall = _campaign_leg("compiled")
        trials = len(reference["trials"])
        byte_identical = compiled == reference

        # -- speedup: the shell hot loop, ABBA-paired ------------------
        bundle = _smoke_bundle()
        ratios = []
        for _ in range(ROUNDS):
            c1 = _cycle_seconds(bundle, "compiled")
            i1 = _cycle_seconds(bundle, "interp")
            i2 = _cycle_seconds(bundle, "interp")
            c2 = _cycle_seconds(bundle, "compiled")
            ratios.append((i1 + i2) / (c1 + c2))
        speedup = statistics.median(ratios)
        interp_cycle = _cycle_seconds(bundle, "interp")
        compiled_cycle = _cycle_seconds(bundle, "compiled")
    finally:
        if previous is None:
            os.environ.pop("REPRO_SHELLVM", None)
        else:
            os.environ["REPRO_SHELLVM"] = previous

    write_bench("shellvm", {
        "campaign": "shellvm-smoke",
        "trials": trials,
        "byte_identical": byte_identical,
        "cache_stats": hotpath.stats(),
    }, {
        "shell_cycle": {
            "interp_ms": round(interp_cycle * 1e3, 3),
            "compiled_ms": round(compiled_cycle * 1e3, 3),
            "cycles_per_sec": round(1.0 / compiled_cycle, 1),
            "speedup": round(speedup, 2),
            "rounds": [round(r, 3) for r in ratios],
        },
        "campaign_wall": {
            "interp": {"wall_s": round(interp_wall, 3),
                       "trials_per_sec": round(trials / interp_wall, 3)},
            "compiled": {"wall_s": round(compiled_wall, 3),
                         "trials_per_sec": round(trials / compiled_wall,
                                                 3)},
            "speedup": round(interp_wall / compiled_wall, 2),
        },
    })

    assert byte_identical, \
        "compiled campaign diverged from the interpreter oracle"
    assert trials == 64
    assert speedup >= 2.0, (
        f"compiled shell hot loop bought only {speedup:.2f}x "
        f"(cycle {interp_cycle * 1e3:.2f}ms -> "
        f"{compiled_cycle * 1e3:.2f}ms)"
    )
