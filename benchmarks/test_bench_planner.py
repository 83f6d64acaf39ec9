"""Adaptive planner benchmark: knee bisection vs the exhaustive grid.

The acceptance claims of the planner plane, measured end to end on a
16-rung workload ladder:

- the knee policy finds the same SLO knee — and yields the same
  capacity plan — as the exhaustive grid with >= 50% fewer trials;
- the decision log and the executed-trial tables are byte-identical at
  jobs=1 and jobs=4;
- a killed adaptive exploration completes via ``resume_campaign`` to
  the same database as an uninterrupted run.

The trial-count report lands in
``benchmarks/output/planner_adaptive.txt``; wall-clock seconds are
printed only, so a run leaves the committed file unchanged.
"""

import pathlib
import time

import pytest

from repro import CapacityPlanner, ObservationCampaign, PerformanceMap
from repro.api import resume_campaign
from repro.core.bottleneck import slo_violated
from repro.planner.policy import KNEE

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

TBL = """
benchmark rubis;
platform emulab;

experiment "ladder" {
    topology 1-1-1;
    workload 50 to 800 step 50;
    write_ratio 15%;
    trial { warmup 2s; run 10s; cooldown 2s; }
    slo { response_time 1.0s; error_ratio 10%; }
}
"""

NODES = 8


def _dump(database):
    assert database.integrity_check() == []
    return {
        table: database.dump_rows(table)
        for table in ("trials", "host_cpu", "state_metrics",
                      "planner_decisions")
    }


def _plans(database, slo, targets):
    planner = CapacityPlanner(PerformanceMap.from_database(database),
                              write_ratio=0.15)
    return {users: planner.plan(users, slo).describe()
            for users in targets}


def test_bench_planner_adaptive():
    # -- the reference: the exhaustive grid ---------------------------
    grid = ObservationCampaign(TBL, node_count=NODES)
    start = time.perf_counter()
    grid.run()
    grid_s = time.perf_counter() - start
    experiment = grid.spec.experiments[0]
    slo = experiment.slo
    grid_trials = grid.database.count()
    assert grid_trials == 16

    violating = sorted(r.workload for r in grid.database.query()
                       if slo_violated(r, slo))
    assert violating, "ladder never breaks the SLO; benchmark is vacuous"
    grid_knee = violating[0]
    passing = sorted(r.workload for r in grid.database.query()
                     if not slo_violated(r, slo))

    # -- the adaptive exploration, sequentially -----------------------
    adaptive = ObservationCampaign(TBL, node_count=NODES)
    start = time.perf_counter()
    report = adaptive.run_adaptive(policy="knee")
    adaptive_s = time.perf_counter() - start
    outcome = report.outcome
    knees = [d for d in outcome.knees if d.action == KNEE]
    assert len(knees) == 1

    # Same knee...
    assert knees[0].workload == grid_knee
    # ...with >= 50% fewer trials.
    assert outcome.executed <= grid_trials // 2, (
        f"knee policy ran {outcome.executed} of {grid_trials} trials")
    assert outcome.savings_ratio() >= 0.5

    # Same capacity plan: the bisection measured the SLO crossing, so
    # the planner answers identically at every target the grid can
    # serve — and is identically infeasible past the ladder.
    targets = (passing[0], passing[-1], 5000)
    assert _plans(adaptive.database, slo, targets) == \
        _plans(grid.database, slo, targets)

    # -- worker-count invariance --------------------------------------
    parallel = ObservationCampaign(TBL, node_count=NODES)
    parallel.run_adaptive(policy="knee", jobs=4)
    assert _dump(parallel.database) == _dump(adaptive.database)

    # -- kill mid-exploration, then resume ----------------------------
    class Kill(Exception):
        pass

    killed = ObservationCampaign(TBL, node_count=NODES)
    seen = []

    def killer(result):
        seen.append(result)
        if len(seen) == 2:
            raise Kill()

    with pytest.raises(Kill):
        killed.run_adaptive(policy="knee", on_result=killer)
    assert killed.database.count() == 2
    resumed = resume_campaign(killed.database)
    assert resumed.skipped == 2
    assert _dump(killed.database) == _dump(adaptive.database)

    # The committed file holds only what the code determines (trials,
    # savings, rounds, finding); wall-clock seconds vary run to run,
    # so they appear in the printed report alone.
    summary = (
        f"Adaptive planner benchmark: 1-1-1 x 16-rung ladder "
        f"(SLO knee at u={grid_knee})\n"
        f"  grid      {grid_trials:3d} trials\n"
        f"  knee      {outcome.executed:3d} trials  "
        f"({outcome.savings_ratio():.0%} trials saved)\n"
        f"  rounds    {outcome.rounds}\n"
        f"  finding   {knees[0].reason}\n"
        f"  invariant jobs=4 and resumed runs byte-identical to jobs=1\n"
    )
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "planner_adaptive.txt").write_text(summary)
    print()
    print(summary + f"  wall-clock grid {grid_s:.1f} s, "
                    f"knee {adaptive_s:.1f} s\n")
