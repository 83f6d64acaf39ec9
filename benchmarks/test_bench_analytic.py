"""Analytic fast-path benchmark: million-user characterization cost.

Two legs, both recorded to ``benchmarks/output/BENCH_analytic.json``
(their wall clocks and rates to the git-ignored
``BENCH_analytic.timing.json`` beside it):

* **million-user exploration** — a tiered (``fidelity="auto"``)
  knee exploration of the 4-16-8 topology over a workload ladder
  reaching 1,000,000 users.  The analytic tier does the climbing; DES
  confirms the knee.  The whole characterization must finish in
  seconds — the same grid at DES fidelity would be simulation-hours.
* **analytic grid rate** — a fixed 8-point grid at
  ``fidelity="analytic"``, run at one and at four workers, timed for
  trials/sec and byte-compared across worker counts.

The payload also counts the analytic solves of both legs, the most
root steps any of them took and the analytic models the million-user
exploration built (``solver``), and the SLO verdicts the planner
judged and the sweep points its frontier built against the trials it
ran over its (topology, write ratio) groups (``planner``); CI gates
these counts, which no runner's speed can move.

Four assertions gate the result:

* **Wall clock** — the million-user exploration completes in under
  10 seconds.
* **Agreement** — the DES-confirmed knee lands on the ladder rung the
  calibration predicts (u=4000 for 4-16-8 at 15% writes).
* **Identity** — the analytic grid's persistent tables are
  byte-identical between the 1-worker and 4-worker runs.
* **Verdicts** — the planner judged at least one and at most one SLO
  verdict per trial through the counted ``policy.slo_violated``, so the
  per-trial gate cannot pass at zero.

CI additionally diffs the measured rates against the committed
baseline (``benchmarks/BENCH_analytic.baseline.json``) and fails on a
>20% regression, exactly like the hot-path bench.
"""

import time

from repro.api import run_adaptive, run_campaign
from repro.planner import frontier, policy
from repro.planner.policy import KNEE
from repro.sim import analytic

MILLION_TBL = """
benchmark rubis; platform emulab;
experiment "analytic-million" {
    topology 4-16-8;
    workload 1000, 2000, 4000, 8000, 16000, 32000, 64000, 125000,
             250000, 500000, 1000000;
    write_ratio 15%;
    trial { warmup 2s; run 10s; cooldown 2s; }
    slo { response_time 1.0s; error_ratio 10%; }
}
"""

GRID_TBL = """
benchmark rubis; platform emulab;
experiment "analytic-grid" {
    topology 1-1-1;
    workload 100, 200, 300, 400, 500, 600, 700, 800;
    write_ratio 15%;
    trial { warmup 2s; run 10s; cooldown 2s; }
}
"""

TABLES = ("trials", "host_cpu", "state_metrics", "planner_decisions")


def _grid_leg(jobs):
    start = time.perf_counter()
    report = run_campaign(GRID_TBL, jobs=jobs,
                          fidelity="analytic")
    wall = time.perf_counter() - start
    dump = {table: report.database.dump_rows(table) for table in TABLES}
    return wall, report.trials, dump


def test_bench_analytic(monkeypatch, write_bench):
    steps = []
    solve_model = analytic.solve_model

    def counted(model, users):
        result = solve_model(model, users)
        steps.append(result.iterations)
        return result

    monkeypatch.setattr(analytic, "solve_model", counted)
    verdicts = []
    slo_violated = policy.slo_violated

    def judged(result, slo):
        verdicts.append(result)
        return slo_violated(result, slo)

    monkeypatch.setattr(policy, "slo_violated", judged)
    models = []
    ntier_model = analytic.ntier_model

    def built(*args, **kwargs):
        models.append(args)
        return ntier_model(*args, **kwargs)

    monkeypatch.setattr(analytic, "ntier_model", built)
    points = []
    sweep_point = frontier.SweepPoint

    def point(*args, **kwargs):
        points.append(args)
        return sweep_point(*args, **kwargs)

    monkeypatch.setattr(frontier, "SweepPoint", point)
    start = time.perf_counter()
    explored = run_adaptive(MILLION_TBL, policy="knee", fidelity="auto",
                            node_count=40)
    explore_s = time.perf_counter() - start
    monkeypatch.setattr(analytic, "ntier_model", ntier_model)
    monkeypatch.setattr(frontier, "SweepPoint", sweep_point)
    experiment = explored.outcome.experiment
    knees = [d for d in explored.outcome.knees if d.action == KNEE]
    knee_workload = knees[0].workload if knees else None
    analytic_trials = len(
        explored.database.query(fidelity="analytic"))
    des_trials = len(explored.database.query(fidelity="des"))

    seq_s, trials, sequential = _grid_leg(jobs=1)
    par_s, _, parallel = _grid_leg(jobs=4)
    byte_identical = sequential == parallel

    write_bench("analytic", {
        "campaign": "analytic-million",
        "explore": {
            "executed": explored.outcome.executed,
            "knee_workload": knee_workload,
            "analytic_trials": analytic_trials,
            "des_trials": des_trials,
        },
        "analytic_grid": {"trials": trials},
        "solver": {
            "solves": len(steps),
            "max_iterations": max(steps),
            "models": len(models),
        },
        "planner": {
            "verdicts": len(verdicts),
            "points": len(points),
            "trials": explored.outcome.executed,
            "groups": len(set(experiment.topologies))
            * len(set(experiment.write_ratios)),
        },
        "byte_identical": byte_identical,
    }, {
        "explore": {"wall_s": round(explore_s, 3)},
        "analytic_grid": {
            "wall_s": round(seq_s, 3),
            "trials_per_sec": round(trials / seq_s, 3),
            "parallel_wall_s": round(par_s, 3),
        },
    })

    assert explore_s < 10.0, (
        f"million-user characterization took {explore_s:.1f}s; "
        f"the analytic tier must keep it under 10s"
    )
    assert knee_workload == 4000, (
        f"DES-confirmed knee at u={knee_workload}, expected the "
        f"calibrated 4-16-8 saturation rung u=4000"
    )
    assert des_trials and des_trials <= 4, (
        f"{des_trials} DES confirmations; the tiered policy should "
        f"need only the knee neighborhood"
    )
    assert byte_identical, (
        "analytic grid diverged between 1-worker and 4-worker runs"
    )
    assert 1 <= len(verdicts) <= explored.outcome.executed, (
        f"the planner judged {len(verdicts)} SLO verdicts over "
        f"{explored.outcome.executed} trials; judging each observation "
        f"once, through the counted policy.slo_violated, needs 1 to "
        f"{explored.outcome.executed}"
    )
