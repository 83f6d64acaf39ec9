"""The stable public facade: four calls that cover the workflow.

Everything the CLI and the examples do goes through this module, so
its signatures are the package's compatibility surface:

- :func:`run_experiment` — one TBL experiment, results in memory.
- :func:`run_campaign` — a whole TBL spec into a results database.
- :func:`run_adaptive` — closed-loop exploration of one experiment
  (planner policy picks trials from the observations so far).
- :func:`plan_campaign` — dry-run a planner policy's first round.
- :func:`resume_campaign` — finish an interrupted campaign (fixed-grid
  or adaptive) from its database checkpoint.
- :func:`heal_campaign` — closed-loop auto-remediation of a diagnosed
  campaign (detect -> propose -> verify -> apply, ``repro heal``).
- :func:`reproduce_figure` — regenerate one paper figure/table.
- :func:`list_scenarios` / :func:`run_scenario` — the declarative
  scenario matrix: consolidation x arrival pattern x expected ranges
  (``repro scenarios list|run``).
- :func:`open_results` — open (or create) an observation database.
- :func:`trace_report` — render the flight-recorder report of a run.
- :func:`serve_campaigns` / :func:`campaign_client` — the campaign
  service plane: run the ``repro serve`` daemon, or talk to one.
- :func:`solve` — the one-call fidelity dispatcher over the simulator
  tiers (re-exported from :mod:`repro.sim`), with the ``"des"`` /
  ``"analytic"`` / ``"auto"`` vocabulary in :data:`FIDELITIES`.

All parameters beyond the primary input are keyword-only; every entry
point takes ``tracer=`` so one :class:`~repro.obs.Tracer` can follow a
trial through allocate -> generate -> deploy -> verify -> simulate ->
collect -> analyze -> teardown without changing any trial outcome.
"""

from __future__ import annotations

import pathlib

from repro.errors import ExperimentError, ResultsError
from repro.obs import Tracer, as_tracer, render_trace_report
from repro.results.database import ResultsDatabase
from repro.sim import ANALYTIC, AUTO, DES, FIDELITIES, check_fidelity, solve


def run_experiment(tbl_text, *, experiment=None, mof_text=None,
                   node_count=36, jobs=1, tracer=None, on_result=None,
                   fidelity=DES):
    """Run one experiment of a TBL spec; returns its TrialResults.

    *experiment* names the experiment to run (default: the spec's only
    experiment; ambiguous with several).  ``jobs=N`` parallelizes the
    sweep without changing the results; *tracer* records lifecycle
    spans onto each result.  *fidelity* selects the solver tier:
    ``"des"`` (the default per-request simulation, byte-identical to
    before the tier existed) or ``"analytic"`` (the fluid fast path —
    milliseconds per point at any workload).
    """
    from repro.core.campaign import ObservationCampaign

    campaign = ObservationCampaign(tbl_text, mof_text=mof_text,
                                   node_count=node_count, tracer=tracer)
    experiment = campaign.spec.experiment(experiment).name
    results = []

    def collect(result):
        results.append(result)
        if on_result is not None:
            on_result(result)

    campaign.run([experiment], on_result=collect, jobs=jobs,
                 fidelity=fidelity)
    return results


def run_campaign(tbl_text, *, mof_text=None, database=None, node_count=36,
                 experiments=None, jobs=1, tracer=None,
                 on_result=None, on_progress=None,
                 tbl_source="<campaign>", faults=None, retry=None,
                 resume=False, fidelity=DES):
    """Run a TBL spec's experiments into a results database.

    *database* may be a :class:`ResultsDatabase`, a path, or ``None``
    (in-memory).  Returns the campaign's :class:`CampaignReport`; the
    database is reachable afterwards as ``report.database``.

    *faults* arms a :class:`~repro.faults.FaultPlan` (chaos mode) and
    *retry* a :class:`~repro.faults.RetryPolicy` (or attempt count) so
    transient failures are retried and recorded instead of aborting.
    ``resume=True`` skips trials already stored in *database*, so an
    interrupted campaign finishes exactly its missing trials.
    *fidelity* selects the solver tier for every trial (``"des"``, the
    default, or ``"analytic"``); each stored trial row records which
    tier produced it.
    """
    from repro.core.campaign import ObservationCampaign

    database = _as_database(database, create=True)
    campaign = ObservationCampaign(tbl_text, mof_text=mof_text,
                                   database=database,
                                   node_count=node_count,
                                   tbl_source=tbl_source, tracer=tracer,
                                   faults=faults, retry=retry)
    return campaign.run(experiments, on_result=on_result, jobs=jobs,
                        on_progress=on_progress, resume=resume,
                        fidelity=fidelity)


def resume_campaign(database, *, jobs=1, tracer=None, on_result=None,
                    on_progress=None):
    """Finish an interrupted campaign from its database checkpoint.

    *database* (a :class:`ResultsDatabase` or a path) must have been
    produced by :func:`run_campaign` or :func:`run_adaptive`, which
    persist the TBL/MOF text, cluster size, fault plan, retry policy —
    and, for adaptive explorations, the planner policy/budget — in the
    database's ``campaign_meta`` table.  Already-stored trials are
    skipped; an interrupted exploration replays its planner loop and
    runs only the missing trials.  Returns the :class:`CampaignReport`.
    """
    from repro.core.campaign import ObservationCampaign

    database = open_results(database, create=False)
    campaign = ObservationCampaign.from_database(database, tracer=tracer)
    return campaign.resume(jobs=jobs, on_result=on_result,
                           on_progress=on_progress)


def heal_campaign(database, *, budget=None, rounds=None, target=None,
                  experiment=None, tracer=None, on_progress=None):
    """Diagnose and auto-remediate a campaign database (``repro heal``).

    Runs the closed remediation loop of :mod:`repro.remedy` over a
    finished (possibly faulted) campaign: fold the stored observations
    into diagnoses, propose candidate patches, verify the best ones
    with shadow trials on cloned clusters, apply the winner, re-measure
    and repeat until the ladder is healthy or the *budget* of DES
    shadow trials (default 32) / *rounds* of patching (default 3) runs
    out.  *target* is the workload to aim for (default: the ladder's
    top rung); *experiment* picks one of a multi-experiment spec.

    Everything lands in the database's ``remediations`` table, and a
    killed heal re-run on the same database resumes byte-identically —
    the same contract ``repro resume`` gives explorations.  Returns the
    :class:`~repro.remedy.HealReport`.
    """
    from repro.remedy import heal_campaign as heal

    database = open_results(database, create=False)
    return heal(database, budget=budget, rounds=rounds, target=target,
                experiment=experiment, tracer=tracer,
                on_progress=on_progress)


def run_adaptive(tbl_text, *, policy="knee", budget=None, experiment=None,
                 mof_text=None, database=None, node_count=36, jobs=1,
                 tracer=None, on_result=None,
                 on_progress=None, tbl_source="<campaign>", faults=None,
                 retry=None, resume=False, fidelity=DES):
    """Explore one TBL experiment with a closed-loop planner policy.

    Where :func:`run_campaign` executes the full sweep grid,
    ``run_adaptive`` lets *policy* (``grid``/``knee``/``promote``/
    ``tiered``, or a :class:`repro.planner.Policy` instance) choose
    trials round by round from the observations so far, optionally
    capped at *budget* trials.  Decisions land in the database's
    ``planner_decisions`` table; the report's ``outcome`` carries the
    :class:`~repro.planner.AdaptiveOutcome` (rounds, trial savings,
    knees found).  Deterministic: the same policy over the same spec
    yields the same decision log and trial rows at any ``jobs``.

    *fidelity* picks the solver tier: ``"des"`` (default), a pure
    ``"analytic"`` exploration, or ``"auto"`` — explore analytically
    and confirm the knee with DES (the tiered policy).
    """
    from repro.core.campaign import ObservationCampaign

    database = _as_database(database, create=True)
    campaign = ObservationCampaign(tbl_text, mof_text=mof_text,
                                   database=database,
                                   node_count=node_count,
                                   tbl_source=tbl_source, tracer=tracer,
                                   faults=faults, retry=retry)
    return campaign.run_adaptive(policy, experiment_name=experiment,
                                 budget=budget, jobs=jobs,
                                 on_result=on_result,
                                 on_progress=on_progress, resume=resume,
                                 fidelity=fidelity)


def plan_campaign(tbl_text, *, policy="knee", budget=None, experiment=None,
                  tbl_source="<campaign>", fidelity=DES):
    """Dry-run a planner policy's first round — no cluster, no trials.

    Parses *tbl_text*, builds the policy, and returns a
    :class:`~repro.planner.PlanPreview` of what the first adaptive
    round would measure (``repro explore --dry-run``).  *fidelity*
    mirrors :func:`run_adaptive`: ``"auto"`` previews the tiered
    policy, ``"analytic"`` previews a pure analytic exploration.
    """
    from repro.planner import make_policy, plan_preview
    from repro.spec.tbl import parse as parse_tbl

    check_fidelity(fidelity)
    spec = parse_tbl(tbl_text, source=tbl_source)
    return plan_preview(spec.experiment(experiment),
                        make_policy(policy, budget=budget,
                                    fidelity=fidelity))


def reproduce_figure(figure_id, *, scale=None, jobs=1, tracer=None,
                     database=None, output_dir=None, fidelity=DES):
    """Regenerate one paper figure/table by id (``figure1``..``table7``).

    Returns the :class:`FigureResult`; *database* (ResultsDatabase or
    path) additionally stores the underlying trials — with a *tracer*,
    their lifecycle spans land in its ``spans`` table; *output_dir*
    writes ``<id>.txt``.  ``fidelity="analytic"`` reproduces the
    figure's sweep on the fluid fast path instead of DES.
    """
    from repro.experiments.papersuite import reproduce

    check_fidelity(fidelity)
    if fidelity == AUTO:
        raise ExperimentError(
            "fidelity 'auto' is an adaptive-exploration mode; a figure "
            "reproduction takes 'des' or 'analytic'")
    figure = reproduce(figure_id, scale=scale, jobs=jobs, tracer=tracer,
                       fidelity=fidelity)
    if database is not None and figure.results:
        figure.store(_as_database(database, create=True))
    if output_dir is not None:
        out = pathlib.Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{figure.figure_id}.txt").write_text(
            figure.rendered + "\n")
    return figure


def list_scenarios():
    """The scenario matrix, in table order (``repro scenarios list``).

    Each entry is a :class:`~repro.scenarios.Scenario` — topology,
    consolidation ratio, arrival pattern, workload ladder, and the
    expected-range assertions its runs are checked against.
    """
    from repro.scenarios import list_scenarios as _list

    return _list()


def run_scenario(name, *, database=None, node_count=36, jobs=1,
                 tracer=None, on_result=None, on_progress=None,
                 resume=False, fidelity=DES, check=True):
    """Run one scenario of the matrix (``repro scenarios run <name>``).

    Compiles the named scenario row to TBL text (scenario identity,
    consolidation ratio, and arrival pattern are plain TBL settings),
    runs it through :func:`run_campaign`, then checks the row's
    expected ranges against the stored trials.  Returns a
    :class:`~repro.scenarios.ScenarioOutcome` whose ``report`` is the
    campaign report and whose ``failures`` list any missed range
    (``check=False`` skips the verdicts).  Unknown names raise
    :class:`~repro.errors.ScenarioError`.
    """
    from repro.scenarios import (
        check_expectations,
        compile_scenario,
        get_scenario,
        ScenarioOutcome,
    )

    scenario = get_scenario(name)
    tbl_text = compile_scenario(scenario)
    database = _as_database(database, create=True)
    report = run_campaign(tbl_text, database=database,
                          node_count=node_count, jobs=jobs, tracer=tracer,
                          on_result=on_result, on_progress=on_progress,
                          tbl_source=f"<scenario {name}>",
                          resume=resume, fidelity=fidelity)
    failures = []
    if check:
        failures = check_expectations(
            scenario, report.database.query(scenario=name))
    return ScenarioOutcome(scenario=scenario, report=report,
                           failures=failures)


def open_results(path=None, *, create=True):
    """Open an observation database (``None`` -> in-memory).

    With ``create=False`` a missing file raises :class:`ResultsError`
    instead of silently creating an empty database.
    """
    if isinstance(path, ResultsDatabase):
        return path
    if path is not None and not create \
            and not pathlib.Path(path).exists():
        raise ResultsError(f"no results database at {path}")
    return ResultsDatabase(path)


def trace_report(database, *, experiment=None, limit=20):
    """Render the flight-recorder report of a traced run.

    *database* is a :class:`ResultsDatabase` or a path to one; raises
    :class:`ResultsError` when the run stored no spans (rerun with
    ``--trace`` / a tracer).
    """
    owned = not isinstance(database, ResultsDatabase)
    database = open_results(database, create=False)
    try:
        return render_trace_report(database, experiment_name=experiment,
                                   limit=limit)
    finally:
        if owned:
            database.close()


def serve_campaigns(*, host="127.0.0.1", port=8642, jobs=4, max_active=8,
                    tracer=None, on_ready=None):
    """Run the campaign daemon until interrupted (``repro serve``).

    One shared :class:`~repro.service.WorkerFleet` of *jobs* workers
    executes every submitted campaign under fair-share scheduling;
    *max_active* caps campaigns in flight before submits see
    :class:`~repro.errors.ServiceBusy` backpressure.  Blocks; see
    :class:`repro.service.ServiceDaemon` for the embeddable form.
    """
    from repro.service import serve

    return serve(host=host, port=port, jobs=jobs, max_active=max_active,
                 tracer=tracer, on_ready=on_ready)


def campaign_client(url="http://127.0.0.1:8642", *, timeout=60):
    """A thin client for a running campaign daemon.

    The returned :class:`~repro.service.CampaignClient` speaks the
    daemon's local HTTP API: ``submit``/``status``/``cancel``/
    ``resume``/``wait``/``aggregate``/``shutdown``.
    """
    from repro.service import CampaignClient

    return CampaignClient(url, timeout=timeout)


def _as_database(database, create=True):
    if database is None or isinstance(database, ResultsDatabase):
        return database if database is not None else ResultsDatabase()
    return open_results(database, create=create)


__all__ = [
    "ANALYTIC",
    "AUTO",
    "DES",
    "FIDELITIES",
    "Tracer",
    "as_tracer",
    "campaign_client",
    "check_fidelity",
    "heal_campaign",
    "list_scenarios",
    "open_results",
    "plan_campaign",
    "reproduce_figure",
    "resume_campaign",
    "run_adaptive",
    "run_campaign",
    "run_experiment",
    "run_scenario",
    "serve_campaigns",
    "solve",
    "trace_report",
]
