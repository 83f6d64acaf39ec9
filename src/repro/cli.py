"""Command-line interface: ``python -m repro <command>``.

The CLI is the operator's surface over the library: validate a spec
pair, materialize a generated bundle to disk, run a campaign into a
SQLite file, query/export the observations, regenerate a paper figure,
or inspect the catalogs.

Commands::

    validate  --tbl FILE [--mof FILE]
    generate  --tbl FILE [--mof FILE] --experiment NAME
              [--topology W-A-D] [--workload N] [--write-ratio F]
              [--backend shell|smartfrog] --out DIR
    run       --tbl FILE [--mof FILE] [--db FILE] [--nodes N]
              [--jobs N|auto] [--faults FILE] [--retries N]
              [--fidelity des|analytic] [--resume] [--trace] [--quiet]
    explore   --tbl FILE [--mof FILE] [--db FILE] [--nodes N]
              [--jobs N|auto]
              [--faults FILE] [--retries N]
              [--policy grid|knee|promote|tiered] [--budget N]
              [--fidelity des|analytic|auto]
              [--experiment NAME] [--dry-run] [--resume] [--trace]
              [--quiet]
    resume    DB [--jobs N] [--trace] [--quiet] [--url URL]
    heal      DB [--budget N] [--rounds N] [--target N]
              [--experiment NAME] [--trace] [--quiet] [--url URL]
    serve     [--host H] [--port N] [--jobs N] [--max-active N]
    submit    --tbl FILE [--mof FILE] --db FILE [--nodes N] [--jobs N]
              [--faults FILE] [--retries N] [--policy P] [--budget N]
              [--fidelity F] [--experiment NAME] [--resume] [--wait]
              [--url URL]
    status    [ID] [--url URL]
    cancel    ID [--url URL]
    shutdown  [--abort] [--url URL]
    report    --db FILE [--experiment NAME] [--topology W-A-D]
              [--format text|csv|json] [--out FILE]
    figure    --id ID [--scale F] [--jobs N] [--trace] [--db FILE]
              [--fidelity des|analytic] [--out DIR]
                                                 (figure1..8, table1..7)
    scenarios list
    scenarios run NAME [--db FILE] [--jobs N|auto] [--nodes N]
              [--fidelity F] [--resume] [--no-check] [--trace] [--quiet]
    trace     DB [--experiment NAME] [--limit N]
    card      DB [--verify]
    catalog   [--platforms] [--software]

The run/figure/report/trace handlers are thin wrappers over the
:mod:`repro.api` facade; ``--trace`` turns on the lifecycle flight
recorder, whose spans land in the database next to the trials and are
rendered by ``repro trace <db>``.

serve/submit/status/cancel/shutdown are the campaign-service surface:
``repro serve`` runs the controller/worker daemon and the others speak
to it over its local HTTP API (see :mod:`repro.service`).  Shared flags
(--tbl/--mof, --db, --jobs, --faults/--retries, --trace/--quiet) are
defined once as argparse parent parsers, so ``repro run`` and ``repro
submit`` stay flag-compatible by construction.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.errors import ReproError


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; the POSIX
        # convention is a silent exit, not a traceback.
        sys.stderr.close()
        return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Observation-based performance characterization of "
                    "n-tier applications (IISWC 2007 reproduction)",
    )
    commands = parser.add_subparsers(metavar="command")

    # The flag families shared across subcommands are each defined once
    # as a parent parser, so `repro run` and `repro submit` (and every
    # other command touching the same concern) cannot drift apart.
    spec = _spec_parent()
    db = _db_parent()
    jobs = _jobs_parent()
    faults = _faults_parent()
    output = _output_parent()
    fidelity = _fidelity_parent()

    validate = commands.add_parser(
        "validate", parents=[spec],
        help="check a TBL (and optional MOF) spec pair")
    validate.set_defaults(handler=cmd_validate)

    generate = commands.add_parser(
        "generate", parents=[spec],
        help="write a Mulini bundle for one experiment point")
    generate.add_argument("--experiment", required=True)
    generate.add_argument("--topology", default=None,
                          help="w-a-d (default: the experiment's first)")
    generate.add_argument("--workload", type=int, default=None)
    generate.add_argument("--write-ratio", type=float, default=None)
    generate.add_argument("--backend", choices=("shell", "smartfrog"),
                          default="shell")
    generate.add_argument("--out", required=True,
                          help="directory to write the bundle into")
    generate.set_defaults(handler=cmd_generate)

    run = commands.add_parser(
        "run", parents=[spec, db, jobs, faults, output, fidelity],
        help="run every experiment of a TBL spec into a database")
    run.add_argument("--nodes", type=int, default=36,
                     help="virtual cluster size (default 36)")
    run.add_argument("--resume", action="store_true",
                     help="skip trials already stored in --db")
    run.set_defaults(handler=cmd_run)

    explore = commands.add_parser(
        "explore", parents=[spec, db, jobs, faults, output, fidelity],
        help="adaptive exploration: a planner policy picks "
             "trials from the observations so far")
    _planner_arguments(explore)
    explore.add_argument("--nodes", type=int, default=36,
                         help="virtual cluster size (default 36)")
    explore.add_argument("--dry-run", action="store_true",
                         help="print the policy's first round and exit "
                              "without running trials")
    explore.add_argument("--resume", action="store_true",
                         help="feed trials already stored in --db back "
                              "into the planner instead of re-running")
    explore.set_defaults(handler=cmd_explore)

    resume = commands.add_parser(
        "resume", parents=[jobs, output],
        help="finish an interrupted campaign from its database")
    resume.add_argument("db", help="results database of a prior run "
                                   "(with --url: the interrupted "
                                   "campaign's --db path)")
    resume.add_argument("--url", default=None, metavar="URL",
                        help="resume on a running campaign daemon "
                             "instead of in-process")
    resume.set_defaults(handler=cmd_resume)

    heal = commands.add_parser(
        "heal", parents=[output],
        help="auto-remediate a campaign from its own observations")
    heal.add_argument("db", help="results database to diagnose and heal")
    heal.add_argument("--budget", type=int, default=None, metavar="N",
                      help="shadow-trial budget for verification "
                           "(default 32; persisted for resume)")
    heal.add_argument("--rounds", type=int, default=None, metavar="N",
                      help="max detect/verify/apply rounds (default 3)")
    heal.add_argument("--target", type=int, default=None, metavar="N",
                      help="workload the healed system must support "
                           "(default: the ladder's top rung)")
    heal.add_argument("--experiment", default=None,
                      help="experiment to heal (default: the "
                           "campaign's only one)")
    heal.add_argument("--url", default=None, metavar="URL",
                      help="heal on a running campaign daemon "
                           "instead of in-process")
    heal.set_defaults(handler=cmd_heal)

    serve = commands.add_parser(
        "serve", parents=[_jobs_parent(default=4)],
        help="run the campaign daemon: one worker fleet, many campaigns")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument("--max-active", type=int, default=8, metavar="N",
                       help="campaigns in flight before submits get "
                            "backpressure (default 8)")
    serve.set_defaults(handler=cmd_serve)

    submit = commands.add_parser(
        "submit",
        parents=[_spec_parent(required=False), db, jobs, faults,
                 _url_parent(), _fidelity_parent()],
        help="submit a campaign to a running daemon")
    _planner_arguments(submit, optional=True)
    submit.add_argument("--nodes", type=int, default=36,
                        help="virtual cluster size (default 36)")
    submit.add_argument("--resume", action="store_true",
                        help="continue from the campaign's checkpoint "
                             "(shard or published database) at --db")
    submit.add_argument("--wait", action="store_true",
                        help="block until the campaign settles and "
                             "print its summary")
    submit.set_defaults(handler=cmd_submit)

    status = commands.add_parser(
        "status", parents=[_url_parent()],
        help="show the daemon's campaigns, fleet, and aggregate")
    status.add_argument("id", nargs="?", default=None,
                        help="one campaign's id (default: everything)")
    status.set_defaults(handler=cmd_status)

    cancel = commands.add_parser(
        "cancel", parents=[_url_parent()],
        help="cancel a running campaign, keeping its shard checkpoint")
    cancel.add_argument("id", help="the campaign id to cancel")
    cancel.set_defaults(handler=cmd_cancel)

    shutdown = commands.add_parser(
        "shutdown", parents=[_url_parent()],
        help="stop the campaign daemon")
    shutdown.add_argument("--abort", action="store_true",
                          help="kill instead of draining; running "
                               "campaigns survive as shard checkpoints")
    shutdown.set_defaults(handler=cmd_shutdown)

    report = commands.add_parser(
        "report", help="render or export observations from a database")
    report.add_argument("--db", required=True)
    report.add_argument("--experiment", default=None)
    report.add_argument("--topology", default=None)
    report.add_argument("--format", choices=("text", "csv", "json"),
                        default="text")
    report.add_argument("--chart", action="store_true",
                        help="render an ASCII chart of the RT series")
    report.add_argument("--by-interaction", action="store_true",
                        help="per-interaction breakdown instead of series")
    report.add_argument("--out", default=None,
                        help="write to a file instead of stdout")
    report.set_defaults(handler=cmd_report)

    figure = commands.add_parser(
        "figure", help="regenerate one paper figure/table")
    figure.add_argument("--id", required=True, dest="figure_id",
                        help="figure1..figure8, table1..table7")
    figure.add_argument("--scale", type=float, default=None,
                        help="trial-phase scale (default: bench scale)")
    figure.add_argument("--jobs", type=int, default=1,
                        help="parallel trial workers (default 1; results "
                             "are identical for any value)")
    figure.add_argument("--trace", action="store_true",
                        help="record lifecycle spans while reproducing "
                             "(stored in --db)")
    figure.add_argument("--db", default=None,
                        help="store the figure's trials (and spans) in "
                             "this SQLite file (default with --trace: "
                             "trace.sqlite)")
    figure.add_argument("--fidelity", choices=("des", "analytic"),
                        default="des",
                        help="solver tier for the figure's trials "
                             "(default des; analytic solves each point "
                             "in milliseconds)")
    figure.add_argument("--out", default=None,
                        help="directory for the rendering")
    figure.set_defaults(handler=cmd_figure)

    trace = commands.add_parser(
        "trace", help="render the flight-recorder report of a traced run")
    trace.add_argument("db", help="results database of a --trace run")
    trace.add_argument("--experiment", default=None,
                       help="restrict to one experiment's trials")
    trace.add_argument("--limit", type=int, default=20,
                       help="trials shown in the breakdown (default 20)")
    trace.set_defaults(handler=cmd_trace)

    card = commands.add_parser(
        "card", help="print a campaign database's run card (provenance)")
    card.add_argument("db", help="results database of a campaign run")
    card.add_argument("--verify", action="store_true",
                      help="recompute the table digests and fail if the "
                           "database no longer matches the card")
    card.set_defaults(handler=cmd_card)

    scenarios = commands.add_parser(
        "scenarios",
        help="the declarative scenario matrix: consolidation x arrivals")
    scenario_actions = scenarios.add_subparsers(metavar="action")
    scenarios_list = scenario_actions.add_parser(
        "list", help="show every scenario and its expected ranges")
    scenarios_list.set_defaults(handler=cmd_scenarios_list)
    scenarios_run = scenario_actions.add_parser(
        "run", parents=[db, jobs, output, fidelity],
        help="compile one scenario to TBL, run it, check its ranges")
    scenarios_run.add_argument("name", help="scenario name (see: repro "
                                            "scenarios list)")
    scenarios_run.add_argument("--nodes", type=int, default=36,
                               help="virtual cluster size (default 36)")
    scenarios_run.add_argument("--resume", action="store_true",
                               help="skip trials already stored in --db")
    scenarios_run.add_argument("--no-check", action="store_true",
                               help="skip the expected-range assertions")
    scenarios_run.set_defaults(handler=cmd_scenarios_run)

    catalog = commands.add_parser(
        "catalog", help="print the hardware/software catalogs")
    catalog.add_argument("--platforms", action="store_true")
    catalog.add_argument("--software", action="store_true")
    catalog.set_defaults(handler=cmd_catalog)

    return parser


# -- shared flag families (argparse parent parsers) ----------------------
#
# Each family is defined in exactly one place and attached via
# ``parents=[...]``; a new subcommand that needs, say, the fault flags
# inherits them wholesale instead of re-declaring (and mistyping) them.

def _parent():
    return argparse.ArgumentParser(add_help=False)


def _spec_parent(required=True):
    parent = _parent()
    parent.add_argument("--tbl", required=required,
                        help="Testbed Language specification file")
    parent.add_argument("--mof", default=None,
                        help="CIM/MOF resource model file "
                             "(default: derived from the TBL header)")
    return parent


def _db_parent():
    parent = _parent()
    parent.add_argument("--db", default="observations.sqlite",
                        help="SQLite file for the results "
                             "(default: observations.sqlite)")
    return parent


def _jobs_value(text):
    """``--jobs`` accepts a worker count or ``auto`` (CPU-topology
    sizing via :func:`repro.experiments.scheduler.calc_parallel_jobs`)."""
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a worker count or 'auto', got {text!r}")


def _jobs_parent(default=1):
    parent = _parent()
    parent.add_argument("--jobs", type=_jobs_value, default=default,
                        metavar="N|auto",
                        help=f"parallel trial workers (default {default}; "
                             f"'auto' sizes from the CPU count; results "
                             f"are identical for any value)")
    return parent


def _resolve_jobs(args, node_count=None):
    """Resolve ``--jobs auto`` to a concrete worker count in place.

    Resolution happens at the CLI boundary so every downstream consumer
    (the remedy pipeline, the service fleet, wait math) sees an int;
    *node_count* makes the sizing topology-aware where ``--nodes`` is
    known.
    """
    if args.jobs == "auto":
        from repro.experiments.scheduler import calc_parallel_jobs

        args.jobs = calc_parallel_jobs(node_count=node_count)
        print(f"--jobs auto: sized to {args.jobs} worker(s)")
    return args.jobs


def _faults_parent():
    parent = _parent()
    parent.add_argument("--faults", default=None, metavar="FILE",
                        help="JSON fault plan to arm during the campaign "
                             "(chaos mode; see repro.faults.FaultPlan)")
    parent.add_argument("--retries", type=int, default=None, metavar="N",
                        help="max attempts per trial (enables retry, "
                             "quarantine and enriched DNF recording)")
    return parent


def _output_parent():
    parent = _parent()
    parent.add_argument("--trace", action="store_true",
                        help="record lifecycle spans into the database "
                             "(inspect with: repro trace <db>)")
    parent.add_argument("--quiet", action="store_true")
    return parent


def _url_parent():
    parent = _parent()
    parent.add_argument("--url", default="http://127.0.0.1:8642",
                        metavar="URL",
                        help="the campaign daemon's address "
                             "(default http://127.0.0.1:8642)")
    return parent


def _fidelity_parent():
    parent = _parent()
    parent.add_argument("--fidelity",
                        choices=("des", "analytic", "auto"),
                        default="des",
                        help="solver tier: des (default, per-request "
                             "simulation), analytic (fluid fast path), "
                             "or auto (explore analytically, confirm "
                             "the knee with DES — explore/submit only)")
    return parent


def _planner_arguments(subparser, optional=False):
    subparser.add_argument("--policy",
                          choices=("grid", "knee", "promote", "tiered"),
                          default=None if optional else "knee",
                          help="experiment-selection policy"
                               + (" (submits an adaptive exploration "
                                  "instead of the fixed grid)" if optional
                                  else " (default knee: bisect each "
                                       "workload ladder to its SLO knee)"))
    subparser.add_argument("--budget", type=int, default=None, metavar="N",
                          help="hard cap on executed trials")
    subparser.add_argument("--experiment", default=None,
                          help="experiment to explore (default: the "
                               "spec's only one)")


def _load_specs(args):
    from repro.spec.mof import load_resource_model, render_resource_mof
    from repro.spec.tbl import parse as parse_tbl

    tbl_path = pathlib.Path(args.tbl)
    tbl_text = tbl_path.read_text()
    spec = parse_tbl(tbl_text, source=str(tbl_path))
    if args.mof is not None:
        mof_text = pathlib.Path(args.mof).read_text()
        mof_source = args.mof
    else:
        mof_text = render_resource_mof(spec.benchmark, spec.platform,
                                       app_server=spec.app_server)
        mof_source = "<derived>"
    model = load_resource_model(mof_text, source=mof_source)
    return spec, model, tbl_text, mof_text


def cmd_validate(args):
    from repro.spec.validation import validate

    spec, model, _tbl, _mof = _load_specs(args)
    warnings = validate(model, spec)
    points = sum(e.point_count() for e in spec.experiments)
    print(f"ok: {len(spec.experiments)} experiment(s), {points} sweep "
          f"point(s) on platform {model.platform.name!r}")
    for experiment in spec.experiments:
        print(f"  {experiment.name}: {len(experiment.topologies)} "
              f"topologies x {len(experiment.workloads)} workloads x "
              f"{len(experiment.write_ratios)} write ratios, up to "
              f"{experiment.max_machine_count()} machines")
    for warning in warnings:
        print(f"warning: {warning}")
    return 0


def cmd_generate(args):
    from repro.generator import Mulini
    from repro.spec.topology import Topology

    spec, model, _tbl, _mof = _load_specs(args)
    experiment = spec.experiment(args.experiment)
    topology = Topology.parse(args.topology) if args.topology \
        else experiment.topologies[0]
    workload = args.workload if args.workload is not None \
        else experiment.workloads[0]
    write_ratio = args.write_ratio if args.write_ratio is not None \
        else experiment.write_ratios[0]
    mulini = Mulini(model, spec)
    out_dir = pathlib.Path(args.out)
    if args.backend == "smartfrog":
        text = mulini.generate(experiment, topology, workload, write_ratio,
                               backend="smartfrog")
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "deployment.sf"
        path.write_text(text)
        print(f"wrote {path}")
        return 0
    bundle = mulini.generate(experiment, topology, workload, write_ratio)
    root = out_dir / bundle.experiment_id
    for relative, content in sorted(bundle.files.items()):
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    (root / "manifest.txt").write_text(bundle.manifest())
    print(f"wrote {bundle.file_count() + 1} files under {root}")
    print(f"  {bundle.script_line_total()} script lines, "
          f"{bundle.config_line_total()} config lines")
    return 0


def _trial_progress(args):
    def progress(result):
        if not args.quiet:
            retries = f" ({result.attempts} attempts)" \
                if result.retried else ""
            print(f"  {result.experiment_name} "
                  f"{result.topology_label} "
                  f"u={result.workload} wr={result.write_ratio:.0%} -> "
                  f"{result.status}{retries} "
                  f"rt={result.response_time_ms():.1f}ms "
                  f"x={result.throughput():.1f}/s")
    return progress


def _print_report(report):
    for warning in report.warnings:
        print(f"warning: {warning}")
    for host, reason in sorted(report.quarantined.items()):
        print(f"quarantined: {reason}")
    print(report.summary())


def cmd_run(args):
    from repro.api import open_results, run_campaign
    from repro.obs import Tracer

    _spec, _model, tbl_text, mof_text = _load_specs(args)
    faults = _load_fault_plan(args)
    _resolve_jobs(args, node_count=args.nodes)
    with open_results(args.db) as database:
        report = run_campaign(tbl_text, mof_text=mof_text,
                              database=database, node_count=args.nodes,
                              jobs=args.jobs,
                              tracer=Tracer() if args.trace else None,
                              on_result=_trial_progress(args),
                              tbl_source=args.tbl,
                              faults=faults, retry=args.retries,
                              resume=args.resume,
                              fidelity=args.fidelity)
        _print_report(report)
    print(f"observations stored in {args.db}")
    if args.trace:
        print(f"lifecycle spans recorded; inspect with: "
              f"repro trace {args.db}")
    return 0


def _load_fault_plan(args):
    from repro.faults import FaultPlan

    if args.faults is None:
        return None
    return FaultPlan.from_json(
        pathlib.Path(args.faults).read_text(), source=args.faults)


def cmd_explore(args):
    from repro.api import open_results, plan_campaign, run_adaptive
    from repro.obs import Tracer

    _spec, _model, tbl_text, mof_text = _load_specs(args)
    if args.dry_run:
        preview = plan_campaign(tbl_text, policy=args.policy,
                                budget=args.budget,
                                experiment=args.experiment,
                                tbl_source=args.tbl,
                                fidelity=args.fidelity)
        print(preview.describe())
        return 0
    _resolve_jobs(args, node_count=args.nodes)
    with open_results(args.db) as database:
        report = run_adaptive(tbl_text, policy=args.policy,
                              budget=args.budget,
                              experiment=args.experiment,
                              mof_text=mof_text, database=database,
                              node_count=args.nodes, jobs=args.jobs,
                              tracer=Tracer() if args.trace else None,
                              on_result=_trial_progress(args),
                              tbl_source=args.tbl,
                              faults=_load_fault_plan(args),
                              retry=args.retries, resume=args.resume,
                              fidelity=args.fidelity)
        _print_report(report)
        outcome = report.outcome
        if outcome is not None:
            for knee in outcome.knees:
                print(f"finding: {knee.reason}")
            print(f"explored {outcome.executed} of "
                  f"{outcome.universe_size() * outcome.experiment.repetitions} "
                  f"grid trial(s) ({outcome.savings_ratio():.0%} saved)")
    print(f"observations stored in {args.db}")
    if args.trace:
        print(f"lifecycle spans recorded; inspect with: "
              f"repro trace {args.db}")
    return 0


def cmd_resume(args):
    from repro.api import open_results, resume_campaign
    from repro.obs import Tracer

    _resolve_jobs(args)
    if args.url is not None:
        from repro.api import campaign_client

        client = campaign_client(args.url)
        campaign_id = client.resume(db_path=args.db, jobs=args.jobs)
        print(f"resumed as campaign {campaign_id} on {args.url}")
        return _wait_and_report(client, campaign_id, quiet=args.quiet)
    with open_results(args.db, create=False) as database:
        report = resume_campaign(database, jobs=args.jobs,
                                 tracer=Tracer() if args.trace else None,
                                 on_result=_trial_progress(args))
        _print_report(report)
    print(f"observations stored in {args.db}")
    return 0


def cmd_heal(args):
    from repro.api import heal_campaign, open_results
    from repro.obs import Tracer

    if args.url is not None:
        from repro.api import campaign_client

        client = campaign_client(args.url)
        heal_id = client.heal(db_path=args.db, budget=args.budget,
                              rounds=args.rounds, target=args.target,
                              experiment=args.experiment)
        print(f"healing as {heal_id} on {args.url}")
        return _wait_and_report(client, heal_id, quiet=args.quiet)
    with open_results(args.db, create=False) as database:
        report = heal_campaign(
            database, budget=args.budget, rounds=args.rounds,
            target=args.target, experiment=args.experiment,
            tracer=Tracer() if args.trace else None,
            on_progress=None if args.quiet else lambda line:
                print(f"  {line}"))
        print(report.describe())
    print(f"remediation log stored in {args.db}")
    return 0 if report.healthy else 1


# -- the campaign-service surface -----------------------------------------

def cmd_serve(args):
    from repro.service import serve

    _resolve_jobs(args)
    print(f"campaign daemon: fleet of {args.jobs} worker(s), up to "
          f"{args.max_active} campaign(s) in flight")
    serve(host=args.host, port=args.port, jobs=args.jobs,
          max_active=args.max_active,
          on_ready=lambda url: print(f"listening on {url}", flush=True))
    return 0


def cmd_submit(args):
    from repro.api import campaign_client

    tbl_text = None
    mof_text = None
    if args.tbl is not None:
        _spec, _model, tbl_text, mof_text = _load_specs(args)
    elif not args.resume:
        print("error: submit needs --tbl (or --resume with a "
              "checkpointed --db)", file=sys.stderr)
        return 2
    _resolve_jobs(args, node_count=args.nodes)
    client = campaign_client(args.url)
    campaign_id = client.submit(
        tbl_text, db_path=args.db, jobs=args.jobs, mof_text=mof_text,
        node_count=args.nodes, policy=args.policy, budget=args.budget,
        experiment=args.experiment,
        faults=_load_fault_plan(args), retry=args.retries,
        resume=args.resume, fidelity=args.fidelity)
    print(f"submitted campaign {campaign_id} on {args.url} "
          f"(db: {args.db})")
    if not args.wait:
        return 0
    return _wait_and_report(client, campaign_id, quiet=False)


def _wait_and_report(client, campaign_id, *, quiet):
    record = client.wait(campaign_id, timeout=3600)
    if record is None:
        print(f"campaign {campaign_id} still running after timeout",
              file=sys.stderr)
        return 1
    if not quiet and record.get("summary"):
        print(record["summary"])
    if record["state"] != "done":
        print(f"campaign {campaign_id} {record['state']}: "
              f"{record.get('error')}", file=sys.stderr)
        return 1
    print(f"observations stored in {record['db_path']}")
    return 0


def cmd_status(args):
    from repro.api import campaign_client

    client = campaign_client(args.url)
    if args.id is not None:
        record = client.status(args.id)
        print(f"{record['id']}: {record['state']} "
              f"({record['trials']} trial(s), "
              f"{record['skipped']} skipped) -> {record['db_path']}")
        if record.get("summary"):
            print(f"  {record['summary']}")
        if record.get("error"):
            print(f"  error: {record['error']}")
        return 0
    state = client.status()
    fleet = state["fleet"]
    print(f"fleet: {fleet['workers']} worker(s), "
          f"{fleet['in_flight']} in flight, "
          f"{fleet['dispatched']} dispatched")
    if not state["campaigns"]:
        print("no campaigns")
    for cid in sorted(state["campaigns"]):
        record = state["campaigns"][cid]
        print(f"  {cid}: {record['state']} "
              f"({record['trials']} trial(s)) -> {record['db_path']}")
    return 0


def cmd_cancel(args):
    from repro.api import campaign_client

    campaign_client(args.url).cancel(args.id)
    print(f"cancelled campaign {args.id}; its shard checkpoint stays "
          f"for resume")
    return 0


def cmd_shutdown(args):
    from repro.api import campaign_client

    campaign_client(args.url).shutdown(abort=args.abort)
    print("daemon stopping"
          + (" (aborted; shards keep the checkpoints)" if args.abort
             else ""))
    return 0


def cmd_report(args):
    from repro.api import open_results
    from repro.results import analysis, report
    from repro.results.export import to_csv, to_json

    with open_results(args.db, create=False) as database:
        results = database.query(experiment_name=args.experiment,
                                 topology=args.topology)
        if not results:
            print("no matching trials", file=sys.stderr)
            return 1
        if args.format == "csv":
            output = to_csv(results)
        elif args.format == "json":
            output = to_json(results)
        elif args.by_interaction:
            sections = []
            for result in results:
                if not result.per_state:
                    continue
                sections.append(report.render_state_table(
                    f"{result.topology_label} @ {result.workload} users, "
                    f"wr={result.write_ratio:.0%} — by interaction",
                    result.per_state, limit=10,
                ))
            if not sections:
                print("no per-interaction data stored", file=sys.stderr)
                return 1
            output = "\n\n".join(sections) + "\n"
        elif args.chart:
            series = {
                topology: analysis.response_time_series(results, topology)
                for topology in sorted({r.topology_label
                                        for r in results})
            }
            output = report.render_ascii_chart(
                "mean response time (ms) vs workload", series,
            ) + "\n"
        else:
            sections = []
            for topology in sorted({r.topology_label for r in results}):
                for ratio in sorted({round(r.write_ratio, 6)
                                     for r in results
                                     if r.topology_label == topology}):
                    series = analysis.response_time_series(
                        results, topology, write_ratio=ratio)
                    sections.append(report.render_series(
                        f"{topology} @ wr={ratio:.0%} "
                        f"(mean response time, ms)",
                        series, y_label="rt_ms",
                    ))
            output = "\n\n".join(sections) + "\n"
    if args.out:
        pathlib.Path(args.out).write_text(output)
        print(f"wrote {args.out}")
    else:
        print(output, end="")
    return 0


def cmd_figure(args):
    from repro.api import reproduce_figure
    from repro.experiments.papersuite import FIGURE_IDS, reproduce_all
    from repro.obs import Tracer

    _resolve_jobs(args)
    db_path = args.db
    if args.trace and db_path is None:
        db_path = "trace.sqlite"
    tracer = Tracer() if args.trace else None
    if args.figure_id == "all":
        with _maybe_database(db_path) as database:
            results = reproduce_all(output_dir=args.out, scale=args.scale,
                                    database=database, on_progress=print,
                                    jobs=args.jobs, tracer=tracer,
                                    fidelity=args.fidelity)
        print(f"reproduced {len(results)} figures/tables"
              + (f" into {args.out}" if args.out else ""))
        if db_path:
            print(f"trials stored in {db_path}")
        return 0
    try:
        with _maybe_database(db_path) as database:
            result = reproduce_figure(args.figure_id, scale=args.scale,
                                      jobs=args.jobs, tracer=tracer,
                                      database=database,
                                      output_dir=args.out,
                                      fidelity=args.fidelity)
    except KeyError:
        print(f"error: unknown figure id {args.figure_id!r}; known: "
              f"all, {', '.join(FIGURE_IDS)}", file=sys.stderr)
        return 1
    print(result.rendered)
    if args.out:
        path = pathlib.Path(args.out) / f"{result.figure_id}.txt"
        print(f"\nwrote {path}")
    if db_path:
        print(f"trials stored in {db_path}"
              + (f"; inspect spans with: repro trace {db_path}"
                 if args.trace else ""))
    return 0


class _NoDatabase:
    """Context manager standing in for 'no --db given'."""

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


def _maybe_database(db_path):
    from repro.api import open_results

    return open_results(db_path) if db_path else _NoDatabase()


def cmd_trace(args):
    from repro.api import trace_report

    print(trace_report(args.db, experiment=args.experiment,
                       limit=args.limit))
    return 0


def cmd_card(args):
    from repro.api import open_results
    from repro.provenance import canonical_json, verify_run_card

    with open_results(args.db, create=False) as database:
        cards = database.run_cards()
        if not cards:
            print(f"no run cards in {args.db} (produced before the "
                  f"provenance plane, or not by run_campaign)",
                  file=sys.stderr)
            return 1
        latest = cards[-1]
        print(canonical_json(latest))
        if len(cards) > 1:
            print(f"({len(cards)} run cards recorded; showing the "
                  f"latest)", file=sys.stderr)
        if args.verify:
            problems = verify_run_card(latest, database)
            if problems:
                for problem in problems:
                    print(f"mismatch: {problem}", file=sys.stderr)
                return 1
            print("table digests verified: database matches the card",
                  file=sys.stderr)
    return 0


def cmd_scenarios_list(args):
    from repro.api import list_scenarios

    for scenario in list_scenarios():
        shape = scenario.topology
        if scenario.consolidation > 1:
            shape += f" @{scenario.consolidation}x"
        arrival = "closed-loop" if scenario.arrival is None \
            else scenario.arrival["kind"]
        expects = ", ".join(f"{key}={value}" for key, value
                            in sorted(scenario.expects.items())) or "-"
        print(f"{scenario.name:20} {shape:12} {arrival:12} {expects}")
        print(f"{'':20} {scenario.description}")
    return 0


def cmd_scenarios_run(args):
    from repro.api import open_results, run_scenario
    from repro.obs import Tracer

    _resolve_jobs(args, node_count=args.nodes)
    with open_results(args.db) as database:
        outcome = run_scenario(args.name, database=database,
                               node_count=args.nodes, jobs=args.jobs,
                               tracer=Tracer() if args.trace else None,
                               on_result=_trial_progress(args),
                               resume=args.resume,
                               fidelity=args.fidelity,
                               check=not args.no_check)
        _print_report(outcome.report)
        if not args.no_check:
            print(outcome.describe())
    print(f"observations stored in {args.db}")
    if args.trace:
        print(f"lifecycle spans recorded; inspect with: "
              f"repro trace {args.db}")
    return 0 if outcome.ok else 1


def cmd_catalog(args):
    from repro.experiments.figures import table1, table2

    show_all = not (args.platforms or args.software)
    if args.software or show_all:
        print(table1().rendered)
    if (args.platforms or show_all):
        if args.software or show_all:
            print()
        print(table2().rendered)
    return 0
