"""Run cards: every campaign database describes its own production.

The paper's workflow is "modify the specification once and re-derive
everything"; a campaign database should hold the same property — given
nothing but the database, a reader can see exactly what produced it
(command line, environment, resolved parameters, input digests, cache
effectiveness, table digests) and re-run the campaign to the same
bytes.  The *run card* is that record: one canonical-JSON document per
campaign run, persisted into the database's ``run_cards`` table and —
for file-backed databases — exported beside the file as
``<db>.run_card.json`` where shell tools can read it without sqlite.

The card complements ``campaign_meta``: meta stores the *inputs* a
resume needs verbatim (TBL/MOF text, fault plan, retry policy); the
card stores the *observation* of one particular run — what was
actually executed, under which engine and worker count, and digests of
both the inputs and the resulting tables.  Re-derivation is therefore
checkable: rebuild the campaign from meta, re-run with the card's
parameters, and compare :func:`table_digests`.

:func:`preflight` runs the cheap checks that catch a doomed or
silently-misconfigured campaign before any trial runs — most notably a
mistyped ``REPRO_SHELLVM`` value, which the engine selector would
otherwise quietly resolve to the compiled default.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import sys
import time

#: Card layout version, bumped on any incompatible shape change.
RUN_CARD_VERSION = 1

#: The exported card's file name is the database's plus this suffix.
RUN_CARD_SUFFIX = ".run_card.json"

#: Tables whose digests certify the run's observable output — the same
#: five surfaces the engine/cache identity benchmarks byte-compare.
DIGEST_TABLES = ("trials", "host_cpu", "state_metrics", "spans",
                 "failures")


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table_digests(database):
    """``{table: {"rows": n, "sha256": hex}}`` over the result tables.

    The digest covers the repr of every row in rowid order — exactly
    the surface :meth:`ResultsDatabase.dump_rows` exposes and the
    identity tests compare, so two databases with equal digests are
    byte-identical where it matters.
    """
    digests = {}
    for table in DIGEST_TABLES:
        rows = database.dump_rows(table)
        body = "\n".join(repr(row) for row in rows)
        digests[table] = {"rows": len(rows), "sha256": _sha256(body)}
    return digests


def build_run_card(*, report, campaign, engine, jobs, fidelity,
                   command=None, environment=None, wall_s=None):
    """Assemble the run-card dict for one finished campaign run.

    *report* is the :class:`CampaignReport`, *campaign* the
    :class:`ObservationCampaign` that ran.  *command* defaults to this
    process's argv; *environment* to the ``REPRO_*`` variables that
    influence execution.  The result is JSON-ready (sorted keys give
    the canonical form via :func:`canonical_json`).
    """
    if command is None:
        command = list(sys.argv)
    if environment is None:
        environment = {key: value for key, value in os.environ.items()
                       if key.startswith("REPRO_")}
    card = {
        "version": RUN_CARD_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "command": command,
        "engine": engine,
        "runtime": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
        "environment": environment,
        "parameters": {
            "node_count": campaign.node_count,
            "jobs": jobs,
            "fidelity": fidelity,
            "experiments": sorted(report.by_experiment),
            "scenarios": sorted({
                experiment.scenario
                for experiment in campaign.spec.experiments
                if experiment.scenario}),
            "fault_plan": campaign.fault_plan is not None,
            "retry_policy": campaign.retry_policy is not None,
        },
        "inputs": {
            "tbl_sha256": _sha256(campaign.tbl_text),
            "mof_sha256": _sha256(campaign.mof_text),
        },
        "results": {
            "trials": report.trials,
            "completed": report.completed,
            "dnf": report.dnf,
            "skipped": report.skipped,
            "retried": report.retried,
        },
        "cache_stats": report.cache_stats,
        "tables": table_digests(report.database),
    }
    if wall_s is not None:
        card["wall_s"] = round(wall_s, 3)
    return card


def canonical_json(card):
    """The card's canonical serialized form (sorted keys, stable)."""
    return json.dumps(card, sort_keys=True, indent=2)


def export_run_card(card, database_path):
    """Write the card beside a file-backed database.

    ``campaign.sqlite`` gets ``campaign.sqlite.run_card.json``; in-
    memory databases (``:memory:``/None) export nowhere and return
    ``None``.  Returns the path written.
    """
    if database_path in (None, ":memory:"):
        return None
    path = pathlib.Path(str(database_path) + RUN_CARD_SUFFIX)
    path.write_text(canonical_json(card) + "\n")
    return path


def verify_run_card(card, database):
    """Mismatch list between a card's table digests and *database*.

    Empty means the database still contains byte-for-byte what the
    card certified — the check ``repro card --verify`` and the
    re-derivation tests run.
    """
    problems = []
    current = table_digests(database)
    for table, recorded in card.get("tables", {}).items():
        actual = current.get(table)
        if actual != recorded:
            problems.append(
                f"{table}: card records {recorded}, database has {actual}"
            )
    return problems


# -- preflight ----------------------------------------------------------

#: ``REPRO_SHELLVM`` values the engine selector understands; anything
#: else silently resolves to the compiled default, which is exactly the
#: misconfiguration preflight exists to surface.
KNOWN_ENGINE_VALUES = ("", "interp", "interpreter", "compiled")


def preflight(*, jobs=1, database_path=None):
    """Cheap pre-run checks; returns a list of problem strings.

    Fatal misconfigurations (bad jobs, unwritable database directory)
    and silent ones (a mistyped engine selector) are caught before the
    first trial runs.  Spec validation warnings and the node budget are
    not checked here — the campaign's constructor does both.
    """
    problems = []
    if not isinstance(jobs, int) or jobs < 1:
        problems.append(f"jobs must be a positive integer, got {jobs!r}")
    engine = os.environ.get("REPRO_SHELLVM", "").strip().lower()
    if engine not in KNOWN_ENGINE_VALUES:
        problems.append(
            f"REPRO_SHELLVM={engine!r} is not a known engine "
            f"(interp/compiled); the selector would silently fall back "
            f"to the compiled engine"
        )
    if database_path not in (None, ":memory:"):
        parent = pathlib.Path(database_path).resolve().parent
        if not parent.is_dir():
            problems.append(
                f"database directory does not exist: {parent}"
            )
        elif not os.access(parent, os.W_OK):
            problems.append(
                f"database directory is not writable: {parent}"
            )
    return problems
