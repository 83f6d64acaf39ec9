"""The traced run's per-layer ledger, measured from outside ``src/``.

Two sources of spans feed one tree per campaign:

* the trial tree the program already records through
  :class:`repro.obs.Tracer` (trial -> allocate, generate, deploy,
  verify, simulate, collect, analyze, teardown, with ``script`` spans
  nested wherever the shell runs), and
* spans this module opens around the public entry points of the layers
  outside that tree (:func:`entry_points`), on the same tracer, so the
  trial trees nest under the campaign span that ran them.

A layer's self time is its spans' durations minus their children's.
Nested ``script`` spans map to the same layer, so a script's time is
counted once, by its outermost span.  Spans opened on other threads
(the daemon's controller) form root trees of their own; they are
attributed to the campaign that was running when they closed.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict

from repro import provenance
from repro.core import campaign as core_campaign
from repro.experiments.runner import ExperimentRunner
from repro.obs import Tracer
from repro.planner.loop import AdaptivePlanner
from repro.results.database import ResultsDatabase
from repro.service import controller as service_controller
from repro.service.client import CampaignClient
from repro.service.fleet import FleetLease
from repro.sim import analytic

#: Span name -> layer.  Names not listed inherit their parent's layer;
#: the benchmark's own per-campaign root maps to ``untraced``.
SPAN_LAYERS = {
    # entry points wrapped by this module
    "spec.parse": "spec",
    "campaign.init": "core",
    "campaign.preflight": "core",
    "campaign.run": "core",
    "results.ingest": "results.ingest",
    "results.merge": "results.merge",
    "provenance.run_card": "provenance",
    "provenance.digests": "provenance",
    "planner.propose": "planner",
    "analytic.solve": "analytic",
    "service.submit": "service",
    "service.wait": "service",
    "service.finalize": "service",
    "fleet.run": "fleet",
    "runner.task": "runner",
    # the program's own trial tree
    "trial": "experiments",
    "allocate": "vcluster",
    "generate": "generator",
    "deploy": "deploy",
    "verify": "deploy",
    "teardown": "teardown",
    "script": "shellvm",
    "simulate": "sim",
    "sim.run": "sim",
    "collect": "monitoring.collect",
    "collect.parse": "monitoring.collect",
    "analyze": "monitoring.analyze",
}

#: Root span the benchmark opens around one timed campaign.
CAMPAIGN_ROOT = "bench.campaign"

#: The experiment apparatus: every trial layer except the simulator.
APPARATUS = ("experiments", "vcluster", "generator", "deploy", "teardown",
             "shellvm", "monitoring.collect", "monitoring.analyze")

#: The hot-path caches whose hit rates the ledger reports.
CACHES = ("generator.bundle", "generator.chassis", "shellvm.parse",
          "shellvm.compile", "vcluster.extract", "vcluster.archive",
          "vcluster.unarchive")


def entry_points():
    """``(owner, attribute, span name)`` of every wrapped entry point."""
    return (
        (core_campaign, "parse_tbl", "spec.parse"),
        (core_campaign.ObservationCampaign, "__init__", "campaign.init"),
        (core_campaign.ObservationCampaign, "_preflight",
         "campaign.preflight"),
        (core_campaign.ObservationCampaign, "run", "campaign.run"),
        (core_campaign.ObservationCampaign, "run_adaptive",
         "campaign.run"),
        (core_campaign.ObservationCampaign, "_record_run_card",
         "provenance.run_card"),
        (provenance, "table_digests", "provenance.digests"),
        (ResultsDatabase, "insert_many", "results.ingest"),
        (service_controller, "merge_shards", "results.merge"),
        (analytic, "solve_model", "analytic.solve"),
        (CampaignClient, "submit", "service.submit"),
        (CampaignClient, "wait", "service.wait"),
        (service_controller.CampaignController, "_finalize",
         "service.finalize"),
        (FleetLease, "run_tasks", "fleet.run"),
        (ExperimentRunner, "run_task", "runner.task"),
    )


class _TracedPolicy:
    """A planner policy whose ``propose`` runs inside a span."""

    def __init__(self, policy, traced):
        self._policy = policy
        self._propose = traced(lambda frontier: list(policy.propose(
            frontier)), "planner.propose")

    @property
    def name(self):
        return self._policy.name

    def propose(self, frontier):
        return self._propose(frontier)


class Ledger:
    """Installs the entry-point spans and collects the span trees."""

    def __init__(self):
        self.tracer = Tracer()
        self._lock = threading.Lock()
        self._roots = []
        self._undo = []

    # -- instrumentation ---------------------------------------------------

    def traced(self, function, name):
        """*function* wrapped in a span named *name*."""
        tracer = self.tracer

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = None
            try:
                with tracer.span(name) as span:
                    return function(*args, **kwargs)
            finally:
                if span is not None and tracer.current() is None:
                    with self._lock:
                        self._roots.append(span)
        return wrapper

    def install(self):
        for owner, attribute, name in entry_points():
            self._patch(owner, attribute,
                        self.traced(getattr(owner, attribute), name))
        planner_init = AdaptivePlanner.__init__
        traced = self.traced

        def init(planner, *args, **kwargs):
            planner_init(planner, *args, **kwargs)
            planner.policy = _TracedPolicy(planner.policy, traced)

        self._patch(AdaptivePlanner, "__init__", init)
        return self

    def uninstall(self):
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute, replacement):
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def campaign(self, run):
        """Run *run()* under the benchmark's per-campaign root span."""
        return self.traced(run, CAMPAIGN_ROOT)()

    def take(self):
        """Every root span closed since the last call."""
        with self._lock:
            roots, self._roots = self._roots, []
        return roots


class Tally:
    """Self time per layer plus the counts the per-layer metrics need."""

    def __init__(self):
        self.self_s = defaultdict(float)     # layer -> self seconds
        self.span_s = defaultdict(float)     # span name -> seconds
        self.spans = defaultdict(int)        # span name -> occurrences
        self.events = 0
        self.requests = 0
        self.bytes = 0

    def add(self, roots):
        for root in roots:
            self._walk(root, "untraced", False)

    def _walk(self, span, layer, analytic_trial):
        name = span.name
        if name == "trial":
            analytic_trial = span.attributes.get("fidelity") == "analytic"
        layer = SPAN_LAYERS.get(name, layer)
        if analytic_trial and layer == "sim":
            layer = "analytic"
        self.self_s[layer] += span.duration - sum(
            child.duration for child in span.children)
        self.span_s[name] += span.duration
        self.spans[name] += 1
        if name == "simulate" and not analytic_trial:
            self.events += span.attributes.get("sim_events", 0)
            self.requests += span.attributes.get("requests", 0)
        elif name == "collect":
            self.bytes += span.attributes.get("bytes", 0)
        for child in span.children:
            self._walk(child, layer, analytic_trial)


def _per(total, count, scale=1.0):
    return total * scale / count if count else 0.0


def hit_rates(counts):
    """``{cache: hits / lookups}`` from ``{cache: {hits, misses}}``."""
    rates = {}
    for cache in CACHES:
        hits = counts.get(cache, {}).get("hits", 0)
        misses = counts.get(cache, {}).get("misses", 0)
        rates[cache] = _per(hits, hits + misses)
    return rates


def layer_metrics(tally, *, wall_s, campaigns, explorations,
                  planner_rounds, trials_run, rows_per_trial, hit_rate,
                  trace_overhead):
    """The per-layer metrics (name -> (value, unit)) of a traced run.

    *wall_s* is the summed wall time of the traced campaigns,
    *trials_run* the trials they delivered, *rows_per_trial* the
    result-table rows an untraced round stored per trial, and
    *hit_rate* the cache hit rates over the timed rounds.
    """
    trials = tally.spans["trial"]
    self_s = tally.self_s
    ms = 1000.0
    fixed = (tally.span_s["campaign.init"]
             + tally.span_s["campaign.preflight"]
             + tally.span_s["provenance.run_card"])
    # Time spent running trials, on whichever thread ran them.
    running = tally.span_s["runner.task"]
    metrics = {
        "spec.parse_ms": (_per(self_s["spec"], campaigns, ms), "ms"),
        "campaign.fixed_ms": (_per(fixed, campaigns, ms), "ms"),
        "core.ms_per_trial": (_per(self_s["core"], trials_run, ms), "ms"),
        "generator.ms_per_trial": (_per(self_s["generator"], trials, ms),
                                   "ms"),
        "deploy.ms_per_trial": (_per(self_s["deploy"], trials, ms), "ms"),
        "teardown.ms_per_trial": (_per(self_s["teardown"], trials, ms),
                                  "ms"),
        "shellvm.script_ms_per_trial": (_per(self_s["shellvm"], trials,
                                             ms), "ms"),
        "vcluster.allocate_ms_per_trial": (_per(self_s["vcluster"],
                                                trials, ms), "ms"),
        "experiments.trial_self_ms": (_per(self_s["experiments"], trials,
                                           ms), "ms"),
        "sim.ms_per_trial": (_per(self_s["sim"], trials, ms), "ms"),
        "sim.us_per_event": (_per(self_s["sim"], tally.events, 1e6), "us"),
        "sim.events_per_trial": (_per(tally.events, trials), "count"),
        "sim.requests_per_trial": (_per(tally.requests, trials), "count"),
        "monitoring.collect_ms_per_trial": (
            _per(self_s["monitoring.collect"], trials, ms), "ms"),
        "monitoring.analyze_ms_per_trial": (
            _per(self_s["monitoring.analyze"], trials, ms), "ms"),
        "monitoring.bytes_per_trial": (_per(tally.bytes, trials), "B"),
        "analytic.solve_us": (_per(tally.span_s["analytic.solve"],
                                   tally.spans["analytic.solve"], 1e6),
                              "us"),
        "results.ingest_ms_per_trial": (_per(self_s["results.ingest"],
                                             trials_run, ms), "ms"),
        "results.rows_per_trial": (rows_per_trial, "count"),
        "results.merge_ms": (_per(tally.span_s["results.merge"], campaigns,
                                  ms), "ms"),
        "planner.propose_ms_per_round": (
            _per(tally.span_s["planner.propose"],
                 tally.spans["planner.propose"], ms), "ms"),
        "planner.rounds": (_per(planner_rounds, explorations), "count"),
        "planner.trials_per_exploration": (
            _per(trials_run, explorations), "count"),
        "provenance.run_card_ms": (_per(tally.span_s["provenance.run_card"],
                                        campaigns, ms), "ms"),
        "service.overhead_ms": (
            _per(wall_s - running, campaigns, ms)
            if tally.spans["fleet.run"] else 0.0, "ms"),
        "ledger.untraced_share": (_per(self_s["untraced"], wall_s), "ratio"),
        "ledger.trace_overhead": (trace_overhead, "ratio"),
        "ledger.apparatus_share": (
            _per(sum(self_s[layer] for layer in APPARATUS), wall_s),
            "ratio"),
        "ledger.sim_share": (_per(self_s["sim"], wall_s), "ratio"),
        "ledger.fixed_share": (_per(wall_s - running, wall_s), "ratio"),
    }
    for cache in CACHES:
        metrics[f"{cache}.hit_rate"] = (hit_rate[cache], "ratio")
    return metrics
