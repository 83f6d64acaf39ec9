"""The benchmark's four workloads: what one timed round runs.

Every workload is a closed loop with one caller: the next campaign
starts only after the previous one settled, and campaigns run at
``jobs=1`` (the daemon gets a one-worker fleet and one client).  A
round is a fixed list of campaigns; the workload seed is substituted
into every TBL ``seed`` setting, so the same seed replays the same
trials and every round of a run does identical work.

Each campaign carries the counts it must produce (trials, completed,
DNF).  They were chosen so that no point sits on a knee where a seed
could flip a trial between completed and DNF.
"""

from __future__ import annotations

import dataclasses
import os
import sqlite3
import time

from repro import provenance, run_adaptive, run_campaign
from repro.results import database as database_module
from repro.results.database import ResultsDatabase
from repro.service import CampaignClient, ServiceDaemon

#: Captured before the ledger wraps it, so the output checks never
#: show up as provenance time in the traced run.
_table_digests = provenance.table_digests

#: The TBL header/trial shapes of the DES workloads.
_LIGHT_TRIAL = "trial { warmup 1s; run 2s; cooldown 1s; }"
_LONG_TRIAL = "trial { warmup 2s; run 20s; cooldown 1s; }"


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """One campaign of a round, with the counts it must produce."""

    label: str
    tbl: str            # TBL text with a ``{seed}`` placeholder
    trials: int
    completed: int
    adaptive: bool = False

    @property
    def dnf(self):
        return self.trials - self.completed

    def text(self, seed):
        return self.tbl.replace("{seed}", str(seed))


def campaign_seed(seed, index):
    """The TBL seed of a round's *index*-th campaign.

    Trials sharing a seed share their random streams, so one seed for
    a whole round would make every campaign equally lucky or unlucky;
    distinct seeds (spaced past any ``repetitions`` offsets) average
    that out within a round.
    """
    return seed * 1000 + index * 10


@dataclasses.dataclass
class CampaignRun:
    """What one campaign of one round produced."""

    spec: CampaignSpec
    wall_s: float
    deliveries: list         # perf_counter() of each on_result, in order
    started: float
    trials: int
    completed: int
    dnf: int
    failed_trials: int       # trials that had a failed attempt
    settled: bool            # the campaign reached ``done``
    digests: dict
    problems: list           # integrity_check() findings
    planner_rounds: int
    roots: list = dataclasses.field(default_factory=list)  # traced spans


def _des(label, benchmark, topology, workload, write_ratio, trial,
         trials, completed, repetitions=1):
    tbl = (f'benchmark {benchmark}; platform emulab;\n'
           f'experiment "{label}" {{\n'
           f'    topology {topology};\n'
           f'    workload {workload};\n'
           f'    write_ratio {write_ratio};\n'
           f'    seed {{seed}};\n'
           f'    repetitions {repetitions};\n'
           f'    {trial}\n'
           f'}}\n')
    return CampaignSpec(label, tbl, trials, completed)


def _explore(label, benchmark, topologies, trials, completed):
    tbl = (f'benchmark {benchmark}; platform emulab;\n'
           f'experiment "{label}" {{\n'
           f'    topology {topologies};\n'
           f'    workload 50 to 4000 step 50;\n'
           f'    write_ratio 0%, 15%, 30%;\n'
           f'    seed {{seed}};\n'
           f'}}\n')
    return CampaignSpec(label, tbl, trials, completed, adaptive=True)


class Workload:
    """A named list of campaigns making up one round."""

    name = ""
    #: Rough seconds one warm round takes on a 2-vCPU host; sets how
    #: many rounds fill the run's ``--seconds``.
    nominal_round_s = 1.0

    def __init__(self, size=1):
        # *size* < 1 keeps a prefix of the round (the self-test).
        campaigns = self.campaigns()
        keep = max(1, int(round(len(campaigns) * size)))
        self.round = campaigns[:keep]

    def campaigns(self):
        raise NotImplementedError

    def start(self, workdir):
        """Prepare what the rounds share (the daemon)."""
        self.workdir = workdir

    def close(self):
        """Stop whatever :meth:`start` started."""

    def cross_check(self, seed, reference):
        """Problems found by checks beyond the per-round ones."""
        return []

    def run_round(self, seed, tag, ledger=None):
        """Run every campaign of one round in order.

        With a *ledger*, each campaign's timed part runs under the
        ledger's root span and records spans on its tracer, and each
        run carries the root spans it produced.
        """
        runs = []
        for i, spec in enumerate(self.round):
            run = self.run_campaign(spec, campaign_seed(seed, i),
                                    f"{tag}-{i}", ledger)
            if ledger is not None:
                run.roots = ledger.take()
            runs.append(run)
        return runs

    def run_campaign(self, spec, seed, tag, ledger):
        deliveries = []
        results = []
        tracer = ledger.tracer if ledger is not None else None

        def on_result(result):
            deliveries.append(time.perf_counter())
            results.append(result)

        def timed():
            if spec.adaptive:
                return run_adaptive(spec.text(seed), policy="knee",
                                    fidelity="analytic", database=database,
                                    tracer=tracer, on_result=on_result)
            return run_campaign(spec.text(seed), database=database,
                                tracer=tracer, on_result=on_result)

        database = ResultsDatabase()
        try:
            started = time.perf_counter()
            report = _call(ledger, timed)
            wall_s = time.perf_counter() - started
            return _finish(spec, wall_s, started, deliveries, results,
                           report.rounds, database, settled=True)
        finally:
            database.close()


def _call(ledger, timed):
    """``timed()``, under the ledger's per-campaign span if tracing."""
    return ledger.campaign(timed) if ledger is not None else timed()


def _finish(spec, wall_s, started, deliveries, results, planner_rounds,
            database, *, settled):
    return CampaignRun(
        spec=spec, wall_s=wall_s, started=started, deliveries=deliveries,
        trials=len(results),
        completed=sum(1 for r in results if r.completed),
        dnf=sum(1 for r in results if not r.completed),
        failed_trials=sum(1 for r in results if r.failures),
        settled=settled,
        digests=_table_digests(database),
        problems=database.integrity_check(),
        planner_rounds=planner_rounds,
    )


class DesApparatus(Workload):
    """Many short, lightly loaded RUBiS trials: the apparatus layers
    (allocate, generate, deploy, collect, teardown) and the hot-path
    caches own the clock; simulate is a minor share."""

    name = "des-apparatus"
    nominal_round_s = 0.35

    def campaigns(self):
        return [_des(f"apparatus-{topology}", "rubis", topology,
                     "10, 20, 30", ratio, _LIGHT_TRIAL, trials=9,
                     completed=9, repetitions=3)
                for topology, ratio in (
                    ("1-1-1", "0%"), ("1-2-1", "15%"), ("1-1-2", "30%"),
                    ("1-2-2", "0%"), ("2-2-1", "15%"), ("1-3-1", "30%"))]


class DesSaturation(Workload):
    """A few long trials at and past the knee, one point a campaign:
    the DES simulator owns the clock; the apparatus is a small share.
    RUBiS is app-bound; RUBBoS is DB-bound, with and without writes
    that fan out to a replicated database."""

    name = "des-saturation"
    nominal_round_s = 3.5

    def campaigns(self):
        return [
            _des("sat-rubis-121", "rubis", "1-2-1", "1000", "15%",
                 _LONG_TRIAL, trials=1, completed=0),
            _des("sat-rubis-141", "rubis", "1-4-1", "1800", "15%",
                 _LONG_TRIAL, trials=1, completed=0),
            _des("sat-rubbos-111-r", "rubbos", "1-1-1", "1200", "0%",
                 _LONG_TRIAL, trials=1, completed=1),
            _des("sat-rubbos-111-w", "rubbos", "1-1-1", "1200", "30%",
                 _LONG_TRIAL, trials=1, completed=1),
            _des("sat-rubbos-122-r", "rubbos", "1-2-2", "1600", "0%",
                 _LONG_TRIAL, trials=1, completed=1),
            _des("sat-rubbos-122-w", "rubbos", "1-2-2", "1600", "30%",
                 _LONG_TRIAL, trials=1, completed=1),
        ]


class AnalyticExplore(Workload):
    """Knee-policy explorations on the analytic tier over wide ladders:
    the planner, the analytic solver and results ingest own the clock;
    no shell, deploy or DES work runs at all."""

    name = "analytic-explore"
    nominal_round_s = 0.75

    def campaigns(self):
        return [
            _explore("explore-rubis-a", "rubis",
                     "1-1-1, 1-2-1, 1-4-1, 1-2-2, 2-4-2", 120, 67),
            _explore("explore-rubbos-a", "rubbos",
                     "1-1-1, 1-2-1, 1-1-2, 1-2-2, 1-3-3", 68, 60),
            _explore("explore-rubis-b", "rubis",
                     "1-3-1, 1-6-1, 1-3-2, 2-6-2, 1-8-3", 128, 96),
            _explore("explore-rubbos-b", "rubbos",
                     "1-4-1, 1-2-3, 1-4-4, 2-4-2, 1-3-2", 49, 45),
        ]


class _UnsyncedSqlite:
    """The ``sqlite3`` module, with connections that never fsync."""

    def __getattr__(self, name):
        return getattr(sqlite3, name)

    @staticmethod
    def connect(*args, **kwargs):
        connection = sqlite3.connect(*args, **kwargs)
        connection.execute("PRAGMA synchronous = OFF")
        return connection


class DaemonTurnaround(Workload):
    """Small DES campaigns (three light trials each) submitted one at a
    time to an in-process daemon: per-campaign fixed cost (HTTP, spec
    parse, construction, preflight, shard DB, merge, run card) owns
    about half of the turnaround."""

    name = "daemon-turnaround"
    nominal_round_s = 0.35

    def campaigns(self):
        return [_des(f"daemon-{ratio}", "rubis", "1-1-1", "10, 20, 30",
                     f"{ratio}%", _LIGHT_TRIAL, trials=3, completed=3)
                for ratio in (0, 5, 10, 15, 20, 25, 30, 35)]

    def start(self, workdir):
        super().start(workdir)
        # The databases live in the checkout, on whatever disk holds it.
        # A shared virtual disk's fsync latency moved the turnaround by
        # a third and its tail by half from run to run, so the files
        # are written as on tmpfs: no fsync, same bytes.
        database_module.sqlite3 = _UnsyncedSqlite()
        self.daemon = ServiceDaemon(jobs=1, max_active=1)
        self.client = CampaignClient(self.daemon.start())
        self.stamps = {}
        aggregator = self.daemon.controller.aggregator
        tap = aggregator.tap

        def stamped_tap(campaign_id):
            observe = tap(campaign_id)
            stamps = self.stamps.setdefault(campaign_id, [])

            def on_result(result):
                stamps.append((time.perf_counter(), result))
                observe(result)
            return on_result

        aggregator.tap = stamped_tap

    def close(self):
        daemon = getattr(self, "daemon", None)
        if daemon is not None:
            self.daemon = None
            daemon.stop()
        database_module.sqlite3 = sqlite3

    def cross_check(self, seed, reference):
        """The daemon == CLI contract: each merged database matches a
        direct in-process ``run_campaign`` of the same spec."""
        problems = []
        for i, (spec, digests) in enumerate(zip(self.round, reference)):
            database = ResultsDatabase()
            try:
                run_campaign(spec.text(campaign_seed(seed, i)),
                             database=database)
                if _table_digests(database) != digests:
                    problems.append(f"{spec.label}: daemon database "
                                    f"differs from a direct run")
            finally:
                database.close()
        return problems

    def run_campaign(self, spec, seed, tag, ledger):
        db_path = os.path.join(self.workdir, f"{tag}.sqlite")

        def timed():
            campaign_id = self.client.submit(spec.text(seed),
                                             db_path=db_path)
            return campaign_id, self.client.wait(campaign_id, poll=30)

        started = time.perf_counter()
        campaign_id, record = _call(ledger, timed)
        wall_s = time.perf_counter() - started
        # The controller thread may still be closing the lease after it
        # marked the record done; join it so the next campaign starts
        # on a quiet daemon and the database file is final.
        self.daemon.controller._records[campaign_id].thread.join()
        stamped = self.stamps.pop(campaign_id, [])
        settled = record is not None and record["state"] == "done"
        database = ResultsDatabase(db_path) if settled \
            else ResultsDatabase()
        try:
            return _finish(spec, wall_s, started,
                           [stamp for stamp, _result in stamped],
                           [result for _stamp, result in stamped], 0,
                           database, settled=settled)
        finally:
            database.close()
            for suffix in ("", "-wal", "-shm", ".run_card.json"):
                try:
                    os.unlink(db_path + suffix)
                except FileNotFoundError:
                    pass


WORKLOADS = {w.name: w for w in (DesApparatus, DesSaturation,
                                 AnalyticExplore, DaemonTurnaround)}
