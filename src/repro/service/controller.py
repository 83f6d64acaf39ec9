"""The campaign controller: campaigns as schedulable service units.

A :class:`CampaignController` is the daemon's brain.  It accepts
campaign submissions (fixed-grid or adaptive), runs each accepted
campaign on the shared :class:`~repro.service.fleet.WorkerFleet` under
its own tenant id, lands every campaign's rows in a private shard
database, and — on completion — verifies the shard and publishes it by
rename as the campaign's final database, byte-identical to what a
sequential CLI run of the same spec would have produced.

Lifecycle of one campaign::

    submit -> running -> done
                  |         (cancel)    -> cancelled --+
                  |         (trial err) -> failed   ---+-> resume
                  |                                        |
                  +-- shard checkpoints every delivered trial
                      (kill the daemon; the shard survives; a
                       resubmit with resume finds it) <----+

Backpressure is explicit: more than *max_active* campaigns in flight
and ``submit`` raises :class:`~repro.errors.ServiceBusy` instead of
queueing unboundedly — the client retries when a slot frees.
"""

from __future__ import annotations

import os
import threading

from repro.core.campaign import ObservationCampaign
from repro.errors import (
    CampaignCancelled,
    ResultsError,
    ServiceBusy,
    ServiceError,
)
from repro.obs.tracer import as_tracer
from repro.provenance import RUN_CARD_SUFFIX
from repro.results.database import ResultsDatabase, merge_shards, shard_path
from repro.service.aggregate import StreamingAggregator
from repro.service.fleet import WorkerFleet
from repro.sim import DES

#: The states a campaign record moves through.
RUNNING = "running"
DONE = "done"
CANCELLED = "cancelled"
FAILED = "failed"
CAMPAIGN_STATES = (RUNNING, DONE, CANCELLED, FAILED)
_TERMINAL = (DONE, CANCELLED, FAILED)


class CampaignRecord:
    """One campaign the controller has accepted — its submission
    parameters, its live state, and its outcome."""

    def __init__(self, campaign_id, submission):
        self.campaign_id = campaign_id
        self.submission = submission      # the submit() kwargs, verbatim
        self.state = RUNNING
        self.error = None
        self.summary = None               # CampaignReport.summary()
        self.trials = 0
        self.skipped = 0
        self.cache_stats = {}
        self.cancel_requested = False
        self.thread = None

    @property
    def db_path(self):
        return self.submission["db_path"]

    def to_dict(self):
        """The record as the status API serves it."""
        sub = self.submission
        return {
            "id": self.campaign_id,
            "kind": sub["kind"],
            "state": self.state,
            "db_path": sub["db_path"],
            "jobs": sub.get("jobs"),
            "policy": sub.get("policy"),
            "resume": sub.get("resume", False),
            "fidelity": sub.get("fidelity"),
            "trials": self.trials,
            "skipped": self.skipped,
            "summary": self.summary,
            "error": self.error,
            "cache_stats": self.cache_stats,
        }


class CampaignController:
    """Runs submitted campaigns on one shared fleet, one shard each."""

    def __init__(self, *, jobs=4, max_active=8, tracer=None,
                 aggregator=None):
        self.fleet = WorkerFleet(jobs=jobs, tracer=tracer)
        self.aggregator = aggregator if aggregator is not None \
            else StreamingAggregator()
        self.tracer = as_tracer(tracer)
        self.max_active = max_active
        self._lock = threading.Condition()
        self._records = {}               # campaign_id -> CampaignRecord
        self._next_id = 1
        self._closed = False

    # -- the service API ---------------------------------------------------

    def submit(self, tbl_text=None, *, db_path, mof_text=None,
               node_count=36, jobs=1, experiments=None, policy=None,
               budget=None, experiment=None, faults=None, retry=None,
               resume=False, tracer=None, fidelity=None):
        """Accept a campaign; returns its campaign id immediately.

        *db_path* is where the final database lands (required — a
        daemon's output must outlive it).  *jobs* is the campaign's
        worker ceiling on the shared fleet, not a private pool size.
        *policy* switches the campaign to an adaptive exploration
        (with optional *budget* and target *experiment*); without it
        the fixed grid (optionally restricted to *experiments*) runs.
        *fidelity* picks the campaign's solver tier (``"des"``,
        ``"analytic"``, or ``"auto"`` for tiered explorations); a
        resume with ``fidelity=None`` recovers the tier from the
        checkpoint's ``campaign_meta``.  Analytic trials run on the
        fleet's fast lane, so they never queue behind DES work.

        ``resume=True`` continues from whatever checkpoint exists: a
        leftover shard from a killed daemon, or the database an earlier
        run published at *db_path*.  *tbl_text* may then
        be ``None`` — the identity is recovered from the checkpoint's
        ``campaign_meta``.

        Raises :class:`ServiceBusy` when *max_active* campaigns are
        already in flight.
        """
        submission = {
            "kind": "campaign",
            "tbl_text": tbl_text, "db_path": os.fspath(db_path),
            "mof_text": mof_text, "node_count": node_count, "jobs": jobs,
            "experiments": experiments, "policy": policy, "budget": budget,
            "experiment": experiment, "faults": faults, "retry": retry,
            "resume": resume, "tracer": tracer, "fidelity": fidelity,
        }
        if tbl_text is None and not resume:
            raise ServiceError(
                "submit needs tbl_text (or resume=True with a "
                "checkpointed db_path)")
        return self._admit(submission)

    def status(self, campaign_id=None):
        """One campaign's record, or the whole service's state."""
        with self._lock:
            if campaign_id is not None:
                return self._record(campaign_id).to_dict()
            campaigns = {cid: record.to_dict()
                         for cid, record in self._records.items()}
        return {
            "campaigns": campaigns,
            "fleet": self.fleet.stats(),
            "aggregate": self.aggregator.snapshot(),
        }

    def cancel(self, campaign_id):
        """Stop a running campaign; its shard keeps every delivered
        trial, so a later ``resume`` finishes exactly the rest."""
        with self._lock:
            record = self._record(campaign_id)
            record.cancel_requested = True
        self.fleet.cancel(campaign_id)
        self.tracer.count("service.campaigns_cancelled", 1)

    def resume(self, campaign_id=None, *, db_path=None, jobs=None):
        """Restart an interrupted campaign; returns the campaign id.

        Two forms: *campaign_id* resumes a cancelled/failed record this
        controller still holds (same id, same parameters); *db_path*
        resumes from a checkpoint on disk — the killed-daemon path,
        where no record survives and the campaign's identity comes from
        the shard's (or final database's) ``campaign_meta``.
        """
        if campaign_id is not None:
            with self._lock:
                record = self._record(campaign_id)
                if record.state not in (CANCELLED, FAILED):
                    raise ServiceError(
                        f"campaign {campaign_id!r} is {record.state}; "
                        f"only cancelled or failed campaigns resume")
                if self._closed:
                    raise ServiceError("controller is shut down")
                record.submission = dict(record.submission, resume=True)
                if jobs is not None:
                    record.submission["jobs"] = jobs
                record.state = RUNNING
                record.error = None
                record.cancel_requested = False
                self._start(record)
            self.tracer.count("service.campaigns_resumed", 1)
            return campaign_id
        if db_path is None:
            raise ServiceError("resume needs a campaign_id or a db_path")
        return self.submit(db_path=db_path, resume=True,
                           jobs=jobs if jobs is not None else 1)

    def heal(self, campaign_id=None, *, db_path=None, budget=None,
             rounds=None, target=None, experiment=None, tracer=None):
        """Diagnose and auto-remediate a campaign database in place.

        Two forms mirror :meth:`resume`: *campaign_id* heals a campaign
        this controller ran (waiting for it to reach ``done`` first, so
        a running campaign that trips a diagnosis can queue its own
        heal); *db_path* heals any campaign database on disk.  Returns
        the heal's record id immediately — :meth:`wait` on it like any
        campaign.  *budget*/*rounds*/*target*/*experiment* pass through
        to :func:`repro.remedy.heal_campaign`.
        """
        after = None
        if campaign_id is not None:
            with self._lock:
                db_path = self._record(campaign_id).db_path
            after = campaign_id
        if db_path is None:
            raise ServiceError("heal needs a campaign_id or a db_path")
        submission = {
            "kind": "heal", "after": after,
            "db_path": os.fspath(db_path), "budget": budget,
            "rounds": rounds, "target": target,
            "experiment": experiment, "tracer": tracer,
        }
        return self._admit(submission)

    def wait(self, campaign_id, timeout=None):
        """Block until the campaign reaches a terminal state; returns
        its record dict.  ``None`` on timeout."""
        with self._lock:
            record = self._record(campaign_id)
            while record.state not in _TERMINAL:
                if not self._lock.wait(timeout=timeout):
                    return None
            return record.to_dict()

    def shutdown(self, *, abort=False):
        """Stop the controller.  Graceful (default) waits for running
        campaigns to finish; ``abort=True`` is the kill switch — queued
        trials are dropped and every running campaign is left as a
        shard checkpoint a resume will complete."""
        with self._lock:
            self._closed = True
            threads = [r.thread for r in self._records.values()
                       if r.thread is not None and r.thread.is_alive()]
            if abort:
                for record in self._records.values():
                    if record.state == RUNNING:
                        record.cancel_requested = True
        if abort:
            for record in list(self._records.values()):
                self.fleet.cancel(record.campaign_id)
        for thread in threads:
            thread.join(timeout=30)
        self.fleet.close()

    # -- execution ---------------------------------------------------------

    def _admit(self, submission):
        """Admit a campaign or heal submission and start its thread;
        returns its id.  Raises :class:`ServiceBusy` once *max_active*
        records are running."""
        kind = submission["kind"]
        with self._lock:
            if self._closed:
                raise ServiceError("controller is shut down")
            active = sum(1 for r in self._records.values()
                         if r.state == RUNNING)
            if active >= self.max_active:
                raise ServiceBusy(
                    f"{active} campaign(s) already in flight "
                    f"(max_active={self.max_active}); retry when one "
                    f"finishes")
            record = CampaignRecord(f"{kind[0]}{self._next_id:03d}",
                                    submission)
            self._next_id += 1
            self._records[record.campaign_id] = record
            self._start(record)
        self.tracer.count(f"service.{kind}s_submitted", 1)
        return record.campaign_id

    def _start(self, record):
        """Start *record*'s controller thread (caller holds the lock)."""
        kind = record.submission["kind"]
        target = self._run_heal if kind == "heal" else self._run_campaign
        record.thread = threading.Thread(
            target=target, args=(record,),
            name=f"{kind}-{record.campaign_id}", daemon=True)
        record.thread.start()

    def _record(self, campaign_id):
        record = self._records.get(campaign_id)
        if record is None:
            raise ServiceError(f"unknown campaign {campaign_id!r}")
        return record

    def _run_campaign(self, record):
        """One campaign's controller thread: shard, lease, run, publish."""
        sub = record.submission
        cid = record.campaign_id
        shard = None
        lease = None
        try:
            shard = self._open_shard(sub)
            campaign = self._build_campaign(sub, shard, cid)
            lease = self.fleet.attach(cid, campaign.runner.clone,
                                      ceiling=sub["jobs"])
            with self._lock:
                if record.cancel_requested:
                    lease.cancel()
            report = self._execute(campaign, sub, lease,
                                   self.aggregator.tap(cid))
            self._finalize(record, shard, report)
            shard = None                 # _finalize closed and published it
        except CampaignCancelled as error:
            self._settle(record, CANCELLED, str(error))
        except Exception as error:       # noqa: BLE001 — the record is
            # the daemon's error channel; nothing above this frame.
            self._settle(record, FAILED, f"{type(error).__name__}: {error}")
        finally:
            if lease is not None:
                lease.close()
            if shard is not None:
                shard.close()

    def _open_shard(self, sub):
        """The campaign's private shard database, next to its final
        path.  A resume picks up a leftover shard; a resume with no
        shard (the campaign was already published) seeds a fresh shard
        from the final database."""
        path = shard_path(sub["db_path"])
        if sub["resume"] and not os.path.exists(path):
            if not os.path.exists(sub["db_path"]):
                raise ServiceError(
                    f"nothing to resume: neither {path} nor "
                    f"{sub['db_path']} exists")
            merge_shards([sub["db_path"]], path).close()
        return ResultsDatabase(path)

    def _build_campaign(self, sub, shard, cid):
        tracer = sub.get("tracer")
        if sub["tbl_text"] is None:
            return ObservationCampaign.from_database(shard, tracer=tracer,
                                                     tenant=cid)
        return ObservationCampaign(
            sub["tbl_text"], mof_text=sub["mof_text"], database=shard,
            node_count=sub["node_count"], tbl_source=f"<submit {cid}>",
            tracer=tracer, faults=sub["faults"], retry=sub["retry"],
            tenant=cid)

    def _execute(self, campaign, sub, lease, tap):
        """Dispatch to the right run loop.  A resume goes through
        :meth:`ObservationCampaign.resume`, which recovers whatever the
        submission leaves unset from the checkpoint meta."""
        run_kwargs = {"executor": lease, "on_result": tap}
        if sub["resume"]:
            return campaign.resume(
                sub["experiments"], policy=sub["policy"],
                budget=sub["budget"], experiment=sub["experiment"],
                fidelity=sub["fidelity"], **run_kwargs)
        fidelity = sub["fidelity"] or DES
        if sub["policy"] is not None:
            return campaign.run_adaptive(
                sub["policy"], experiment_name=sub["experiment"],
                budget=sub["budget"], fidelity=fidelity, **run_kwargs)
        return campaign.run(sub["experiments"], fidelity=fidelity,
                            **run_kwargs)

    def _finalize(self, record, shard, report):
        """Verify the shard, close it and publish it by rename: it holds
        exactly what a CLI run writes, so ``os.replace`` moves it (run
        card first) onto the final path, atomically replacing any
        earlier database there."""
        problems = shard.integrity_check()
        shard.close()
        if problems:
            raise ResultsError(
                f"campaign shard failed integrity check: "
                f"{'; '.join(problems)}")
        for suffix in (RUN_CARD_SUFFIX, ""):
            os.replace(shard.path + suffix, record.db_path + suffix)
        with self._lock:
            record.state = DONE
            record.summary = report.summary()
            record.trials = report.trials
            record.skipped = report.skipped
            record.cache_stats = report.cache_stats
            self._lock.notify_all()
        self.tracer.count("service.campaigns_done", 1)

    def _run_heal(self, record):
        """One heal's controller thread.

        Heals are not fleet tenants: the remediation loop runs directly
        against the final database on the controller thread, exactly
        like a CLI ``repro heal`` — so the fleet's fair-share
        plane never sees shadow trials, and the heal's byte-identity
        contract is the pipeline's own.
        """
        from repro.remedy import heal_campaign

        sub = record.submission
        database = None
        try:
            if sub["after"] is not None:
                finished = self.wait(sub["after"])
                if finished["state"] != DONE:
                    raise ServiceError(
                        f"campaign {sub['after']!r} finished "
                        f"{finished['state']}; heal needs a completed "
                        f"database (resume it first)")
            if not os.path.exists(sub["db_path"]):
                raise ServiceError(
                    f"no campaign database at {sub['db_path']}")
            database = ResultsDatabase(sub["db_path"])
            report = heal_campaign(
                database, budget=sub["budget"], rounds=sub["rounds"],
                target=sub["target"], experiment=sub["experiment"],
                tracer=sub.get("tracer"))
            problems = database.integrity_check()
            if problems:
                raise ResultsError(
                    f"healed database failed integrity check: "
                    f"{'; '.join(problems)}")
            with self._lock:
                record.state = DONE
                record.summary = report.describe()
                record.trials = report.trials
                record.skipped = report.reused
                self._lock.notify_all()
            self.tracer.count("service.heals_done", 1)
        except Exception as error:       # noqa: BLE001 — the record is
            # the daemon's error channel; nothing above this frame.
            self._settle(record, FAILED, f"{type(error).__name__}: {error}")
        finally:
            if database is not None:
                database.close()

    def _settle(self, record, state, error):
        with self._lock:
            record.state = state
            record.error = error
            self._lock.notify_all()
        self.tracer.count(f"service.campaigns_{state}", 1)
