"""The thin client for a running campaign daemon.

A :class:`CampaignClient` speaks the daemon's JSON-over-HTTP control
API (see :mod:`repro.service.http`) with nothing but the stdlib —
``repro submit``/``status``/``cancel`` are this class plus argument
parsing.  Service-side rejections come back as the exceptions the
controller raised: :class:`~repro.errors.ServiceBusy` for
backpressure, :class:`~repro.errors.ServiceError` for the rest, and a
:class:`ServiceError` with the connection failure for an unreachable
daemon.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

from repro.errors import ServiceBusy, ServiceError

#: Longest single server-side block one /wait request asks for.  A
#: wait with no deadline polls in slices of this length, each with a
#: bounded HTTP timeout — so a daemon that dies mid-wait surfaces as
#: a :class:`ServiceError` instead of a request that hangs forever.
WAIT_SLICE_S = 30


class CampaignClient:
    """Submit/status/cancel/resume against a ``repro serve`` daemon."""

    def __init__(self, url="http://127.0.0.1:8642", *, timeout=60):
        self.url = url.rstrip("/")
        self.timeout = timeout

    # -- transport ---------------------------------------------------------

    def _call(self, method, path, body=None, timeout=None):
        request = urllib.request.Request(self.url + path, method=method)
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(
                    request, data=data,
                    timeout=timeout or self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            try:
                payload = json.loads(error.read().decode("utf-8"))
            except (ValueError, OSError):
                payload = {"error": str(error), "kind": "ServiceError"}
            if payload.get("kind") == "ServiceBusy":
                raise ServiceBusy(payload["error"]) from None
            raise ServiceError(payload.get("error", str(error))) from None
        except (urllib.error.URLError, OSError) as error:
            raise ServiceError(
                f"campaign daemon unreachable at {self.url}: "
                f"{getattr(error, 'reason', error)}") from None

    # -- the API -----------------------------------------------------------

    def ping(self):
        """True when a daemon answers at :attr:`url`."""
        try:
            return bool(self._call("GET", "/ping").get("ok"))
        except ServiceError:
            return False

    def submit(self, tbl_text=None, *, db_path, jobs=1, policy=None,
               budget=None, experiment=None, experiments=None,
               mof_text=None, node_count=None, faults=None, retry=None,
               resume=False, fidelity=None):
        """Submit a campaign; returns its campaign id.

        Mirrors :meth:`CampaignController.submit` — *faults* is a
        :class:`~repro.faults.FaultPlan` (or its JSON), *retry* an
        attempt count or policy dict; both cross the wire as JSON.
        *fidelity* picks the campaign's solver tier (``"des"``,
        ``"analytic"``, or ``"auto"`` for tiered explorations).
        """
        body = {"db_path": str(db_path), "jobs": jobs, "resume": resume}
        if tbl_text is not None:
            body["tbl_text"] = tbl_text
        for key, value in (("policy", policy), ("budget", budget),
                           ("experiment", experiment),
                           ("experiments", experiments),
                           ("mof_text", mof_text),
                           ("node_count", node_count), ("retry", retry),
                           ("fidelity", fidelity)):
            if value is not None:
                body[key] = value
        if faults is not None:
            body["faults"] = faults if isinstance(faults, (str, dict)) \
                else faults.to_json()
        return self._call("POST", "/submit", body)["id"]

    def status(self, campaign_id=None):
        """One campaign's record dict, or the whole service state."""
        path = "/status" if campaign_id is None \
            else f"/status?id={campaign_id}"
        return self._call("GET", path)

    def cancel(self, campaign_id):
        self._call("POST", "/cancel", {"id": campaign_id})

    def resume(self, campaign_id=None, *, db_path=None, jobs=None):
        """Resume by live campaign id, or by checkpoint path after the
        daemon was killed; returns the (possibly new) campaign id."""
        body = {}
        if campaign_id is not None:
            body["id"] = campaign_id
        if db_path is not None:
            body["db_path"] = str(db_path)
        if jobs is not None:
            body["jobs"] = jobs
        return self._call("POST", "/resume", body)["id"]

    def wait(self, campaign_id, *, timeout=None, poll=None):
        """Block until the campaign settles; its record dict, or
        ``None`` on timeout.

        The wait is a poll in bounded slices of *poll* seconds
        (default :data:`WAIT_SLICE_S`): each slice is one ``/wait``
        request with a finite HTTP timeout, so ``timeout=None`` means
        "wait for the campaign forever", never "hang forever on a
        dead socket" — a daemon that stops answering raises
        :class:`~repro.errors.ServiceError` within one slice.
        """
        slice_s = poll if poll is not None else WAIT_SLICE_S
        remaining = timeout
        while True:
            ask = slice_s if remaining is None \
                else max(0, min(slice_s, remaining))
            record = self._call("POST", "/wait",
                                {"id": campaign_id, "timeout": ask},
                                timeout=ask + 10)
            if not record.get("timed_out"):
                return record
            if remaining is not None:
                remaining -= ask
                if remaining <= 0:
                    return None

    def heal(self, campaign_id=None, *, db_path=None, budget=None,
             rounds=None, target=None, experiment=None):
        """Auto-remediate a campaign database; returns the heal id.

        Mirrors :meth:`CampaignController.heal`: pass a *campaign_id*
        the daemon ran (the heal waits for it to finish) or a
        *db_path* on disk.  :meth:`wait` on the returned id for the
        heal report summary.
        """
        body = {}
        if campaign_id is not None:
            body["id"] = campaign_id
        if db_path is not None:
            body["db_path"] = str(db_path)
        for key, value in (("budget", budget), ("rounds", rounds),
                           ("target", target),
                           ("experiment", experiment)):
            if value is not None:
                body[key] = value
        return self._call("POST", "/heal", body)["id"]

    def aggregate(self):
        """The streaming aggregator's ``{"report", "snapshot"}``."""
        return self._call("GET", "/aggregate")

    def shutdown(self, *, abort=False):
        """Stop the daemon; graceful by default, ``abort=True`` kills
        (running campaigns survive as shard checkpoints)."""
        self._call("POST", "/shutdown", {"abort": abort})
