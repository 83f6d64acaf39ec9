"""The daemon's wire surface: a local JSON-over-HTTP control API.

``repro serve`` runs a :class:`ServiceDaemon`: a stdlib
:class:`~http.server.ThreadingHTTPServer` translating requests into
:class:`~repro.service.controller.CampaignController` calls.  The wire
format is deliberately small — JSON bodies, five verbs — because the
daemon is a *local* coordination point (the paper's experiments ran
from one driver host too), not a public service:

====== ============ ===========================================
method path         action
====== ============ ===========================================
GET    /ping        liveness probe
POST   /submit      accept a campaign; returns ``{"id": ...}``
GET    /status      service state (``?id=`` for one campaign)
POST   /cancel      stop a campaign, keep its shard checkpoint
POST   /resume      restart a cancelled/failed/killed campaign
POST   /heal        auto-remediate a campaign's database in place
POST   /wait        block until a campaign settles
GET    /aggregate   the streaming aggregator's report + snapshot
POST   /shutdown    stop the daemon (``{"abort": true}`` = kill)
====== ============ ===========================================

Service errors travel as JSON ``{"error", "kind"}`` with the status
code carrying the class: 429 for :class:`ServiceBusy` backpressure,
404 for an unknown campaign, 400 for everything else the controller
rejects.  The matching client is
:class:`repro.service.client.CampaignClient`.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ReproError, ServiceBusy, ServiceError
from repro.faults.plan import FaultPlan
from repro.service.controller import CampaignController


def _submit_kwargs(body):
    """Decode a /submit (or /resume-by-path) body into controller
    kwargs.  Fault plans travel as their JSON form; retry policies as
    an attempt count or policy dict (the campaign normalizes both)."""
    kwargs = {"db_path": body["db_path"]}
    for key in ("mof_text", "node_count", "jobs", "experiments",
                "policy", "budget", "experiment", "resume", "fidelity"):
        if key in body:
            kwargs[key] = body[key]
    faults = body.get("faults")
    if faults is not None:
        if isinstance(faults, dict):
            faults = json.dumps(faults)
        kwargs["faults"] = FaultPlan.from_json(faults)
    if body.get("retry") is not None:
        kwargs["retry"] = body["retry"]
    return body.get("tbl_text"), kwargs


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # The controller lives on the server object; handlers are per-request.

    @property
    def controller(self):
        return self.server.controller

    def log_message(self, format, *args):   # noqa: A002 — stdlib name
        pass                                # the tracer observes, not stderr

    def _body(self):
        length = int(self.headers.get("Content-Length", 0))
        if not length:
            return {}
        return json.loads(self.rfile.read(length).decode("utf-8"))

    def _reply(self, payload, status=200):
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _fail(self, error):
        status = 400
        if isinstance(error, ServiceBusy):
            status = 429
        elif isinstance(error, ServiceError) \
                and "unknown campaign" in str(error):
            status = 404
        self._reply({"error": str(error),
                     "kind": type(error).__name__}, status=status)

    def do_GET(self):  # noqa: N802 — stdlib dispatch name
        path, _, query = self.path.partition("?")
        try:
            if path == "/ping":
                self._reply({"ok": True})
            elif path == "/status":
                campaign_id = None
                for part in query.split("&"):
                    if part.startswith("id="):
                        campaign_id = part[3:]
                self._reply(self.controller.status(campaign_id))
            elif path == "/aggregate":
                self._reply({
                    "report": self.controller.aggregator.render(),
                    "snapshot": self.controller.aggregator.snapshot(),
                })
            else:
                self._reply({"error": f"no such endpoint {path}",
                             "kind": "ServiceError"}, status=404)
        except ReproError as error:
            self._fail(error)

    def do_POST(self):  # noqa: N802 — stdlib dispatch name
        try:
            body = self._body()
            if self.path == "/submit":
                tbl_text, kwargs = _submit_kwargs(body)
                campaign_id = self.controller.submit(tbl_text, **kwargs)
                self._reply({"id": campaign_id})
            elif self.path == "/cancel":
                self.controller.cancel(body["id"])
                self._reply({"ok": True})
            elif self.path == "/resume":
                campaign_id = self.controller.resume(
                    body.get("id"), db_path=body.get("db_path"),
                    jobs=body.get("jobs"))
                self._reply({"id": campaign_id})
            elif self.path == "/heal":
                heal_id = self.controller.heal(
                    body.get("id"), db_path=body.get("db_path"),
                    budget=body.get("budget"),
                    rounds=body.get("rounds"),
                    target=body.get("target"),
                    experiment=body.get("experiment"))
                self._reply({"id": heal_id})
            elif self.path == "/wait":
                record = self.controller.wait(
                    body["id"], timeout=body.get("timeout"))
                if record is None:
                    self._reply({"timed_out": True})
                else:
                    self._reply(record)
            elif self.path == "/shutdown":
                self._reply({"ok": True})
                self.server.daemon_ref.stop(abort=body.get("abort", False))
            else:
                self._reply({"error": f"no such endpoint {self.path}",
                             "kind": "ServiceError"}, status=404)
        except ReproError as error:
            self._fail(error)
        except (KeyError, ValueError) as error:
            self._reply({"error": f"bad request: {error!r}",
                         "kind": "ServiceError"}, status=400)


class ServiceDaemon:
    """The ``repro serve`` process body: controller + HTTP front-end.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` is the
    bound ``(host, port)`` either way.  :meth:`start` serves on a
    background thread and returns; :meth:`run_forever` serves on the
    calling thread until :meth:`stop` (or a ``/shutdown`` request).
    """

    def __init__(self, *, host="127.0.0.1", port=0, jobs=4, max_active=8,
                 tracer=None):
        self.controller = CampaignController(jobs=jobs,
                                             max_active=max_active,
                                             tracer=tracer)
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.controller = self.controller
        self._server.daemon_ref = self
        self._thread = None
        self._stopping = threading.Lock()
        self._stopped = False

    @property
    def address(self):
        return self._server.server_address[:2]

    @property
    def url(self):
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self):
        """Serve on a background thread; returns the bound url."""
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        return self.url

    def run_forever(self):
        """Serve on the calling thread until stopped."""
        try:
            self._server.serve_forever()
        finally:
            self.stop()

    def stop(self, *, abort=False):
        """Stop serving and shut the controller down.  Idempotent;
        safe from request-handler threads (the server shutdown runs on
        a helper so the handler's own request can finish)."""
        with self._stopping:
            if self._stopped:
                return
            self._stopped = True
        threading.Thread(target=self._server.shutdown,
                         daemon=True).start()
        self.controller.shutdown(abort=abort)
        self._server.server_close()
        if self._thread is not None and self._thread.is_alive() \
                and self._thread is not threading.current_thread():
            self._thread.join(timeout=5)


def serve(*, host="127.0.0.1", port=8642, jobs=4, max_active=8,
          tracer=None, on_ready=None):
    """Run a campaign daemon until interrupted — the ``repro serve``
    entry point.  *on_ready* receives the bound url before serving."""
    daemon = ServiceDaemon(host=host, port=port, jobs=jobs,
                           max_active=max_active, tracer=tracer)
    if on_ready is not None:
        on_ready(daemon.url)
    try:
        daemon.run_forever()
    except KeyboardInterrupt:
        daemon.stop(abort=True)
    return daemon
