"""The fault injector: executes a plan's events at layer fire points.

Each :class:`~repro.experiments.runner.ExperimentRunner` owns one
injector; before every trial attempt the runner *arms* it with the
plan's deterministic draw for ``(trial key, attempt)``, and the
instrumented layers call :meth:`FaultInjector.fire` at their fault
points:

========================  ==========================================
fire point                armed kinds
========================  ==========================================
``vcluster.allocate``     ``alloc-exhausted`` (raises before taking)
``vcluster.allocated``    ``host-crash``, ``slow-disk``, ``slow-nic``
``deploy.install``        ``archive-corrupt`` (repairable mutation)
``shell.script``          ``daemon-kill`` (first script with a live
                          matching daemon anywhere on the network)
``collect.sysstat``       ``monitor-truncate`` (cuts the file mid-
                          sample before the collector parses it)
========================  ==========================================

Every fired event opens a ``fault`` span on the trial's tracer, so
``repro trace`` shows exactly what was injected where.  Exceptions an
event raises (directly, or downstream — a crashed host failing its
``ssh``) carry the event as ``error.fault`` when the injector raised
them itself; mutation faults surface through the layer's own error
class instead, exactly like organic damage would.

Arming is thread-local, so threads sharing one injector (the daemon
fleet's workers each run their own runner, but belt and braces) cannot
cross-arm each other's trials.  The injector carries no picklable
runtime state — a pickled copy rebuilds it from the plan.
"""

from __future__ import annotations

import threading
from fnmatch import fnmatchcase

from repro.errors import AllocationError
from repro.obs.tracer import as_tracer

#: Garbage written over a corrupted package archive.
_CORRUPTED_ARCHIVE = "\x00corrupted by fault plan\x00\n"

#: Appended to a truncated sysstat file; two tokens, so the collector's
#: parser rejects it as a malformed sample line (never silently fewer
#: samples, which could change stored metrics instead of failing).
_TRUNCATION_MARKER = "!truncated mid-write\n"


class FaultInjector:
    """Arms and fires one :class:`~repro.faults.plan.FaultPlan`."""

    enabled = True

    def __init__(self, plan, tracer=None):
        self.plan = plan
        self.tracer = as_tracer(tracer)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._repairs = {}        # trial_key -> [undo callables]
        self.fired_events = []    # every event that actually fired

    # -- pickling (a copy rebuilds its runtime state from the plan) ------

    def __getstate__(self):
        return {"plan": self.plan}

    def __setstate__(self, state):
        self.__init__(state["plan"])

    # -- arming ----------------------------------------------------------

    def arm(self, trial_key, attempt):
        """Arm the plan's draw for one trial attempt on this thread."""
        self._local.pending = list(self.plan.draw(trial_key, attempt))
        self._local.trial_key = trial_key
        self._local.fired = []

    def disarm(self):
        """Drop any un-fired events for the current attempt."""
        self._local.pending = []
        self._local.trial_key = None

    def armed(self):
        return list(getattr(self._local, "pending", ()))

    def fired_this_attempt(self):
        """Events that actually fired since the last :meth:`arm` on
        this thread — the retry layer's attribution source."""
        return list(getattr(self._local, "fired", ()))

    def fire(self, point, **context):
        """Run every pending event whose kind listens on *point*.

        Events fire at most once per attempt; an event whose action
        reports "nothing to do here" (a daemon-kill with no live
        matching daemon yet) stays pending for a later fire of the
        same point within the attempt.
        """
        pending = getattr(self._local, "pending", None)
        if not pending:
            return
        for event in list(pending):
            action = _ACTIONS.get((event.kind, point))
            if action is None:
                continue
            fired, raise_after = action(self, event, context)
            if not fired:
                continue
            pending.remove(event)
            self.fired_events.append(event)
            getattr(self._local, "fired", []).append(event)
            with self.tracer.span("fault", kind=event.kind,
                                  target=event.spec.target,
                                  point=point,
                                  attempt=event.attempt + 1,
                                  host=event.host or ""):
                pass
            if raise_after is not None:
                raise_after.fault = event
                raise raise_after

    # -- repairs ---------------------------------------------------------

    def repair(self, trial_key):
        """Undo repairable mutations (corrupted archives) so a retry of
        *trial_key* starts from intact shared state."""
        with self._lock:
            undos = self._repairs.pop(trial_key, [])
        for undo in undos:
            undo()

    def _register_repair(self, trial_key, undo):
        with self._lock:
            self._repairs.setdefault(trial_key, []).append(undo)


# -- per-kind actions -----------------------------------------------------
# Each action returns (fired, exception_to_raise_or_None).

def _act_alloc_exhausted(_injector, event, context):
    cluster = context.get("cluster")
    name = cluster.name if cluster is not None else "?"
    error = AllocationError(
        f"cluster {name!r}: injected transient allocation exhaustion"
    )
    return True, error


def _pick_host(event, hosts):
    """The first allocated server host matching the spec's glob."""
    for host in hosts:
        if fnmatchcase(host.name, event.spec.target):
            return host
    return None


def _act_host_crash(_injector, event, context):
    host = _pick_host(event, context.get("hosts", ()))
    if host is None:
        return False, None
    host.crash(reason=f"injected host-crash (attempt {event.attempt + 1})")
    object.__setattr__(event, "host", host.name)
    return True, None


def _act_slow_disk(_injector, event, context):
    host = _pick_host(event, context.get("hosts", ()))
    if host is None:
        return False, None
    host.degrade("disk")
    object.__setattr__(event, "host", host.name)
    return True, None


def _act_slow_nic(_injector, event, context):
    host = _pick_host(event, context.get("hosts", ()))
    if host is None:
        return False, None
    host.degrade("nic")
    object.__setattr__(event, "host", host.name)
    return True, None


def _act_archive_corrupt(injector, event, context):
    control = context["control"]
    victims = [path for path in control.fs.walk_files("/packages")
               if fnmatchcase(path, event.spec.target)
               or fnmatchcase(path.rsplit("/", 1)[-1], event.spec.target)]
    if not victims:
        return False, None
    path = victims[0]
    original = control.fs.read(path)

    def undo():
        control.fs.write(path, original)

    injector._register_repair(event.trial_key, undo)
    control.fs.write(path, _CORRUPTED_ARCHIVE)
    object.__setattr__(event, "host", control.name)
    return True, None


def _act_daemon_kill(_injector, event, context):
    network = context["network"]
    for host in network.hosts():
        if getattr(host, "crashed", False):
            continue
        killed = host.kill_by_name(event.spec.target)
        if killed:
            object.__setattr__(event, "host", host.name)
            return True, None
    return False, None


def _act_monitor_truncate(_injector, event, context):
    control = context["control"]
    path = context["path"]
    if not (fnmatchcase(path, event.spec.target)
            or fnmatchcase(path.rsplit("/", 1)[-1], event.spec.target)):
        return False, None
    content = control.fs.read(path)
    keep = content[:len(content) // 2]
    # Cut on a line boundary (keeping at least the header line) so the
    # damage is exactly one malformed marker line, not a glued-together
    # half-sample whose failure mode would depend on file contents.
    cut = max(keep.rfind("\n") + 1, content.find("\n") + 1)
    control.fs.write(path, content[:cut] + _TRUNCATION_MARKER)
    object.__setattr__(event, "host", control.name)
    return True, None


_ACTIONS = {
    ("alloc-exhausted", "vcluster.allocate"): _act_alloc_exhausted,
    ("host-crash", "vcluster.allocated"): _act_host_crash,
    ("slow-disk", "vcluster.allocated"): _act_slow_disk,
    ("slow-nic", "vcluster.allocated"): _act_slow_nic,
    ("archive-corrupt", "deploy.install"): _act_archive_corrupt,
    ("daemon-kill", "shell.script"): _act_daemon_kill,
    ("monitor-truncate", "collect.sysstat"): _act_monitor_truncate,
}


class NullInjector:
    """The no-fault injector: every call is a cheap no-op."""

    enabled = False
    fired_events = ()

    def arm(self, _trial_key, _attempt):
        return None

    def disarm(self):
        return None

    def armed(self):
        return []

    def fired_this_attempt(self):
        return []

    def fire(self, _point, **_context):
        return None

    def repair(self, _trial_key):
        return None


NULL_INJECTOR = NullInjector()


def as_injector(faults, tracer=None):
    """Normalize a ``faults=`` argument: None -> null injector, a
    FaultPlan -> a fresh injector over it, an injector -> itself."""
    if faults is None:
        return NULL_INJECTOR
    if isinstance(faults, (FaultInjector, NullInjector)):
        return faults
    return FaultInjector(faults, tracer=tracer)
