"""Declarative, seeded fault plans for the virtual cluster.

The paper treats experiments that "could not complete" as first-class
observations (Table 7), and its staging story (Section VI) is about
surfacing broken deployments before they poison results.  A
:class:`FaultPlan` is the controlled form of that breakage: a seeded,
declarative schedule of infrastructure faults — host crashes, daemons
killed mid-deployment, corrupted package archives, degraded disks and
NICs, transient allocation exhaustion, truncated monitor output — that
the :class:`~repro.faults.injector.FaultInjector` arms at fixed fault
points inside the cluster, deployment, shell and collection layers.

Determinism is the whole point: whether a fault fires for a given trial
attempt is a pure function of ``(plan seed, spec, trial key, attempt)``
computed from a SHA-256 draw, so the same plan produces a byte-identical
fault schedule on every run, every worker count, and every executor —
the property the resilience tests lean on when they assert
that a retried chaos campaign stores exactly the rows a fault-free run
stores.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.errors import FaultPlanError

#: Every fault kind the plan language knows, with the fire point that
#: arms it (documentation only; the injector owns the dispatch).
FAULT_KINDS = (
    "host-crash",        # vcluster: allocated host goes dark mid-trial
    "daemon-kill",       # shellvm: kill a live daemon between scripts
    "archive-corrupt",   # deploy: package tarball corrupted pre-run.sh
    "slow-disk",         # vcluster: bulk writes stall on a host
    "slow-nic",          # vcluster: scp transfers stall at an endpoint
    "alloc-exhausted",   # vcluster: allocation transiently refused
    "monitor-truncate",  # monitoring: sysstat file cut mid-sample
)

#: Fires on every attempt of an afflicted trial (never heals).
EVERY_ATTEMPT = 0


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: what breaks, where, and how often.

    *target* is a glob matched per kind (host name for ``host-crash`` /
    ``slow-disk`` / ``slow-nic``, daemon basename for ``daemon-kill``,
    archive path for ``archive-corrupt``, sysstat file path for
    ``monitor-truncate``; ``alloc-exhausted`` ignores it).  *rate* is
    the probability that any given trial draws this fault at all;
    *attempts* bounds how many leading attempts of an afflicted trial
    the fault fires on (:data:`EVERY_ATTEMPT` = never heals — the
    persistent-fault form quarantine exists for).  *transient* tells
    the retry policy whether re-running the attempt can help.
    """

    kind: str
    target: str = "*"
    rate: float = 1.0
    attempts: int = 1
    experiment: str = "*"
    transient: bool = True

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; known: "
                f"{', '.join(FAULT_KINDS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError(
                f"fault rate must be within [0, 1], got {self.rate}"
            )
        if self.attempts < 0:
            raise FaultPlanError(
                f"fault attempts must be >= 0, got {self.attempts}"
            )

    def to_dict(self):
        return {
            "kind": self.kind, "target": self.target, "rate": self.rate,
            "attempts": self.attempts, "experiment": self.experiment,
            "transient": self.transient,
        }

    @classmethod
    def from_dict(cls, data):
        unknown = set(data) - {"kind", "target", "rate", "attempts",
                               "experiment", "transient"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault spec field(s): {', '.join(sorted(unknown))}"
            )
        if "kind" not in data:
            raise FaultPlanError("fault spec needs a 'kind'")
        return cls(**data)


@dataclass(frozen=True)
class FaultEvent:
    """One armed fault: a spec bound to a trial attempt.

    The injector executes the event at its fire point; the event then
    travels on the raising exception (``error.fault``) so the retry
    layer can classify the failure and blame the right host.
    """

    spec: FaultSpec
    trial_key: tuple
    attempt: int
    #: filled in at fire time: the host the fault actually landed on
    host: str = field(default=None, compare=False)

    @property
    def kind(self):
        return self.spec.kind

    def describe(self):
        where = f" on {self.host}" if self.host else ""
        return (f"{self.kind}({self.spec.target}){where} "
                f"[attempt {self.attempt + 1}]")


def _draw(seed, spec_index, trial_key):
    """Deterministic uniform in [0, 1) for one (spec, trial) pair.

    SHA-256 rather than ``random.Random`` so the draw is identical
    across processes, platforms and PYTHONHASHSEED settings.
    """
    material = repr((seed, spec_index, trial_key)).encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


class FaultPlan:
    """A seeded set of :class:`FaultSpec`\\ s with deterministic draws.

    ``draw(trial_key, attempt)`` returns the events armed for that
    attempt; the same ``(seed, specs)`` plan returns byte-identical
    schedules forever, which :meth:`schedule` materializes for audit.
    """

    def __init__(self, specs=(), seed=0):
        self.specs = tuple(
            spec if isinstance(spec, FaultSpec) else FaultSpec(**spec)
            for spec in specs
        )
        self.seed = int(seed)

    def __bool__(self):
        return bool(self.specs)

    def __eq__(self, other):
        return (isinstance(other, FaultPlan)
                and self.specs == other.specs and self.seed == other.seed)

    def __hash__(self):
        return hash((self.specs, self.seed))

    def __repr__(self):
        return f"FaultPlan(specs={self.specs!r}, seed={self.seed})"

    def draw(self, trial_key, attempt):
        """The :class:`FaultEvent`\\ s armed for one trial attempt."""
        experiment_name = trial_key[0] if trial_key else ""
        events = []
        for index, spec in enumerate(self.specs):
            if not _glob_match(experiment_name, spec.experiment):
                continue
            if spec.attempts != EVERY_ATTEMPT and attempt >= spec.attempts:
                continue          # the fault has healed for this trial
            if _draw(self.seed, index, trial_key) < spec.rate:
                events.append(FaultEvent(spec=spec, trial_key=trial_key,
                                         attempt=attempt))
        return tuple(events)

    def schedule(self, trial_keys, attempts=1):
        """The full fault schedule over *trial_keys*, as stable text.

        One line per armed event — the byte-identical audit surface the
        determinism tests compare across runs.
        """
        lines = []
        for trial_key in trial_keys:
            for attempt in range(attempts):
                for event in self.draw(trial_key, attempt):
                    lines.append(
                        f"{'/'.join(str(part) for part in trial_key)} "
                        f"attempt={attempt + 1} {event.kind}"
                        f"({event.spec.target})"
                    )
        return "\n".join(lines)

    # -- serialization (CLI --faults files, campaign_meta resume) --------

    def to_json(self, indent=None):
        return json.dumps({
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.specs],
        }, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text, source="<faults>"):
        try:
            data = json.loads(text)
        except ValueError as error:
            raise FaultPlanError(
                f"{source}: not valid JSON: {error}") from error
        if not isinstance(data, dict) or "faults" not in data:
            raise FaultPlanError(
                f"{source}: fault plan JSON needs a 'faults' list "
                f"(and optional 'seed')"
            )
        specs = [FaultSpec.from_dict(item) for item in data["faults"]]
        return cls(specs, seed=data.get("seed", 0))


def _glob_match(value, pattern):
    from fnmatch import fnmatchcase
    return fnmatchcase(value, pattern)
