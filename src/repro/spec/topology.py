"""Topology descriptions for n-tier deployments.

The paper denotes experimental configurations by a triple ``w-a-d``
(Section III.C): *w* web servers, *a* application servers, *d* database
servers.  :class:`Topology` is the canonical in-memory form of that triple
and is used by the spec layer, the generator, the deployment engine and
the results database alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SpecError

#: Canonical tier names, outermost (client-facing) first.
TIER_ORDER = ("web", "app", "db")

#: Human-readable names used in generated artifacts and reports.
TIER_TITLES = {"web": "Web", "app": "Application", "db": "Database"}


@dataclass(frozen=True)
class Topology:
    """An n-tier server-count assignment, the paper's ``w-a-d`` triple."""

    web: int
    app: int
    db: int

    def __post_init__(self):
        # Labels key every frontier, cache and result row: render once.
        object.__setattr__(self, "_label",
                           f"{self.web}-{self.app}-{self.db}")
        for tier in TIER_ORDER:
            count = getattr(self, tier)
            if not isinstance(count, int) or count < 0:
                raise SpecError(
                    f"tier {tier!r} must have a non-negative integer count, "
                    f"got {count!r}"
                )
        if self.app < 1 or self.db < 1:
            raise SpecError(
                f"a deployable topology needs at least one app and one db "
                f"server, got {self.label()}"
            )

    @classmethod
    def parse(cls, text):
        """Parse the paper's ``w-a-d`` notation, e.g. ``"1-8-2"``."""
        parts = text.strip().split("-")
        if len(parts) != 3:
            raise SpecError(f"topology must be 'w-a-d', got {text!r}")
        try:
            web, app, db = (int(part) for part in parts)
        except ValueError:
            raise SpecError(f"topology components must be integers: {text!r}")
        return cls(web=web, app=app, db=db)

    def label(self):
        """Render back to the paper's ``w-a-d`` notation."""
        return self._label

    def count(self, tier):
        """Number of servers in *tier* (one of :data:`TIER_ORDER`)."""
        if tier not in TIER_ORDER:
            raise SpecError(f"unknown tier {tier!r}")
        return getattr(self, tier)

    def with_count(self, tier, count):
        """Return a copy with *tier* set to *count* servers."""
        if tier not in TIER_ORDER:
            raise SpecError(f"unknown tier {tier!r}")
        values = {name: getattr(self, name) for name in TIER_ORDER}
        values[tier] = count
        return Topology(**values)

    def scaled(self, tier, delta=1):
        """Return a copy with *delta* more servers in *tier*.

        This is the elementary move of the paper's scale-out strategy
        (Section V.A): add one server to the bottleneck tier.
        """
        return self.with_count(tier, self.count(tier) + delta)

    def total_servers(self):
        """Total server processes across all tiers."""
        return self.web + self.app + self.db

    def machine_count(self):
        """Machines needed for one experiment: one per server process,
        plus one client-driver host and one control host (Section III)."""
        return self.total_servers() + 2

    def tiers(self):
        """Yield ``(tier, count)`` pairs in canonical order."""
        for tier in TIER_ORDER:
            yield tier, getattr(self, tier)

    def server_names(self, tier):
        """Deterministic server instance names for *tier*.

        These names are shared between the generator (script names such as
        ``TOMCAT1_install.sh``), the deployment engine and the simulator,
        so every layer agrees on identity.
        """
        return [f"{tier}{index}" for index in range(1, self.count(tier) + 1)]

    def all_server_names(self):
        """All server instance names, web tier first."""
        names = []
        for tier, _count in self.tiers():
            names.extend(self.server_names(tier))
        return names

    def dominates(self, other):
        """True if this topology has at least as many servers in every tier."""
        return all(self.count(t) >= other.count(t) for t in TIER_ORDER)


def topology_range(base, tier, upto):
    """Topologies obtained by growing *tier* of *base* one server at a time.

    ``topology_range(Topology(1, 1, 1), "app", 4)`` yields 1-1-1, 1-2-1,
    1-3-1, 1-4-1 — the paper's scale-out ladders (Section V.B).
    """
    start = base.count(tier)
    if upto < start:
        raise SpecError(
            f"cannot range tier {tier!r} from {start} down to {upto}"
        )
    for count in range(start, upto + 1):
        yield base.with_count(tier, count)


def topology_grid(web, app_range, db_range):
    """Cartesian grid of topologies, app count varying slowest.

    Used for the scale-out figure families (1-2-1 .. 1-12-3).
    """
    for app in app_range:
        for db in db_range:
            yield Topology(web=web, app=app, db=db)
