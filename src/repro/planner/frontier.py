"""The planner's world model: what is measured, pending, or pruned.

An :class:`ObservationFrontier` is the planner plane's bookkeeping over
one experiment family's sweep universe — every ``(topology, workload,
write_ratio)`` point the TBL spec declares.  Policies read the frontier
(never the database) when proposing the next batch, so a decision is a
pure function of recorded observations: rebuild the frontier from the
same observations and every policy proposes the same points again,
which is what makes ``repro resume`` of a killed adaptive campaign
byte-identical to an uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError


@dataclass(frozen=True)
class SweepPoint:
    """One point of the experiment universe (repetitions excluded)."""

    topology: object            # spec.topology.Topology
    workload: int
    write_ratio: float

    def __post_init__(self):
        # Policies look points up by key many times per round.
        object.__setattr__(self, "_key", (
            self.topology.label(), self.workload,
            round(self.write_ratio, 6)))

    def key(self):
        """The point's identity, matching :meth:`TrialResult.key`."""
        return self._key

    def describe(self):
        return (f"{self.topology.label()} u={self.workload} "
                f"wr={self.write_ratio:.0%}")


class ObservationFrontier:
    """Measured / pending / pruned state over one experiment's universe.

    The universe is fixed at construction (the TBL sweep); the frontier
    only ever *classifies* points, it never invents new ones — the
    observational stance: an adaptive campaign explores a subset of the
    grid campaign's points, so its every trial is one the grid would
    also have run.
    """

    def __init__(self, experiment):
        self.experiment = experiment
        self.universe = tuple(
            SweepPoint(topology, workload, write_ratio)
            for topology, workload, write_ratio in experiment.points()
        )
        self._by_key = {point.key(): point for point in self.universe}
        self._measured = {}          # key -> TrialResult (repetition 0)
        self._pruned = {}            # key -> reason
        self._pending = set()        # keys proposed but not yet observed

    # -- universe ----------------------------------------------------------

    def point(self, topology, workload, write_ratio):
        """The universe point at these coordinates."""
        key = (topology.label(), workload, round(write_ratio, 6))
        try:
            return self._by_key[key]
        except KeyError:
            raise ExperimentError(
                f"{key} is not a sweep point of experiment "
                f"{self.experiment.name!r}"
            ) from None

    def topologies(self):
        """Unique topologies in spec declaration order."""
        seen = []
        for topology in self.experiment.topologies:
            if topology not in seen:
                seen.append(topology)
        return seen

    def workloads(self):
        """The workload ladder, ascending."""
        return sorted(set(self.experiment.workloads))

    def write_ratios(self):
        """Unique write ratios in spec declaration order."""
        seen = []
        for ratio in self.experiment.write_ratios:
            if ratio not in seen:
                seen.append(ratio)
        return seen

    def groups(self):
        """``(topology, write_ratio)`` series, in canonical sweep order.

        A group is one response-time-vs-workload curve — the unit the
        knee policy bisects and the promotion policy walks.
        """
        return [(topology, ratio)
                for topology in self.topologies()
                for ratio in self.write_ratios()]

    # -- state transitions -------------------------------------------------

    def mark_pending(self, point):
        self._pending.add(point.key())

    def observe(self, point, result):
        """Fold one observed trial back into the frontier."""
        key = point.key()
        self._pending.discard(key)
        self._measured[key] = result

    def prune(self, point, reason):
        """Mark a point as skippable (its verdict is inferable)."""
        key = point.key()
        if key not in self._measured:
            self._pruned.setdefault(key, reason)

    # -- queries -----------------------------------------------------------

    def result_at(self, point):
        """The observed trial at *point*, or None."""
        return self._measured.get(point.key())

    def is_measured(self, point):
        return point.key() in self._measured

    def is_pruned(self, point):
        return point.key() in self._pruned

    def is_pending(self, point):
        return point.key() in self._pending

    def is_resolved(self, point):
        """Measured or pruned — nothing left to learn here."""
        key = point.key()
        return key in self._measured or key in self._pruned

    def unresolved(self):
        """Universe points still worth proposing, in canonical order."""
        return [point for point in self.universe
                if not self.is_resolved(point)
                and not self.is_pending(point)]

    def describe(self):
        return (f"{len(self.universe)} points: "
                f"{len(self._measured)} measured, "
                f"{len(self._pruned)} pruned, "
                f"{len(self._pending)} pending")
