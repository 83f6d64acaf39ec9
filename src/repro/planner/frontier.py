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


@dataclass(frozen=True, init=False)
class SweepPoint:
    """One point of the experiment universe (repetitions excluded).

    Policies look points up by key many times per round, so the key is
    stored; a caller that has already derived it passes it as *key*.
    """

    topology: object            # spec.topology.Topology
    workload: int
    write_ratio: float

    def __init__(self, topology, workload, write_ratio, key=None):
        self.__dict__.update(
            topology=topology, workload=workload, write_ratio=write_ratio,
            _key=key or (topology.label(), workload, round(write_ratio, 6)))

    def key(self):
        """The point's identity, matching :meth:`TrialResult.key`."""
        return self._key


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
        self._workloads = sorted(set(experiment.workloads))
        self._topologies = list(dict.fromkeys(experiment.topologies))
        self._write_ratios = list(dict.fromkeys(experiment.write_ratios))
        self._groups = [(topology, ratio) for topology in self._topologies
                        for ratio in self._write_ratios]
        self._rung = {workload: rung
                      for rung, workload in enumerate(self._workloads)}
        # One pass in ExperimentDef.points() order files each point by
        # key and by group rung; a later duplicate replaces an earlier.
        universe = []
        self._by_key = {}
        self._ladders = {}           # group_id -> points by rung
        for topology in experiment.topologies:
            label = topology.label()
            for ratio in experiment.write_ratios:
                rounded = round(ratio, 6)
                ladder = self._ladders.setdefault(
                    (label, rounded), [None] * len(self._workloads))
                for workload in experiment.workloads:
                    key = (label, workload, rounded)
                    point = self._by_key[key] = SweepPoint(
                        topology, workload, ratio, key)
                    universe.append(point)
                    ladder[self._rung[workload]] = point
        self.universe = tuple(universe)
        self._rungs = {group_id: {} for group_id in self._ladders}
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
        return self._topologies

    def workloads(self):
        """The workload ladder, ascending."""
        return self._workloads

    def write_ratios(self):
        """Unique write ratios in spec declaration order."""
        return self._write_ratios

    def groups(self):
        """``(topology, write_ratio)`` series, in canonical sweep order.

        A group is one response-time-vs-workload curve — the unit the
        knee policy bisects and the promotion policy walks.  Like the
        other queries, it returns the frontier's own list.
        """
        return self._groups

    def ladder(self, group_id):
        """Group ``(label, round(write_ratio, 6))``'s points by rung."""
        return self._ladders[group_id]

    def measured_rungs(self, group_id):
        """The group's latest observation per rung: ``{rung: result}``."""
        return self._rungs[group_id]

    # -- state transitions -------------------------------------------------

    def mark_pending(self, point):
        self._pending.add(point.key())

    def observe(self, point, result):
        """Fold one observed trial back into the frontier."""
        key = label, workload, ratio = point.key()
        self._pending.discard(key)
        self._measured[key] = result
        self._rungs[label, ratio][self._rung[workload]] = result

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
