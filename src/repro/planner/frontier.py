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

    A group's ladder is the shared workload list plus the group's
    pruned rung ranges; a :class:`SweepPoint` is built only when a
    policy proposes or looks up that point, so what a frontier costs
    grows with the points an exploration measures, not with its
    universe.
    """

    def __init__(self, experiment):
        self.experiment = experiment
        # The spec refuses repeated sweep entries, so these are unique.
        self._workloads = sorted(experiment.workloads)
        self._topologies = list(experiment.topologies)
        self._write_ratios = list(experiment.write_ratios)
        self._groups = [(topology, ratio) for topology in self._topologies
                        for ratio in self._write_ratios]
        self._rung = {workload: rung
                      for rung, workload in enumerate(self._workloads)}
        # group_id -> its declared (topology, write_ratio); of two
        # ratios equal to six places, the later one is kept.
        self._declared = {
            (topology.label(), round(ratio, 6)): (topology, ratio)
            for topology in experiment.topologies
            for ratio in experiment.write_ratios}
        self._rungs = {group_id: {} for group_id in self._declared}
        self._pruned = {group_id: [] for group_id in self._declared}
        self._points = {}            # key -> SweepPoint, once looked up
        self._measured = {}          # key -> TrialResult (repetition 0)
        self._pending = set()        # keys proposed but not yet observed

    # -- universe ----------------------------------------------------------

    @property
    def universe(self):
        """Every sweep point, in :meth:`ExperimentDef.points` order."""
        return tuple(SweepPoint(topology, workload, ratio)
                     for topology, workload, ratio
                     in self.experiment.points())

    def point(self, topology, workload, write_ratio):
        """The universe point at these coordinates."""
        group_id = (topology.label(), round(write_ratio, 6))
        if group_id not in self._declared or workload not in self._rung:
            raise ExperimentError(
                f"{(group_id[0], workload, group_id[1])} is not a sweep "
                f"point of experiment {self.experiment.name!r}")
        return self.rung_point(group_id, self._rung[workload])

    def rung_point(self, group_id, rung):
        """Group ``(label, round(write_ratio, 6))``'s point at *rung*,
        built the first time it is asked for."""
        key = (group_id[0], self._workloads[rung], group_id[1])
        point = self._points.get(key)
        if point is None:
            topology, ratio = self._declared[group_id]
            point = self._points[key] = SweepPoint(topology, key[1], ratio,
                                                   key)
        return point

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

    def measured_rungs(self, group_id):
        """The group's latest observation per rung: ``{rung: result}``."""
        return self._rungs[group_id]

    def open_runs(self, group_id, start, stop):
        """The maximal rung ranges within ``range(start, stop)`` that
        are neither measured nor pruned, ascending."""
        closed = sorted([(rung, rung + 1) for rung in self._rungs[group_id]]
                        + [(rungs.start, rungs.stop)
                           for rungs in self._pruned[group_id]])
        runs = []
        for low, high in closed:
            if low >= stop:
                break
            if low > start:
                runs.append(range(start, low))
            start = max(start, high)
        if start < stop:
            runs.append(range(start, stop))
        return runs

    # -- state transitions -------------------------------------------------

    def mark_pending(self, point):
        self._pending.add(point.key())

    def observe(self, point, result):
        """Fold one observed trial back into the frontier."""
        key = label, workload, ratio = point.key()
        self._pending.discard(key)
        self._measured[key] = result
        self._rungs[label, ratio][self._rung[workload]] = result

    def prune(self, group_id, rungs):
        """Mark a range of a group's rungs as skippable (their verdicts
        are inferable).  A pruned range never covers a measurement:
        policies prune only :meth:`open_runs` ranges."""
        self._pruned[group_id].append(rungs)

    # -- queries -----------------------------------------------------------

    def result_at(self, point):
        """The observed trial at *point*, or None."""
        return self._measured.get(point.key())

    def is_measured(self, point):
        return point.key() in self._measured

    def is_pruned(self, point):
        label, workload, ratio = point.key()
        rung = self._rung[workload]
        return any(rung in rungs for rungs in self._pruned[label, ratio])

    def is_pending(self, point):
        return point.key() in self._pending

    def is_resolved(self, point):
        """Measured or pruned — nothing left to learn here."""
        return self.is_measured(point) or self.is_pruned(point)

    def unresolved(self):
        """Universe points still worth proposing, in canonical order."""
        return [point for point in self.universe
                if not self.is_resolved(point)
                and not self.is_pending(point)]
