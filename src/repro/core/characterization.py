"""Observation-based performance characterization (the paper's goal).

"Measuring and plotting performance of n-tier applications covering a
sufficiently large set of parameters ... can help system analysts make
informed decisions at configuration design time" (Section I).  A
:class:`PerformanceMap` is that plot as a queryable object: built from
observed trials, it answers response-time/throughput/capacity questions
by interpolating *between observations* — never from a model.
"""

from __future__ import annotations

from repro.core.bottleneck import last_pass
from repro.errors import ResultsError


class PerformanceMap:
    """Queryable map over observed (topology, workload, write-ratio)
    points."""

    def __init__(self, results):
        self._by_point = {}
        for result in results:
            self._by_point[result.key()] = result
        if not self._by_point:
            raise ResultsError("performance map needs at least one trial")

    @classmethod
    def from_database(cls, database, experiment_name=None, benchmark=None):
        return cls(database.query(experiment_name=experiment_name,
                                  benchmark=benchmark))

    # -- inventory ----------------------------------------------------------

    def topologies(self):
        return sorted({t for t, _w, _r in self._by_point})

    def workloads(self, topology, write_ratio=None):
        return sorted({w for t, w, r in self._by_point
                       if t == topology
                       and (write_ratio is None
                            or abs(r - write_ratio) < 1e-9)})

    def write_ratios(self, topology):
        return sorted({r for t, _w, r in self._by_point if t == topology})

    def point(self, topology, workload, write_ratio):
        key = (topology, workload, round(write_ratio, 6))
        try:
            return self._by_point[key]
        except KeyError:
            raise ResultsError(f"no observation at {key}")

    # -- interpolating queries -------------------------------------------------

    def response_time(self, topology, workload, write_ratio=0.15):
        """Mean response time (s) at *workload*, interpolated linearly
        between the two nearest observed workloads."""
        return self._interpolate(topology, workload, write_ratio,
                                 lambda r: r.metrics.mean_response_s)

    def throughput(self, topology, workload, write_ratio=0.15):
        return self._interpolate(topology, workload, write_ratio,
                                 lambda r: r.metrics.throughput)

    def _interpolate(self, topology, workload, write_ratio, extract):
        ratio = round(write_ratio, 6)
        points = sorted(
            (w, extract(result))
            for (t, w, r), result in self._by_point.items()
            if t == topology and abs(r - ratio) < 1e-9
        )
        if not points:
            raise ResultsError(
                f"no observations for {topology} at write ratio "
                f"{write_ratio}"
            )
        if workload <= points[0][0]:
            return points[0][1]
        if workload >= points[-1][0]:
            return points[-1][1]
        for (w0, v0), (w1, v1) in zip(points, points[1:]):
            if w0 <= workload <= w1:
                if w1 == w0:
                    return v0
                fraction = (workload - w0) / (w1 - w0)
                return v0 + fraction * (v1 - v0)
        raise ResultsError("interpolation fell through")   # unreachable

    # -- capacity queries ---------------------------------------------------------

    def supported_users(self, topology, slo, write_ratio=0.15):
        """Largest observed workload meeting *slo* on *topology*, or None.

        DNF trials never qualify; the answer is conservative in that it
        only speaks to measured workloads (the observational stance).
        """
        ratio = round(write_ratio, 6)
        return last_pass(
            [result for (t, _w, r), result in self._by_point.items()
             if t == topology and abs(r - ratio) < 1e-9], slo)

    def knee(self, topology, write_ratio=0.15, factor=3.0):
        """The observed saturation knee: the first workload whose RT
        exceeds *factor* x the lightest-load RT.

        A response-time reading, not an SLO one: it compares the curve
        with its own lightest load and never consults an objective.
        """
        workloads = self.workloads(topology, write_ratio)
        if len(workloads) < 2:
            raise ResultsError(
                f"need at least two workloads to find a knee on {topology}"
            )
        base = self.response_time(topology, workloads[0], write_ratio)
        if base <= 0:
            base = 1e-6
        for workload in workloads[1:]:
            if self.response_time(topology, workload, write_ratio) \
                    > factor * base:
                return workload
        return None
