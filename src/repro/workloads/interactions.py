"""Interactions and Markov transition matrices for benchmark workloads.

RUBiS and RUBBoS drive their emulated clients through first-order
Markov chains over interaction states (Section III.B); each interaction
imposes tier-specific service demands.  This module provides the shared
machinery: typed interactions, validated transition matrices, stationary
distributions, and mix construction from a target write ratio.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from repro.errors import WorkloadError


@dataclass(frozen=True)
class Interaction:
    """One benchmark interaction state and its relative costliness.

    Weights are *relative within the read or write class*; the benchmark
    modules normalize them so the class-mean demands match the
    calibration targets exactly (see ``calibration.py``).
    """

    name: str
    is_write: bool
    app_weight: float = 1.0
    db_weight: float = 1.0
    popularity: float = 1.0

    def __post_init__(self):
        if self.app_weight <= 0 or self.db_weight <= 0:
            raise WorkloadError(
                f"interaction {self.name!r} needs positive weights"
            )
        if self.popularity <= 0:
            raise WorkloadError(
                f"interaction {self.name!r} needs positive popularity"
            )


@dataclass(frozen=True)
class InteractionDemand:
    """Absolute per-tier demands (reference-core seconds) for one state."""

    name: str
    is_write: bool
    web_s: float
    app_s: float
    db_s: float


class TransitionMatrix:
    """A validated row-stochastic matrix over interaction states."""

    def __init__(self, states, rows):
        self.states = tuple(states)
        if len(self.states) != len(set(self.states)):
            raise WorkloadError("duplicate interaction states")
        if len(rows) != len(self.states):
            raise WorkloadError(
                f"matrix has {len(rows)} rows for {len(self.states)} states"
            )
        self.rows = []
        for state, row in zip(self.states, rows):
            if len(row) != len(self.states):
                raise WorkloadError(
                    f"row for {state!r} has {len(row)} entries"
                )
            total = sum(row)
            if any(p < 0 for p in row):
                raise WorkloadError(f"negative probability in row {state!r}")
            if abs(total - 1.0) > 1e-9:
                raise WorkloadError(
                    f"row for {state!r} sums to {total}, expected 1"
                )
            self.rows.append(tuple(row))
        # Per state, the running sums of its row but the last, added in
        # row order: the first threshold above a draw picks the
        # successor, and a draw past them all picks the last state.
        self._thresholds = {state: list(accumulate(row[:-1]))
                            for state, row in zip(self.states, self.rows)}

    @classmethod
    def memoryless(cls, states, mix):
        """Rank-one matrix: every row equals *mix*.

        This is the memoryless limit of the benchmark matrices; it makes
        the stationary write ratio exactly the requested one, which is
        what the calibration (and the paper's "write ratio" axis)
        assumes.
        """
        if len(states) != len(mix):
            raise WorkloadError("mix length must match state count")
        row = tuple(mix)
        return cls(states, [row] * len(states))

    def next_state(self, current, uniform_draw):
        """The successor of *current* given a U(0,1) draw."""
        try:
            thresholds = self._thresholds[current]
        except KeyError:
            raise WorkloadError(f"unknown state {current!r}")
        return self.states[bisect_right(thresholds, uniform_draw)]

    def stationary(self, iterations=200, tolerance=1e-12):
        """Stationary distribution by power iteration."""
        n = len(self.states)
        pi = [1.0 / n] * n
        for _ in range(iterations):
            nxt = [0.0] * n
            for i, weight in enumerate(pi):
                if weight == 0.0:
                    continue
                row = self.rows[i]
                for j, probability in enumerate(row):
                    nxt[j] += weight * probability
            delta = sum(abs(a - b) for a, b in zip(pi, nxt))
            pi = nxt
            if delta < tolerance:
                break
        return dict(zip(self.states, pi))

    def write_fraction(self, interactions):
        """Stationary probability mass on write states."""
        writes = {i.name for i in interactions if i.is_write}
        return sum(p for state, p in self.stationary().items()
                   if state in writes)


def mix_for_write_ratio(interactions, write_ratio):
    """Stationary mix with exactly *write_ratio* mass on write states.

    Within each class, mass is split by interaction popularity.  RUBiS
    extends its two default matrices to write ratios between 0 and 90%
    this way (Section III.B).
    """
    if not 0 <= write_ratio <= 1:
        raise WorkloadError(f"write ratio outside [0, 1]: {write_ratio}")
    reads = [i for i in interactions if not i.is_write]
    writes = [i for i in interactions if i.is_write]
    if write_ratio > 0 and not writes:
        raise WorkloadError("write ratio > 0 but no write interactions")
    if write_ratio < 1 and not reads:
        raise WorkloadError("write ratio < 1 but no read interactions")
    read_total = sum(i.popularity for i in reads)
    write_total = sum(i.popularity for i in writes)
    mix = []
    for interaction in interactions:
        if interaction.is_write:
            share = (write_ratio * interaction.popularity / write_total
                     if write_total else 0.0)
        else:
            share = ((1.0 - write_ratio) * interaction.popularity
                     / read_total if read_total else 0.0)
        mix.append(share)
    return mix


def normalized_demands(interactions, mix, web_s, app_read_s, app_write_s,
                       db_read_s, db_write_s):
    """Per-interaction demands whose mix-weighted class means are exact.

    Within each class, an interaction's demand is proportional to its
    weight; the proportionality constant is chosen so the mix-weighted
    mean over the class equals the calibration target.  The aggregate
    demand at any write ratio is then exactly the calibrated formula.
    """
    demands = {}
    for tier, read_target, write_target, attr in (
            ("app", app_read_s, app_write_s, "app_weight"),
            ("db", db_read_s, db_write_s, "db_weight")):
        for is_write, target in ((False, read_target), (True, write_target)):
            members = [(i, share) for i, share in zip(interactions, mix)
                       if i.is_write == is_write]
            class_mass = sum(share for _i, share in members)
            if class_mass <= 0:
                for interaction, _share in members:
                    demands.setdefault(interaction.name, {})[tier] = target
                continue
            weighted = sum(getattr(i, attr) * share
                           for i, share in members) / class_mass
            for interaction, _share in members:
                value = target * getattr(interaction, attr) / weighted
                demands.setdefault(interaction.name, {})[tier] = value
    result = {}
    for interaction in interactions:
        per_tier = demands[interaction.name]
        result[interaction.name] = InteractionDemand(
            name=interaction.name,
            is_write=interaction.is_write,
            web_s=web_s,
            app_s=per_tier["app"],
            db_s=per_tier["db"],
        )
    return result
