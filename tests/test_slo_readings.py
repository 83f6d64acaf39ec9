"""The SLO verdict and the readings of a ladder's knee.

``repro.core.bottleneck`` states the verdict once (``slo_violated``)
and the two SLO readings of a ladder: its first violating rung
(``first_violation``) and its largest passing workload (``last_pass``).
Each named reading below calls them, and each takes a point's
repetitions its own way; the outline table pins how.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PerformanceMap, slo_violated
from repro.core.bottleneck import (
    bottleneck_progression,
    first_violation,
    ladders,
    last_pass,
)
from repro.core.heuristics import ScaleOutOutcome
from repro.errors import ResultsError
from repro.experiments.trial import COMPLETED, DNF
from repro.monitoring.metrics import TrialMetrics
from repro.remedy import Detector, progression_supported
from repro.results import ResultsDatabase
from repro.scenarios import measured_knee
from repro.spec.tbl import ServiceLevelObjective
from tests.test_results import make_result

SLO = ServiceLevelObjective(response_time=1.0, error_ratio=0.1)
PASS_RT, VIOLATE_RT = 0.2, 3.0


def outline(text):
    """Rows of a ``| a | b |`` table as dicts keyed by its header."""
    lines = [line.strip() for line in text.strip().splitlines()]
    header, *rows = [[cell.strip() for cell in line.strip("|").split("|")]
                     for line in lines]
    return [dict(zip(header, row)) for row in rows]


# One 1-1-1 ladder with 3 repetitions whose first violating rung differs
# by repetition (seed 1 at 300, seed 2 at 200, seed 3 at 400).  Rows are
# listed repetition by repetition, seed 1 first.
LADDER = outline("""
    | workload | seed 1  | seed 2  | seed 3  |
    | 100      | pass    | pass    | pass    |
    | 200      | pass    | violate | pass    |
    | 300      | violate | violate | pass    |
    | 400      | pass    | violate | violate |
    | 500      | violate | violate | violate |
""")


def repeated_ladder():
    return [make_result(workload=int(row["workload"]), seed=seed,
                        mean_rt=PASS_RT if row[f"seed {seed}"] == "pass"
                        else VIOLATE_RT)
            for seed in (1, 2, 3) for row in LADDER]


READERS = {
    "Detector.diagnose":
        lambda results: Detector(SLO).diagnose(results)[0].workload,
    "progression_supported":
        lambda results: progression_supported(results, SLO),
    "bottleneck_progression":
        lambda results: bottleneck_progression(results, SLO)["workload"],
    "measured_knee": lambda results: measured_knee(results, SLO),
    "PerformanceMap.supported_users":
        lambda results: PerformanceMap(results).supported_users(
            "1-1-1", SLO),
    "max_supported_workload":
        lambda results: ScaleOutOutcome(results=results)
        .max_supported_workload(SLO),
}


@pytest.mark.parametrize("row", outline("""
    | reading                        | takes repetitions                                 | value |
    | Detector.diagnose              | first violating row in (workload, seed) order     | 200   |
    | progression_supported          | last workload before that row; 200 s1 passed      | 200   |
    | bottleneck_progression         | first violating row in workload order             | 200   |
    | measured_knee                  | largest workload any repetition passed            | 400   |
    | PerformanceMap.supported_users | one row per point, the last stored (seed 3)       | 300   |
    | max_supported_workload         | largest workload any repetition passed            | 400   |
"""), ids=lambda row: row["reading"])
def test_each_reading_takes_repetitions_its_own_way(row):
    # Pooling repetitions into one verdict per point changes these on
    # purpose; until then each reading keeps its meaning.
    assert READERS[row["reading"]](repeated_ladder()) == int(row["value"])


def _with_errors(result, errors):
    """*result* with 90 completed and *errors* failed requests."""
    metrics = TrialMetrics(
        completed=90, errors=errors, timeouts=errors, rejections=0,
        duration_s=10, throughput=9.0, mean_response_s=0.5,
        p50_response_s=0.4, p90_response_s=0.9, p99_response_s=1.5)
    return replace(result, metrics=metrics)


@pytest.mark.parametrize("row", outline("""
    | status    | response_s | error_ratio | violated |
    | completed | 2.0        | 0.2         | no       |
    | completed | 2.0        | 0.05        | yes      |
    | completed | 0.1        | 0.2         | yes      |
    | dnf       | 2.0        | 0.2         | yes      |
"""), ids=lambda row: "-".join(row.values()))
def test_slo_violated(row):
    # Mean response 0.5 s, error ratio 10/100 = 0.1; a DNF violates
    # whatever its metrics read.
    result = _with_errors(make_result(status=row["status"]), errors=10)
    slo = ServiceLevelObjective(float(row["response_s"]),
                                float(row["error_ratio"]))
    assert slo_violated(result, slo) == (row["violated"] == "yes")


def _scaleout_results(dnf_at=None):
    """1-1-1 saturates at ~245 users and 1-2-1 at ~490."""
    results = []
    for workload in (100, 300, 500):
        rt1 = 0.04 if workload <= 245 else (workload / 35.0 - 7.0)
        rt2 = 0.04 if workload <= 490 else (workload / 70.0 - 7.0)
        results.append(make_result("1-1-1", workload, mean_rt=rt1))
        results.append(make_result(
            "1-2-1", workload, mean_rt=rt2,
            status=DNF if workload == dnf_at else COMPLETED))
    return results


@pytest.mark.parametrize("row", outline("""
    | topology | dnf_at | last_pass |
    | 1-2-1    | none   | 500       |
    | 1-1-1    | none   | 300       |
    | 1-2-1    | 500    | 300       |
"""), ids=lambda row: f"{row['topology']}-dnf-{row['dnf_at']}")
def test_last_pass(row):
    dnf_at = None if row["dnf_at"] == "none" else int(row["dnf_at"])
    ladder = ladders(_scaleout_results(dnf_at))[(row["topology"], 0.15)]
    assert last_pass(ladder, ServiceLevelObjective(2.0, 0.1)) == \
        int(row["last_pass"])


def test_ladders_group_sort_and_cap():
    results = [make_result("1-2-1", 300, seed=2),
               make_result("1-1-1", 200),
               make_result("1-2-1", 300, seed=1),
               make_result("1-2-1", 100, write_ratio=0.5),
               make_result("1-1-1", 900)]
    grouped = ladders(results, target=500)
    assert list(grouped) == [("1-1-1", 0.15), ("1-2-1", 0.15),
                             ("1-2-1", 0.5)]
    assert [(r.workload, r.seed) for r in grouped[("1-2-1", 0.15)]] == \
        [(300, 1), (300, 2)]
    assert [r.workload for r in grouped[("1-1-1", 0.15)]] == [200]


def test_a_nan_metric_is_never_stored():
    # A COMPLETED row with a NaN mean response would pass slo_violated
    # but fail a ``<=`` test; the trials table refuses it.
    with ResultsDatabase() as db:
        with pytest.raises(ResultsError, match="NOT NULL"):
            db.insert(make_result(mean_rt=float("nan")))


VERDICTS = st.sampled_from(("pass", "violate", "dnf"))


def _rung(workload, verdict):
    # A DNF rung carries passing metrics: its status alone violates.
    return make_result(workload=workload,
                       mean_rt=VIOLATE_RT if verdict == "violate" else PASS_RT,
                       status=DNF if verdict == "dnf" else COMPLETED)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(1, 5000), VERDICTS, max_size=12),
       st.randoms(use_true_random=False))
def test_readings_at_one_repetition(verdicts, rng):
    results = [_rung(w, v) for w, v in verdicts.items()]
    rng.shuffle(results)
    passing = [w for w, v in verdicts.items() if v == "pass"]
    violating = [w for w, v in verdicts.items() if v != "pass"]
    assert last_pass(results, SLO) == max(passing, default=None)
    grouped = ladders(results)
    assert list(grouped) == ([("1-1-1", 0.15)] if results else [])
    for ladder in grouped.values():
        assert [r.workload for r in ladder] == sorted(verdicts)
        first = first_violation(ladder, SLO)
        assert (first and first.workload) == min(violating, default=None)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5000), min_size=1, max_size=12,
                unique=True),
       st.integers(0, 12))
def test_a_monotone_ladder_reads_one_knee(workloads, passing):
    workloads.sort()
    results = [_rung(w, "pass" if i < passing else "violate")
               for i, w in enumerate(workloads)]
    supported = progression_supported(results, SLO)
    assert supported == measured_knee(results, SLO) == \
        (workloads[:passing] or [0])[-1]
    first = first_violation(ladders(results)[("1-1-1", 0.15)], SLO)
    heavier = [w for w in workloads if w > supported]
    assert (first and first.workload) == (heavier[0] if heavier else None)
