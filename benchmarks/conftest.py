"""Shared helpers for the figure/table benchmark harness.

Run with::

    pytest benchmarks/ --benchmark-only

Each bench regenerates one of the paper's figures or tables end to end
(generation -> deployment -> simulated trial -> collection -> analysis)
and writes its rendering to ``benchmarks/output/<id>.txt`` so the rows/
series can be compared against the paper (see EXPERIMENTS.md).
"""

import json
import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture
def emit():
    """Persist and echo a FigureResult's rendering."""

    def _emit(figure_result):
        OUTPUT_DIR.mkdir(exist_ok=True)
        path = OUTPUT_DIR / f"{figure_result.figure_id}.txt"
        path.write_text(figure_result.rendered + "\n")
        print()
        print(figure_result.rendered)
        return path

    return _emit


@pytest.fixture
def once(benchmark):
    """Run a figure reproduction exactly once under pytest-benchmark."""

    def _once(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return _once


@pytest.fixture
def write_bench():
    """Persist and echo a timed bench's result in two files.

    ``write_bench(name, payload, timing)`` writes the deterministic
    *payload* (counts, knees, identity flags, cache stats) to the
    tracked ``output/BENCH_<name>.json`` and the wall-clock *timing*
    (walls, rates, speedups) to the git-ignored sibling
    ``output/BENCH_<name>.timing.json``, so a run leaves the tree
    clean.  CI gates read each value from the file that holds it.
    """

    def _write(name, payload, timing):
        OUTPUT_DIR.mkdir(exist_ok=True)
        for suffix, body in ((".json", payload), (".timing.json", timing)):
            (OUTPUT_DIR / f"BENCH_{name}{suffix}").write_text(
                json.dumps(body, indent=2) + "\n")
        print()
        print(json.dumps({**payload, "timing": timing}, indent=2))

    return _write
