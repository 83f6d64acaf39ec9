"""Self-test of the benchmark at a tiny size.

Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload once per mode on a short round (one campaign
per round, a fraction of a second of timing) and asserts that

* every metric ``BENCHMARK.json`` names prints, with its unit, and no
  other metric does;
* the result line carries ``correct``, ``attempted``, ``failed`` and
  ``metrics`` and the run exits 0;
* a tampered table digest fails the output check: the run reports
  ``correct: false`` and exits non-zero.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark itself, next to this file)

#: A small fraction of each round keeps the self-test to seconds.
SIZE = 0.01


def invoke(workload, trace):
    """``(exit code, result dict)`` of one tiny in-process run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "7",
                         "--seconds", "0", "--trace", str(trace)],
                        size=SIZE)
    return code, json.loads(stdout.getvalue().strip().splitlines()[-1])


def check_metrics(result, declared, label):
    printed = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    assert printed == declared, (
        f"{label}: printed {sorted(printed.items())}, "
        f"declared {sorted(declared.items())}")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0, label


def check_tamper(workload):
    """A run whose second campaign digest is tampered must fail."""
    import workloads

    original = workloads._table_digests
    calls = []

    def tampered(database):
        digests = original(database)
        calls.append(1)
        if len(calls) == 2:
            digests["trials"] = dict(digests["trials"], sha256="0" * 64)
        return digests

    workloads._table_digests = tampered
    try:
        code, result = invoke(workload, 0)
    finally:
        workloads._table_digests = original
    assert code != 0 and result["correct"] is False, (
        f"{workload}: tampered digest passed the output check")


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in modes.items():
            code, result = invoke(workload, trace)
            label = f"{workload} --trace {trace}"
            assert code == 0 and result["correct"], f"{label}: failed"
            check_metrics(result, declared, label)
            print(f"ok  {label}: {len(result['metrics'])} metrics")
    check_tamper("des-apparatus")
    print("ok  tampered digest fails the output check")
    return 0


if __name__ == "__main__":
    sys.exit(main())
