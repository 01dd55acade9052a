"""Smoke self-test of the benchmark at 512-bit keys, one query per workload.

    python3 perfbench/selftest.py

For every workload it checks that each metric BENCHMARK.json names is
reported with its unit, traced and untraced; that the traced run
reproduces the exact per-query primitive counts of the protocol; that the
spans file holds well-formed spans; and that the correctness gate fails
when the expected value or the ciphertext plan is corrupted. A run of zero
seconds makes one query, or one untraced and one traced. Exits nonzero on
the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402
from perfbench.run import SPANS_DIR, result_line  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

KEY_BITS = 512

#: Per-query counts of the traced run, one protocol each.
EXPECTED_COUNTS = {
    "regr-core": {
        "client.paillier.encrypt.count": 30, "client.paillier.decrypt.count": 2,
        "server.paillier.encrypt.count": 1, "server.paillier.scalar_short.count": 30,
        "waste.client.extra_decrypts": 1, "client.runner.fetch_published.count": 0,
    },
    "svm-core": {
        "client.paillier.encrypt.count": 38, "client.paillier.decrypt.count": 38,
        "server.paillier.scalar_full.count": 38, "server.paillier.rerandomize.count": 38,
        "server.paillier.decrypt.count": 1, "waste.client.extra_decrypts": 0,
        "client.runner.fetch_published.count": 1,
    },
    "ffnn-relu": {
        "client.paillier.scalar_full.count": 54, "client.paillier.rerandomize.count": 58,
        "client.paillier.encrypt.count": 12, "client.paillier.decrypt.count": 5,
        "server.paillier.encrypt.count": 55, "server.paillier.decrypt.count": 54,
        "waste.client.extra_decrypts": 0,
    },
}

SPAN_FIELDS = {"id", "name", "start", "end", "parent", "query", "party", "phase"}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_line(workload: str, report, section) -> dict:
    names_units = [(m["name"], m["unit"]) for m in section]
    line = result_line(report, names_units)
    check(line["correct"], f"{workload}: run not correct: "
          f"{[r.error for r in report.records if r.error]}")
    check(list(line) == ["correct", "attempted", "failed", "metrics"],
          f"{workload}: result keys {list(line)}")
    for name, unit in names_units:
        check(name in line["metrics"], f"{workload}: metric {name} not printed")
        check(line["metrics"][name]["unit"] == unit, f"{workload}: {name} unit")
    check(len(line["metrics"]) == len(names_units), f"{workload}: extra metrics printed")
    json.loads(json.dumps(line))
    return line["metrics"]


def corrupted_run(name: str, **changes):
    """An untraced run with fields of the workload replaced, so the gate
    must fail; ``harness.run`` looks the workload up when called."""
    original = WORKLOADS[name]
    WORKLOADS[name] = dataclasses.replace(original, **changes)
    try:
        return harness.run(name, 1, 0, trace=False, key_bits=KEY_BITS)
    finally:
        WORKLOADS[name] = original


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json workloads differ from perfbench/workloads.py")
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / "selftest-spans.jsonl"
    try:
        for name in WORKLOADS:
            report = harness.run(name, 1, 0, trace=False, key_bits=KEY_BITS)
            metrics = check_line(name, report, spec["end_to_end"])
            check(all(m["value"] > 0 for m in metrics.values()),
                  f"{name}: an end-to-end metric is zero")

            report = harness.run(name, 1, 0, trace=True, key_bits=KEY_BITS,
                                 spans_path=str(spans_path))
            metrics = check_line(name, report, spec["per_layer"])
            for metric, want in EXPECTED_COUNTS[name].items():
                got = metrics[metric]["value"]
                check(got == want, f"{name}: {metric} is {got}, expected {want}")
            with open(spans_path, encoding="utf-8") as fh:
                spans = [json.loads(line) for line in fh]
            check(len(spans) == report.spans_written and spans, f"{name}: spans file")
            check(all(set(s) == SPAN_FIELDS for s in spans), f"{name}: span fields")
            check({s["phase"] for s in spans} == {"setup", "query"}, f"{name}: span phases")

            workload = WORKLOADS[name]
            corruptions = {
                "expected value": dict(expected=lambda loaded, x, w=workload:
                                       w.expected(loaded, x) + 1),
                "ciphertext plan": dict(plan=lambda loaded, w=workload:
                                        [(d, n + 1) for d, n in w.plan(loaded)]),
            }
            for what, changes in corruptions.items():
                report = corrupted_run(name, **changes)
                check(report.attempted == 1 and report.failed == 1,
                      f"{name}: the gate passed a corrupted {what}")
                check(not result_line(report, [])["correct"],
                      f"{name}: run with a corrupted {what} reported correct")
            print(f"selftest: {name} ok")
    finally:
        spans_path.unlink(missing_ok=True)
    print("selftest: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
