"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload regr-core --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository: it imports ``pinfer`` from the
checkout's ``src/`` and reads the metric list from ``BENCHMARK.json``.
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics; the line before it
records the environment, the parameters and any failures. The exit status
is 0 only if every query passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench-out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(report, names_units) -> dict:
    """The contract's last line: exactly correct, attempted, failed, metrics."""
    metrics = {name: {"value": report.metrics[name][0], "unit": report.metrics[name][1]}
               for name, _ in names_units if name in report.metrics}
    complete = len(metrics) == len(names_units) and all(
        metrics[name]["unit"] == unit for name, unit in names_units)
    return {"correct": report.correct and complete, "attempted": report.attempted,
            "failed": report.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "pinfer" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: needs src/pinfer and BENCHMARK.json beside perfbench/",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in WORKLOADS or args.workload not in why:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    section = spec["per_layer" if args.trace else "end_to_end"]
    names_units = [(m["name"], m["unit"]) for m in section]

    spans_path = None
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = str(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         spans_path=spans_path)
    ok = [r for r in report.records if not r.error]
    print(json.dumps({
        "workload": args.workload, "why": why[args.workload],
        "environment": harness.environment(), "parameters": report.params,
        "setups_s": report.setups_s, "queries_measured": len(ok),
        "error_rate": report.failed / max(1, report.attempted),
        "errors": [r.error for r in report.records if r.error][:5],
        "spans_file": spans_path if report.spans_written else None,
        "trace_minus_untraced_query_s.p50": report.trace_minus_untraced_s,
    }))
    line = result_line(report, names_units)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
