"""Toy-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload in BENCHMARK.json once at a tiny size (`run.py --toy`),
untraced and traced, and checks that the result line has the contract's
keys, that no operation failed, and that exactly the metrics BENCHMARK.json
names are emitted, each a finite number with its unit. Exits 1 and lists
the problems if any.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload: str, trace: int, expected: dict) -> list[str]:
    tag = f"{workload} --trace {trace}"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{tag}: exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{tag}: result keys {sorted(result)}"]
    problems = []
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{tag}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}: {proc.stderr[-500:]}")
    metrics = result["metrics"]
    for name in sorted(set(metrics) ^ set(expected)):
        problems.append(f"{tag}: metric {name} is {'missing' if name in expected else 'extra'}")
    for name in set(metrics) & set(expected):
        value, unit = metrics[name].get("value"), metrics[name].get("unit")
        if unit != expected[name]:
            problems.append(f"{tag}: {name} has unit {unit!r}, not {expected[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{tag}: {name} = {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            problems += check_run(workload["name"], trace, expected)
    for p in problems:
        print(f"selfcheck: {p}")
    print("selfcheck: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
