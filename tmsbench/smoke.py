#!/usr/bin/env python3
"""Smoke test of the benchmark.

Runs every workload named in BENCHMARK.json, plus `fleet_watch`, which
it omits (see README.md), briefly (`--smoke`, one second) in both modes.
Checks that each run exits 0, prints a result line with exactly the keys
`correct`, `attempted`, `failed` and `metrics`, passes its output checks
with no failed operation, and prints every metric BENCHMARK.json names
for that mode, with the same unit and nothing else.

Run from the repository root:

    python3 tmsbench/smoke.py
"""

import json
import subprocess
import sys


def check_run(cmd, workload, trace, expected):
    args = cmd + ["--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--smoke"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return [f"{where}: no result line"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append(f"{where}: output checks failed")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted = {result['attempted']!r}")
    if result["failed"] != 0:
        problems.append(f"{where}: {result['failed']} failed operations")
    got = result["metrics"]
    for name, unit in expected.items():
        if name not in got:
            problems.append(f"{where}: metric {name} missing")
            continue
        value = got[name].get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{where}: metric {name} value {value!r}")
        if got[name].get("unit") != unit:
            problems.append(f"{where}: metric {name} unit {got[name].get('unit')!r}, want {unit!r}")
    for name in sorted(set(got) - set(expected)):
        problems.append(f"{where}: metric {name} is not in BENCHMARK.json")
    return problems


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    workloads = [w["name"] for w in spec["workloads"]]
    if "fleet_watch" not in workloads:
        workloads.append("fleet_watch")
    for workload in workloads:
        for trace in (0, 1):
            found = check_run(spec["command"], workload, trace, expected[trace])
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
