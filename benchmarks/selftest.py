"""Fast self-test of the benchmark runner (run.py).

Runs every workload once at a reduced shape, untraced and traced, and checks
that each end-to-end and per-layer metric is emitted with its unit, that the
names and units agree with ``BENCHMARK.json``, and that run.py fails
cleanly in a directory holding only the benchmark:

    python3 benchmarks/selftest.py

Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

import run


def last_json_line(args, cwd):
    proc = subprocess.run([sys.executable] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc, proc.stdout.strip().split("\n")[-1]


def check_run(trace, expected):
    proc, line = last_json_line(
        [os.path.join(run.HERE, "run.py"), "--workload", "all", "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--reduced"], run.ROOT)
    problems = []
    if proc.returncode != 0:
        return [f"trace {trace}: exit code {proc.returncode}: {proc.stderr}"]
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"trace {trace}: run not correct:\n{proc.stdout}")
    for workload in run.WORKLOADS:
        for name, unit in expected.items():
            got = result["metrics"].get(f"{workload}.{name}")
            if got is None:
                problems.append(f"trace {trace}: {workload} lacks {name}")
            elif got["unit"] != unit:
                problems.append(f"trace {trace}: {workload} {name} has unit "
                                f"{got['unit']!r}, expected {unit!r}")
    return problems


def check_declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    declared = {w["name"] for w in spec["workloads"]}
    if declared != set(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {sorted(declared)}")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if end_to_end != run.END_TO_END_UNITS:
        problems.append(f"BENCHMARK.json end_to_end {end_to_end}")
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if per_layer != run.PER_LAYER:
        problems.append(f"BENCHMARK.json per_layer {per_layer}")
    return problems


def check_fails_without_sources():
    """In a directory holding only the benchmark run.py must fail."""
    bare = os.path.join(run.WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, line = last_json_line(
            ["benchmarks/run.py", "--workload", "desk", "--seed", "1",
             "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or line.startswith("{"):
        return ["run.py did not fail in a directory without sources"]
    return []


def main():
    problems = check_declared()
    problems += check_run(0, run.END_TO_END_UNITS)
    problems += check_run(1, run.PER_LAYER)
    problems += check_fails_without_sources()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
