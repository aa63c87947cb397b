"""Smoke test of the benchmark: every workload, small, in well under a minute.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

For every workload in ``BENCHMARK.json`` this runs ``run.py --smoke``
once untraced and twice traced, and fails unless

* every run completes with ``correct`` true and no failed operation
  (the same output checks as a full run, on smaller inputs);
* every metric printed is declared in ``BENCHMARK.json`` with the same
  unit, every declared metric is printed, every declaration has a
  ``better`` direction, and every end-to-end one a bound;
* no end-to-end metric reads 0;
* the two traced runs report identical ``<layer>.calls``.

Last, it copies only ``BENCHMARK.json`` and the benchmark's directories
to an empty directory and checks that the benchmark refuses to run
there (non-zero exit, no result line).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_declarations() -> List[str]:
    problems = []
    for key in ("end_to_end", "per_layer"):
        for metric in SPEC[key]:
            if not metric.get("unit") or metric.get("better") not in ("lower", "higher"):
                problems.append(f"{metric['name']}: needs a unit and a better direction")
            if key == "end_to_end" and not 0 < metric.get("bound", 0) <= 0.25:
                problems.append(f"{metric['name']}: needs a bound in (0, 0.25]")
    return problems


def check_result(label: str, done, declared: Dict[str, str]) -> List[str]:
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr[-1500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}: {done.stderr[-1500:]}")
    printed = result["metrics"]
    for name in sorted(set(printed) - set(declared)):
        problems.append(f"{label}: {name} is printed but not declared")
    for name in sorted(set(declared) - set(printed)):
        problems.append(f"{label}: {name} is declared but not printed")
    for name, metric in printed.items():
        if name in declared and metric["unit"] != declared[name]:
            problems.append(f"{label}: {name} printed in {metric['unit']}, "
                            f"declared in {declared[name]}")
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{label}: {name} is not a number")
    return problems


def _calls(done) -> Dict[str, float]:
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {n: m["value"] for n, m in metrics.items() if n.endswith(".calls")}


def check_bare_directory() -> List[str]:
    """Only the benchmark's own files present: it must refuse to run."""
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(
                ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
            )
        done = _run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # a run is still using it
    if done.returncode == 0 or done.stdout.strip():
        return ["bare directory: the benchmark ran without the program"]
    return []


def main() -> int:
    problems = check_declarations()
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain = _run(workload, 0)
        found = check_result(f"{workload} trace 0", plain, end_to_end)
        if not found:
            metrics = json.loads(plain.stdout.strip().splitlines()[-1])["metrics"]
            found += [f"{workload}: {n} reads 0" for n, m in metrics.items() if not m["value"]]
        traced = [_run(workload, 1) for _ in range(2)]
        for done in traced:
            found += check_result(f"{workload} trace 1", done, per_layer)
        if not found and _calls(traced[0]) != _calls(traced[1]):
            found.append(f"{workload}: traced runs differ in <layer>.calls")
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    problems += check_bare_directory()
    for problem in problems:
        print(f"  {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
