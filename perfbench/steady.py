"""Steadiness check: run the benchmark repeatedly and report its spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --out .perfbench_out/set-a.jsonl
    python3 perfbench/steady.py --report .perfbench_out/set-a.jsonl
    python3 perfbench/steady.py --compare .perfbench_out/set-a.jsonl \\
        .perfbench_out/set-b.jsonl

Runs go round-robin over the workloads, each run with another seed, so
each workload's runs are spread over the whole command rather than taken
back-to-back.  Every run is recorded as one JSON line with the host
fingerprint (``nproc``, CPU model, Python version) and a host-speed
probe reading (``hostprobe.py``, the one the runs scale times by) taken
just before it, so slow-host phases show in the record.

The report gives, per workload and metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread — the distance
between the quartiles as a share of the median — against the metric's
bound in ``BENCHMARK.json``.  ``--compare`` gives how much worse the
second set's median is than the first's, against the same bound.  With
``--trace 1`` every seed runs twice and the two runs' ``<layer>.calls``
must be identical.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from hostprobe import probe_seconds

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 900


def fingerprint() -> Dict[str, object]:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version()}


def run_once(workload: str, seed: int, trace: int) -> Dict[str, object]:
    command = SPEC["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]),
        "--trace", str(trace),
    ]
    probe = 1000 * statistics.median(probe_seconds() for _ in range(15))
    start = time.perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "at": time.time(),
        "wall_s": time.perf_counter() - start,
        "exit": done.returncode,
        "probe_ms": probe,
        "host": fingerprint(),
        "result": None,
    }
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
    else:
        record["stderr"] = done.stderr[-2000:]
    return record


def load(path: str) -> List[Dict[str, object]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _bounds(trace: int) -> Dict[str, float]:
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric.get("bound") for metric in SPEC[key]}


def _by_workload(records) -> Dict[str, List[Dict[str, object]]]:
    grouped: Dict[str, List[Dict[str, object]]] = {}
    for record in records:
        grouped.setdefault(record["workload"], []).append(record)
    return grouped


def _values(runs, metric: str) -> List[float]:
    return [r["result"]["metrics"][metric]["value"] for r in runs if r["result"]]


def report(records) -> bool:
    """Print per-metric spreads; True when every spread is within bound."""
    steady = True
    for workload, runs in _by_workload(records).items():
        trace = runs[0]["trace"]
        bounds = _bounds(trace)
        good = [r for r in runs if r["result"]]
        correct = all(r["result"]["correct"] for r in good)
        shares = {
            r["result"]["failed"] / r["result"]["attempted"] for r in good
        }
        probes = [r["probe_ms"] for r in runs]
        print(
            f"{workload}: {len(good)}/{len(runs)} runs completed, correct={correct}, "
            f"failed shares={sorted(shares)}, host probe "
            f"{min(probes):.2f}-{max(probes):.2f} ms, "
            f"run wall {min(r['wall_s'] for r in runs):.1f}-"
            f"{max(r['wall_s'] for r in runs):.1f} s"
        )
        steady &= correct and len(good) == len(runs) and len(shares) == 1
        for metric, bound in bounds.items():
            values = _values(good, metric)
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            verdict = ""
            if bound is not None:
                ok = metric == "setup_s" or spread <= bound
                steady &= ok
                verdict = f"bound {bound:.2f} {'ok' if ok else 'TOO WIDE'}"
                if ok and spread > bound / 3 and metric != "setup_s":
                    verdict += " (above a third of the bound)"
            print(
                f"  {metric:24s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                f"spread {spread:.3f}  {verdict}"
            )
        if trace:
            steady &= _same_calls(good)
    return steady


def _same_calls(runs) -> bool:
    by_seed: Dict[int, List[Dict[str, float]]] = {}
    for run in runs:
        calls = {
            name: metric["value"]
            for name, metric in run["result"]["metrics"].items()
            if name.endswith(".calls")
        }
        by_seed.setdefault(run["seed"], []).append(calls)
    same = all(all(c == calls[0] for c in calls) for calls in by_seed.values())
    print(f"  <layer>.calls identical between runs of the same seed: {same}")
    return same


def compare(first, second) -> bool:
    """Print how much worse each median of ``second`` is than ``first``."""
    better = {
        metric["name"]: metric["better"]
        for key in ("end_to_end", "per_layer")
        for metric in SPEC[key]
    }
    agree = True
    old = _by_workload(first)
    for workload, runs in _by_workload(second).items():
        if workload not in old:
            continue
        print(workload)
        for metric, bound in _bounds(runs[0]["trace"]).items():
            if bound is None:
                continue
            a = statistics.median(_values(old[workload], metric))
            b = statistics.median(_values(runs, metric))
            worse = (b - a) / a if better[metric] == "lower" else (a - b) / a
            ok = worse <= bound
            agree &= ok
            print(
                f"  {metric:24s} {a:.6g} -> {b:.6g}  worse by {worse:+.3f}  "
                f"bound {bound:.2f} {'ok' if ok else 'WORSE'}"
            )
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload")
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append run records here (JSON lines)")
    parser.add_argument("--report", metavar="RECORDS", help="report a recorded set")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)

    if args.compare:
        return 0 if compare(load(args.compare[0]), load(args.compare[1])) else 1
    if args.report:
        return 0 if report(load(args.report)) else 1

    names = (
        args.workloads.split(",")
        if args.workloads
        else [workload["name"] for workload in SPEC["workloads"]]
    )
    repeats = 2 if args.trace else 1
    records = []
    out = open(args.out, "a", encoding="utf-8") if args.out else None
    try:
        for index in range(args.runs):
            for name in names:
                for _ in range(repeats):
                    record = run_once(name, args.seed_base + index, args.trace)
                    records.append(record)
                    print(
                        f"{name} seed {record['seed']}: {record['wall_s']:.1f} s, "
                        f"probe {record['probe_ms']:.2f} ms, exit {record['exit']}",
                        file=sys.stderr,
                        flush=True,
                    )
                    if out is not None:
                        out.write(json.dumps(record) + "\n")
                        out.flush()
    finally:
        if out is not None:
            out.close()
    return 0 if report(records) else 1


if __name__ == "__main__":
    sys.exit(main())
