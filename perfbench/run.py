"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_wide --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``BENCHMARK.json`` and ``perfbench/README.md``).  ``--smoke``
runs every workload at a small size, with the same output checks, in
seconds.  The last line of standard output is always the result object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
when the run completed, whether or not its checks passed, and 2 when the
program to benchmark is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from hostprobe import probe_seconds, to_reference
from profiling import LAYERS, LayerProfiler

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"

#: Set-ups measured per run (each in a fresh interpreter); setup_s is
#: their median.
SETUP_REPEATS = 5
#: The profiled child runs with this hash seed, so its call counts repeat.
PROFILE_HASH_SEED = "0"
CHILD_TIMEOUT_S = 150.0


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _spawn(args: argparse.Namespace, mode: str, env: Dict[str, str]):
    command = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--child", mode,
    ]
    if args.smoke:
        command.append("--smoke")
    return subprocess.run(
        command,
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )


def _setup_seconds(args: argparse.Namespace) -> float:
    """Median set-up time over fresh interpreters, in reference seconds.

    Each child times its own import of the program plus the workload's
    set-up, bracketed by probe readings (see ``hostprobe.py``).
    """
    samples = []
    for _ in range(2 if args.smoke else SETUP_REPEATS):
        done = _spawn(args, "setup", dict(os.environ))
        samples.append(json.loads(done.stdout.splitlines()[-1])["reference_s"])
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _summarize(ops) -> Dict[str, float]:
    """Time per operation and throughput, in reference seconds.

    ``op_s`` takes each distinct operation's median repetition and
    averages over the operations of a round; ``ops_per_s`` divides the
    operations completed by their total time.
    """
    repetitions: Dict[str, List[float]] = {}
    for op in ops:
        repetitions.setdefault(op.key, []).append(op.reference_s)
    return {
        "op_s": statistics.fmean(statistics.median(r) for r in repetitions.values()),
        "ops_per_s": len(ops) / sum(op.reference_s for op in ops),
    }


def _end_to_end(args, workload) -> Dict[str, object]:
    setup_s = _setup_seconds(args)
    workload.prepare()
    ops: List = []
    try:
        for index in range(workload.rounds_for(args.seconds)):
            ops += workload.run_round(index).ops
            workload.release(ops)
        peak = _peak_rss_mb()
    finally:
        workload.close()
    errors, literals = workload.verify([op for op in ops if op.ok])
    summary = _summarize(ops)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(summary["ops_per_s"], "1/s"),
        "op_s": _metric(summary["op_s"], "s"),
        "peak_rss_mb": _metric(peak, "MB"),
        "cover_literals": _metric(literals, "count"),
    }
    return {"ops": ops, "errors": errors, "metrics": metrics}


def _per_layer(args, workload) -> Dict[str, object]:
    workload.prepare()
    try:
        outcome = workload.run_round(0)
    finally:
        workload.close()
    errors, _ = workload.verify([op for op in outcome.ops if op.ok])
    numbers = workload.layer_metrics(outcome)
    env = dict(os.environ, PYTHONHASHSEED=PROFILE_HASH_SEED)
    profiled = json.loads(_spawn(args, "profile", env).stdout.splitlines()[-1])
    for layer in LAYERS:
        numbers[f"{layer}.calls"] = profiled["layers"][layer]["calls"]
        numbers[f"{layer}.self_s"] = profiled["layers"][layer]["self_s"]
    numbers["tracing.overhead"] = profiled["reference_s"] / outcome.reference_s
    numbers["host.probe_ms"] = 1000 * statistics.fmean(op.probe for op in outcome.ops)
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        metrics[name] = _metric(numbers.get(name, 0), unit)
    return {"ops": outcome.ops, "errors": errors, "metrics": metrics}


#: Every per-layer metric and its unit; a metric a workload does not
#: exercise reads 0.
PER_LAYER_UNITS: Dict[str, str] = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{
        f"stage.{stage}_s": "s"
        for stage in ("properties", "derive", "maximality", "obligations", "faults", "analysis")
    },
    "bdd.lookups": "count",
    "bdd.live_nodes": "count",
    "store.hits": "count",
    "store.misses": "count",
    "store.artifact_hits": "count",
    "store.mb": "MB",
    "service.cold_s": "s",
    "service.cached_s": "s",
    "service.reseed_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "http.overhead_s": "s",
    "tracing.overhead": "ratio",
    "host.probe_ms": "ms",
}


def _profile_round(workload) -> None:
    workload.prepare()
    try:
        with LayerProfiler() as profiler:
            outcome = workload.run_round(0)
    finally:
        workload.close()
    print(json.dumps({"reference_s": outcome.reference_s, "layers": profiler.rollup()}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, seconds long")
    parser.add_argument("--child", choices=("setup", "profile"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {SOURCE}", file=sys.stderr)
        return 2
    # One vCPU for every thread of the run, so the host-speed readings
    # (hostprobe.py) describe the CPU the operations ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe_before = probe_seconds()
    setup_start = time.perf_counter()
    sys.path.insert(0, str(SOURCE))
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        workload = make_workload(args.workload, args.seed, args.smoke, scratch)
        if args.child == "setup":
            workload.prepare()
            workload.close()
            seconds = time.perf_counter() - setup_start
            probe = (probe_before + probe_seconds()) / 2
            print(json.dumps({"reference_s": to_reference(seconds, probe)}))
            return 0
        if args.child == "profile":
            _profile_round(workload)
            return 0
        run = (_per_layer if args.trace else _end_to_end)(args, workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run is still using it
    ops = run["ops"]
    for error in run["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not run["errors"],
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op.ok),
        "metrics": run["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
