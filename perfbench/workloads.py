"""The benchmark's four workloads.

Each workload drives the program through its public API in a closed
loop — one operation at a time, from one process — and hands back a
list of :class:`Op` records.  A *round* is one pass over the workload's
fixed list of operations; a run repeats whole rounds (odd rounds in
reverse order, so each operation's repetitions are spread across the
run rather than adjacent).

Workloads:

``sweep_wide``
    cold verification of the eight two-issue family members with the
    default job knobs (property checks dominate).
``sweep_narrow``
    cold verification of sixteen single-issue members with a heavier
    fault campaign (fault injection and simulation dominate).
``derive_scale``
    fixed-point derivation plus ISOP cover materialization of the
    FirePath-like machine at 16, 64 and 256 scoreboard registers.
``service_reseed``
    an in-process daemon and one client: per architecture a cold
    submission, an unchanged resubmission (answered from the store) and a
    resubmission with a new workload seed.

Sweeps run jobs with :func:`run_verification_job` in this process (the
code a pool worker runs too), with no result store, and drop the warm
per-architecture state before every job so each job is cold.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.archs import firepath_like_architecture, load_architecture
from repro.archs.family import generate_family
from repro.campaign import (
    CANONICAL_STAGES,
    JobResult,
    JobSpec,
    clear_warm_state,
    run_verification_job,
)
from repro.service import start_service
from repro.spec import build_functional_spec, symbolic_most_liberal

from hostprobe import ProbedClock, to_reference
from checks import (
    check_derivation,
    check_job_result,
    check_same_answer,
    cover_literals,
)

Verdict = Tuple[List[str], int]


@dataclass
class Op:
    """One timed operation of one round."""

    key: str  # which operation of the round (same key = same inputs)
    kind: str  # "job", "derive", or the service request class
    seconds: float  # measured wall time
    probe: float  # host probe reading around the operation
    ok: bool
    result: Any = None  # JobResult, DerivationResult or service record
    extra: Dict[str, Any] = field(default_factory=dict)

    def scale(self, seconds: float) -> float:
        """A time measured during this operation, in reference seconds."""
        return to_reference(seconds, self.probe)

    @property
    def reference_s(self) -> float:
        return self.scale(self.seconds)


@dataclass
class RoundOutcome:
    """The operations of one round, plus what the round reported on the side."""

    ops: List[Op]
    layers: Dict[str, Any] = field(default_factory=dict)

    @property
    def reference_s(self) -> float:
        """Time of the round's operations, in reference seconds."""
        return sum(op.reference_s for op in self.ops)


def _ordered(items: List[Any], round_index: int) -> List[Any]:
    return list(items) if round_index % 2 == 0 else list(reversed(items))


def _stage_seconds(pairs: List[Tuple[Op, JobResult]]) -> Dict[str, float]:
    """Stage seconds summed over jobs, each scaled by its operation's probe."""
    totals = {f"stage.{name}_s": 0.0 for name in CANONICAL_STAGES}
    for op, result in pairs:
        for stage in result.stages:
            totals[f"stage.{stage.name}_s"] += op.scale(stage.seconds)
    return totals


def _kernel_totals(kernels: List[Dict[str, Any]]) -> Dict[str, float]:
    return {
        "bdd.lookups": sum(k["cache_hits"] + k["cache_misses"] for k in kernels),
        "bdd.live_nodes": sum(k["live_nodes"] for k in kernels),
    }


class Workload:
    """Common shape: ``prepare`` → ``run_round``\\* → ``close`` → checks."""

    name = ""
    #: Seconds one round takes on the reference host (2 vCPU Xeon,
    #: Python 3.11); a run repeats ``round(seconds / REFERENCE_ROUND_S)``
    #: rounds, at least one, so its work is fixed by ``--seconds`` and its
    #: length is about ``--seconds`` on that host.
    REFERENCE_ROUND_S = 1.0

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def rounds_for(self, seconds: float) -> int:
        if self.smoke:
            return 2
        return max(1, round(seconds / self.REFERENCE_ROUND_S))

    def prepare(self) -> None:
        """Set-up that precedes the first timed operation."""

    def run_round(self, round_index: int) -> RoundOutcome:
        raise NotImplementedError

    def release(self, ops: List[Op]) -> None:
        """Drop what :meth:`verify` will not need from finished rounds."""

    def close(self) -> None:
        """Release what :meth:`prepare` acquired."""

    def verify(self, ops: List[Op]) -> Verdict:
        """Independent output checks, run after the timed region.

        Returns the failed checks and the total literals of the minimized
        covers of every interlock the workload derives.
        """
        raise NotImplementedError

    def layer_metrics(self, outcome: RoundOutcome) -> Dict[str, float]:
        """Per-layer numbers read from one untraced round's public results."""
        raise NotImplementedError


class _Sweep(Workload):
    """Cold verification jobs over a fixed list of family members."""

    JOB_KNOBS: Dict[str, int] = {}

    def archs(self) -> List[str]:
        raise NotImplementedError

    def jobs(self) -> List[JobSpec]:
        return [
            JobSpec(arch=arch, workload_seed=self.seed, **self.JOB_KNOBS)
            for arch in self.archs()
        ]

    def run_round(self, round_index: int) -> RoundOutcome:
        ops = []
        clock = ProbedClock()
        for job in _ordered(self.jobs(), round_index):
            clear_warm_state()
            result, seconds, probe = clock.time(run_verification_job, job)
            ops.append(Op(job.arch, "job", seconds, probe, result.ok, result))
        return RoundOutcome(ops)

    def verify(self, ops: List[Op]) -> Verdict:
        errors: List[str] = []
        first: Dict[str, JobResult] = {}
        for op in ops:
            errors += check_job_result(op.result)
            reference = first.setdefault(op.key, op.result)
            errors += check_same_answer(op.result, reference, op.key + " repeat")
        errors_and_literals = [_derive_and_check(arch, self.seed) for arch in self.archs()]
        for more, _ in errors_and_literals:
            errors += more
        return errors, sum(literals for _, literals in errors_and_literals)

    def layer_metrics(self, outcome: RoundOutcome) -> Dict[str, float]:
        passed = [op for op in outcome.ops if op.ok]
        metrics = _stage_seconds([(op, op.result) for op in passed])
        metrics.update(
            _kernel_totals([op.result.stage("derive").details["kernel"] for op in passed])
        )
        return metrics


class SweepWide(_Sweep):
    name = "sweep_wide"
    REFERENCE_ROUND_S = 16.0

    def archs(self) -> List[str]:
        if self.smoke:
            return ["fam-r2w2d4s1-bypass", "fam-r2w2d4s1-blocking"]
        configs = generate_family(
            registers=(2, 4), widths=(2,), depths=(4, 5), styles=("bypass", "blocking")
        )
        return [config.name for config in configs]


class SweepNarrow(_Sweep):
    name = "sweep_narrow"
    REFERENCE_ROUND_S = 10.0
    JOB_KNOBS = {"workload_length": 64, "max_faults": 6, "num_programs": 2}

    def archs(self) -> List[str]:
        if self.smoke:
            return ["fam-r2w1d3s1-bypass", "fam-r2w1d3s1-blocking"]
        configs = generate_family(
            registers=(2, 4),
            widths=(1,),
            depths=(3, 4, 5, 6),
            styles=("bypass", "blocking"),
        )
        return [config.name for config in configs]


class DeriveScale(Workload):
    """Derivation + cover materialization at growing scoreboard sizes."""

    name = "derive_scale"
    REFERENCE_ROUND_S = 1.3

    def sizes(self) -> List[int]:
        return [4, 8] if self.smoke else [16, 64, 256]

    def prepare(self) -> None:
        self.specs = {
            size: build_functional_spec(firepath_like_architecture(num_registers=size))
            for size in self.sizes()
        }

    def run_round(self, round_index: int) -> RoundOutcome:
        ops = []
        clock = ProbedClock()
        for size in _ordered(self.sizes(), round_index):
            derivation, seconds, probe = clock.time(_derive, self.specs[size])
            ops.append(Op(f"r{size}", "derive", seconds, probe, True, derivation))
        return RoundOutcome(ops)

    def release(self, ops: List[Op]) -> None:
        # Keep one derivation per size for the checks; later repetitions
        # keep only their cover size, so memory does not grow per round.
        seen = set()
        for op in ops:
            if op.key in seen and op.result is not None:
                op.extra["literals"] = cover_literals(op.result)
                op.result = None
            seen.add(op.key)

    def verify(self, ops: List[Op]) -> Verdict:
        errors: List[str] = []
        literals: Dict[str, int] = {}
        for op in ops:
            if op.result is None:
                count = op.extra["literals"]
            else:
                count = cover_literals(op.result)
            if op.key not in literals:
                literals[op.key] = count
                size = int(op.key[1:])
                errors += check_derivation(op.key, self.specs[size], op.result, self.seed)
            elif literals[op.key] != count:
                errors.append(f"{op.key}: cover size differs between repetitions")
        return errors, sum(literals.values())

    def layer_metrics(self, outcome: RoundOutcome) -> Dict[str, float]:
        return _kernel_totals(
            [op.result.context.manager.stats().as_dict() for op in outcome.ops]
        )


class ServiceReseed(Workload):
    """Daemon + client: cold, cached and reseeded requests per architecture.

    Every round starts a daemon on a fresh store (so every round's cold
    requests really are cold) and stops it afterwards; only the requests
    themselves are inside the timed region.
    """

    name = "service_reseed"
    REFERENCE_ROUND_S = 2.5
    CLASSES = ("cold", "cached", "reseed")

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        super().__init__(seed, smoke)
        self.scratch = scratch

    def archs(self) -> List[str]:
        if self.smoke:
            return ["fam-r2w1d3s1-bypass"]
        return [
            "fam-r2w1d3s1-bypass",
            "fam-r2w1d3s1-blocking",
            "fam-r2w1d4s1-bypass",
            "fam-r2w1d4s1-blocking",
        ]

    def job_for(self, arch: str, kind: str) -> JobSpec:
        return JobSpec(arch=arch, workload_seed=self.seed + (kind == "reseed"))

    def _start(self):
        root = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        return root, start_service(store_root=root, workers=1)

    def prepare(self) -> None:
        root, service = self._start()
        service.stop()
        shutil.rmtree(root, ignore_errors=True)

    def run_round(self, round_index: int) -> RoundOutcome:
        root, service = self._start()
        try:
            client = service.client()
            ops = []
            clock = ProbedClock()
            for arch in _ordered(self.archs(), round_index):
                clear_warm_state()
                for kind in self.CLASSES:
                    job = self.job_for(arch, kind)
                    record, seconds, probe = clock.time(_request, client, job)
                    ok = record["state"] == "done" and bool(record["ok"])
                    ops.append(Op(f"{arch}/{kind}", kind, seconds, probe, ok, record))
            store = client.store()["store"]
        finally:
            service.stop()
            shutil.rmtree(root, ignore_errors=True)
        return RoundOutcome(ops, {"store": store})

    def verify(self, ops: List[Op]) -> Verdict:
        errors: List[str] = []
        for op in ops:
            if op.kind == "cached" and not op.result["from_cache"]:
                errors.append(f"{op.key}: resubmission was not answered from the store")
            if op.kind != "cached" and op.result["from_cache"]:
                errors.append(f"{op.key}: new request answered from the store")
        answers = {op.key: op for op in ops}
        for arch in self.archs():
            for kind in ("cold", "reseed"):
                clear_warm_state()
                reference = run_verification_job(self.job_for(arch, kind))
                errors += check_job_result(reference)
                for op in ops:
                    if op.key == f"{arch}/{kind}" or (
                        kind == "cold" and op.key == f"{arch}/cached"
                    ):
                        (answer,) = _answer_results(op.result)
                        errors += check_same_answer(answer, reference, op.key)
            cold, cached = answers.get(f"{arch}/cold"), answers.get(f"{arch}/cached")
            if cold is not None and cached is not None:
                (cold_answer,) = _answer_results(cold.result)
                (cached_answer,) = _answer_results(cached.result)
                errors += check_same_answer(cached_answer, cold_answer, f"{arch} cached vs cold")
        clear_warm_state()
        errors_and_literals = [_derive_and_check(arch, self.seed) for arch in self.archs()]
        for more, _ in errors_and_literals:
            errors += more
        return errors, sum(literals for _, literals in errors_and_literals)

    def layer_metrics(self, outcome: RoundOutcome) -> Dict[str, float]:
        # Cached answers replay the cold answer's stored stages.
        executed = [
            (op, result)
            for op in outcome.ops
            if op.ok and op.kind != "cached"
            for result in _answer_results(op.result)
        ]
        metrics = _stage_seconds(executed)
        metrics.update(
            _kernel_totals([r.stage("derive").details["kernel"] for _, r in executed])
        )
        store = outcome.layers["store"]
        metrics["store.hits"] = store["stats"]["hits"]
        metrics["store.misses"] = store["stats"]["misses"]
        metrics["store.artifact_hits"] = store["stats"]["artifact_hits"]
        metrics["store.mb"] = store["bytes"]["total"] / 1e6
        queue_wait = run = overhead = 0.0
        for op in outcome.ops:
            record = op.result
            if record["started_at"] is not None:
                queue_wait += op.scale(record["started_at"] - record["submitted_at"])
                run += op.scale(record["finished_at"] - record["started_at"])
            answered = record["finished_at"] - record["submitted_at"]
            overhead += op.scale(op.seconds - answered)
        metrics["service.queue_wait_s"] = queue_wait
        metrics["service.run_s"] = run
        metrics["http.overhead_s"] = overhead
        for kind in self.CLASSES:
            times = [op.reference_s for op in outcome.ops if op.kind == kind]
            metrics[f"service.{kind}_s"] = sum(times) / len(times)
        return metrics


def _derive(spec):
    derivation = symbolic_most_liberal(spec)
    derivation.moe_expressions  # materializes the minimized covers
    derivation.stall_expressions()
    return derivation


def _request(client, job: JobSpec) -> Dict[str, Any]:
    """Submit one job and return its final record (submit → done)."""
    submitted = client.submit(job=job.to_dict())["job"]
    if submitted["state"] == "done":
        return client.job(submitted["id"])
    return client.wait(submitted["id"])


def _derive_and_check(arch: str, seed: int) -> Tuple[List[str], int]:
    """Derive one family member apart from any job and check it."""
    spec = build_functional_spec(load_architecture(arch))
    derivation = symbolic_most_liberal(spec)
    return check_derivation(arch, spec, derivation, seed), cover_literals(derivation)


def _answer_results(record: Dict[str, Any]) -> List[JobResult]:
    return [JobResult.from_dict(job) for job in (record["report"] or {}).get("jobs", [])]


WORKLOADS = {
    cls.name: cls for cls in (SweepWide, SweepNarrow, DeriveScale, ServiceReseed)
}


def make_workload(name: str, seed: int, smoke: bool, scratch: Path) -> Workload:
    cls = WORKLOADS[name]
    if cls is ServiceReseed:
        return cls(seed, smoke, scratch)
    return cls(seed, smoke)


