"""Output checks made apart from the code paths the workloads time.

* A derived interlock is compared with :func:`concrete_most_liberal`,
  the concrete fixed-point iteration (a separate code path from the BDD
  derivation), on seeded samples of input valuations — both the BDD
  closed forms and their materialized minimized covers.
* A verification job must pass every stage, its analysis trace must
  show zero hazards, zero unnecessary stalls and zero assertion
  violations, and every non-vacuous injected fault must be detected.
* Two answers for the same job (a service answer against an in-process
  run, a cached answer against its cold one, one repetition against
  another) must agree on every verdict and on every detail that does
  not depend on where the derivation came from.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Dict, List

from repro.campaign import JobResult
from repro.expr.evaluate import eval_expr
from repro.expr.minimize import literal_count
from repro.spec import concrete_most_liberal

#: Input valuations sampled per derived interlock, at each of the
#: densities below (a sparse, a balanced and a dense share of true inputs,
#: so valuations that stall and valuations that do not both occur).
SAMPLES_PER_DENSITY = 16
DENSITIES = (0.1, 0.5, 0.9)

#: Derive-stage details that record where the derivation came from (warm
#: state, store artifact, fresh computation) and the kernel counters of
#: that source; they legitimately differ between equal answers.
_SOURCE_DETAILS = ("source", "kernel")


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(seed * 1_000_003 + zlib.crc32(label.encode("utf-8")))


def cover_literals(derivation) -> int:
    """Total literals of the derivation's minimized ``MOE`` covers."""
    return sum(literal_count(expr) for expr in derivation.moe_expressions.values())


def check_derivation(label: str, spec, derivation, seed: int) -> List[str]:
    """The closed forms agree with the concrete fixed point on samples."""
    errors: List[str] = []
    rng = _rng(seed, label)
    inputs = spec.input_signals()
    covers = derivation.moe_expressions
    stalls_seen = 0
    for density in DENSITIES:
        for _ in range(SAMPLES_PER_DENSITY):
            valuation = {name: rng.random() < density for name in inputs}
            expected = concrete_most_liberal(spec, valuation)
            symbolic = derivation.evaluate(valuation)
            for moe, cover in covers.items():
                if symbolic[moe] != expected[moe]:
                    errors.append(f"{label}: BDD closed form of {moe} disagrees")
                if eval_expr(cover, valuation) != expected[moe]:
                    errors.append(f"{label}: minimized cover of {moe} disagrees")
                stalls_seen += not expected[moe]
            if errors:
                return errors
    if stalls_seen == 0:
        errors.append(f"{label}: no sampled valuation stalls; the samples check nothing")
    return errors


def check_job_result(result: JobResult) -> List[str]:
    """A job's own verdicts plus the trace and fault-campaign invariants."""
    label = result.job.arch
    if not result.ok:
        return [f"{label}: job failed {result.failed_stages()} {result.error or ''}"]
    errors = []
    stages = {stage.name: stage.details for stage in result.stages}
    analysis = stages.get("analysis")
    if analysis is not None:
        for counter in ("hazards", "unnecessary_stalls", "assertion_violations"):
            if analysis[counter] != 0:
                errors.append(f"{label}: analysis reports {analysis[counter]} {counter}")
        if analysis["cycles"] <= 0:
            errors.append(f"{label}: analysis simulated no cycles")
    faults = stages.get("faults")
    if faults is not None and faults.get("injected"):
        effective = faults["injected"] - faults["vacuous"]
        if faults["detected_any"] != effective or faults["missed"] != 0:
            errors.append(
                f"{label}: {faults['detected_any']} of {effective} "
                "non-vacuous faults detected"
            )
    return errors


def _comparable(result: JobResult) -> Dict[str, Any]:
    stages = {}
    for stage in result.stages:
        details = {
            key: value
            for key, value in stage.details.items()
            if not (stage.name == "derive" and key in _SOURCE_DETAILS)
        }
        stages[stage.name] = (stage.ok, details)
    return {"arch": result.job.arch, "ok": result.ok, "stages": stages}


def check_same_answer(answer: JobResult, reference: JobResult, label: str) -> List[str]:
    """Two results of the same job agree on verdicts and details."""
    if answer.job != reference.job:
        return [f"{label}: answered a different job ({answer.job} vs {reference.job})"]
    if _comparable(answer) != _comparable(reference):
        return [
            f"{label}: answer differs from reference: "
            f"{_comparable(answer)} != {_comparable(reference)}"
        ]
    return []
