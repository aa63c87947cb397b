"""Per-layer call counts and self time from the stdlib profiler.

A layer is a package under ``src/repro``.  One :class:`cProfile.Profile`
runs in the calling thread and one more in every thread started while
profiling (the service daemon's event loop and runner threads), and the
entries of all of them are rolled up by the package their code lives in.
Calls to C functions are not attributed to any layer.

Coroutine and async-generator frames are left out of ``calls``, and so
are the calls such frames make directly: the profiler counts every
resumption of a coroutine as a call, and how often a stream loop wakes
(and re-tests its condition) depends on how many events had arrived when
it woke, not on the work done.  With them left out, the counts of two
runs of the same inputs are identical.  Self time counts every frame.
"""

from __future__ import annotations

import cProfile
import inspect
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional

#: The layers reported, in the order they are printed.
LAYERS = (
    "bdd",
    "symbolic",
    "spec",
    "checking",
    "expr",
    "faults",
    "pipeline",
    "assertions",
    "analysis",
    "campaign",
    "service",
)

_RESUMABLE = inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


def _resumable(code) -> bool:
    return not isinstance(code, str) and bool(code.co_flags & _RESUMABLE)


def layer_of(filename: str) -> Optional[str]:
    """The ``repro`` package a source file belongs to, if any."""
    parts = Path(filename).parts
    for index in range(len(parts) - 2, 0, -1):
        if parts[index] == "repro":
            return parts[index + 1] if index + 2 < len(parts) else None
    return None


class LayerProfiler:
    """Context manager profiling this thread and every thread it starts."""

    def __init__(self) -> None:
        self.profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _start_in_thread(self, frame, event, arg) -> None:
        # threading installs this hook as the new thread's profile
        # function; the first event swaps it for a real profiler.
        sys.setprofile(None)
        profile = cProfile.Profile()
        with self._lock:
            self.profiles.append(profile)
        profile.enable()

    def __enter__(self) -> "LayerProfiler":
        threading.setprofile(self._start_in_thread)
        self._main = cProfile.Profile()
        self.profiles.append(self._main)
        self._main.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        self._main.disable()
        threading.setprofile(None)

    def rollup(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls": n, "self_s": seconds}}`` over all threads."""
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        entries = [entry for profile in self.profiles for entry in profile.getstats()]
        from_resumable: Dict[object, int] = {}
        for entry in entries:
            if _resumable(entry.code):
                for call in entry.calls or ():
                    from_resumable[call.code] = (
                        from_resumable.get(call.code, 0) + call.callcount
                    )
        for entry in entries:
            code = entry.code
            if isinstance(code, str):
                continue
            layer = layer_of(code.co_filename)
            if layer not in totals:
                continue
            if not _resumable(code):
                totals[layer]["calls"] += entry.callcount - from_resumable.get(code, 0)
            totals[layer]["self_s"] += entry.inlinetime
        return totals
