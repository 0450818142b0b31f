"""cProfile-backed per-phase breakdown of a timing-model run.

The out-of-order pipeline is one fused loop, so a flat profile does not
say where the cycles go.  :func:`phase_breakdown` buckets ``tottime`` by
*model phase* instead of by function:

* ``fetch``    — instruction-side hierarchy walks and the branch
  predictors (TAGE/BTB/ITTAGE/RAS) — the front end;
* ``memory``   — data-side hierarchy walks, caches, prefetchers;
* ``schedule`` — the pipeline loop's own ``tottime``: rename, dispatch,
  issue-port and ROB/LSQ accounting, commit (the fused loop makes these
  inseparable without instrumenting the hot path, which would slow the
  thing being measured);
* ``functional`` — the architectural executors (``repro.arch``);
* ``other``    — everything else (harness, hashing, I/O).

``repro run --profile-pipeline`` prints this table.
"""

from __future__ import annotations

import cProfile
import pstats
from contextlib import contextmanager

_FETCH_FUNCS = frozenset((
    "access_instruction", "fetch_latency",
))
_MEMORY_FUNCS = frozenset((
    "access_data", "data_latency",
))
# Module-path fragments checked against the profiled filename.
_FETCH_MODULES = ("uarch/branch",)
_MEMORY_MODULES = ("mem/cache", "mem/hierarchy", "mem/prefetch")
_SCHEDULE_MODULES = ("uarch/pipeline", "uarch/batch_pipeline")
_FUNCTIONAL_MODULES = ("arch/", "isa/", "mem/memory", "mem/scratchpad")

PHASES = ("fetch", "memory", "schedule", "functional", "other")


def _classify(filename: str, funcname: str) -> str:
    path = filename.replace("\\", "/")
    if funcname in _FETCH_FUNCS or any(m in path for m in _FETCH_MODULES):
        return "fetch"
    if funcname in _MEMORY_FUNCS or any(m in path for m in _MEMORY_MODULES):
        return "memory"
    if any(m in path for m in _SCHEDULE_MODULES):
        return "schedule"
    if any(m in path for m in _FUNCTIONAL_MODULES):
        return "functional"
    return "other"


def phase_breakdown(profile: cProfile.Profile) -> dict[str, float]:
    """Seconds of ``tottime`` per model phase (every phase present)."""
    totals = dict.fromkeys(PHASES, 0.0)
    for (filename, _lineno, funcname), row in \
            pstats.Stats(profile).stats.items():
        tottime = row[2]
        totals[_classify(filename, funcname)] += tottime
    return totals


def format_breakdown(profile: cProfile.Profile) -> str:
    """The ``--profile-pipeline`` table: per-phase seconds and shares."""
    totals = phase_breakdown(profile)
    grand = sum(totals.values()) or 1.0
    lines = ["pipeline profile (tottime by model phase):"]
    for phase in PHASES:
        seconds = totals[phase]
        lines.append(f"  {phase:<10} {seconds:8.3f}s  "
                     f"{100.0 * seconds / grand:5.1f}%")
    lines.append(f"  {'total':<10} {grand:8.3f}s")
    return "\n".join(lines)


@contextmanager
def profiled_pipeline():
    """Profile a block and print the phase table when it exits."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        yield profile
    finally:
        profile.disable()
        print(format_breakdown(profile))
