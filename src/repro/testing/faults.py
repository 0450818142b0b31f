"""Deterministic fault injection for sweep cells.

A :class:`FaultPlan` maps cell fingerprints to faults.  The plan rides
into the worker process inside the cell payload, and the worker applies
it *before* simulating, so a faulted cell misbehaves exactly the way a
hostile or broken cell would:

* ``raise``  — the worker body raises :class:`InjectedFault`;
* ``hang``   — the worker sleeps past any reasonable deadline (then
  raises, so an unenforced hang still terminates eventually);
* ``kill``   — the worker process exits hard (``os._exit``), modelling
  an OOM kill or segfault: no exception, no result, just a dead pid.

Plans are keyed by the cell's structural fingerprint and attempt
number — never by submission order or worker identity — so a plan
produces the *same* faults for ``--jobs 1`` and ``--jobs 8``, and a
``times=N`` fault turns flaky: it fires on the first N attempts and
then lets the cell succeed, which is how the retry path is tested.

:meth:`FaultPlan.seeded` derives a pseudo-random plan from a seed and
a target fault rate, again purely from fingerprints, for chaos smokes
over grids whose cells the test doesn't want to enumerate by hand.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from dataclasses import dataclass, field

# Exit code a "kill" fault dies with; chosen to be recognizable in
# worker post-mortems (it mimics an externally SIGKILLed process as far
# as the parent can tell: no result, dead sentinel).
KILL_EXIT_CODE = 86

# Every fault action fires on attempts 1..times; sys.maxsize = always.
ALWAYS = sys.maxsize

ACTIONS = ("raise", "hang", "kill")


class InjectedFault(RuntimeError):
    """The exception a ``raise`` fault (or an elapsed hang) throws."""


@dataclass(frozen=True)
class FaultSpec:
    """One cell's fault: what happens, for how many attempts.

    ``engines`` restricts the fault to cells *executing* on the named
    engines — e.g. ``("fast",)`` models a fast-engine-only crash, which
    is what the reference-engine fallback path recovers from.
    """

    action: str                        # raise | hang | kill
    times: int = ALWAYS                # fire on attempts 1..times
    hang_seconds: float = 3600.0       # how long a hang sleeps
    engines: tuple[str, ...] | None = None  # None = any engine

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"choose from {ACTIONS}")

    def fires(self, attempt: int, engine: str) -> bool:
        if self.engines is not None and engine not in self.engines:
            return False
        return attempt <= self.times


@dataclass(frozen=True)
class FaultPlan:
    """Fingerprint-keyed fault assignments for one sweep."""

    faults: dict[str, FaultSpec] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.faults)

    def spec_for(self, fp: str) -> FaultSpec | None:
        return self.faults.get(fp)

    def has_hangs(self) -> bool:
        """Whether any fault can hang (such plans need a deadline)."""
        return any(spec.action == "hang" for spec in self.faults.values())

    def apply(self, fp: str, attempt: int, engine: str = "") -> None:
        """Misbehave if the plan faults (*fp*, *attempt*, *engine*).

        Called in the worker before the cell simulates.  Returns
        normally when the cell is healthy (or its fault is exhausted).
        """
        spec = self.faults.get(fp)
        if spec is None or not spec.fires(attempt, engine):
            return
        if spec.action == "kill":
            # Model an OOM kill / segfault: die without cleanup.  Flush
            # nothing, send nothing — the parent must cope with silence.
            os._exit(KILL_EXIT_CODE)
        if spec.action == "hang":
            time.sleep(spec.hang_seconds)
            raise InjectedFault(
                f"injected hang elapsed after {spec.hang_seconds}s "
                f"(cell {fp[:12]}, attempt {attempt})")
        raise InjectedFault(
            f"injected fault (cell {fp[:12]}, attempt {attempt})")

    @classmethod
    def seeded(cls, fingerprints, seed: int, rate: float = 0.25,
               hang_seconds: float = 3600.0,
               actions: tuple[str, ...] = ACTIONS) -> "FaultPlan":
        """A pseudo-random plan over *fingerprints*.

        Each cell is faulted with probability ~*rate*, with the action
        drawn round-robin from *actions*; both draws hash (seed,
        fingerprint) so the plan is a pure function of the cell set and
        seed — identical for any job count and submission order.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"--chaos-rate must be in [0, 1], got {rate}")
        faults: dict[str, FaultSpec] = {}
        for fp in fingerprints:
            digest = hashlib.sha256(
                f"{seed}:{fp}".encode()).digest()
            draw = int.from_bytes(digest[:8], "big") / 2**64
            if draw >= rate:
                continue
            action = actions[digest[8] % len(actions)]
            faults[fp] = FaultSpec(action, hang_seconds=hang_seconds)
        return cls(faults)
