"""Failure as a first-class sweep outcome.

A sweep over untrusted or generated programs must survive misbehaving
cells: a cell that raises, a cell that never terminates, a worker that
the OS kills.  This module defines the vocabulary the fault-tolerant
execution layer (:mod:`repro.harness.parallel`) speaks:

* :class:`CellFailure` — a JSON-safe record of one cell's permanent
  failure (what kind, which exception, after how many attempts).  These
  are installed next to successful reports and persisted as quarantine
  records by the store, so resume never re-runs a known-poisonous cell
  endlessly;
* :class:`ExecutionPolicy` — how a sweep treats failure: per-cell
  deadline, bounded retry with exponential backoff, a permanent-failure
  budget, the ``max_instructions`` fuel budget, and an optional
  deterministic fault plan (:mod:`repro.testing.faults`) for chaos
  testing;
* :class:`RunOutcome` — what one :func:`~repro.harness.parallel.run_cells`
  invocation produced: installed cells, permanent failures, and
  whether the failure budget aborted the sweep;
* :class:`SweepInterrupted` — Ctrl-C during a sweep, carrying the
  partial outcome so the CLI can summarize what finished instead of
  dumping a traceback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The failure taxonomy.  Every permanent failure is exactly one of:
FAILURE_EXCEPTION = "exception"        # the cell raised in the worker
FAILURE_TIMEOUT = "timeout"            # per-cell deadline exceeded (killed)
FAILURE_WORKER_DIED = "worker-died"    # worker process died (OOM, signal)
FAILURE_FUEL = "fuel-exhausted"        # max_instructions budget exhausted

FAILURE_KINDS = (FAILURE_EXCEPTION, FAILURE_TIMEOUT,
                 FAILURE_WORKER_DIED, FAILURE_FUEL)

# Fuel exhaustion is deterministic (the same program burns the same
# instructions on every attempt), so retrying it is pure waste.
RETRYABLE_FAILURES = (FAILURE_EXCEPTION, FAILURE_TIMEOUT,
                      FAILURE_WORKER_DIED)


@dataclass
class CellFailure:
    """One cell's permanent failure, JSON-safe for the quarantine store."""

    fingerprint: str
    name: str
    mode: str
    kind: str              # cell kind: a runner.CELL_KINDS key
    failure: str           # one of FAILURE_KINDS
    error_type: str = ""   # exception class name ("" for timeout/death)
    message: str = ""
    traceback: str = ""
    attempts: int = 1      # attempts consumed (1 = failed first try)
    duration: float = 0.0  # seconds spent on the final attempt
    engine: str = ""
    quarantined: bool = False  # a quarantine record exists for this cell

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "name": self.name,
            "mode": self.mode,
            "kind": self.kind,
            "failure": self.failure,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "duration": self.duration,
            "engine": self.engine,
            "quarantined": self.quarantined,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellFailure":
        return cls(**{key: data[key] for key in cls.__dataclass_fields__
                      if key in data})

    def describe(self) -> str:
        what = self.error_type or self.failure
        detail = f": {self.message}" if self.message else ""
        return (f"{self.name}/{self.mode} [{self.failure}] "
                f"{what}{detail} (attempt {self.attempts})")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a sweep treats cell failure.

    The default policy is maximally conservative and changes nothing
    about a healthy sweep: no deadline, no retries, no failure budget,
    fuel off (the engines' own 50M-instruction backstop still applies),
    no fault injection.
    """

    timeout: float | None = None       # per-attempt deadline, seconds
    retries: int = 0                   # extra attempts after the first
    backoff: float = 0.05              # base retry delay, doubles/attempt
    max_failures: int | None = None    # abort once failures exceed this
    max_instructions: int | None = None  # per-cell fuel budget
    retry_quarantined: bool = False    # clear poison records and re-run
    fault_plan: "object | None" = None  # repro.testing.faults.FaultPlan

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(
                f"--timeout must be positive, got {self.timeout}")
        if self.retries < 0:
            raise ValueError(f"--retries must be >= 0, got {self.retries}")
        if self.max_failures is not None and self.max_failures < 0:
            raise ValueError(
                f"--max-failures must be >= 0, got {self.max_failures}")
        if self.max_instructions is not None and self.max_instructions <= 0:
            raise ValueError("--max-instructions must be positive, got "
                             f"{self.max_instructions}")
        if (self.fault_plan is not None and self.fault_plan.has_hangs()
                and self.timeout is None):
            raise ValueError("--chaos can inject hangs; give --timeout so "
                             "they are killable")

    def needs_isolation(self) -> bool:
        """Whether cells must run in worker processes even at jobs=1.

        A deadline can only be enforced on a killable process, and a
        fault plan may hang or kill its host — neither is survivable
        in the parent.
        """
        return self.timeout is not None or self.fault_plan is not None


@dataclass
class RunOutcome:
    """What one ``run_cells`` invocation produced."""

    total: int = 0                 # unique cells submitted
    computed: int = 0              # reports installed
    failures: list[CellFailure] = field(default_factory=list)
    aborted: bool = False          # failure budget exceeded, stopped early
    interrupted: bool = False      # Ctrl-C stopped the sweep

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def resolved(self) -> int:
        return self.computed + self.failed

    @property
    def remaining(self) -> int:
        """Cells neither installed nor permanently failed."""
        return self.total - self.resolved

    @property
    def ok(self) -> bool:
        return (not self.failures and not self.aborted
                and not self.interrupted)


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C during a sweep, carrying the partial :class:`RunOutcome`.

    Subclasses :class:`KeyboardInterrupt` so callers that don't know
    about sweeps still see an ordinary interrupt.
    """

    def __init__(self, outcome: RunOutcome) -> None:
        super().__init__("sweep interrupted")
        outcome.interrupted = True
        self.outcome = outcome
        # run_sweep attaches its SweepStats on the way out, so the CLI
        # can summarize the whole partial sweep, not just run_cells.
        self.stats = None
