"""Declarative sweep orchestration.

The paper's whole evaluation is a grid: workloads × nesting depths (or
image sizes) × compiler modes × machine configs × engines.  This module
makes that grid a first-class object:

* :class:`SweepCell` — one point of the grid, self-describing (it can
  produce its own structural fingerprint, and run itself through the
  two-level run cache);
* :class:`SweepSpec` — a named, deduplicated set of cells (the
  experiments' ``*_cells`` builders declare the grids);
* :func:`run_sweep` — evaluate a spec: partition cells into already-
  cached / on-disk / to-compute, fan the remainder out across a worker
  pool (:mod:`repro.harness.parallel`), and install results in
  submission-independent order;
* :func:`sweep_results` — one sweep over an experiment's grid, each cell
  paired with its result: what the experiment renderers read, so every
  table/figure pulls from the same orchestrated path (serial and
  parallel runs are bit-identical).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engine import _resolve_engine
from repro.harness import parallel
from repro.harness.failures import (
    CellFailure,
    ExecutionPolicy,
    RunOutcome,
    SweepInterrupted,
)
from repro.harness.runner import (
    CELL_KINDS,
    RunResult,
    _cached_run,
    cell_descriptor,
    get_store,
    probe,
)
from repro.harness.store import fingerprint
from repro.uarch.config import MachineConfig

@dataclass
class SweepCell:
    """One grid point: a workload spec on a machine, mode, and engine.

    ``kind`` names a :data:`~repro.harness.runner.CELL_KINDS` entry —
    ``"micro"``, ``"djpeg"`` and ``"workload"`` simulate a workload,
    ``"attack"`` runs a statistical attack, ``"verify"`` a
    static-vs-dynamic differential — and ``spec`` must be that kind's
    spec type.  A bad kind, spec or engine is rejected here, before any
    sweep starts; an unknown mode fails in :meth:`descriptor`.
    """

    kind: str
    spec: object                               # CELL_KINDS[kind].spec_type
    mode: str                                  # registered defense name
    config: MachineConfig | None = None
    engine: str = "fast"

    def __post_init__(self) -> None:
        entry = CELL_KINDS.get(self.kind)
        if entry is None:
            raise ValueError(f"unknown cell kind {self.kind!r}; "
                             f"choose from {tuple(CELL_KINDS)}")
        if not isinstance(self.spec, entry.spec_type):
            raise ValueError(
                f"a {self.kind!r} cell takes a "
                f"{entry.spec_type.__name__}, not "
                f"{type(self.spec).__name__}")
        _resolve_engine(self.engine)

    def descriptor(self) -> dict:
        """The cell's structural identity (the cache/store key).

        Computed once and memoized — a sweep touches each cell's
        identity several times (dedupe, partition, dispatch, install),
        and each computation walks the whole config recursively.  Treat
        cells as frozen once built: mutating spec/config afterwards
        would desynchronize the memo from the contents.
        """
        cached = self.__dict__.get("_descriptor")
        if cached is None:
            cached = cell_descriptor(self.kind, self.spec, self.mode,
                                     self.config, self.engine)
            self.__dict__["_descriptor"] = cached
        return cached

    def fingerprint(self) -> str:
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = fingerprint(self.descriptor())
            self.__dict__["_fingerprint"] = cached
        return cached

    def run(self) -> RunResult:
        """Evaluate through the run cache (L1 → store → compute)."""
        return _cached_run(self.descriptor(), self.spec, self.config)


@dataclass
class SweepSpec:
    """A named, deduplicated collection of sweep cells."""

    name: str
    cells: list[SweepCell] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.cells = _dedupe(self.cells)

    def __len__(self) -> int:
        return len(self.cells)


def _dedupe(cells: list[SweepCell]) -> list[SweepCell]:
    unique: dict[str, SweepCell] = {}
    for cell in cells:
        unique.setdefault(cell.fingerprint(), cell)
    return list(unique.values())


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------

@dataclass
class SweepStats:
    """Where each cell of one sweep came from — and how the rest died."""

    sweep: str
    cells: int = 0          # unique grid points
    cached: int = 0         # already in the in-process cache
    from_store: int = 0     # loaded from the on-disk store
    computed: int = 0       # simulated this run
    quarantined: int = 0    # skipped: a poison record marked them failed
    aborted: bool = False   # the failure budget stopped the sweep early
    interrupted: bool = False   # Ctrl-C stopped the sweep
    failures: list[CellFailure] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Permanent failures this run (quarantine skips included)."""
        return len(self.failures)

    @property
    def remaining(self) -> int:
        """Cells with neither a result nor a failure record."""
        return (self.cells - self.cached - self.from_store
                - self.computed - self.failed)

    @property
    def ok(self) -> bool:
        return not (self.failures or self.aborted or self.interrupted)

    def summary(self) -> str:
        line = (f"sweep {self.sweep}: {self.cells} cells — "
                f"{self.cached} cached, {self.from_store} from store, "
                f"{self.computed} computed")
        if not self.ok:
            extras = [f"{self.failed} failed"]
            if self.quarantined:
                extras.append(f"{self.quarantined} quarantined")
            if self.remaining:
                extras.append(f"{self.remaining} not run")
            if self.aborted:
                extras.append("ABORTED (failure budget exceeded)")
            if self.interrupted:
                extras.append("INTERRUPTED")
            line += ", " + ", ".join(extras)
        return line

    def adopt(self, outcome: RunOutcome) -> None:
        """Fold one ``run_cells`` outcome into the sweep totals."""
        self.computed += outcome.computed
        self.failures.extend(outcome.failures)
        self.aborted = self.aborted or outcome.aborted
        self.interrupted = self.interrupted or outcome.interrupted


class SweepFailed(RuntimeError):
    """A sweep left cells failed where every result was needed; the
    message names each of them, and ``stats`` is the sweep's stats."""

    def __init__(self, stats: SweepStats) -> None:
        super().__init__("\n  ".join(
            [stats.summary()]
            + [failure.describe() for failure in stats.failures]))
        self.stats = stats


def check_jobs(jobs: int) -> None:
    """Reject a worker-pool width below one."""
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")


def run_sweep(spec: SweepSpec, jobs: int | None = None,
              progress: parallel.ProgressFn | None = None,
              policy: ExecutionPolicy | None = None) -> SweepStats:
    """Evaluate every cell of *spec*; afterwards all cells are L1 hits.

    Cells already in the in-process cache are skipped; cells present in
    the configured store are loaded (a store hit); cells the store has
    *quarantined* (a persisted failure record from an earlier run) are
    skipped as known-failed unless ``policy.retry_quarantined`` clears
    them; the remainder is simulated — serially for ``jobs=1``, else
    across a fault-tolerant worker pool — and installed into the cache
    and store in fingerprint order, so the resulting state is
    bit-identical for any ``jobs``.  Failures are collected into
    ``stats.failures`` (see :class:`~repro.harness.failures.CellFailure`)
    rather than raised; a healthy sweep has ``stats.ok``.  ``jobs=None``
    means one.
    """
    jobs = 1 if jobs is None else jobs
    check_jobs(jobs)
    policy = policy or ExecutionPolicy()
    stats = SweepStats(sweep=spec.name, cells=len(spec.cells))
    store = get_store()
    to_compute: list[SweepCell] = []
    for cell in spec.cells:
        descriptor = cell.descriptor()
        where = probe(descriptor)
        if where == "cache":
            stats.cached += 1
            continue
        if where == "store":
            stats.from_store += 1
            continue
        if store is not None:
            fp = cell.fingerprint()
            if store.contains_failure(fp):
                if policy.retry_quarantined:
                    store.clear_failure(fp)
                else:
                    record = store.get_failure(fp, descriptor)
                    if record is not None:
                        failure = CellFailure.from_dict(record)
                        failure.quarantined = True
                        stats.failures.append(failure)
                        stats.quarantined += 1
                        continue
                    # The record was stale/corrupt and has been
                    # dropped; fall through and recompute the cell.
        to_compute.append(cell)
    try:
        outcome = parallel.run_cells(to_compute, jobs=jobs,
                                     progress=progress, policy=policy)
    except SweepInterrupted as stop:
        stats.adopt(stop.outcome)
        stop.stats = stats   # the CLI summarizes the partial sweep
        raise
    stats.adopt(outcome)
    return stats


def sweep_results(name: str, cells: list[SweepCell],
                  jobs: int | None = None
                  ) -> list[tuple[SweepCell, RunResult]]:
    """Sweep *cells* once and pair each with its result, in order.

    A failed cell raises :class:`SweepFailed` naming every failed cell;
    after a healthy sweep every cell is resident, so no cell is ever
    computed twice.
    """
    stats = run_sweep(SweepSpec(name, cells), jobs=jobs)
    if not stats.ok:
        raise SweepFailed(stats)
    return [(cell, cell.run()) for cell in cells]
