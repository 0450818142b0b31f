"""Declarative sweep orchestration.

The paper's whole evaluation is a grid: workloads × nesting depths (or
image sizes) × compiler modes × machine configs × engines.  This module
makes that grid a first-class object:

* :class:`SweepCell` — one point of the grid, self-describing (it can
  produce its own structural fingerprint, and run itself through the
  two-level run cache);
* :class:`SweepSpec` — a named, deduplicated set of cells, built
  directly or via the :meth:`SweepSpec.grid` cross-product constructor;
* :func:`run_sweep` — evaluate a spec: partition cells into already-
  cached / on-disk / to-compute, fan the remainder out across a worker
  pool (:mod:`repro.harness.parallel`), and install results in
  submission-independent order;
* :func:`ensure_cells` — the hook the experiment functions call before
  assembling their tables, so every table/figure pulls from the same
  orchestrated path (serial and parallel runs are bit-identical).

``set_default_jobs`` lets the CLI's ``repro sweep --jobs N``
parallelize the experiment functions it renders without changing their
signatures (``repro experiments`` has no ``--jobs`` flag and runs its
cells serially).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engine import ENGINES, get_default_engine
from repro.defenses.registry import get_defense
from repro.harness import parallel
from repro.harness.failures import (
    CellFailure,
    ExecutionPolicy,
    RunOutcome,
    SweepInterrupted,
)
from repro.harness.runner import (
    RunResult,
    cell_descriptor,
    get_store,
    probe,
    run_attack,
    run_djpeg,
    run_microbench,
    run_verify,
    run_workload,
)
from repro.harness.store import fingerprint
from repro.analysis.differential import VerifySpec
from repro.security.attackers import AttackSpec
from repro.uarch.config import MachineConfig
from repro.workloads.djpeg import DjpegSpec
from repro.workloads.microbench import MicrobenchSpec
from repro.workloads.registry import WorkloadRunSpec

# Iteration counts used by the paper sweeps (sized so the pure-Python
# timing model finishes in benchmark-friendly time; see DESIGN.md).
MICRO_ITERS = {
    "fibonacci": 12,
    "ones": 10,
    "quicksort": 4,
    "queens": 3,
}

def _variant_for(mode: str) -> str:
    """Microbench source variant for a defense: CTE compiles the
    FaCT-style oblivious rewrite, everything else the natural source.
    Unknown defense names raise here, failing a sweep before any
    simulation starts."""
    return ("oblivious" if get_defense(mode).compile_mode == "cte"
            else "natural")


@dataclass
class SweepCell:
    """One grid point: a workload spec on a machine, mode, and engine.

    ``kind`` is ``"micro"``, ``"djpeg"``, ``"workload"``, ``"attack"``
    (a statistical attack run instead of a bare simulation — same
    caching, same pool, an
    :class:`~repro.security.attackers.AttackReport` as the result) or
    ``"verify"`` (a static-vs-dynamic differential cell producing a
    :class:`~repro.analysis.differential.VerifyReport`).
    """

    kind: str
    spec: MicrobenchSpec | DjpegSpec | WorkloadRunSpec | AttackSpec \
        | VerifySpec
    mode: str                                  # registered defense name
    config: MachineConfig | None = None
    engine: str | None = None                  # None = session default

    def resolved_engine(self) -> str:
        return self.engine or get_default_engine()

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
                                     self.config, self.resolved_engine())
            self.__dict__["_descriptor"] = cached
        return cached

    def fingerprint(self) -> str:
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = fingerprint(self.descriptor())
            self.__dict__["_fingerprint"] = cached
        return cached

    def run(self) -> RunResult:
        """Evaluate through the run cache (L1 → store → simulate).

        Runs on the engine frozen into the memoized descriptor, so the
        result always matches what :meth:`fingerprint` claims even if
        the session default engine changed since the cell was built.
        """
        engine = self.descriptor()["engine"]
        if self.kind == "micro":
            return run_microbench(self.spec, self.mode,
                                  config=self.config, engine=engine)
        if self.kind == "workload":
            return run_workload(self.spec, self.mode,
                                config=self.config, engine=engine)
        if self.kind == "attack":
            return run_attack(self.spec, self.mode,
                              config=self.config, engine=engine)
        if self.kind == "verify":
            return run_verify(self.spec, self.mode,
                              config=self.config, engine=engine)
        return run_djpeg(self.spec, self.mode,
                         config=self.config, engine=engine)


@dataclass
class SweepSpec:
    """A named, deduplicated collection of sweep cells."""

    name: str
    cells: list[SweepCell] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.cells = _dedupe(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def extend(self, cells: list[SweepCell]) -> "SweepSpec":
        """Add *cells* (deduplicated against the existing grid)."""
        self.cells = _dedupe(self.cells + list(cells))
        return self

    @classmethod
    def grid(cls, name: str, *,
             workloads: tuple[str, ...] = (),
             w_sweep: tuple[int, ...] = (),
             iters: dict[str, int] | None = None,
             djpeg_formats: tuple[str, ...] = (),
             djpeg_sizes: tuple[int, ...] = (),
             modes: tuple[str, ...] = ("plain", "sempe"),
             configs: tuple[MachineConfig | None, ...] = (None,),
             engines: tuple[str | None, ...] = (None,)) -> "SweepSpec":
        """Cross-product constructor.

        Builds ``workloads × w_sweep × modes × configs × engines``
        microbenchmark cells plus ``djpeg_formats × djpeg_sizes × modes
        × configs × engines`` djpeg cells.  ``modes`` are registered
        defense names; the source variant follows the defense's
        compiler transform (``cte`` compiles the oblivious rewrite).
        Unknown defenses/engines are rejected up front so a typo fails
        the sweep before any simulation starts.
        """
        iters = iters or MICRO_ITERS
        variants = {mode: _variant_for(mode) for mode in modes}
        for engine in engines:
            if engine is not None and engine not in ENGINES:
                raise ValueError(
                    f"unknown engine {engine!r}; choose from {ENGINES}")
        cells: list[SweepCell] = []
        for config in configs:
            for engine in engines:
                for workload in workloads:
                    for w in w_sweep:
                        for mode in modes:
                            spec = MicrobenchSpec(
                                workload, w=w,
                                iters=iters.get(workload, 1),
                                variant=variants[mode])
                            cells.append(SweepCell(
                                "micro", spec, mode, config, engine))
                for fmt in djpeg_formats:
                    for size in djpeg_sizes:
                        for mode in modes:
                            if variants[mode] == "oblivious":
                                raise ValueError(
                                    "djpeg has no oblivious rewrite; "
                                    "use non-CTE defenses")
                            cells.append(SweepCell(
                                "djpeg", DjpegSpec(fmt, size), mode,
                                config, engine))
        return cls(name, cells)


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
    fellback: int = 0       # installed via the reference-engine fallback
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
        if not self.ok or self.fellback:
            extras = [f"{self.failed} failed"]
            if self.quarantined:
                extras.append(f"{self.quarantined} quarantined")
            if self.fellback:
                extras.append(f"{self.fellback} fell back to reference")
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
        self.fellback += len(outcome.fellback)
        self.aborted = self.aborted or outcome.aborted
        self.interrupted = self.interrupted or outcome.interrupted


_DEFAULT_JOBS = 1


def set_default_jobs(jobs: int) -> None:
    """Worker-pool width used when ``ensure_cells`` isn't given one."""
    global _DEFAULT_JOBS
    _DEFAULT_JOBS = max(1, int(jobs))


def get_default_jobs() -> int:
    return _DEFAULT_JOBS


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
    rather than raised; a healthy sweep has ``stats.ok``.
    """
    jobs = _DEFAULT_JOBS if jobs is None else max(1, int(jobs))
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


def ensure_cells(name: str, cells: list[SweepCell],
                 jobs: int | None = None) -> SweepStats:
    """Materialize *cells* through the sweep layer (experiments hook)."""
    return run_sweep(SweepSpec(name, cells), jobs=jobs)
