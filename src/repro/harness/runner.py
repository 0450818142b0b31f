"""Run management: one cell path behind one kind table, memoized in
process and backed by a persistent store.

A sweep cell is ``(kind, spec, mode, config, engine)``.  The kind is
decided in one place, :data:`CELL_KINDS`: each entry names the spec
type a cell of that kind carries, the report type it produces (and is
rebuilt from a store record), and whether it is a simulation — only
simulation cells take the sweep's fuel budget.  :func:`compute_cell`
is the one function that evaluates a cell; the in-process path
(``SweepCell.run`` through :func:`_cached_run`) and the worker pool
(:mod:`repro.harness.parallel`) both call it.  A new cell kind is one
``CELL_KINDS`` entry plus its spec and report types.

Fig. 8 and Fig. 9 render the same djpeg grid, Fig. 10a/10b share their
SeMPE and CTE cells, and Table I's grid is Fig. 10a's at one depth, so
runs are memoized by ``(workload spec, mode, config, engine)`` — each
configuration is simulated once per session.

The cache key is the *structural fingerprint* of the whole cell: a
SHA-256 over the canonical JSON of a descriptor covering every spec
field, the compiler mode, all :class:`~repro.uarch.config.MachineConfig`
fields (recursively), and the engine.  Two equal configs built
independently hit the same entry; a config mutated between runs misses
instead of aliasing a stale report.  The same fingerprint addresses the
optional on-disk :class:`~repro.harness.store.ResultStore` (see
:func:`set_store`), which turns the memo cache into a two-level
hierarchy — L1 in-process, L2 persistent across runs — so a repeated
sweep is served from disk instead of re-simulated.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.analysis.differential import (
    VerifyReport,
    VerifySpec,
    execute_verify,
)
from repro.core.engine import SimulationReport, simulate
from repro.defenses.registry import get_defense
from repro.harness.store import ResultStore, SCHEMA_VERSION, fingerprint
from repro.security.attackers import (
    AttackReport,
    AttackSpec,
    attack_config,
    execute_attack,
)
from repro.uarch.config import MachineConfig
from repro.workloads.djpeg import DjpegSpec, compile_djpeg
from repro.workloads.microbench import MicrobenchSpec, compile_microbench
from repro.workloads.registry import WorkloadRunSpec, compile_workload

# --------------------------------------------------------------------------
# Cell kinds: the one place a cell's kind is decided
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CellKind:
    """What one kind of sweep cell carries, produces, and may use."""

    spec_type: type
    report_type: type
    # Simulation kinds only: the workload compiler, called as
    # ``compile(spec, defense.compile_mode)``.
    compile: Callable | None = None
    # The machine a cell of this kind runs on when its config is None.
    default_config: Callable[[], MachineConfig] = MachineConfig


CELL_KINDS: dict[str, CellKind] = {
    "micro": CellKind(MicrobenchSpec, SimulationReport, compile_microbench),
    "djpeg": CellKind(DjpegSpec, SimulationReport, compile_djpeg),
    "workload": CellKind(WorkloadRunSpec, SimulationReport,
                         compile_workload),
    "attack": CellKind(AttackSpec, AttackReport,
                       default_config=attack_config),
    "verify": CellKind(VerifySpec, VerifyReport),
}


def compute_cell(kind: str, spec, mode: str, config: MachineConfig | None,
                 engine: str, max_instructions: int | None = None):
    """Evaluate one cell from scratch and return its report.

    The only place a cell is computed, in process or in a pool worker.
    ``max_instructions`` is the fuel budget; it applies to simulation
    kinds only: attack and verify cells are many short victim runs,
    each bounded by the engines' own 50M-instruction backstop.  Attack
    cells carry their own seeded RNG (derived from the spec), so the
    result is the same in process or pooled.
    """
    entry = CELL_KINDS[kind]
    if entry.report_type is AttackReport:
        return execute_attack(spec, mode, config=config, engine=engine)
    if entry.report_type is VerifyReport:
        return execute_verify(spec, mode, config=config, engine=engine)
    defense = get_defense(mode)
    compiled = entry.compile(spec, defense.compile_mode)
    kwargs = {} if max_instructions is None else {
        "max_instructions": max_instructions}
    return simulate(compiled.program, defense=defense, config=config,
                    engine=engine, **kwargs)


_CACHE: dict[str, "RunResult"] = {}
_HITS = 0
_MISSES = 0
_STORE: ResultStore | None = None


@dataclass
class RunResult:
    """One evaluated configuration.

    ``report`` is an instance of the cell kind's report type (see
    :data:`CELL_KINDS`); every report type round-trips through
    ``to_dict``/``from_dict``, which is all the cache hierarchy relies
    on.
    """

    name: str
    mode: str          # registered defense name (plain | sempe | ...)
    report: SimulationReport | AttackReport | VerifyReport

    @property
    def cycles(self) -> int:
        return self.report.cycles

    @property
    def instructions(self) -> int:
        return self.report.instructions

    @property
    def miss_rates(self) -> dict[str, float]:
        return self.report.miss_rates


def cell_descriptor(kind: str, spec, mode: str,
                    config: MachineConfig | None, engine: str) -> dict:
    """JSON-safe structural identity of one run (the store key).

    Covers every field that can change the simulation's output: the
    full workload spec, the defense (by name *and* structural
    fingerprint, so changing a scheme's hooks or overrides re-addresses
    its cached results), the whole machine configuration (recursively),
    the engine, and the report schema version so a schema bump
    re-addresses rather than misreads old records.

    A config equal to the machine the kind runs when given none
    (:attr:`CellKind.default_config`) is keyed as ``None``, so spelling
    out the default machine addresses the same cell as omitting it.
    """
    machine = None
    if config is not None:
        machine = dataclasses.asdict(config)
        if machine == dataclasses.asdict(CELL_KINDS[kind].default_config()):
            machine = None
    return {
        "kind": kind,
        "spec": dataclasses.asdict(spec),
        "mode": mode,
        "defense": get_defense(mode).fingerprint(),
        "config": machine,
        "engine": engine,
        "schema": SCHEMA_VERSION,
    }


# --------------------------------------------------------------------------
# Cache / store management
# --------------------------------------------------------------------------

def clear_cache() -> None:
    """Drop all cached runs and reset the counters (used by tests).

    Also clears the campaign memo (:mod:`repro.security.leakage`) and
    the pipeline-level timing memo (:mod:`repro.uarch.batch_pipeline`):
    tests and benchmark passes that reset the run cache expect the
    *whole* memo hierarchy cold, not just the report level.
    """
    global _HITS, _MISSES
    _CACHE.clear()
    _HITS = 0
    _MISSES = 0
    from repro.security.leakage import clear_campaigns
    from repro.uarch.batch_pipeline import clear_memo

    clear_campaigns()
    clear_memo()


def cache_info() -> dict[str, int]:
    """Hit/miss/size counters for the in-process run cache."""
    return {"hits": _HITS, "misses": _MISSES, "entries": len(_CACHE)}


def set_store(store: ResultStore | None) -> ResultStore | None:
    """Install (or clear, with ``None``) the persistent result store.

    Returns the previously-installed store so callers can restore it.
    """
    global _STORE
    previous = _STORE
    _STORE = store
    return previous


def get_store() -> ResultStore | None:
    """The currently-installed persistent store, if any."""
    return _STORE


def store_info() -> dict[str, int] | None:
    """Hit/miss/store/invalidation counters, or ``None`` if no store."""
    if _STORE is None:
        return None
    return _STORE.stats.as_dict()


def install_result(descriptor: dict, name: str, mode: str,
                   report: SimulationReport | AttackReport | VerifyReport
                   ) -> RunResult:
    """Adopt a freshly computed report into the cache hierarchy.

    Both cell paths end here: :func:`_cached_run` in process, and the
    parallel sweep layer, whose workers return report dicts that the
    parent installs.  Later lookups (table assembly, further
    experiments) then hit L1, and a configured store persists the
    report either way.
    """
    fp = fingerprint(descriptor)
    result = RunResult(name=name, mode=mode, report=report)
    _CACHE[fp] = result
    if _STORE is not None and not _STORE.contains(fp):
        _STORE.put(fp, descriptor, report.to_dict())
    return result


def probe(descriptor: dict) -> str | None:
    """Where a cell's result currently lives: ``"cache"``, ``"store"``,
    or ``None`` (would have to be simulated).

    A probe is a cache lookup and counts like one — a resident cell is
    a hit, anything else a miss — so ``--cache-stats`` reflects sweep
    partitioning, not just table assembly.  A store probe *loads* the
    record into L1 (counting a store hit), so after
    ``probe(...) == "store"`` the next lookup is an L1 hit.
    """
    global _HITS, _MISSES
    fp = fingerprint(descriptor)
    if fp in _CACHE:
        _HITS += 1
        return "cache"
    _MISSES += 1
    if _STORE is not None:
        stored = _STORE.get(fp, descriptor)
        if stored is not None:
            entry = CELL_KINDS[descriptor["kind"]]
            _CACHE[fp] = RunResult(
                name=entry.spec_type(**descriptor["spec"]).name,
                mode=descriptor["mode"],
                report=entry.report_type.from_dict(stored))
            return "store"
    return None


def _cached_run(descriptor: dict, spec, config: MachineConfig | None
                ) -> RunResult:
    """L1 -> store -> :func:`compute_cell` for one cell."""
    if probe(descriptor) is not None:
        return _CACHE[fingerprint(descriptor)]
    mode = descriptor["mode"]
    report = compute_cell(descriptor["kind"], spec, mode, config,
                          descriptor["engine"])
    return install_result(descriptor, spec.name, mode, report)


