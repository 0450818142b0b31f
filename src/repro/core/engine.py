"""The SeMPE machine: functional execution + timing in one call.

:func:`simulate` is the main entry point of the library::

    from repro import simulate
    report = simulate(program, defense="sempe")
    print(report.cycles, report.pipeline.ipc)

``defense`` names a registered protection scheme
(:mod:`repro.defenses`): ``sempe`` (the default) is the paper's
machine; ``plain`` models the unprotected baseline running the same
binary (SecPrefix ignored, ``eosJMP`` decoded as NOP) — identical
core, no security; the other schemes apply their machine hooks
(fences, cache partitioning/randomization, exit flush) on the
baseline core.  ``sempe=True/False`` remains as a deprecated alias
for the two legacy schemes.

Three engines produce bit-identical :class:`SimulationReport`\\ s:

* ``fast`` (the default) — predecoded dispatch plus a columnar batched
  trace (:class:`~repro.arch.fast_executor.FastExecutor` feeding
  :meth:`~repro.uarch.pipeline.OutOfOrderPipeline.run_chunks`);
* ``batch`` — the trial-batched vectorized engine
  (:class:`~repro.arch.batch.BatchExecutor`, numpy-backed); a single
  ``simulate`` call runs it with one lane, but observation campaigns
  (:func:`repro.security.observer.collect_observations_batch`) share
  one decode and one batched execution across all their trials;
* ``reference`` — the original object-per-instruction stream, kept as
  the readable oracle the parity suites check both other engines
  against.

Select with the ``engine=`` argument, :func:`set_default_engine` (the
CLI's ``--engine`` flag), or the ``REPRO_ENGINE`` environment variable.
"""

from __future__ import annotations

import dataclasses
import os
import warnings

from dataclasses import dataclass, field

from repro.arch.executor import ExecutionResult, Executor
from repro.arch.fast_executor import FastExecutor
from repro.core.jbtable import JumpBackTable
from repro.core.snapshots import make_snapshot_mechanism
from repro.defenses.registry import DefenseSpec, get_defense
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS
from repro.mem.scratchpad import ScratchpadMemory
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import OutOfOrderPipeline, PipelineStats


@dataclass
class SimulationReport:
    """Everything a benchmark or experiment needs from one run."""

    program_name: str
    sempe: bool
    cycles: int
    functional: ExecutionResult
    pipeline: PipelineStats
    miss_rates: dict[str, float] = field(default_factory=dict)
    final_regs: list[int] = field(default_factory=list)

    @property
    def instructions(self) -> int:
        return self.functional.instructions

    @property
    def ipc(self) -> float:
        return self.pipeline.ipc

    def overhead_vs(self, baseline: "SimulationReport") -> float:
        """Execution-time ratio against *baseline* (1.0 = equal)."""
        if baseline.cycles == 0:
            return float("inf")
        return self.cycles / baseline.cycles

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe) for the on-disk result store."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationReport":
        """Rebuild a report from :meth:`to_dict` output.

        Round-trips bit-exactly: every field of the nested
        :class:`~repro.arch.executor.ExecutionResult` and
        :class:`~repro.uarch.pipeline.PipelineStats` is a plain int,
        bool, float, or str-keyed dict of ints.
        """
        return cls(
            program_name=data["program_name"],
            sempe=data["sempe"],
            cycles=data["cycles"],
            functional=ExecutionResult(**data["functional"]),
            pipeline=PipelineStats(**data["pipeline"]),
            miss_rates=dict(data["miss_rates"]),
            final_regs=list(data["final_regs"]),
        )


# Engine registry.  All three are bit-identical (the golden parity and
# batch-parity suites enforce it); "reference" stays as the readable
# oracle.  "batch" requires numpy and shines on multi-trial campaigns.
ENGINES = ("fast", "batch", "reference")
_default_engine = "fast"
_default_engine_overridden = False


def set_default_engine(name: str) -> None:
    """Set the process-wide default engine (the CLI's ``--engine``).

    An explicit call wins over the ``REPRO_ENGINE`` environment
    variable; the env var only steers runs that never chose an engine.
    """
    global _default_engine, _default_engine_overridden
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; choose from {ENGINES}")
    _default_engine = name
    _default_engine_overridden = True


def get_default_engine() -> str:
    """The engine used when ``simulate`` is called without ``engine=``."""
    if _default_engine_overridden:
        return _default_engine
    return os.environ.get("REPRO_ENGINE") or _default_engine


def _resolve_engine(name: str | None) -> str:
    resolved = (name or get_default_engine()).lower()
    if resolved not in ENGINES:
        raise ValueError(f"unknown engine {resolved!r}; choose from {ENGINES}")
    return resolved


def resolve_defense(defense: "str | DefenseSpec | None",
                    sempe: bool | None = None) -> DefenseSpec:
    """The :class:`DefenseSpec` a machine should run under.

    *defense* wins when given (name or spec); otherwise the legacy
    ``sempe`` bool maps onto the matching legacy scheme (``None`` means
    the historical default, the SeMPE machine).
    """
    if defense is not None:
        if isinstance(defense, DefenseSpec):
            return defense
        return get_defense(defense)
    return get_defense("sempe" if sempe or sempe is None else "plain")


def flush_penalty_cycles(config: MachineConfig) -> int:
    """Cycles a full transient-state flush costs (flush-local defense).

    One cycle per cache *frame* (set x way), every level, independent
    of what is resident — a secret-dependent flush time would itself be
    a channel, so the model charges the constant worst case.
    """
    hierarchy = config.hierarchy
    return sum(cache.n_sets * cache.assoc
               for cache in (hierarchy.il1, hierarchy.dl1, hierarchy.l2))


class SempeMachine:
    """A configured machine that can run programs.

    ``defense`` names the protection scheme whose *machine-side* hooks
    apply (config overrides, SeMPE hardware, fences, exit flush); the
    scheme's compiler transform is the caller's business — this class
    runs already-compiled programs.  The legacy ``sempe`` bool remains
    as an alias for the ``sempe``/``plain`` schemes.
    """

    def __init__(self, config: MachineConfig | None = None,
                 sempe: bool | None = None, engine: str | None = None,
                 defense: str | DefenseSpec | None = None) -> None:
        if defense is not None and sempe is not None:
            raise ValueError(
                "pass defense= or the legacy sempe= flag, not both")
        self.defense = resolve_defense(defense, sempe)
        self.config = self.defense.apply_config(config or MachineConfig())
        self.sempe = self.defense.sempe_machine
        self.engine = engine

    def run(self, program: Program,
            max_instructions: int = 50_000_000) -> SimulationReport:
        """Execute *program* functionally and through the timing model."""
        config = self.config
        engine = _resolve_engine(self.engine)
        spm = ScratchpadMemory(
            n_slots=config.spm_slots,
            n_arch_regs=NUM_REGS,
            bytes_per_cycle=config.spm_bytes_per_cycle,
        )
        # The SPM *timing* uses the paper's architectural state size so
        # snapshot traffic matches the paper's machine even though our ISA
        # has fewer registers.
        mechanism = make_snapshot_mechanism(
            config.snapshot_mechanism,
            n_arch_regs=config.spm_arch_regs,
            n_phys_regs=config.int_phys_regs,
            spm_bytes_per_cycle=config.spm_bytes_per_cycle,
        )
        jbtable = JumpBackTable(depth=config.jbtable_depth)
        pipeline = OutOfOrderPipeline(config, sempe=self.sempe,
                                      fence=self.defense.fence_branches)
        pipeline.rename_overhead = mechanism.rename_overhead_per_instruction()
        scale = _drain_scale(mechanism, spm)

        if engine == "fast":
            executor = FastExecutor(
                program,
                sempe=self.sempe,
                spm=spm,
                jbtable=jbtable,
                max_instructions=max_instructions,
                speculation=config.speculation,
                fence=self.defense.fence_branches,
            )
            chunks = executor.run_chunks(
                line_bytes=config.hierarchy.il1.line_bytes)
            if scale != 1.0:
                chunks = _scale_chunk_drains(chunks, scale)
            stats = pipeline.run_chunks(chunks)
        elif engine == "batch":
            from repro.arch.batch import BatchExecutor
            from repro.uarch.batch_pipeline import lane_outcomes

            executor = BatchExecutor(
                program,
                sempe=self.sempe,
                n_lanes=1,
                spm=spm,
                jbtable=jbtable,
                max_instructions=max_instructions,
                speculation=config.speculation,
                fence=self.defense.fence_branches,
            )
            executor.run(line_bytes=config.hierarchy.il1.line_bytes)
            # The batched timing path: digest-keyed memoization plus
            # lockstep lane sharing (one lane here, but repeated
            # simulate() calls on the same machine/stream hit the memo).
            # Flush-on-exit and drain scaling are applied inside, so the
            # generic post-run blocks below must not repeat them.
            outcome = lane_outcomes(
                executor, config,
                sempe=self.sempe,
                fence=self.defense.fence_branches,
                defense_fingerprint=self.defense.fingerprint(),
                flush_penalty=flush_penalty_cycles(config)
                if self.defense.flush_on_exit else 0,
                drain_scale=scale,
                rename_overhead=pipeline.rename_overhead,
            )[0]
            if outcome is None:
                raise executor.lane_error(0)
            stats = outcome.stats
        else:
            executor = Executor(
                program,
                sempe=self.sempe,
                spm=spm,
                jbtable=jbtable,
                max_instructions=max_instructions,
                speculation=config.speculation,
                fence=self.defense.fence_branches,
            )
            trace = _scale_drains(executor.run(), scale) if scale != 1.0 \
                else executor.run()
            stats = pipeline.run(trace)
        if engine == "batch":
            functional = executor.lane_result(0)
            final_regs = executor.lane_regs(0)
            miss_rates = outcome.miss_rates
        else:
            if self.defense.flush_on_exit:
                # Constant-cost exit flush; the residue itself is cleared
                # so post-run observers see a secret-independent machine.
                stats.cycles += flush_penalty_cycles(config)
                pipeline.flush_transient_state()
            functional = executor.result
            final_regs = executor.state.snapshot_regs()
            miss_rates = pipeline.hierarchy.miss_rates()
        return SimulationReport(
            program_name=program.name,
            sempe=self.sempe,
            cycles=stats.cycles,
            functional=functional,
            pipeline=stats,
            miss_rates=miss_rates,
            final_regs=final_regs,
        )


def _drain_scale(mechanism, spm: ScratchpadMemory) -> float:
    """SPM-traffic ratio of the configured mechanism vs ArchRS.

    The functional executor charges ArchRS-shaped SPM cycles into its
    drain events; alternative mechanisms (PhyRS, LRS) scale that traffic
    by the ratio of their per-snapshot footprint.
    """
    if mechanism.name == "ArchRS":
        return 1.0
    from repro.core.snapshots import ArchRS

    reference = ArchRS(
        n_arch_regs=mechanism.n_arch_regs,
        n_phys_regs=mechanism.n_phys_regs,
        reg_bytes=mechanism.reg_bytes,
        spm_bytes_per_cycle=mechanism.spm_bytes_per_cycle,
    )
    return mechanism.snapshot_bytes() / max(reference.snapshot_bytes(), 1)


def _scale_drains(trace, scale: float):
    for record in trace:
        if record.kind == "drain":
            record.spm_cycles = max(1, int(round(record.spm_cycles * scale)))
        yield record


def _scale_chunk_drains(chunks, scale: float):
    """Chunked twin of :func:`_scale_drains`; the canonical
    implementation lives with the batched timing path so both the fast
    and batch engines scale drains identically."""
    from repro.uarch.batch_pipeline import scale_chunk_drains

    return scale_chunk_drains(chunks, scale)


_SEMPE_UNSET = object()


def simulate(
    program: Program,
    sempe: bool = _SEMPE_UNSET,
    config: MachineConfig | None = None,
    max_instructions: int = 50_000_000,
    engine: str | None = None,
    defense: str | DefenseSpec | None = None,
) -> SimulationReport:
    """Run *program* under a protection scheme and report.

    ``defense`` names a registered scheme (``repro defenses list``)
    whose machine-side hooks apply; the default is ``"sempe"``, the
    historical behavior.  ``sempe=True/False`` remains as a deprecated
    alias for ``defense="sempe"``/``defense="plain"``.

    ``engine`` selects the simulation engine (``"fast"``/``"reference"``,
    default :func:`get_default_engine`); both produce bit-identical
    reports.
    """
    if sempe is not _SEMPE_UNSET:
        if defense is not None:
            raise ValueError(
                "pass defense= or the deprecated sempe= flag, not both")
        warnings.warn(
            "simulate(sempe=...) is deprecated; use "
            "defense='sempe'/'plain' (or any registered defense)",
            DeprecationWarning, stacklevel=2)
        defense = "sempe" if sempe else "plain"
    machine = SempeMachine(config=config, engine=engine,
                           defense=defense)
    return machine.run(program, max_instructions=max_instructions)
