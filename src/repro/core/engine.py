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
baseline core.

Three functional engines produce bit-identical
:class:`SimulationReport`\\ s:

* ``fast`` (the default) — predecoded dispatch emitting a columnar
  trace (:class:`~repro.arch.fast_executor.FastExecutor`);
* ``batch`` — the trial-batched lockstep engine
  (:class:`~repro.arch.batch.BatchExecutor`, numpy-backed).  It pays
  off only on a multi-secret campaign with the speculation window
  closed, which
  :func:`repro.security.observer.collect_observations_batch` runs as
  one batched execution; every single-lane run, ``simulate``
  included, takes the fast engine's serial path;
* ``reference`` — the original object-per-instruction executor, kept
  as the readable oracle the parity suites check both other engines
  against; its records reach the timing model as chunks through
  :meth:`~repro.arch.executor.Executor.run_chunks`.

All three are timed by one serial lane core,
:func:`repro.uarch.batch_pipeline.run_lane` (batched campaigns through
its memoized, lane-sharing :func:`~repro.uarch.batch_pipeline.lane_outcomes`).

The caller names the engine: the ``engine=`` argument (default
``"fast"``), the CLI's ``--engine`` flag on ``run``, ``check`` and
``attack``, or a sweep cell's ``engine`` field.
"""

from __future__ import annotations

import dataclasses

from dataclasses import dataclass, field

from repro.arch.executor import ExecutionResult, Executor
from repro.arch.fast_executor import FastExecutor
from repro.core.jbtable import JumpBackTable
from repro.defenses.registry import DefenseSpec, get_defense
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS
from repro.mem.scratchpad import ScratchpadMemory
from repro.uarch.batch_pipeline import run_lane
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import PipelineStats


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


def _resolve_engine(name: str) -> str:
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; choose from {ENGINES}")
    return name


def flush_penalty_cycles(config: MachineConfig) -> int:
    """Cycles a full transient-state flush costs (flush-local defense).

    One cycle per cache *frame* (set x way), every level, independent
    of what is resident — a secret-dependent flush time would itself be
    a channel, so the model charges the constant worst case.
    """
    hierarchy = config.hierarchy
    return sum(cache.n_sets * cache.assoc
               for cache in (hierarchy.il1, hierarchy.dl1, hierarchy.l2))


def executor_kwargs(spec: DefenseSpec, config: MachineConfig,
                    max_instructions: int) -> dict:
    """Constructor keywords every engine's executor takes on *spec*'s
    machine: a fresh SPM and jbTable sized by *config*, the speculation
    window, and the defense's SeMPE switch."""
    return dict(
        sempe=spec.sempe_machine,
        spm=ScratchpadMemory(n_slots=config.spm_slots, n_arch_regs=NUM_REGS,
                             bytes_per_cycle=config.spm_bytes_per_cycle),
        jbtable=JumpBackTable(depth=config.jbtable_depth),
        max_instructions=max_instructions,
        speculation=config.speculation,
    )


def serial_executor(program: Program, spec: DefenseSpec,
                    config: MachineConfig, max_instructions: int,
                    engine: str) -> Executor | FastExecutor:
    """The single-lane executor for *engine* on *spec*'s machine: the
    reference oracle, or the fast engine for every other engine (a
    one-lane batch has nothing to run in lockstep)."""
    executor_class = Executor if engine == "reference" else FastExecutor
    return executor_class(program, fence=spec.fence_branches,
                          **executor_kwargs(spec, config, max_instructions))


def exit_flush_penalty(spec: DefenseSpec, config: MachineConfig) -> int:
    """The lane core's ``flush_penalty`` for *spec* (0: no exit flush)."""
    return flush_penalty_cycles(config) if spec.flush_on_exit else 0


def simulate(
    program: Program,
    *,
    defense: str | DefenseSpec = "sempe",
    config: MachineConfig | None = None,
    max_instructions: int = 50_000_000,
    engine: str = "fast",
) -> SimulationReport:
    """Run *program* under a protection scheme and report.

    ``defense`` names a registered scheme (``repro defenses list``), or
    is a :class:`DefenseSpec`, whose machine-side hooks apply (config
    overrides, SeMPE hardware, fences, exit flush); the default is the
    paper's SeMPE machine.  The scheme's compiler transform is the
    caller's business: *program* is already compiled.

    ``engine`` selects the simulation engine (``"fast"``/``"batch"``/
    ``"reference"``); all produce bit-identical reports.
    """
    spec = get_defense(defense)
    config = spec.apply_config(config or MachineConfig())
    executor = serial_executor(program, spec, config, max_instructions,
                               _resolve_engine(engine))
    pipeline = run_lane(
        executor.run_chunks(line_bytes=config.hierarchy.il1.line_bytes),
        config, sempe=spec.sempe_machine, fence=spec.fence_branches,
        flush_penalty=exit_flush_penalty(spec, config))
    stats = pipeline.stats
    return SimulationReport(
        program_name=program.name,
        sempe=spec.sempe_machine,
        cycles=stats.cycles,
        functional=executor.result,
        pipeline=stats,
        miss_rates=pipeline.hierarchy.miss_rates(),
        final_regs=executor.state.snapshot_regs(),
    )
