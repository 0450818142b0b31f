"""repro — reproduction of SeMPE (DAC 2021).

Secure Multi-Path Execution: an architecture that removes the
secret-dependent behavior of conditional branches (SDBCB) by executing
and committing *both* paths of secret-dependent branches, NT path first,
with register state managed by ArchRS snapshots in a scratchpad memory
and sequencing by a small jump-back LIFO (jbTable).

Top-level convenience API::

    from repro import assemble, simulate

    program = assemble(SOURCE)
    secure = simulate(program, defense="sempe")
    base = simulate(program, defense="plain")
    print(secure.overhead_vs(base))

Protection schemes (the ``defense=`` axis) are first-class and
registered in :mod:`repro.defenses`: ``plain``, ``sempe``, ``cte``
plus the ``fence``, ``cache-partition``, ``cache-randomize`` and
``flush-local`` mitigations — see ``repro defenses list``.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.isa import assemble, Program, ProgramBuilder
from repro.core import simulate, SimulationReport, JumpBackTable
from repro.defenses import DefenseSpec, defense_names, get_defense
from repro.uarch import MachineConfig, haswell_like
from repro.arch import Executor, run_program

__version__ = "1.1.0"

__all__ = [
    "assemble",
    "DefenseSpec",
    "defense_names",
    "get_defense",
    "Program",
    "ProgramBuilder",
    "simulate",
    "SimulationReport",
    "JumpBackTable",
    "MachineConfig",
    "haswell_like",
    "Executor",
    "run_program",
    "__version__",
]
