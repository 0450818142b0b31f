"""SeMPE core: the paper's primary contribution.

* :mod:`repro.core.jbtable` — the Jump-Back Table, the LIFO hardware
  structure that sequences multi-path execution of nested secure branches.
* :mod:`repro.core.snapshots` — the three candidate register-snapshot
  mechanisms of §IV-F (ArchRS, PhyRS, LRS) as the drain scale and rename
  penalty the timing model charges; ArchRS is the one SeMPE adopts.
* :mod:`repro.core.engine` — the SeMPE machine: couples the functional
  executor, the out-of-order timing model, the memory hierarchy, and the
  side-channel observers into one `simulate()` entry point.
"""

from repro.core.jbtable import JumpBackTable, JbEntry, JbTableError
from repro.core.engine import SimulationReport, simulate

__all__ = [
    "JumpBackTable",
    "JbEntry",
    "JbTableError",
    "SimulationReport",
    "simulate",
]
