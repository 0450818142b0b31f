"""IR-level static leakage analysis.

The dynamic side of this repository (the observer, the noninterference
experiments, the attack matrix) *measures* leakage on concrete runs;
this package *proves* properties of the compiled instruction stream
itself:

* :mod:`repro.analysis.cfg` — machine-level control-flow graphs with
  postdominators and control-dependence regions;
* :mod:`repro.analysis.dataflow` — the abstract-interpretation taint
  fixpoint (explicit and implicit flows, secure-region depths);
* :mod:`repro.analysis.report` — leak-site classification and
  defense-aware channel projection (:class:`StaticLeakReport`);
* :mod:`repro.analysis.verifier` — the defense-transform lint;
* :mod:`repro.analysis.differential` — the static-vs-dynamic gate.

The convenience entry points below are what the CLI, the harness, and
most tests use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.dataflow import AnalysisError, TaintDataflow
from repro.analysis.differential import (
    VerifyReport,
    VerifySpec,
    execute_verify,
)
from repro.analysis.report import (
    LeakSite,
    StaticLeakReport,
    build_report,
    classify_sites,
    project_sites,
)
from repro.analysis.verifier import (
    TransformVerificationError,
    TransformViolation,
    check_defense_transform,
    claims_statically_checkable,
    verify_defense_transform,
)

__all__ = [
    "AnalysisError",
    "ControlFlowGraph",
    "LeakSite",
    "StaticLeakReport",
    "TaintDataflow",
    "TransformVerificationError",
    "TransformViolation",
    "VerifyReport",
    "VerifySpec",
    "analyze_compiled",
    "analyze_workload",
    "build_report",
    "check_defense_transform",
    "claims_statically_checkable",
    "classify_sites",
    "execute_verify",
    "project_sites",
    "verify_defense_transform",
]

if TYPE_CHECKING:
    from repro.defenses.registry import DefenseSpec
    from repro.lang.compiler import CompiledProgram
    from repro.workloads.registry import WorkloadSpec


def analyze_compiled(compiled: CompiledProgram,
                     defense: DefenseSpec | str | None = None,
                     ) -> StaticLeakReport:
    """Static leak report of a :class:`~repro.lang.compiler.
    CompiledProgram` (its ``secrets`` map seeds the taint).

    *defense* is a :class:`~repro.defenses.registry.DefenseSpec`, a
    defense name, or ``None`` for the raw (unprojected) report.
    """
    if isinstance(defense, str):
        from repro.defenses.registry import get_defense

        defense = get_defense(defense)
    return build_report(compiled.program, compiled.secrets,
                        defense=defense)


def analyze_workload(workload: WorkloadSpec | str,
                     defense: DefenseSpec | str = "plain",
                     **param_overrides: object) -> StaticLeakReport:
    """Static leak report of one registered workload under a defense.

    Compiles the workload with the defense's transform at its *leak*
    parameters — the same program the dynamic noninterference
    experiments run — and projects the sites through the defense.
    """
    from repro.defenses.registry import get_defense
    from repro.security.leakage import compile_victim
    from repro.workloads.registry import get_workload

    if isinstance(workload, str):
        workload = get_workload(workload)
    spec = get_defense(defense)
    _, compiled = compile_victim(workload, spec, param_overrides)
    return build_report(compiled.program, compiled.secrets, defense=spec)
