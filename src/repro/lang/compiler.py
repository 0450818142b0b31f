"""Compiler driver: source text -> sealed program."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.program import Program
from repro.lang import ast
from repro.lang.codegen import generate
from repro.lang.errors import CompileError
from repro.lang.parser import parse
from repro.lang.taint import TaintInfo, analyze_taint
from repro.lang.transform_cte import transform_cte
from repro.lang.transform_fence import transform_fence
from repro.lang.transform_sempe import transform_sempe

MODES = ("plain", "sempe", "cte", "fence")


@dataclass
class CompiledProgram:
    """A compiled unit plus the metadata experiments need."""

    program: Program
    module: ast.Module
    taint: TaintInfo
    mode: str
    secrets: dict[str, int] = field(default_factory=dict)  # name -> address


def compile_source(source: str, mode: str = "sempe",
                   name: str | None = None,
                   collapse_ifs: bool = False) -> CompiledProgram:
    """Compile mini-C *source* in the given *mode*.

    Modes: ``plain`` (insecure baseline), ``sempe`` (secure branches +
    ShadowMemory), ``cte`` (FaCT-like constant-time expressions),
    ``fence`` (secret branches marked with the SecPrefix for a
    serializing machine, otherwise identical to ``plain``).

    ``collapse_ifs=True`` enables the paper's §IV-E nesting-reduction
    optimization (``if (A) { if (B) ... }`` becomes ``if (A && B)``),
    lowering jbTable pressure and drain counts.
    """
    if mode not in MODES:
        raise CompileError(f"unknown mode {mode!r}; expected one of {MODES}")
    module = parse(source)
    if collapse_ifs:
        from repro.lang.optimize import collapse_nested_ifs

        module = collapse_nested_ifs(module)
    taint = analyze_taint(module, mode)
    if mode == "sempe":
        transformed = transform_sempe(module, taint)
    elif mode == "cte":
        transformed = transform_cte(module, taint)
    elif mode == "fence":
        transformed = transform_fence(module, taint)
    else:
        transformed = module
    program = generate(transformed, name=name or f"minic-{mode}")
    secrets = {
        decl.name: program.symbols[decl.name]
        for decl in module.globals
        if decl.is_secret
    }
    return CompiledProgram(
        program=program,
        module=transformed,
        taint=taint,
        mode=mode,
        secrets=secrets,
    )
