"""Ablation: the §IV-E nesting-reduction optimization.

The paper: "the compiler can reduce the nesting degree by collapsing
multiple conditionals into a single one with larger expression".
Collapsing ``if (A) { if (B) { ... } }`` into ``if (A && B)`` halves
the sJMP count, jbTable occupancy and drain count for chain-nested
regions.  This bench measures the saving on a deeply-nested secret
chain with all the work in the innermost body.
"""

from repro.arch.executor import Executor
from repro.core import simulate
from repro.harness.report import format_table
from repro.lang.compiler import compile_source

DEPTH = 6


def make_source() -> str:
    lines = ["int sink = 0;"]
    for level in range(DEPTH):
        lines.append(f"secret int s{level} = 1;")
    lines.append("void main() {")
    lines.append("for (int it = 0; it < 10; it = it + 1) {")
    for level in range(DEPTH):
        lines.append(f"if (s{level}) {{")
    lines.append("int w = 0;")
    lines.append("for (int i = 0; i < 30; i = i + 1) { w = w + i; }")
    lines.append("sink = sink + w;")
    lines.extend("}" for _ in range(DEPTH))
    lines.append("}")
    lines.append("}")
    return "\n".join(lines)


def run_both():
    source = make_source()
    out = {}
    for collapse in (False, True):
        compiled = compile_source(source, mode="sempe",
                                  collapse_ifs=collapse)
        executor = Executor(compiled.program, sempe=True)
        executor.run_to_completion()
        report = simulate(compiled.program, defense="sempe")
        out[collapse] = {
            "sjmps": compiled.program.count_secure_branches(),
            "regions": executor.result.secure_regions,
            "max_nesting": executor.result.max_nesting,
            "drains": executor.result.drains,
            "cycles": report.cycles,
        }
    return out


def test_ablation_collapse_nested_ifs():
    results = run_both()
    rows = []
    for collapse, stats in results.items():
        rows.append([
            "collapsed" if collapse else "nested",
            stats["sjmps"], stats["regions"], stats["max_nesting"],
            stats["drains"], stats["cycles"],
        ])
    print()
    print(format_table(
        ["variant", "static sJMP", "regions", "max nesting", "drains",
         "cycles"],
        rows, title=f"Nesting-reduction ablation (depth {DEPTH} chain)"))
    nested = results[False]
    collapsed = results[True]
    assert collapsed["sjmps"] == 1
    assert nested["sjmps"] == DEPTH
    assert collapsed["max_nesting"] == 1
    assert collapsed["drains"] < nested["drains"]
    assert collapsed["cycles"] < nested["cycles"]
