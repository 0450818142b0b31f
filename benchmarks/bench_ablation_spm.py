"""Ablation: SPM throughput sensitivity.

Table II fixes the SPM at 64 B/cycle.  This bench sweeps the transfer
throughput to show how much of SeMPE's overhead is snapshot traffic:
a slower SPM inflates the three per-SecBlock drains, a faster one
approaches the drain-only floor.
"""

from repro.core import simulate
from repro.harness.report import format_table
from repro.uarch.config import MachineConfig
from repro.workloads.microbench import MicrobenchSpec, compile_microbench

THROUGHPUTS = (8, 32, 64, 256)


def run_sweep():
    spec = MicrobenchSpec("ones", w=4, iters=6)
    program = compile_microbench(spec, "sempe").program
    cycles = {}
    for bytes_per_cycle in THROUGHPUTS:
        config = MachineConfig()
        config.spm_bytes_per_cycle = bytes_per_cycle
        cycles[bytes_per_cycle] = simulate(program, defense="sempe",
                                           config=config).cycles
    return cycles


def test_ablation_spm_throughput():
    cycles = run_sweep()
    baseline = cycles[64]
    rows = [[f"{bpc} B/cycle", cycles[bpc], f"{cycles[bpc] / baseline:.3f}x"]
            for bpc in THROUGHPUTS]
    print()
    print(format_table(["SPM throughput", "cycles", "vs 64 B/cycle"], rows,
                       title="SPM-throughput ablation"))
    # Monotone: slower SPM never helps.
    ordered = [cycles[bpc] for bpc in THROUGHPUTS]
    assert all(a >= b for a, b in zip(ordered, ordered[1:]))
    assert cycles[8] > cycles[256]
