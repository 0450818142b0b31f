"""Ablation: the three §IV-F snapshot mechanisms (ArchRS/PhyRS/LRS).

Design-choice ablation: the paper picks ArchRS after rejecting PhyRS
(too much SPM traffic: the whole physical register file plus RAT per
drain) and LRS (a tagged rename table that taxes every instruction,
inside or outside secure regions).  This bench reruns a mixed workload
(secure loop + large non-secure loop) under all three mechanisms.
"""

from repro.core import simulate
from repro.harness.report import format_table
from repro.uarch.config import MachineConfig
from repro.workloads.microbench import MicrobenchSpec, compile_microbench


def run_all_mechanisms():
    spec = MicrobenchSpec("fibonacci", w=3, iters=8)
    program = compile_microbench(spec, "sempe").program
    cycles = {}
    for mechanism in ("archrs", "phyrs", "lrs"):
        config = MachineConfig()
        config.snapshot_mechanism = mechanism
        cycles[mechanism] = simulate(program, defense="sempe",
                                     config=config).cycles
    return cycles


def test_ablation_snapshot_mechanisms():
    cycles = run_all_mechanisms()
    rows = [[name, count, f"{count / cycles['archrs']:.3f}x"]
            for name, count in cycles.items()]
    print()
    print(format_table(["mechanism", "cycles", "vs ArchRS"], rows,
                       title="Snapshot-mechanism ablation"))
    assert cycles["phyrs"] > cycles["archrs"]
    assert cycles["lrs"] > cycles["archrs"]
