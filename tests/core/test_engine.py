"""The simulation engine: end-to-end simulate() behaviour."""


from repro.core.engine import simulate
from repro.isa.assembler import assemble
from repro.uarch.config import MachineConfig

PROGRAM = """
    .data
key: .quad 1
    .text
main:
    la   a0, key
    ld   a1, 0(a0)
    addi a2, zero, 0
    addi a4, zero, 16
loop:
    sbeq a1, zero, skip
    addi a2, a2, 3
    jmp  skip
skip:
    eosjmp
    addi a4, a4, -1
    bne  a4, zero, loop
    halt
"""


def test_simulate_returns_report(fast_config):
    report = simulate(assemble(PROGRAM), defense="sempe", config=fast_config)
    assert report.cycles > 0
    assert report.instructions > 0
    assert report.sempe is True
    assert 0.0 < report.ipc < 8.0
    assert set(report.miss_rates) == {"IL1", "DL1", "L2"}


def test_sempe_costs_more_than_baseline(fast_config):
    program = assemble(PROGRAM)
    secure = simulate(program, defense="sempe", config=fast_config)
    baseline = simulate(program, defense="plain", config=fast_config)
    assert secure.cycles > baseline.cycles
    assert secure.instructions > baseline.instructions
    assert secure.overhead_vs(baseline) > 1.0


def test_same_binary_runs_on_both_machines(fast_config):
    """Backward compatibility: identical binary, different processors."""
    program = assemble(PROGRAM)
    secure = simulate(program, defense="sempe", config=fast_config)
    legacy = simulate(program, defense="plain", config=fast_config)
    # Architectural result identical (key=1 -> NT path -> a2 = 48).
    assert secure.final_regs[12] == legacy.final_regs[12] == 48


def test_drain_counts_match_regions(fast_config):
    report = simulate(assemble(PROGRAM), defense="sempe", config=fast_config)
    assert report.functional.secure_regions == 16
    assert report.functional.drains == 3 * 16
    assert report.pipeline.drains == 3 * 16


MIXED_PROGRAM = """
    .data
key: .quad 1
    .text
main:
    la   a0, key
    ld   a1, 0(a0)
    sbeq a1, zero, skip
    addi a2, a2, 3
    jmp  skip
skip:
    eosjmp
    addi a4, zero, 200
compute:
    addi a5, a5, 7
    addi a6, a6, 1
    addi a7, a7, 2
    addi s1, s1, 3
    addi s2, s2, 4
    addi s3, s3, 5
    addi s4, s4, 6
    addi a4, a4, -1
    bne  a4, zero, compute
    halt
"""


def test_snapshot_mechanism_affects_timing(fast_config):
    """PhyRS loses on drain traffic; LRS loses on programs dominated by
    non-secure code (the tagged rename table taxes every instruction) —
    exactly the two §IV-F rejection arguments."""
    program = assemble(MIXED_PROGRAM)
    cycles = {}
    for mechanism in ("archrs", "phyrs", "lrs"):
        config = MachineConfig()
        config.rob_entries = fast_config.rob_entries
        config.hierarchy = fast_config.hierarchy
        config.snapshot_mechanism = mechanism
        cycles[mechanism] = simulate(program, defense="sempe",
                                     config=config).cycles
    assert cycles["phyrs"] > cycles["archrs"]
    assert cycles["lrs"] > cycles["archrs"]


def test_deterministic(fast_config):
    program = assemble(PROGRAM)
    runs = [simulate(program, defense="sempe", config=fast_config).cycles
            for _ in range(3)]
    assert len(set(runs)) == 1
