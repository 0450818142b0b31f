"""Golden parity: the fast engine is bit-identical to the reference.

The reference engine is the oracle; every field of the
:class:`SimulationReport` — cycles, IPC, miss rates, final registers,
the full functional counters (including drains and op counts) and the
full pipeline stats — must match exactly for every workload, machine
mode, and snapshot mechanism.
"""


import pytest

pytestmark = pytest.mark.parity

from repro.arch.executor import Executor, InstructionLimitError
from repro.arch.fast_executor import FastExecutor
from repro.core.engine import simulate
from repro.isa.assembler import assemble
from repro.workloads.microbench import (
    MicrobenchSpec,
    WORKLOADS,
    compile_microbench,
)


def assert_identical_reports(reference, fast):
    assert reference.cycles == fast.cycles
    assert reference.ipc == fast.ipc
    assert reference.miss_rates == fast.miss_rates
    assert reference.final_regs == fast.final_regs
    # Full functional counters: instructions, loads/stores, branches,
    # secure-region bookkeeping, drains, SPM cycles, op_counts.
    assert reference.functional == fast.functional
    # Full timing stats: cycles, mispredicts, drain/SPM cycles, cache
    # accesses and misses at every level.
    assert reference.pipeline == fast.pipeline


def both_engines(program, defense, config):
    reference = simulate(program, defense=defense, config=config,
                         engine="reference")
    fast = simulate(program, defense=defense, config=config, engine="fast")
    return reference, fast


@pytest.mark.parametrize("mode", ["sempe", "plain"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_microbench_parity(workload, mode, fast_config):
    spec = MicrobenchSpec(workload, w=2, iters=1)
    program = compile_microbench(spec, mode).program
    reference, fast = both_engines(program, mode, fast_config)
    assert_identical_reports(reference, fast)


@pytest.mark.parametrize("mechanism", ["archrs", "phyrs", "lrs"])
@pytest.mark.parametrize("mode", ["sempe", "plain"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_snapshot_mechanism_parity(workload, mode, mechanism, fast_config):
    """Workloads x modes x snapshot mechanisms, all bit-identical.

    Non-ArchRS mechanisms exercise the drain-scaling path (PhyRS) and
    the per-instruction rename-overhead path (LRS) of both engines.
    """
    fast_config.snapshot_mechanism = mechanism
    spec = MicrobenchSpec(workload, w=1, iters=1)
    program = compile_microbench(spec, mode).program
    reference, fast = both_engines(program, mode, fast_config)
    assert_identical_reports(reference, fast)


def test_deep_nesting_parity(fast_config):
    """W=4 nesting exercises stacked snapshot slots and drain chains."""
    spec = MicrobenchSpec("fibonacci", w=4, iters=2)
    program = compile_microbench(spec, "sempe").program
    reference, fast = both_engines(program, "sempe", fast_config)
    assert_identical_reports(reference, fast)


# --------------------------------------------------------------------------
# Adversarial operands (the fast-engine shift/compare/divide audit)
#
# The fast engine reads registers with an explicit & MASK64 so that raw
# out-of-range values poked straight into ``state.regs`` — which
# harnesses and tests legitimately do — normalize exactly like the
# reference engine's to_signed/to_unsigned helpers.  These cases pin
# that contract: shift amounts >= 64 and negative shift counts, sign
# boundaries for SLT/SLTU and the ordered branches, RISC-V div/rem
# conventions (x/0, overflow), and raw negative / >= 2**64 register
# contents.
# --------------------------------------------------------------------------

from itertools import product

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Op
from repro.isa.program import Program

MASK64 = (1 << 64) - 1
INT_MIN = 1 << 63

ADVERSARIAL_VALUES = (
    0, 1, 63, 64, 65, 127,
    INT_MIN - 1, INT_MIN, INT_MIN + 1, MASK64,
    -1, -5, -INT_MIN,             # raw negatives (unmasked pokes)
    1 << 64, (1 << 64) + 9,       # raw values past 64 bits
)

ALU_OPS = (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.REM, Op.AND, Op.OR,
           Op.XOR, Op.SLL, Op.SRL, Op.SRA, Op.SLT, Op.SLTU)
BRANCH_OPS = (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU)


def _both_executors(program, a, b):
    """Run *program* on both engines with raw register pokes."""
    states = []
    for executor_cls, drive in (
        (Executor, lambda e: e.run_to_completion()),
        (FastExecutor, lambda e: list(e.run_chunks())),
    ):
        executor = executor_cls(program, sempe=False)
        executor.state.regs[11] = a
        executor.state.regs[12] = b
        drive(executor)
        states.append(executor)
    return states


@pytest.mark.parametrize("op", ALU_OPS)
def test_alu_adversarial_operand_parity(op):
    program = Program([Instruction(op, rd=10, rs1=11, rs2=12),
                       Instruction(Op.HALT)], name="alu-adversarial")
    for a, b in product(ADVERSARIAL_VALUES, ADVERSARIAL_VALUES):
        reference, fast = _both_executors(program, a, b)
        assert reference.state.regs == fast.state.regs, (op, a, b)
        assert reference.result == fast.result, (op, a, b)


@pytest.mark.parametrize("op", BRANCH_OPS)
def test_branch_adversarial_operand_parity(op):
    program = Program([
        Instruction(op, rs1=11, rs2=12, target=3, imm=3),
        Instruction(Op.ADDI, rd=10, rs1=0, imm=1),
        Instruction(Op.HALT),
        Instruction(Op.ADDI, rd=10, rs1=0, imm=2),
        Instruction(Op.HALT),
    ], name="branch-adversarial")
    for a, b in product(ADVERSARIAL_VALUES, ADVERSARIAL_VALUES):
        reference, fast = _both_executors(program, a, b)
        assert reference.state.regs == fast.state.regs, (op, a, b)
        assert reference.state.pc == fast.state.pc, (op, a, b)


@pytest.mark.parametrize("op,imm", [
    (Op.SLLI, 63), (Op.SLLI, -1), (Op.SRLI, 63), (Op.SRLI, 64),
    (Op.SRLI, -1), (Op.SRAI, 63), (Op.SRAI, 64), (Op.SRAI, -64),
    (Op.SLTI, -1), (Op.SLTI, 1 << 63), (Op.ADDI, -(1 << 63)),
])
def test_immediate_adversarial_parity(op, imm):
    """Negative and oversized immediates (masked to a 6-bit shift count
    / wrapped to 64 bits) behave identically on both engines."""
    program = Program([Instruction(op, rd=10, rs1=11, imm=imm),
                       Instruction(Op.HALT)], name="imm-adversarial")
    for a in ADVERSARIAL_VALUES:
        reference, fast = _both_executors(program, a, 0)
        assert reference.state.regs == fast.state.regs, (op, imm, a)


def test_divide_by_zero_convention_parity():
    """x / 0 == -1 and x % 0 == x (RISC-V), and INT_MIN / -1 wraps, on
    both engines — including for raw negative register pokes."""
    for op, expected in ((Op.DIV, MASK64), (Op.REM, 7)):
        program = Program([Instruction(op, rd=10, rs1=11, rs2=12),
                           Instruction(Op.HALT)], name="div0")
        reference, fast = _both_executors(program, 7, 0)
        assert reference.state.regs[10] == expected
        assert fast.state.regs[10] == expected
    program = Program([Instruction(Op.DIV, rd=10, rs1=11, rs2=12),
                       Instruction(Op.HALT)], name="div-overflow")
    reference, fast = _both_executors(program, INT_MIN, MASK64)
    assert reference.state.regs[10] == fast.state.regs[10] == INT_MIN


INFINITE_LOOP = """
    .text
main:
    addi a0, a0, 1
    jmp  main
"""


def test_instruction_limit_parity():
    """Both engines hit the budget identically, counters included."""
    program = assemble(INFINITE_LOOP)
    reference = Executor(program, sempe=False, max_instructions=100)
    with pytest.raises(InstructionLimitError):
        for _record in reference.run():
            pass
    fast = FastExecutor(program, sempe=False, max_instructions=100)
    with pytest.raises(InstructionLimitError):
        for _chunk in fast.run_chunks():
            pass
    assert reference.result == fast.result
    assert reference.state.regs == fast.state.regs
    assert reference.state.pc == fast.state.pc


def test_environment_does_not_choose_the_engine(monkeypatch):
    """The engine is chosen by ``--engine``/``engine=`` only: a stray
    REPRO_ENGINE, in any spelling, never reaches a cell key."""
    from repro.harness import SweepCell

    monkeypatch.setenv("REPRO_ENGINE", "FAST")
    cell = SweepCell("micro", MicrobenchSpec("ones", w=1, iters=1), "plain")
    assert cell.descriptor()["engine"] == "fast"


@pytest.mark.parametrize("engine", ["turbo", "FAST", None])
def test_unknown_engine_rejected(engine, fast_config):
    """One lower-case spelling per engine, and ``None`` is no engine:
    the caller names one or takes the ``"fast"`` default."""
    spec = MicrobenchSpec("ones", w=1, iters=1)
    program = compile_microbench(spec, "plain").program
    with pytest.raises(ValueError, match="unknown engine"):
        simulate(program, defense="plain", config=fast_config, engine=engine)


@pytest.mark.parametrize("budget", [1, 37, 500])
def test_fuel_exhaustion_parity_sempe(budget, fast_config):
    """simulate(max_instructions=...) aborts both engines at the same
    committed instruction, with the count carried on the error."""
    spec = MicrobenchSpec("fibonacci", w=2, iters=1)
    program = compile_microbench(spec, "sempe").program
    errors = []
    for engine in ("reference", "fast"):
        with pytest.raises(InstructionLimitError) as err:
            simulate(program, defense="sempe", config=fast_config,
                     max_instructions=budget, engine=engine)
        errors.append(err.value)
    reference, fast = errors
    assert reference.executed == fast.executed == budget
    assert str(reference) == str(fast)


def test_fuel_limit_error_carries_executed_count():
    program = assemble(INFINITE_LOOP)
    reference = Executor(program, sempe=False, max_instructions=25)
    with pytest.raises(InstructionLimitError) as ref_err:
        for _record in reference.run():
            pass
    fast = FastExecutor(program, sempe=False, max_instructions=25)
    with pytest.raises(InstructionLimitError) as fast_err:
        for _chunk in fast.run_chunks():
            pass
    assert ref_err.value.executed == fast_err.value.executed == 25
    # the partial results agree with the advertised count
    assert reference.result.instructions == fast.result.instructions == 25


def test_generous_budget_changes_nothing(fast_config):
    """An explicit budget a healthy run never reaches is a no-op, so
    fuel off-by-default cannot perturb goldens on either engine."""
    spec = MicrobenchSpec("ones", w=1, iters=1)
    program = compile_microbench(spec, "sempe").program
    for engine in ("reference", "fast"):
        unlimited = simulate(program, defense="sempe", config=fast_config,
                             engine=engine)
        budgeted = simulate(program, defense="sempe", config=fast_config,
                            max_instructions=10**9, engine=engine)
        assert budgeted == unlimited
