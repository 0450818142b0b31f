"""Out-of-order pipeline timing model."""

from repro.arch.executor import Executor
from repro.isa.assembler import assemble
from repro.uarch.pipeline import OutOfOrderPipeline


def cycles_of(source, sempe=False, config=None, predictor=None):
    program = assemble(source)
    executor = Executor(program, sempe=sempe)
    pipeline = OutOfOrderPipeline(config, sempe=sempe)
    if predictor is not None:
        pipeline.predictor = predictor
    stats = pipeline.run_chunks(executor.run_chunks(
        line_bytes=pipeline.config.hierarchy.il1.line_bytes))
    return stats, pipeline


def _looped(body_lines: list[str], iterations: int = 64) -> str:
    """Wrap straight-line code in a warmup-friendly loop."""
    body = "\n".join("    " + line for line in body_lines)
    return (
        f"main:\n    addi s0, zero, {iterations}\nloop:\n{body}\n"
        "    addi s0, s0, -1\n    bne s0, zero, loop\n    halt\n"
    )


def test_dependent_chain_slower_than_independent(fast_config):
    chain = _looped(["addi a0, a0, 1"] * 24)
    parallel = _looped([f"addi a{i % 6}, zero, 1" for i in range(24)])
    chain_stats, _ = cycles_of(chain, config=fast_config)
    parallel_stats, _ = cycles_of(parallel, config=fast_config)
    assert chain_stats.cycles > parallel_stats.cycles
    assert parallel_stats.ipc > 2.0


def test_long_latency_divide_serialises(fast_config):
    source = "main:\n    addi a0, zero, 1000\n    addi a1, zero, 3\n" + \
        "\n".join("    div a0, a0, a1" for _ in range(16)) + "\n    halt\n"
    stats, _ = cycles_of(source, config=fast_config)
    # 16 dependent divides at 20 cycles each dominate.
    assert stats.cycles >= 16 * fast_config.div_latency


def test_load_miss_latency_visible(fast_config):
    source = """
        .data
    buf: .space 512
        .text
    main:
        la a0, buf
        ld a1, 0(a0)
        ld a2, 2048(a0)
        halt
    """
    stats, pipeline = cycles_of(source, config=fast_config)
    assert stats.dl1_misses >= 2
    assert stats.cycles > fast_config.hierarchy.dram_latency


def test_mispredict_penalty_counted(fast_config):
    # A data-dependent unpredictable-ish pattern: alternate taken/not.
    source = """
    main:
        addi a0, zero, 0
        addi a1, zero, 64
    loop:
        andi a2, a0, 1
        beq  a2, zero, even
        addi a3, a3, 1
    even:
        addi a0, a0, 1
        bne  a0, a1, loop
        halt
    """
    stats, pipeline = cycles_of(source, config=fast_config)
    assert stats.branches > 0
    assert stats.mispredicts >= 1       # at least the cold ones


def test_secure_branches_never_mispredict(fast_config):
    """sJMP must not touch the predictor (the branch-predictor channel)."""
    source = """
        .data
    key: .quad 0
        .text
    main:
        la   a0, key
        ld   a1, 0(a0)
        addi a4, zero, 32
    loop:
        sbeq a1, zero, skip
        addi a2, a2, 1
        jmp  skip
    skip:
        eosjmp
        addi a4, a4, -1
        bne  a4, zero, loop
        halt
    """
    stats, pipeline = cycles_of(source, sempe=True, config=fast_config)
    # The loop branch may mispredict, but lookups must not include the
    # 32 sJMP executions.
    assert pipeline.predictor.stats.lookups < 40
    assert stats.drains == 96


def test_drain_cycles_accumulate(fast_config):
    source = """
        .data
    key: .quad 0
        .text
    main:
        la   a0, key
        ld   a1, 0(a0)
        sbeq a1, zero, skip
        addi a2, a2, 1
        jmp  skip
    skip:
        eosjmp
        halt
    """
    stats, _ = cycles_of(source, sempe=True, config=fast_config)
    assert stats.drains == 3
    assert stats.spm_cycles > 0


def test_icache_misses_on_big_code(fast_config):
    body = "\n".join(f"    addi a{i % 6}, zero, {i}" for i in range(2000))
    source = "main:\n" + body + "\n    halt\n"
    stats, _ = cycles_of(source, config=fast_config)
    assert stats.il1_misses > 10


def test_return_address_stack_predicts_returns(fast_config):
    source = """
    main:
        addi a1, zero, 16
    loop:
        jal  ra, callee
        addi a1, a1, -1
        bne  a1, zero, loop
        halt
    callee:
        addi a0, a0, 1
        ret
    """
    stats, _ = cycles_of(source, config=fast_config)
    # Returns should be RAS-predicted: few indirect mispredicts.
    assert stats.indirect_mispredicts <= 2


def test_stats_instruction_count_matches_trace(fast_config):
    source = "main:\n    addi a0, zero, 1\n    halt\n"
    stats, _ = cycles_of(source, config=fast_config)
    assert stats.instructions == 2
