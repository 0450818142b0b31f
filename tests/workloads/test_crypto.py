"""Modular exponentiation workload (Fig. 1)."""

import random

import pytest

from repro.arch.executor import Executor
from repro.lang.compiler import compile_source
from repro.security import noninterference_report
from repro.security.observer import collect_observation, poke_secrets
from repro.security.stats import majority_vote
from repro.workloads.crypto import modexp_reference, modexp_source


def run_modexp(mode, sempe, key, bits=8, base=7, modulus=1009):
    source = modexp_source(bits=bits, base=base, modulus=modulus, key=key)
    compiled = compile_source(source, mode=mode)
    executor = Executor(compiled.program, sempe=sempe)
    executor.run_to_completion()
    return executor.state.memory.load(compiled.program.symbols["result"])


@pytest.mark.parametrize("key", [0, 1, 0x55, 0xFF, 0xA3])
def test_modexp_correct_all_modes(key):
    expected = modexp_reference(8, 7, 1009, key)
    assert run_modexp("plain", False, key) == expected
    assert run_modexp("sempe", True, key) == expected
    assert run_modexp("cte", False, key) == expected


def test_reference_agrees_with_pow():
    for key in (0, 3, 77, 255):
        assert modexp_reference(8, 7, 1009, key) == pow(7, key, 1009)


def test_modexp_baseline_leaks_key_hamming_weight(fast_config):
    """The classic RSA timing channel: more set bits -> more multiplies."""
    source = modexp_source(bits=8, key=0)
    compiled = compile_source(source, mode="plain")
    report = noninterference_report(
        compiled.program, "ekey", [0x00, 0x0F, 0xFF], defense="plain",
        config=fast_config,
    )
    assert "timing" in report.leaking_channels()


def test_modexp_sempe_closes_channel(fast_config):
    source = modexp_source(bits=8, key=0)
    compiled = compile_source(source, mode="sempe")
    report = noninterference_report(
        compiled.program, "ekey", [0x00, 0x0F, 0xFF, 0x5A], defense="sempe",
        config=fast_config,
    )
    assert report.secure, report.leaking_channels()


def test_key_masked_to_bit_width():
    assert "65535" not in modexp_source(bits=4, key=0xFFFF)


# --------------------------------------------------------------------------
# The Fig. 1 adversary, read straight off the machine: the key-bit branch's
# committed directions and the end-to-end cycles spell the key (or its
# Hamming weight) on the baseline and are the same for every key under
# SeMPE.  The registered timing/branch-trace attackers run the statistical
# version of this against golden reports in tests/security.
# --------------------------------------------------------------------------

BITS = 8
KEYS = [0x00, 0x01, 0x5A, 0xF0, 0xFF]


@pytest.fixture(scope="module")
def victims():
    source = modexp_source(bits=BITS, key=0)
    return {mode: compile_source(source, mode=mode).program
            for mode in ("plain", "sempe")}


def key_branch_pc(program, sempe):
    """The static branch that tests each key bit: the secure branch of
    the SeMPE binary, the conditional branch run once per bit in the
    plain one."""
    if sempe:
        return next(pc for pc, inst in enumerate(program.instructions)
                    if inst.is_secure_branch)
    counts = {}
    for record in Executor(program, sempe=False).run():
        if record.kind == "inst" and record.taken is not None:
            counts[record.pc] = counts.get(record.pc, 0) + 1
    return next(pc for pc, count in counts.items()
                if count == BITS and program.instructions[pc].is_cond_branch)


def branch_directions(program, sempe, key):
    """1 where the committed stream continued at the key-bit branch's
    target, 0 where it fell through (drains are not fetch redirects)."""
    branch_pc = key_branch_pc(program, sempe)
    target = program.instructions[branch_pc].target
    executor = Executor(program, sempe=sempe)
    poke_secrets(executor.state.memory, program.symbols, {"ekey": key})
    directions, pending = [], False
    for record in executor.run():
        if record.kind != "inst":
            continue
        if pending:
            directions.append(1 if record.pc == target else 0)
            pending = False
        if record.pc == branch_pc and record.taken is not None:
            pending = True
    if pending:
        directions.append(0)
    return directions


def bits_to_int(bits):
    return sum((bit & 1) << index for index, bit in enumerate(bits))


def modexp_cycles(program, defense, key, config):
    return collect_observation(program, defense=defense,
                               secret_values={"ekey": key},
                               config=config).cycles


@pytest.mark.parametrize("key", KEYS)
def test_plain_branch_directions_spell_the_key(victims, key):
    # Codegen emits "branch-if-zero to skip": a taken branch is a 0 bit.
    directions = branch_directions(victims["plain"], False, key)
    assert len(directions) == BITS
    assert bits_to_int([1 - d for d in directions]) == key


@pytest.mark.parametrize("key", KEYS)
def test_sempe_branch_directions_independent_of_key(victims, key):
    program = victims["sempe"]
    branch_pc = key_branch_pc(program, True)
    assert program.instructions[branch_pc].target != branch_pc + 1
    directions = branch_directions(program, True, key)
    assert directions == [0] * BITS           # always the NT path first
    assert directions == branch_directions(program, True, ~key & 0xFF)


def test_word_sized_secret_spells_its_low_bits(victims):
    """``ekey`` is an 8-byte word: garbage above the attacked bits and
    the top word bit set must not disturb the low key bits."""
    full_word = (1 << 63) | (0xABCD << 16) | 0x5A
    directions = branch_directions(victims["plain"], False, full_word)
    assert bits_to_int([1 - d for d in directions[:BITS]]) == 0x5A


def test_noisy_probe_majority_vote_recovers_the_key(victims):
    """A probe that misreads 20 % of the directions still gives the key
    back after a per-bit majority vote over 15 reads."""
    rng = random.Random(3)
    clean = branch_directions(victims["plain"], False, 0xA7)
    reads = [[1 - (d ^ (rng.random() < 0.2)) for d in clean]
             for _ in range(15)]
    voted = [majority_vote([read[bit] for read in reads], rng)
             for bit in range(BITS)]
    assert bits_to_int(voted) == 0xA7


@pytest.mark.parametrize("key", [0x01, 0x0F, 0x5A, 0xA7, 0x80])
def test_plain_cycles_give_the_hamming_weight(victims, key, fast_config):
    """Calibrate on the all-zeros and all-ones keys, then invert the
    linear time-vs-weight model."""
    program = victims["plain"]
    zero = modexp_cycles(program, "plain", 0, fast_config)
    ones = modexp_cycles(program, "plain", (1 << BITS) - 1, fast_config)
    assert ones > zero
    per_bit = (ones - zero) / BITS
    estimate = round((modexp_cycles(program, "plain", key, fast_config)
                      - zero) / per_bit)
    assert abs(estimate - bin(key).count("1")) <= 1


@pytest.mark.parametrize("key", [0x01, 0x0F, 0x5A, 0xA7, 0xFF])
def test_sempe_cycles_flat_across_keys(victims, key, fast_config):
    program = victims["sempe"]
    assert modexp_cycles(program, "sempe", key, fast_config) == \
        modexp_cycles(program, "sempe", 0, fast_config)
