"""Property tests on core data structures: jbTable, caches, encoding."""

import pytest

pytestmark = pytest.mark.slow


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jbtable import JbTableError, JumpBackTable
from repro.isa.builder import ProgramBuilder
from repro.isa.encoding import decode_program, encode_program
from repro.isa.opcodes import Op
from repro.isa.registers import A0, A1, ZERO
from repro.mem.cache import Cache, CacheConfig


# --------------------------------------------------------------------------
# jbTable: random well-formed push/jump-back/pop sequences stay LIFO.
# --------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 30),
                min_size=1, max_size=20))
def test_jbtable_nested_lifo_roundtrip(targets):
    """Fully nest len(targets) regions and unwind: jump-backs must come
    out in reverse push order."""
    table = JumpBackTable(depth=32)
    for target in targets:
        table.push()
        table.set_valid(target)
    unwound = []
    for _ in targets:
        unwound.append(table.take_jump_back())
        table.pop()
    assert unwound == list(reversed(targets))
    assert len(table) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=31))
def test_jbtable_occupancy_never_exceeds_depth(depth):
    table = JumpBackTable(depth=depth)
    pushed = 0
    try:
        for index in range(depth + 5):
            table.push()
            table.set_valid(index)
            pushed += 1
    except JbTableError:
        pass
    assert pushed == depth
    assert table.max_occupancy == depth


# --------------------------------------------------------------------------
# Cache: inclusion-style invariants under random access streams.
# --------------------------------------------------------------------------

addresses = st.integers(min_value=0, max_value=1 << 16)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(addresses, st.booleans()), max_size=200))
def test_cache_occupancy_bounded(stream):
    cache = Cache(CacheConfig(name="T", size_bytes=1024, assoc=2,
                              line_bytes=64))
    for address, is_write in stream:
        if not cache.access(address, is_write):
            cache.fill(address, is_write=is_write)
    for occupancy in cache.set_occupancy():
        assert occupancy <= cache.config.assoc
    assert cache.stats.demand_accesses == len(stream)
    assert cache.stats.demand_misses <= cache.stats.demand_accesses


@settings(max_examples=40, deadline=None)
@given(st.lists(addresses, min_size=1, max_size=100))
def test_cache_immediate_rereference_always_hits(stream):
    cache = Cache(CacheConfig(name="T", size_bytes=2048, assoc=4,
                              line_bytes=64))
    for address in stream:
        if not cache.access(address, False):
            cache.fill(address)
        assert cache.access(address, False), address


# --------------------------------------------------------------------------
# Encoding: random instruction sequences survive encode/decode.
# --------------------------------------------------------------------------

@st.composite
def random_programs(draw):
    builder = ProgramBuilder()
    builder.label("main")
    n_instructions = draw(st.integers(min_value=1, max_value=30))
    for _ in range(n_instructions):
        choice = draw(st.integers(min_value=0, max_value=4))
        if choice == 0:
            builder.op(Op.ADDI, rd=A0, rs1=ZERO,
                       imm=draw(st.integers(-1000, 1000)))
        elif choice == 1:
            builder.op(Op.ADD, rd=A0, rs1=A0, rs2=A1)
        elif choice == 2:
            builder.op(Op.LD, rd=A0, rs1=A1,
                       imm=draw(st.integers(0, 64)) * 8)
        elif choice == 3:
            builder.branch(Op.BEQ, A0, ZERO, "main",
                           secure=draw(st.booleans()))
        else:
            builder.eosjmp()
    builder.halt()
    return builder.build(entry="main")


@settings(max_examples=50, deadline=None)
@given(random_programs())
def test_encoding_roundtrip(program):
    decoded = decode_program(encode_program(program))
    assert len(decoded) == len(program)
    for original, copy in zip(program.instructions, decoded):
        assert copy.op is original.op
        assert copy.secure == original.secure


@settings(max_examples=50, deadline=None)
@given(random_programs())
def test_legacy_decode_never_yields_security_ops(program):
    decoded = decode_program(encode_program(program), legacy=True)
    assert not any(inst.secure for inst in decoded)
    assert not any(inst.op is Op.EOSJMP for inst in decoded)
