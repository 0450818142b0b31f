"""Columnar trace chunks and the adapters between the two trace forms.

The fast executor's chunk stream, flattened back through
``TraceChunk.records()``, must reproduce the reference executor's
object stream field for field — that is what lets security observers
and trace-level tests consume either engine.  In the other direction,
``Executor.run_chunks`` packs the reference records into chunks for the
timing model; its rows must equal the fast executor's.
"""

import pytest

from repro.arch.executor import Executor
from repro.arch.fast_executor import FastExecutor
from repro.arch.trace import CHUNK_RECORDS, DRAIN_REASONS, chunk_records
from repro.isa.assembler import assemble
from repro.security.observer import poke_secrets
from repro.uarch.config import SpeculationConfig
from repro.workloads.djpeg import DjpegSpec, compile_djpeg
from repro.workloads.microbench import MicrobenchSpec, compile_microbench
from repro.workloads.registry import get_workload, workload_names

DYN_FIELDS = ("seq", "pc", "op", "opclass", "srcs", "dst", "mem_addr",
              "mem_width", "is_store", "taken", "target", "secure")
DRAIN_FIELDS = ("seq", "reason", "spm_cycles", "level")


def assert_streams_identical(program, sempe):
    reference = list(Executor(program, sempe=sempe).run())
    chunks = list(FastExecutor(program, sempe=sempe).run_chunks())
    materialized = list(chunk_records(chunks))
    assert len(reference) == len(materialized)
    for ref, fast in zip(reference, materialized):
        assert ref.kind == fast.kind
        fields = DYN_FIELDS if ref.kind == "inst" else DRAIN_FIELDS
        for field in fields:
            assert getattr(ref, field) == getattr(fast, field), (
                f"{field} differs at seq {ref.seq}: "
                f"{getattr(ref, field)!r} != {getattr(fast, field)!r}"
            )
    return chunks


def test_records_match_reference_sempe():
    """quicksort has calls (JAL/JALR), loads/stores and secure regions."""
    program = compile_microbench(
        MicrobenchSpec("quicksort", w=1, iters=1), "sempe").program
    chunks = assert_streams_identical(program, sempe=True)
    # Drains are present and correctly tagged.
    reasons = {record.reason for chunk in chunks
               for record in chunk.records() if record.kind == "drain"}
    assert reasons == set(DRAIN_REASONS)


def test_records_match_reference_legacy():
    program = compile_microbench(
        MicrobenchSpec("quicksort", w=1, iters=1), "sempe").program
    assert_streams_identical(program, sempe=False)


def test_chunk_batching_and_seq_continuity():
    program = compile_microbench(
        MicrobenchSpec("quicksort", w=2, iters=2), "sempe").program
    chunks = list(FastExecutor(program, sempe=True).run_chunks())
    assert len(chunks) > 1, "workload too small to exercise batching"
    expected_seq = 0
    for chunk in chunks[:-1]:
        # Drain rows can push a chunk slightly past the nominal size.
        assert CHUNK_RECORDS <= chunk.n <= CHUNK_RECORDS + 3
        assert chunk.seq0 == expected_seq
        expected_seq += chunk.n
    assert chunks[-1].seq0 == expected_seq


def test_run_chunks_is_single_use():
    program = assemble("""
        .text
    main:
        addi a0, a0, 1
        halt
    """)
    executor = FastExecutor(program, sempe=False)
    list(executor.run_chunks())
    try:
        list(executor.run_chunks())
    except RuntimeError:
        pass
    else:
        raise AssertionError("second run_chunks() should be rejected")


# --------------------------------------------------------------------------
# Executor.run_chunks: reference records -> chunk rows
# --------------------------------------------------------------------------

def _rows(executor, secret_values=None):
    poke_secrets(executor.state.memory, executor.program.symbols,
                 secret_values)
    rows = []
    for chunk in executor.run_chunks(line_bytes=64):
        rows.extend(zip(chunk.pc, chunk.addr, chunk.taken))
    return rows


def _secret(spec):
    return {spec.secret: spec.secret_values({})[0]}


def assert_rows_identical(program, sempe, secret_values=None, **kwargs):
    """The reference adapter's ``(pc, addr, taken)`` rows equal the fast
    executor's, ignoring chunk boundaries; returns the rows."""
    reference = _rows(Executor(program, sempe=sempe, **kwargs),
                      secret_values)
    fast = _rows(FastExecutor(program, sempe=sempe, **kwargs),
                 secret_values)
    assert reference == fast
    return reference


@pytest.mark.parametrize("mode", ("plain", "sempe"))
@pytest.mark.parametrize("name", workload_names())
def test_reference_chunks_match_fast_on_every_victim(name, mode):
    spec = get_workload(name)
    program = spec.compile(mode).program
    assert assert_rows_identical(program, sempe=mode == "sempe",
                                 secret_values=_secret(spec))


def test_reference_chunks_match_fast_on_djpeg():
    program = compile_djpeg(DjpegSpec("ppm", 64), "sempe").program
    rows = assert_rows_identical(program, sempe=True)
    assert {-1, -2, -3} <= {pc for pc, _, _ in rows}   # every drain kind


def test_reference_chunks_match_fast_with_speculation():
    spec = get_workload("spectre")
    program = spec.compile("plain").program
    rows = assert_rows_identical(
        program, sempe=False, secret_values=_secret(spec),
        speculation=SpeculationConfig(enabled=True))
    assert any(pc <= -4 for pc, _, _ in rows)           # transient rows


def test_reference_chunks_have_contiguous_seq():
    program = compile_microbench(
        MicrobenchSpec("quicksort", w=2, iters=2), "sempe").program
    chunks = list(Executor(program, sempe=True).run_chunks())
    assert len(chunks) > 1
    expected_seq = 0
    for chunk in chunks:
        assert chunk.seq0 == expected_seq
        expected_seq += chunk.n
    assert [record.seq for record in chunk_records(chunks)] == \
        list(range(expected_seq))
