"""The timing digest covers every input the timing model reads.

Lanes of one campaign share a pipeline pass whenever their
:func:`~repro.arch.trace.timing_stream_digest` agrees, so an input the
digest missed would hand one lane another lane's timing without any
error.  Perturbing one entry of each chunk column and of each
predecoded table :meth:`~repro.uarch.pipeline.OutOfOrderPipeline.run_chunks`
reads must change the digest; the one exception is a secure branch's
``taken`` on a SeMPE machine, which the front end never consults
(§IV-E).
"""

import copy

import pytest

from repro.arch.fast_executor import FastExecutor
from repro.arch.trace import TraceChunk, timing_stream_digest
from repro.security.observer import poke_secrets
from repro.workloads.registry import get_workload

from tests.conftest import leak_candidates

pytestmark = pytest.mark.parity

# Predecoded tables the timing loop reads, per pc (``rows`` is built
# from cls_id, line, srcs and dst), and the scalar line geometry.
TABLES = ("cls_id", "line", "srcs", "dst", "op_id", "secure", "target")


@pytest.fixture(scope="module")
def stream():
    """gcd compiled for SeMPE, run once: its chunk stream has secure
    and ordinary branches, loads and stores."""
    spec = get_workload("gcd")
    program = spec.compile("sempe", **spec.leak_resolve()).program
    executor = FastExecutor(program, sempe=True)
    poke_secrets(executor.state.memory, program.symbols,
                 {spec.secret: leak_candidates(spec)[0]})
    return list(executor.run_chunks(line_bytes=64))


def _copy(chunks, pred=None):
    """Fresh chunks with copied columns (and *pred*, if given)."""
    return [TraceChunk(chunk.seq0, list(chunk.pc), list(chunk.addr),
                       list(chunk.taken), pred or chunk.pred)
            for chunk in chunks]


def _row(chunks, wanted):
    """``(chunk, row)`` of the first instruction row with *wanted*."""
    for chunk in chunks:
        for row, pc in enumerate(chunk.pc):
            if pc >= 0 and wanted(pc, chunk.addr[row], chunk.taken[row]):
                return chunk, row
    raise AssertionError("no such row in the stream")


def _digests(chunks):
    return tuple(timing_stream_digest(chunks, sempe=sempe)
                 for sempe in (False, True))


def test_digest_is_content_keyed(stream):
    """Copied columns and a copied predecode give the same digest."""
    pred = copy.copy(stream[0].pred)
    assert _digests(_copy(stream, pred)) == _digests(stream)


@pytest.mark.parametrize("column", ("pc", "addr"))
def test_every_chunk_column_is_covered(stream, column):
    chunks = _copy(stream)
    chunk, row = _row(chunks, lambda pc, addr, taken: addr >= 0)
    values = getattr(chunk, column)
    values[row] += 1
    before, after = _digests(stream), _digests(chunks)
    assert before[0] != after[0] and before[1] != after[1]


@pytest.mark.parametrize("secure", (False, True),
                         ids=("branch", "secure-branch"))
def test_taken_is_covered_except_on_secure_branches(stream, secure):
    chunks = _copy(stream)
    pred = stream[0].pred
    chunk, row = _row(chunks, lambda pc, addr, taken:
                      taken >= 0 and bool(pred.secure[pc]) == secure)
    chunk.taken[row] = 1 - chunk.taken[row]
    (plain_before, sempe_before) = _digests(stream)
    (plain_after, sempe_after) = _digests(chunks)
    assert plain_after != plain_before
    assert (sempe_after == sempe_before) == secure


@pytest.mark.parametrize("table", TABLES + ("line_bytes",))
def test_every_predecoded_table_is_covered(stream, table):
    pred = copy.copy(stream[0].pred)
    if table == "line_bytes":
        pred.line_bytes *= 2
    else:
        chunk, row = _row(stream, lambda pc, addr, taken: True)
        pc = chunk.pc[row]
        entries = list(getattr(pred, table))
        entry = entries[pc]
        entries[pc] = entry + (1,) if isinstance(entry, tuple) else entry + 1
        setattr(pred, table, tuple(entries))
    before, after = _digests(stream), _digests(_copy(stream, pred))
    assert before[0] != after[0] and before[1] != after[1]
