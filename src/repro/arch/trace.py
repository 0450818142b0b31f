"""Dynamic trace records: per-object stream and columnar batched chunks.

The **reference** functional executor emits a stream of :class:`DynInstr`
(one per committed instruction) interleaved with :class:`DrainEvent`
markers for the SeMPE pipeline drains and SPM transfers, and
:class:`TransientInstr` rows for squashed wrong-path instructions.  The
side-channel observers and trace-level tests consume this stream.

The out-of-order timing model consumes :class:`TraceChunk` instead —
struct-of-arrays batches of :data:`CHUNK_RECORDS` records, which the
fast and batch engines emit natively.  Because almost every per-record
field is a pure function of the static instruction, a chunk only
carries the three dynamic columns (``pc``, ``addr``, ``taken``);
everything else is looked up in the program's
:class:`repro.isa.program.PredecodedProgram` tables.  Drain and
transient events ride in the same columns with ``pc < 0``.  Two
adapters join the forms: :meth:`TraceChunk.records` re-materializes the
record objects so observers and tests can consume chunked traces
unchanged, and :meth:`repro.arch.executor.Executor.run_chunks` packs the
reference records into chunks (its inverse) so the reference engine is
timed by the same loop.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

from repro.isa.opcodes import Op, OpClass, OPCLASSES, OPS


class DynInstr:
    """One committed dynamic instruction."""

    __slots__ = (
        "seq", "pc", "op", "opclass", "srcs", "dst",
        "mem_addr", "mem_width", "is_store",
        "taken", "target", "secure",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        op: Op,
        opclass: OpClass,
        srcs: tuple[int, ...],
        dst: int | None,
        mem_addr: int | None = None,
        mem_width: int = 0,
        is_store: bool = False,
        taken: bool | None = None,
        target: int | None = None,
        secure: bool = False,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.op = op
        self.opclass = opclass
        self.srcs = srcs
        self.dst = dst
        self.mem_addr = mem_addr
        self.mem_width = mem_width
        self.is_store = is_store
        self.taken = taken
        self.target = target
        self.secure = secure

    @property
    def kind(self) -> str:
        return "inst"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.mem_addr is not None:
            extra = f" addr=0x{self.mem_addr:x}"
        if self.taken is not None:
            extra += f" taken={self.taken}"
        return f"<DynInstr #{self.seq} pc={self.pc} {self.op.value}{extra}>"


class DrainEvent:
    """A SeMPE pipeline drain, optionally with SPM transfer cycles.

    ``reason`` is one of ``"secblock-entry"``, ``"nt-path-end"`` or
    ``"secblock-exit"`` (the three drains of Fig. 6).
    """

    __slots__ = ("seq", "reason", "spm_cycles", "level")

    def __init__(self, seq: int, reason: str, spm_cycles: int, level: int) -> None:
        self.seq = seq
        self.reason = reason
        self.spm_cycles = spm_cycles
        self.level = level

    @property
    def kind(self) -> str:
        return "drain"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Drain #{self.seq} {self.reason} level={self.level} "
            f"spm={self.spm_cycles}cyc>"
        )


class TransientInstr:
    """One squashed wrong-path instruction (speculation window).

    Emitted by the functional engines, immediately after the conditional
    branch that forked it, only when
    :class:`repro.uarch.config.SpeculationConfig` is enabled.  The
    timing pipeline applies its cache touches when its predictor
    mispredicted the branch (the wrong path *is* the predicted path
    then) and discards it otherwise; it never retires, never counts as
    a committed instruction, and never trains a predictor.
    """

    __slots__ = ("seq", "pc", "op", "opclass", "mem_addr", "mem_width",
                 "is_store", "taken")

    def __init__(self, seq: int, pc: int, op: Op, opclass: OpClass,
                 mem_addr: int | None = None, mem_width: int = 0,
                 is_store: bool = False, taken: bool | None = None) -> None:
        self.seq = seq
        self.pc = pc
        self.op = op
        self.opclass = opclass
        self.mem_addr = mem_addr
        self.mem_width = mem_width
        self.is_store = is_store
        self.taken = taken

    @property
    def kind(self) -> str:
        return "transient"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.mem_addr is not None:
            extra = f" addr=0x{self.mem_addr:x}"
        return f"<Transient #{self.seq} pc={self.pc} {self.op.value}{extra}>"


TraceRecord = DynInstr | DrainEvent | TransientInstr


# --------------------------------------------------------------------------
# Columnar batched trace protocol (the fast engine's wire format).
# --------------------------------------------------------------------------

CHUNK_RECORDS = 4096

DRAIN_REASONS = ("secblock-entry", "nt-path-end", "secblock-exit")
DRAIN_REASON_ID = {reason: index for index, reason in enumerate(DRAIN_REASONS)}

# Transient (wrong-path) rows ride in the same columns with
# ``pc = TRANSIENT_PC_BASE - static_pc`` — disjoint from the drain codes
# ``-1..-3`` because static PCs are non-negative, so ``pc <= -4`` always
# decodes as transient and ``-3 <= pc < 0`` always as a drain.
TRANSIENT_PC_BASE = -4

_STORE_CLS = OpClass.STORE
_IJUMP_CLS = OpClass.IJUMP
_IJUMP_ID = OPCLASSES.index(OpClass.IJUMP)


class TraceChunk:
    """A struct-of-arrays batch of up to :data:`CHUNK_RECORDS` records.

    Row encoding (columns are parallel lists of ints):

    * instruction — ``pc`` is the instruction index (>= 0); ``addr`` is
      the memory byte address (loads/stores), the dynamic jump target
      (indirect jumps, whose target is a register value and thus not in
      the static tables) or ``-1``; ``taken`` is ``-1`` (not a branch),
      ``0`` or ``1``.
    * drain — ``pc`` is ``-(1 + reason_id)``; ``addr`` carries the SPM
      transfer cycles; ``taken`` carries the nesting level.
    * transient — ``pc`` is ``TRANSIENT_PC_BASE - static_pc`` (always
      ``<= -4``); ``addr``/``taken`` follow the instruction-row
      convention for the squashed wrong-path instruction.

    ``seq0`` is the stream sequence number of the first record; record
    *i* has sequence ``seq0 + i`` (the reference executor numbers every
    record, instruction or drain, consecutively).  ``pred`` is the
    :class:`~repro.isa.program.PredecodedProgram` whose static tables
    complete each instruction row.
    """

    __slots__ = ("seq0", "n", "pc", "addr", "taken", "pred")

    def __init__(self, seq0: int, pc: list[int], addr: list[int],
                 taken: list[int], pred) -> None:
        self.seq0 = seq0
        self.n = len(pc)
        self.pc = pc
        self.addr = addr
        self.taken = taken
        self.pred = pred

    def records(self) -> Iterator[TraceRecord]:
        """Re-materialize the per-object record stream for this chunk."""
        pred = self.pred
        seq = self.seq0
        for pc, addr, taken in zip(self.pc, self.addr, self.taken):
            if pc < 0:
                if pc <= TRANSIENT_PC_BASE:
                    spc = TRANSIENT_PC_BASE - pc
                    opclass = OPCLASSES[pred.cls_id[spc]]
                    yield TransientInstr(
                        seq=seq,
                        pc=spc,
                        op=OPS[pred.op_id[spc]],
                        opclass=opclass,
                        mem_addr=None if addr < 0 else addr,
                        mem_width=pred.width[spc],
                        is_store=opclass is _STORE_CLS,
                        taken=None if taken < 0 else bool(taken),
                    )
                else:
                    yield DrainEvent(seq, DRAIN_REASONS[-pc - 1], addr, taken)
            else:
                opclass = OPCLASSES[pred.cls_id[pc]]
                dst = pred.dst[pc]
                if opclass is _IJUMP_CLS:
                    mem_addr, target = None, addr
                else:
                    mem_addr = None if addr < 0 else addr
                    target = None if pred.target[pc] < 0 else pred.target[pc]
                yield DynInstr(
                    seq=seq,
                    pc=pc,
                    op=OPS[pred.op_id[pc]],
                    opclass=opclass,
                    srcs=pred.srcs[pc],
                    dst=None if dst < 0 else dst,
                    mem_addr=mem_addr,
                    mem_width=pred.width[pc],
                    is_store=opclass is _STORE_CLS,
                    taken=None if taken < 0 else bool(taken),
                    target=target,
                    secure=bool(pred.secure[pc]),
                )
            seq += 1


def chunk_records(chunks: Iterable[TraceChunk]) -> Iterator[TraceRecord]:
    """Flatten a chunk stream back into per-object trace records."""
    for chunk in chunks:
        yield from chunk.records()


# --------------------------------------------------------------------------
# Incremental stream digests (the key that lanes share timing passes by).
# --------------------------------------------------------------------------

def update_stream_digest(hasher, pc: list[int], addr: list[int],
                         taken: list[int]) -> None:
    """Fold one chunk's dynamic columns into *hasher*.

    Cheap and injective: each column is serialized via ``repr`` (C-speed
    for int lists, and unambiguous — separators and signs make distinct
    column contents produce distinct byte strings), with a per-column
    tag so a value sliding between columns changes the digest.  Equal
    digests therefore mean equal ``(pc, addr, taken)`` streams modulo a
    SHA-256 collision.  Each call's columns are one ``repr`` each, so
    the same rows folded in different slices digest differently: a
    missed share, never a false one.
    """
    hasher.update(b"p")
    hasher.update(repr(pc).encode())
    hasher.update(b"a")
    hasher.update(repr(addr).encode())
    hasher.update(b"t")
    hasher.update(repr(taken).encode())


def predecode_digest(pred) -> bytes:
    """Content identity of the static tables a timing pass consumes.

    Covers every per-PC table the pipeline reads (opclass, op, sources,
    destination, secure bit, icache line, static target, access width)
    plus the line geometry, so two lanes only share a timing pass when
    their *programs* agree wherever the model looks, not just their
    dynamic streams.
    """
    hasher = hashlib.sha256()
    for table in (pred.cls_id, pred.op_id, pred.srcs, pred.dst,
                  pred.secure, pred.line, pred.target, pred.width):
        hasher.update(repr(table).encode())
    hasher.update(repr(pred.line_bytes).encode())
    return hasher.digest()


def timing_stream_digest(chunks: Iterable[TraceChunk], *,
                         sempe: bool) -> str:
    """Content digest of everything the timing model reads from a
    serial chunk stream: the static tables (:func:`predecode_digest`)
    and every chunk's ``(pc, addr, taken)`` columns
    (:func:`update_stream_digest`).

    On a SeMPE machine (*sempe*) the ``taken`` of every secure-branch
    row is folded in as ``0``: the front end never consults or trains
    on an sJMP's outcome (§IV-E), so streams that differ only there
    time identically and share one digest.
    """
    hasher = hashlib.sha256()
    pred = secure = None
    for chunk in chunks:
        if chunk.pred is not pred:
            pred = chunk.pred
            hasher.update(predecode_digest(pred))
            secure = pred.secure if sempe and any(pred.secure) else None
        taken = chunk.taken
        if secure is not None:
            # Drain and transient rows (pc < 0) keep their taken column.
            taken = [0 if tk > 0 and pc >= 0 and secure[pc] else tk
                     for pc, tk in zip(chunk.pc, taken)]
        update_stream_digest(hasher, chunk.pc, chunk.addr, taken)
    return hasher.hexdigest()


def committed_columns(chunk: TraceChunk,
                      line_bytes: int) -> tuple[list[int], list[int]]:
    """One chunk's committed observables, column-wise: the committed
    pcs, and the data lines (``addr // line_bytes``) their loads and
    stores touch — exactly what a
    :class:`~repro.security.observer.TraceObserver` hashes from the
    re-materialized records.  Drain and transient rows (``pc < 0``)
    are dropped, and indirect-jump targets stay out of the memory
    stream.
    """
    pc_col = chunk.pc
    cls_id = chunk.pred.cls_id
    pcs = pc_col if not pc_col or min(pc_col) >= 0 else \
        [pc for pc in pc_col if pc >= 0]
    lines = [addr // line_bytes for pc, addr in zip(pc_col, chunk.addr)
             if addr >= 0 and pc >= 0 and cls_id[pc] != _IJUMP_ID]
    return pcs, lines
