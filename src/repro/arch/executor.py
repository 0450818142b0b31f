"""Functional executor with SeMPE multi-path semantics.

In **legacy mode** (``sempe=False``) the executor models a processor that
does not understand the SecPrefix: secure branches behave like ordinary
branches and ``eosJMP`` is a NOP — exactly one path of every branch runs.

In **SeMPE mode** (``sempe=True``) a secure branch (sJMP):

1. evaluates its condition and pushes a jbTable entry (target address,
   T/NT outcome) — the jbTable itself lives in :mod:`repro.core.jbtable`;
2. saves an ArchRS snapshot of the architectural registers to the SPM and
   drains the pipeline (drain #1, Fig. 6);
3. continues down the **not-taken** path regardless of the outcome;
4. at the first ``eosJMP``, saves the NT-modified registers, restores the
   entry state, drains (drain #2) and jumps back to the taken path;
5. at the second ``eosJMP``, restores registers according to the real
   outcome in constant time, drains (drain #3), pops the jbTable entry
   and falls through.

Memory written inside SecBlocks is *not* snapshotted (matching the paper);
the compiler's ShadowMemory pass privatizes such writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.jbtable import JumpBackTable
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Op, OpClass, mem_width
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS
from repro.mem.memory import FlatMemory
from repro.mem.scratchpad import ScratchpadMemory
from repro.arch.state import ArchState, to_signed, to_unsigned
from repro.arch.trace import (
    CHUNK_RECORDS, DRAIN_REASON_ID, TRANSIENT_PC_BASE, DrainEvent, DynInstr,
    TraceChunk, TraceRecord, TransientInstr,
)
from repro.uarch.config import SpeculationConfig


class SimulationError(Exception):
    """Raised on runtime errors (bad PC, strict-mode div-by-zero ...)."""


class InstructionLimitError(SimulationError):
    """Raised when the dynamic instruction (fuel) budget is exhausted.

    Fuel exhaustion is deterministic — the same program burns the same
    instructions on either engine — so the harness treats it as a
    non-retryable cell failure.  ``executed`` carries the committed
    instruction count at the abort point (equal on both engines; the
    parity suite checks it).
    """

    def __init__(self, message: str, executed: int | None = None) -> None:
        super().__init__(message)
        self.executed = executed


@dataclass
class ExecutionResult:
    """Summary of one completed run."""

    instructions: int = 0
    secure_branches: int = 0
    secure_regions: int = 0
    max_nesting: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    taken_branches: int = 0
    secure_instructions: int = 0   # committed inside secure regions
    secure_loads: int = 0
    secure_stores: int = 0
    drains: int = 0
    spm_save_cycles: int = 0
    spm_restore_cycles: int = 0
    halted: bool = False
    op_counts: dict[str, int] = field(default_factory=dict)


class _Region:
    """Bookkeeping for one active SecBlock (one jbTable entry)."""

    __slots__ = ("level", "target", "outcome", "phase")

    def __init__(self, level: int, target: int, outcome: bool) -> None:
        self.level = level
        self.target = target
        self.outcome = outcome   # True = branch taken (T path is correct)
        self.phase = "NT"        # currently-executing path


class Executor:
    """Architectural simulator for one program."""

    def __init__(
        self,
        program: Program,
        sempe: bool = True,
        spm: ScratchpadMemory | None = None,
        jbtable: JumpBackTable | None = None,
        max_instructions: int = 50_000_000,
        strict: bool = False,
        speculation: SpeculationConfig | None = None,
        fence: bool = False,
    ) -> None:
        self.program = program
        self.sempe = sempe
        self.spm = spm if spm is not None else ScratchpadMemory(n_arch_regs=NUM_REGS)
        self.jbtable = jbtable if jbtable is not None else JumpBackTable()
        self.max_instructions = max_instructions
        self.strict = strict
        # Transient execution: when the speculation knob is on, every
        # eligible conditional branch forks and emits its squashed
        # wrong-path stream (see _transient_rows).  ``fence`` mirrors
        # the pipeline's fence defense: a SecPrefix'ed branch opens a
        # serialized region (through its eosJMP join) in which the
        # front end never runs ahead, so no wrong path ever executes.
        self.speculation = (speculation
                            if speculation is not None and speculation.enabled
                            else None)
        self.fence_mode = fence
        self._fence_depth = 0
        self._spec_pred = None
        self.state = ArchState(FlatMemory(program.initial_memory()))
        self.state.pc = program.entry
        self.result = ExecutionResult()
        self._regions: list[_Region] = []
        # Parallel to _regions: the modified-register set currently being
        # accumulated for each active region (the NT or T set of its
        # SPM slot, depending on the region's phase).  Register writes
        # touch only the innermost set; a region folds its union into
        # its parent when it exits, which yields the same sets as
        # marking every enclosing region on every write — the parent's
        # phase cannot change while a nested region is open — at O(1)
        # per write instead of O(nesting).
        self._modified_stack: list[set[int]] = []
        self._seq = 0

    # -- public API ------------------------------------------------------------

    def run(self) -> Iterator[TraceRecord]:
        """Execute to completion, yielding the dynamic trace."""
        instructions = self.program.instructions
        n_instructions = len(instructions)
        state = self.state
        while not state.halted:
            if not 0 <= state.pc < n_instructions:
                raise SimulationError(f"PC out of range: {state.pc}")
            if self.result.instructions >= self.max_instructions:
                raise InstructionLimitError(
                    f"exceeded {self.max_instructions} dynamic instructions",
                    executed=self.result.instructions,
                )
            inst = instructions[state.pc]
            yield from self._step(inst)
        self.result.halted = True

    def run_chunks(self, line_bytes: int = 64) -> Iterator[TraceChunk]:
        """Execute to completion, yielding :meth:`run`'s records as
        columnar chunks — the inverse of :meth:`TraceChunk.records`, so
        the timing model reads this engine's trace exactly as it reads
        the fast engine's.

        *line_bytes* is the instruction-cache line size of the
        predecoded tables the chunks reference (must match the timing
        model's IL1).
        """
        pred = self.program.predecode(line_bytes)
        seq0 = self._seq
        pcs: list[int] = []
        addrs: list[int] = []
        takens: list[int] = []
        for record in self.run():
            kind = record.kind
            if kind == "drain":
                pc = -1 - DRAIN_REASON_ID[record.reason]
                addr, taken = record.spm_cycles, record.level
            else:
                if kind == "inst" and record.opclass is OpClass.IJUMP:
                    addr = record.target
                else:
                    addr = -1 if record.mem_addr is None else record.mem_addr
                pc = record.pc if kind == "inst" \
                    else TRANSIENT_PC_BASE - record.pc
                taken = -1 if record.taken is None else int(record.taken)
            pcs.append(pc)
            addrs.append(addr)
            takens.append(taken)
            if len(pcs) >= CHUNK_RECORDS:
                yield TraceChunk(seq0, pcs, addrs, takens, pred)
                seq0 += len(pcs)
                pcs, addrs, takens = [], [], []
        if pcs:
            yield TraceChunk(seq0, pcs, addrs, takens, pred)

    def run_to_completion(self) -> ExecutionResult:
        """Execute, discarding the trace; returns the summary."""
        for _record in self.run():
            pass
        return self.result

    # -- execution core -----------------------------------------------------------

    def _step(self, inst: Instruction) -> Iterator[TraceRecord]:
        state = self.state
        pc = state.pc
        op = inst.op
        self.result.instructions += 1
        self.result.op_counts[op.value] = self.result.op_counts.get(op.value, 0) + 1
        in_region = bool(self._regions)
        if in_region:
            self.result.secure_instructions += 1

        taken: bool | None = None
        target: int | None = None
        mem_addr: int | None = None
        width = 0
        is_store = False
        next_pc = pc + 1
        drains: list[DrainEvent] = []
        transient_rows: list[tuple[int, int, int]] = ()

        opclass = inst.opclass
        if opclass is OpClass.ALU or opclass is OpClass.MUL or opclass is OpClass.DIV:
            self._write_reg(inst.rd, self._alu(inst))
        elif opclass is OpClass.LOAD:
            width = mem_width(op)
            mem_addr = to_unsigned(state.read(inst.rs1) + inst.imm)
            self.result.loads += 1
            if in_region:
                self.result.secure_loads += 1
            value = state.memory.load(mem_addr, width)
            self._write_reg(inst.rd, value)
        elif opclass is OpClass.STORE:
            width = mem_width(op)
            mem_addr = to_unsigned(state.read(inst.rs1) + inst.imm)
            is_store = True
            self.result.stores += 1
            if in_region:
                self.result.secure_stores += 1
            state.memory.store(mem_addr, state.read(inst.rs2), width)
        elif opclass is OpClass.BRANCH:
            taken = self._branch_condition(inst)
            target = inst.target
            self.result.branches += 1
            if inst.secure and self.sempe:
                drains.extend(self._enter_secure_region(inst, taken))
                next_pc = pc + 1           # NT path always first
            else:
                if self.fence_mode and inst.secure:
                    # Fence: the serialized region opens here; nothing
                    # inside it (through the eosJMP join) speculates.
                    self._fence_depth += 1
                elif self.speculation is not None and not inst.secure \
                        and self._fence_depth == 0:
                    transient_rows = self._transient_rows(
                        pc + 1 if taken else target)
                if taken:
                    self.result.taken_branches += 1
                    next_pc = target
        elif opclass is OpClass.JUMP:
            taken = True
            target = inst.target
            self.result.taken_branches += 1
            self.result.branches += 1
            if op is Op.JAL:
                self._write_reg(inst.rd, pc + 1)
            next_pc = target
        elif opclass is OpClass.IJUMP:
            taken = True
            target = state.read(inst.rs1)
            self.result.taken_branches += 1
            self.result.branches += 1
            self._write_reg(inst.rd, pc + 1)
            next_pc = target
        elif opclass is OpClass.CMOV:
            if state.read(inst.rs2) != 0:
                self._write_reg(inst.rd, state.read(inst.rs1))
            else:
                # CMOV always "writes" its destination (with the old value)
                # so its timing/dependence behaviour is condition-independent.
                self._write_reg(inst.rd, state.read(inst.rd))
        elif opclass is OpClass.EOSJMP:
            if self.sempe and self._regions:
                next_pc, eos_drains = self._handle_eosjmp(pc)
                drains.extend(eos_drains)
            elif self._fence_depth:
                # Join of a fenced region: speculation re-enabled
                # (mirrors the pipeline's fence_depth tracking).
                self._fence_depth -= 1
            # else: NOP on legacy processors / outside secure regions.
        elif op is Op.NOP:
            pass
        elif op is Op.HALT:
            state.halted = True
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unimplemented opcode {op}")

        yield DynInstr(
            seq=self._seq,
            pc=pc,
            op=op,
            opclass=opclass,
            srcs=inst.src_regs(),
            dst=inst.dst_reg(),
            mem_addr=mem_addr,
            mem_width=width,
            is_store=is_store,
            taken=taken,
            target=target,
            secure=inst.secure,
        )
        self._seq += 1
        for drain in drains:
            drain.seq = self._seq
            self._seq += 1
            yield drain
        if transient_rows:
            instructions = self.program.instructions
            for t_pc, t_addr, t_taken in transient_rows:
                t_inst = instructions[t_pc]
                t_class = t_inst.opclass
                t_mem = t_class is OpClass.LOAD or t_class is OpClass.STORE
                yield TransientInstr(
                    seq=self._seq,
                    pc=t_pc,
                    op=t_inst.op,
                    opclass=t_class,
                    mem_addr=t_addr if t_addr >= 0 else None,
                    mem_width=mem_width(t_inst.op) if t_mem else 0,
                    is_store=t_class is OpClass.STORE,
                    taken=None if t_taken < 0 else bool(t_taken),
                )
                self._seq += 1

        state.pc = next_pc

    # -- SeMPE region handling -----------------------------------------------------

    def _enter_secure_region(
        self, inst: Instruction, taken: bool
    ) -> list[DrainEvent]:
        level = len(self._regions)
        self.jbtable.push(target=inst.target, taken=taken)
        self.jbtable.set_valid(inst.target)
        save_cycles = self.spm.save_entry_state(level, self.state.snapshot_regs())
        self._regions.append(_Region(level, inst.target, taken))
        self._modified_stack.append(self.spm.slot(level).nt_modified)
        self.result.secure_branches += 1
        self.result.secure_regions += 1
        self.result.max_nesting = max(self.result.max_nesting, level + 1)
        self.result.drains += 1
        self.result.spm_save_cycles += save_cycles
        return [DrainEvent(0, "secblock-entry", save_cycles, level)]

    def _handle_eosjmp(self, pc: int) -> tuple[int, list[DrainEvent]]:
        region = self._regions[-1]
        slot = self.spm.slot(region.level)
        if region.phase == "NT":
            # First eosJMP: save NT results, rewind to entry state, jump back.
            save_cycles = self.spm.save_nt_state(
                region.level, self.state.snapshot_regs(), slot.nt_modified
            )
            restore_cycles = self.spm.entry_save_cycles()  # read entry state back
            self.state.restore_regs(slot.entry_regs)
            self.jbtable.take_jump_back()
            region.phase = "T"
            self._modified_stack[-1] = slot.t_modified
            self.result.drains += 1
            self.result.spm_save_cycles += save_cycles
            self.result.spm_restore_cycles += restore_cycles
            drain = DrainEvent(0, "nt-path-end", save_cycles + restore_cycles,
                               region.level)
            return region.target, [drain]

        # Second eosJMP: constant-time merge, pop the region.
        restore_cycles = self.spm.restore_cycles_for(region.level)
        if region.outcome:
            # Taken path (executed second) is correct: registers already
            # hold the T-path results; SPM values are read but discarded.
            pass
        else:
            # Not-taken path is correct.
            for reg in slot.nt_modified:
                self.state.regs[reg] = slot.nt_regs[reg]
            for reg in slot.t_modified - slot.nt_modified:
                self.state.regs[reg] = slot.entry_regs[reg]
        self.jbtable.pop()
        self.spm.release(region.level)
        self._regions.pop()
        self._modified_stack.pop()
        if self._modified_stack:
            # The parent sees every register the nested region wrote.
            self._modified_stack[-1] |= slot.nt_modified | slot.t_modified
        self.result.drains += 1
        self.result.spm_restore_cycles += restore_cycles
        drain = DrainEvent(0, "secblock-exit", restore_cycles, region.level)
        return pc + 1, [drain]

    # -- helpers ----------------------------------------------------------------

    def _write_reg(self, reg: int | None, value: int) -> None:
        if reg is None or reg == 0:
            return
        self.state.write(reg, value)
        if self._modified_stack:
            self._modified_stack[-1].add(reg)

    def _alu(self, inst: Instruction) -> int:
        read = self.state.read
        op = inst.op
        a = read(inst.rs1) if inst.rs1 is not None else 0
        if inst.imm is not None and inst.rs2 is None:
            b = inst.imm
        else:
            b = read(inst.rs2) if inst.rs2 is not None else 0

        if op in (Op.ADD, Op.ADDI):
            return to_unsigned(a + b)
        if op is Op.SUB:
            return to_unsigned(a - b)
        if op is Op.MUL:
            return to_unsigned(to_signed(a) * to_signed(b))
        if op in (Op.DIV, Op.REM):
            return self._divide(op, a, b)
        if op in (Op.AND, Op.ANDI):
            return to_unsigned(a & b)
        if op in (Op.OR, Op.ORI):
            return to_unsigned(a | b)
        if op in (Op.XOR, Op.XORI):
            return to_unsigned(a ^ b)
        if op in (Op.SLL, Op.SLLI):
            return to_unsigned(a << (b & 63))
        if op in (Op.SRL, Op.SRLI):
            return to_unsigned(a) >> (b & 63)
        if op in (Op.SRA, Op.SRAI):
            return to_unsigned(to_signed(a) >> (b & 63))
        if op in (Op.SLT, Op.SLTI):
            # to_signed masks to 64 bits first, so register operands
            # (already masked) and raw negative immediates compare the
            # same way; no SLT/SLTI split needed.
            return 1 if to_signed(a) < to_signed(b) else 0
        if op is Op.SLTU:
            return 1 if to_unsigned(a) < to_unsigned(b) else 0
        if op is Op.LUI:
            return to_unsigned(inst.imm)
        raise SimulationError(f"not an ALU op: {op}")  # pragma: no cover

    def _divide(self, op: Op, a: int, b: int) -> int:
        """RISC-V-style deterministic division.

        A zero divisor on a wrong path must not crash the machine (§III:
        such exceptions are the programmer's responsibility); we adopt the
        RISC-V convention: x/0 == -1, x%0 == x.  ``strict=True`` raises
        instead, modelling the compiler's reject-at-compile-time option.
        """
        sa, sb = to_signed(a), to_signed(b)
        if sb == 0:
            if self.strict:
                raise SimulationError("division by zero in strict mode")
            return to_unsigned(-1) if op is Op.DIV else to_unsigned(sa)
        quotient = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            quotient = -quotient
        if op is Op.DIV:
            return to_unsigned(quotient)
        return to_unsigned(sa - quotient * sb)

    def _branch_condition(self, inst: Instruction) -> bool:
        a = self.state.read(inst.rs1)
        b = self.state.read(inst.rs2)
        op = inst.op
        if op is Op.BEQ:
            return a == b
        if op is Op.BNE:
            return a != b
        if op is Op.BLT:
            return to_signed(a) < to_signed(b)
        if op is Op.BGE:
            return to_signed(a) >= to_signed(b)
        if op is Op.BLTU:
            return to_unsigned(a) < to_unsigned(b)
        if op is Op.BGEU:
            return to_unsigned(a) >= to_unsigned(b)
        raise SimulationError(f"not a branch: {op}")  # pragma: no cover

    # -- transient execution (the speculation window) ---------------------------

    def _transient_rows(self, wrong_pc: int) -> list[tuple[int, int, int]]:
        """Walk the squashed wrong path from *wrong_pc*.

        Returns ``(static_pc, mem_addr_or_-1, taken_-1/0/1)`` rows — the
        columnar transient encoding — for up to ``speculation.window``
        instructions.  The walk runs on a **forked** register file and a
        store overlay: wrong-path stores never reach architectural
        memory, wrong-path loads see them through the overlay, and a
        wrong-path division by zero is squashed, never raised (transient
        faults do not architecturally trap).  The walk ends at the
        window limit, a PC out of range, HALT, or any secure branch or
        ``eosJMP`` (speculation never crosses a region boundary).

        Shared by the reference and fast engines so the two transient
        streams can never drift apart.
        """
        from repro.isa.program import (
            K_ADD, K_SUB, K_MUL, K_DIV, K_AND, K_OR, K_XOR,
            K_SLL, K_SRL, K_SRA, K_SLT, K_SLTU, K_LUI,
            K_LOAD, K_STORE,
            K_BEQ, K_BNE, K_BLT, K_BLTU, K_BGEU,
            K_JMP, K_JAL, K_JALR, K_CMOV, K_EOSJMP, K_NOP,
            K_LAST_ALU, K_LAST_BRANCH,
        )

        MASK64 = (1 << 64) - 1
        SIGN_BIT = 1 << 63
        TWO64 = 1 << 64

        pred = self._spec_pred
        if pred is None:
            pred = self._spec_pred = self.program.predecode(64)
        kind_t = pred.kind
        rd_t = pred.rd
        rs1_t = pred.rs1
        rs2_t = pred.rs2
        imm_t = pred.imm
        b_imm_t = pred.b_is_imm
        tgt_t = pred.target
        sec_t = pred.secure
        w_t = pred.width
        n_prog = pred.n

        regs = list(self.state.regs)          # forked register file
        mem_load = self.state.memory.load
        overlay: dict[int, int] = {}          # byte addr -> wrong-path byte
        rows: list[tuple[int, int, int]] = []
        pc = wrong_pc
        for _ in range(self.speculation.window):
            if not 0 <= pc < n_prog:
                break
            if sec_t[pc]:
                break                          # never cross an sJMP/fence
            k = kind_t[pc]
            next_pc = pc + 1

            if k <= K_LAST_ALU:
                r1 = rs1_t[pc]
                a = regs[r1] & MASK64 if r1 >= 0 else 0
                if b_imm_t[pc]:
                    b = imm_t[pc]
                else:
                    r2 = rs2_t[pc]
                    b = regs[r2] & MASK64 if r2 >= 0 else 0
                if k == K_ADD:
                    value = a + b
                elif k == K_SUB:
                    value = a - b
                elif k == K_AND:
                    value = a & b
                elif k == K_OR:
                    value = a | b
                elif k == K_XOR:
                    value = a ^ b
                elif k == K_SLL:
                    value = a << (b & 63)
                elif k == K_SRL:
                    value = a >> (b & 63)
                elif k == K_SRA:
                    sa = a - TWO64 if a >= SIGN_BIT else a
                    value = sa >> (b & 63)
                elif k == K_SLT:
                    ub = b & MASK64
                    sa = a - TWO64 if a >= SIGN_BIT else a
                    sb = ub - TWO64 if ub >= SIGN_BIT else ub
                    value = 1 if sa < sb else 0
                elif k == K_SLTU:
                    value = 1 if a < (b & MASK64) else 0
                elif k == K_LUI:
                    value = imm_t[pc]
                elif k == K_MUL:
                    sa = a - TWO64 if a >= SIGN_BIT else a
                    ub = b & MASK64
                    sb = ub - TWO64 if ub >= SIGN_BIT else ub
                    value = sa * sb
                else:  # K_DIV / K_REM: squashed, never strict-raises
                    sa = a - TWO64 if a >= SIGN_BIT else a
                    ub = b & MASK64
                    sb = ub - TWO64 if ub >= SIGN_BIT else ub
                    if sb == 0:
                        value = -1 if k == K_DIV else sa
                    else:
                        quotient = abs(sa) // abs(sb)
                        if (sa < 0) != (sb < 0):
                            quotient = -quotient
                        value = quotient if k == K_DIV else sa - quotient * sb
                d = rd_t[pc]
                if d > 0:
                    regs[d] = value & MASK64
                rows.append((pc, -1, -1))

            elif k == K_LOAD:
                addr = (regs[rs1_t[pc]] + imm_t[pc]) & MASK64
                width = w_t[pc]
                value = 0
                for i in range(width):
                    byte = overlay.get(addr + i)
                    if byte is None:
                        byte = mem_load(addr + i, 1)
                    value |= byte << (8 * i)
                d = rd_t[pc]
                if d > 0:
                    regs[d] = value & MASK64
                rows.append((pc, addr, -1))

            elif k == K_STORE:
                addr = (regs[rs1_t[pc]] + imm_t[pc]) & MASK64
                value = regs[rs2_t[pc]]
                for i in range(w_t[pc]):
                    overlay[addr + i] = (value >> (8 * i)) & 0xFF
                rows.append((pc, addr, -1))

            elif k <= K_LAST_BRANCH:
                a = regs[rs1_t[pc]]
                b = regs[rs2_t[pc]]
                if k == K_BEQ:
                    taken = a == b
                elif k == K_BNE:
                    taken = a != b
                elif k == K_BLTU:
                    taken = (a & MASK64) < (b & MASK64)
                elif k == K_BGEU:
                    taken = (a & MASK64) >= (b & MASK64)
                else:
                    a &= MASK64
                    b &= MASK64
                    sa = a - TWO64 if a >= SIGN_BIT else a
                    sb = b - TWO64 if b >= SIGN_BIT else b
                    taken = sa < sb if k == K_BLT else sa >= sb
                rows.append((pc, -1, 1 if taken else 0))
                if taken:
                    next_pc = tgt_t[pc]

            elif k == K_EOSJMP:
                break                          # region join ends the window

            elif k == K_JMP:
                rows.append((pc, -1, 1))
                next_pc = tgt_t[pc]

            elif k == K_JAL:
                d = rd_t[pc]
                if d > 0:
                    regs[d] = (pc + 1) & MASK64
                rows.append((pc, -1, 1))
                next_pc = tgt_t[pc]

            elif k == K_JALR:
                target = regs[rs1_t[pc]] & MASK64
                d = rd_t[pc]
                if d > 0:
                    regs[d] = (pc + 1) & MASK64
                rows.append((pc, -1, 1))
                next_pc = target

            elif k == K_CMOV:
                d = rd_t[pc]
                value = regs[rs1_t[pc]] if regs[rs2_t[pc]] != 0 \
                    else (regs[d] if d >= 0 else 0)
                if d > 0:
                    regs[d] = value & MASK64
                rows.append((pc, -1, -1))

            elif k == K_NOP:
                rows.append((pc, -1, -1))

            else:  # K_HALT
                rows.append((pc, -1, -1))
                break

            pc = next_pc
        return rows


def run_program(
    program: Program,
    sempe: bool = True,
    max_instructions: int = 50_000_000,
) -> tuple[Executor, ExecutionResult]:
    """Convenience: execute *program* and return (executor, result)."""
    executor = Executor(program, sempe=sempe, max_instructions=max_instructions)
    result = executor.run_to_completion()
    return executor, result
