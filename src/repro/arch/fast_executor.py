"""Fast functional engine: predecoded dispatch, columnar trace output.

:class:`FastExecutor` is a drop-in replacement for :class:`Executor`
that is several times faster while remaining **bit-exact**: it produces
the same :class:`~repro.arch.executor.ExecutionResult`, the same final
architectural state, and (through :class:`~repro.arch.trace.TraceChunk`)
the same dynamic trace, record for record.

Where the reference executor re-decodes every dynamic instruction —
Enum comparisons, dataclass attribute loads, a generator frame and a
:class:`~repro.arch.trace.DynInstr` allocation per instruction — the
fast engine:

* dispatches on the per-instruction handler kind from the program's
  predecode tables (:meth:`repro.isa.program.Program.predecode`),
* keeps the hot state (registers, counters, column buffers) in local
  variables,
* counts opcodes in an int-indexed array instead of a string-keyed dict,
* emits the trace as struct-of-arrays chunks of ~4k records instead of
  one object per instruction.

SeMPE region bookkeeping (sJMP entry, the two ``eosJMP`` drains) is
inherited from the reference executor unchanged: drains are rare, and
sharing the code guarantees the two engines can never drift apart on
the security-critical path.
"""

from __future__ import annotations

from typing import Iterator

from repro.arch.executor import Executor, InstructionLimitError, SimulationError
from repro.arch.trace import (
    CHUNK_RECORDS, DRAIN_REASON_ID, TRANSIENT_PC_BASE, TraceChunk,
)
from repro.isa.opcodes import NUM_OPS, OPS
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


class FastExecutor(Executor):
    """Chunk-producing executor; see the module docstring.

    The constructor and all SeMPE region handling are inherited from
    :class:`Executor`; only the fetch/decode/execute loop is replaced.
    ``run_chunks`` is single-shot: one executor simulates one program
    once (exactly how the engine uses the reference executor).
    """

    _consumed = False

    def run_chunks(self, line_bytes: int = 64) -> Iterator[TraceChunk]:
        """Execute to completion, yielding columnar trace chunks.

        *line_bytes* is the instruction-cache line size used for the
        predecoded line indices (must match the timing model's IL1).
        """
        if self._consumed:
            raise RuntimeError("FastExecutor.run_chunks is single-use")
        self._consumed = True

        pred = self.program.predecode(line_bytes)
        self._spec_pred = pred
        kind_t = pred.kind
        opid_t = pred.op_id
        rd_t = pred.rd
        rs1_t = pred.rs1
        rs2_t = pred.rs2
        imm_t = pred.imm
        b_imm_t = pred.b_is_imm
        tgt_t = pred.target
        sec_t = pred.secure
        w_t = pred.width
        n_prog = pred.n
        instructions = self.program.instructions

        state = self.state
        regs = state.regs
        # Aligned 8-byte loads and stores go straight to the word dict;
        # FlatMemory.load/store serve bytes and unaligned addresses.
        mem_words = state.memory._words
        mem_word = mem_words.get
        mem_load = state.memory.load
        mem_store = state.memory.store
        regions = self._regions
        mstack = self._modified_stack
        sempe = self.sempe
        strict = self.strict
        max_instructions = self.max_instructions
        drain_id = DRAIN_REASON_ID
        # Transient execution: forks happen at eligible conditional
        # branches (never SecPrefix'ed ones, never inside a fenced
        # region) and splice the wrong-path rows — encoded with
        # ``pc = TRANSIENT_PC_BASE - static_pc`` — right after the
        # branch row.  ``sec_t`` may be zeroed below for the sempe-off
        # hoist, so eligibility reads the real secure column.
        speculate = self.speculation is not None
        fence_mode = self.fence_mode
        real_sec_t = pred.secure
        fence_depth = 0
        transient_rows = self._transient_rows
        if not sempe:
            # Constant-per-run hoist: with SeMPE off no branch can open a
            # secure region, so the per-branch ``sec_t[pc]`` test can read
            # from an all-false column instead of re-testing ``sempe``.
            sec_t = b"\x00" * n_prog

        # Column buffers for the chunk under construction.
        col_pc: list[int] = []
        col_addr: list[int] = []
        col_taken: list[int] = []
        ap, aa, at = col_pc.append, col_addr.append, col_taken.append
        seq0 = self._seq

        # Hot counters (flushed into self.result in the finally block so
        # partial runs — instruction-limit aborts, bad PCs — report the
        # same totals as the reference engine).
        icount = 0
        secure_icount = 0
        loads = stores = branches = taken_branches = 0
        secure_loads = secure_stores = 0
        op_counts = [0] * NUM_OPS
        # ``secure_icount`` is reconstructed from checkpoints instead of a
        # per-instruction ``if regions:`` test: ``secure_base`` records
        # ``icount`` when the outermost region opens, and the delta is
        # banked when it closes (or in ``finally`` for aborted runs).
        secure_base = 0

        pc = state.pc
        try:
            while not state.halted:
                # The fuel budget is enforced per stretch, not per
                # instruction: every instruction inside a stretch is
                # within budget by construction, so only the stretch
                # boundary needs the compare.  The reference engine
                # checks PC range before fuel each step; replicate that
                # precedence here when the budget runs out.
                remaining = max_instructions - icount
                if remaining <= 0:
                    if not 0 <= pc < n_prog:
                        raise SimulationError(f"PC out of range: {pc}")
                    raise InstructionLimitError(
                        f"exceeded {max_instructions} dynamic instructions",
                        executed=icount,
                    )
                if remaining > CHUNK_RECORDS:
                    remaining = CHUNK_RECORDS
                for _ in range(remaining):
                    if not 0 <= pc < n_prog:
                        raise SimulationError(f"PC out of range: {pc}")
                    k = kind_t[pc]
                    icount += 1
                    op_counts[opid_t[pc]] += 1
                    next_pc = pc + 1

                    if k <= K_LAST_ALU:
                        # Register operands are masked at read so that raw
                        # out-of-range values poked directly into
                        # ``state.regs`` (negative, or >= 2**64) behave
                        # exactly as in the reference engine, whose
                        # ``to_signed``/``to_unsigned`` helpers normalize
                        # every operand per op.  Immediates stay raw — the
                        # reference uses them raw too, and each handler
                        # below masks them where its semantics require.
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
                        else:  # K_DIV / K_REM — mirrors Executor._divide
                            sa = a - TWO64 if a >= SIGN_BIT else a
                            ub = b & MASK64
                            sb = ub - TWO64 if ub >= SIGN_BIT else ub
                            if sb == 0:
                                if strict:
                                    raise SimulationError(
                                        "division by zero in strict mode")
                                value = -1 if k == K_DIV else sa
                            else:
                                quotient = abs(sa) // abs(sb)
                                if (sa < 0) != (sb < 0):
                                    quotient = -quotient
                                value = quotient if k == K_DIV \
                                    else sa - quotient * sb
                        d = rd_t[pc]
                        if d > 0:
                            regs[d] = value & MASK64
                            if mstack:
                                mstack[-1].add(d)
                        ap(pc); aa(-1); at(-1)

                    elif k == K_LOAD:
                        addr = (regs[rs1_t[pc]] + imm_t[pc]) & MASK64
                        loads += 1
                        if regions:
                            secure_loads += 1
                        width = w_t[pc]
                        if width == 8 and not addr & 7:
                            value = mem_word(addr, 0)
                        else:
                            value = mem_load(addr, width)
                        d = rd_t[pc]
                        if d > 0:
                            regs[d] = value & MASK64
                            if mstack:
                                mstack[-1].add(d)
                        ap(pc); aa(addr); at(-1)

                    elif k == K_STORE:
                        addr = (regs[rs1_t[pc]] + imm_t[pc]) & MASK64
                        stores += 1
                        if regions:
                            secure_stores += 1
                        width = w_t[pc]
                        if width == 8 and not addr & 7:
                            mem_words[addr] = regs[rs2_t[pc]] & MASK64
                        else:
                            mem_store(addr, regs[rs2_t[pc]], width)
                        ap(pc); aa(addr); at(-1)

                    elif k <= K_LAST_BRANCH:
                        # BEQ/BNE compare raw register contents (so does the
                        # reference); the ordered compares normalize first,
                        # mirroring to_unsigned/to_signed in
                        # Executor._branch_condition.
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
                        branches += 1
                        ap(pc); aa(-1); at(1 if taken else 0)
                        if sec_t[pc]:
                            if not regions:
                                secure_base = icount
                            for drain in self._enter_secure_region(
                                    instructions[pc], taken):
                                ap(-1 - drain_id[drain.reason])
                                aa(drain.spm_cycles)
                                at(drain.level)
                        elif taken:
                            taken_branches += 1
                            next_pc = tgt_t[pc]
                        if fence_mode and real_sec_t[pc]:
                            fence_depth += 1
                        elif speculate and not real_sec_t[pc] \
                                and fence_depth == 0:
                            for t_pc, t_addr, t_tk in transient_rows(
                                    pc + 1 if taken else tgt_t[pc]):
                                ap(TRANSIENT_PC_BASE - t_pc)
                                aa(t_addr)
                                at(t_tk)

                    elif k == K_EOSJMP:
                        ap(pc); aa(-1); at(-1)
                        if sempe and regions:
                            next_pc, eos_drains = self._handle_eosjmp(pc)
                            for drain in eos_drains:
                                ap(-1 - drain_id[drain.reason])
                                aa(drain.spm_cycles)
                                at(drain.level)
                            if not regions:
                                # Outermost region closed: bank its
                                # instruction span (see secure_base).
                                secure_icount += icount - secure_base
                        elif fence_depth:
                            # Join of a fenced region (see Executor).
                            fence_depth -= 1

                    elif k == K_JMP:
                        branches += 1
                        taken_branches += 1
                        next_pc = tgt_t[pc]
                        ap(pc); aa(-1); at(1)

                    elif k == K_JAL:
                        branches += 1
                        taken_branches += 1
                        d = rd_t[pc]
                        if d > 0:
                            regs[d] = (pc + 1) & MASK64
                            if mstack:
                                mstack[-1].add(d)
                        next_pc = tgt_t[pc]
                        ap(pc); aa(-1); at(1)

                    elif k == K_JALR:
                        branches += 1
                        taken_branches += 1
                        target = regs[rs1_t[pc]]
                        d = rd_t[pc]
                        if d > 0:
                            regs[d] = (pc + 1) & MASK64
                            if mstack:
                                mstack[-1].add(d)
                        next_pc = target
                        ap(pc); aa(target); at(1)

                    elif k == K_CMOV:
                        d = rd_t[pc]
                        value = regs[rs1_t[pc]] if regs[rs2_t[pc]] != 0 \
                            else (regs[d] if d >= 0 else 0)
                        if d > 0:
                            regs[d] = value & MASK64
                            if mstack:
                                mstack[-1].add(d)
                        ap(pc); aa(-1); at(-1)

                    elif k == K_NOP:
                        ap(pc); aa(-1); at(-1)

                    else:  # K_HALT
                        state.halted = True
                        ap(pc); aa(-1); at(-1)
                        pc += 1
                        break

                    pc = next_pc
                    if len(col_pc) >= CHUNK_RECORDS:
                        chunk = TraceChunk(seq0, col_pc, col_addr, col_taken,
                                           pred)
                        yield chunk
                        seq0 += chunk.n
                        col_pc, col_addr, col_taken = [], [], []
                        ap, aa, at = (col_pc.append, col_addr.append,
                                      col_taken.append)

            self.result.halted = True
            if col_pc:
                yield TraceChunk(seq0, col_pc, col_addr, col_taken, pred)
                seq0 += len(col_pc)
                col_pc = []
        finally:
            state.pc = pc
            if regions:
                # Run ended (abort or halt) inside an open region: bank
                # the partial span up to the last executed instruction.
                secure_icount += icount - secure_base
            # Rows buffered but not yet yielded (aborted runs) still
            # executed; count them like the reference engine would.
            self._seq = seq0 + len(col_pc)
            result = self.result
            result.instructions += icount
            result.secure_instructions += secure_icount
            result.loads += loads
            result.stores += stores
            result.branches += branches
            result.taken_branches += taken_branches
            result.secure_loads += secure_loads
            result.secure_stores += secure_stores
            counts = result.op_counts
            for op, count in zip(OPS, op_counts):
                if count:
                    counts[op.value] = counts.get(op.value, 0) + count
