"""Trial-batched vectorized engine: N lanes of one program per dispatch.

Attack campaigns run the *same predecoded program* hundreds of times,
differing only in the secret bytes poked into memory.  The serial
engines pay the full fetch/decode/execute interpreter cost per trial;
:class:`BatchExecutor` pays it once per *batch step* by keeping the
machine state of all trials ("lanes") as struct-of-arrays columns:

* **registers** — per group, a list of 32 values where each value is
  either a python int (the lanes agree — the overwhelmingly common
  case) or a ``(k,)`` ``uint64`` numpy column (one element per lane);
* **memory** — a global sparse dict of 8-byte words where each word is
  an int (uniform across the whole batch) or an ``(n_lanes,)`` column,
  promoted lazily the first time a store diverges;
* **trace** — shared per-group column lists over the existing
  :class:`~repro.arch.trace.TraceChunk` protocol, with per-lane values
  (secure-branch outcomes, secret-indexed addresses) riding as sparse
  *patch vectors* so one execution produces every lane's byte-identical
  chunk stream.

**Divergence is handled by masked group splitting, never by forking the
step loop**: lanes start in one lockstep group; when a non-secure branch
(or an indirect jump) resolves differently across lanes, the group
partitions into two groups that continue independently on the
worklist.  Lanes within a group therefore share an
*identical instruction history*, which is what makes the layout sound:
every :class:`~repro.arch.executor.ExecutionResult` counter, SeMPE
modified-register set, drain event and SPM cycle count is group-scalar;
only data values differ per lane.  SeMPE secure branches never split —
all lanes run the NT path then the T path (that is the paper's security
property), carrying the per-lane outcome as a vector for the
constant-time merge at region exit.

The engine runs one kind of run only: a multi-secret campaign with the
speculation window closed.  Wrong-path walks are lane-divergent
(forked register values steer per-lane addresses *and* per-lane path
shapes), which the shared group columns cannot represent, so the
constructor rejects an open window;
:func:`repro.security.observer.collect_observations_batch` sends such
campaigns, like every single-lane run, down the serial fast path.

Bit-exactness contract: each lane's chunk stream, final registers and
``ExecutionResult`` are byte-identical to running that lane's secrets
through :class:`~repro.arch.fast_executor.FastExecutor` serially; the
batch-parity suite (``tests/core/test_batch_parity.py``) pins this
against both serial engines under every registered defense.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

try:
    import numpy as np
except ImportError:                                  # pragma: no cover
    np = None

from repro.arch.executor import (
    ExecutionResult,
    InstructionLimitError,
    SimulationError,
)
from repro.arch.trace import (
    CHUNK_RECORDS,
    TraceChunk,
    predecode_digest,
    update_stream_digest,
)
from repro.core.jbtable import JbTableError, JumpBackTable
from repro.isa.opcodes import NUM_OPS, OPS
from repro.isa.program import (
    DATA_BASE, STACK_BASE,
    K_ADD, K_SUB, K_MUL, K_DIV, K_AND, K_OR, K_XOR,
    K_SLL, K_SRL, K_SRA, K_SLT, K_SLTU, K_LUI,
    K_LOAD, K_STORE,
    K_BEQ, K_BNE, K_BLT, K_BLTU, K_BGEU,
    K_JMP, K_JAL, K_JALR, K_CMOV, K_EOSJMP, K_NOP,
    K_LAST_ALU, K_LAST_BRANCH,
    Program,
)
from repro.isa.registers import GP, NUM_REGS, SP
from repro.mem.scratchpad import ScratchpadMemory, SPMOverflowError

MASK64 = (1 << 64) - 1
SIGN_BIT = 1 << 63

if np is not None:
    _SIGN64 = np.uint64(SIGN_BIT)
    _U63 = np.uint64(63)
    _U64_0 = np.uint64(0)


def _require_numpy() -> None:
    if np is None:                                   # pragma: no cover
        raise RuntimeError(
            "engine='batch' requires numpy, which is not installed; "
            "use engine='fast' or engine='reference'")


def _vu(x):
    """A value as a numpy-safe operand: python ints premasked so NEP-50
    weak-scalar promotion never sees a negative or >= 2**64 value."""
    return x & MASK64 if isinstance(x, int) else x


def _merge(cond, t_val, nt_val):
    """Per-lane select (uint64 result) with int-or-column operands."""
    if isinstance(t_val, int):
        t_val = np.uint64(t_val & MASK64)
    if isinstance(nt_val, int):
        nt_val = np.uint64(nt_val & MASK64)
    return np.where(cond, t_val, nt_val)


class BatchMemory:
    """Columnar lane-indexed memory: word address -> int | (n,) column.

    An int means every lane of the batch holds that value (the whole
    initial image starts this way); a column is promoted on the first
    store that makes lanes disagree.  Columns are owned by the dict —
    external arrays are copied on insertion, so register columns are
    never aliased into memory.
    """

    def __init__(self, n_lanes: int, image: dict[int, int] | None = None) -> None:
        self.n_lanes = n_lanes
        words: dict[int, int] = {}
        # Assemble the byte image into words exactly like FlatMemory.
        for address, byte in (image or {}).items():
            word_address = address & ~7
            shift = 8 * (address - word_address)
            words[word_address] = (
                (words.get(word_address, 0) & ~(0xFF << shift))
                | ((byte & 0xFF) << shift))
        self._words: dict[int, object] = words

    # -- lane poking (pre-run secret installation) -------------------------

    def poke(self, lane: int, address: int, value: int, width: int = 8) -> None:
        """Store *value* into one lane only (promotes the word)."""
        value &= (1 << (8 * width)) - 1
        if width == 8 and address % 8 == 0:
            self._set_lane_word(address, lane, value)
            return
        for byte_index in range(width):
            byte_address = address + byte_index
            word_address = byte_address & ~7
            shift = 8 * (byte_address - word_address)
            old = self._lane_word(word_address, lane)
            new = (old & ~(0xFF << shift)) | (
                ((value >> (8 * byte_index)) & 0xFF) << shift)
            self._set_lane_word(word_address, lane, new)

    def lane_view(self, lane: int):
        """A FlatMemory-compatible ``store`` shim targeting one lane, so
        :func:`repro.security.observer.poke_secrets` — the single
        secret-encoding point — works unchanged on a batch."""
        return _LaneView(self, lane)

    def _lane_word(self, word_address: int, lane: int) -> int:
        word = self._words.get(word_address, 0)
        return word if isinstance(word, int) else int(word[lane])

    def _set_lane_word(self, word_address: int, lane: int, value: int) -> None:
        word = self._words.get(word_address, 0)
        if isinstance(word, int):
            if value == word:
                return
            column = np.full(self.n_lanes, word & MASK64, dtype=np.uint64)
            column[lane] = value
            self._words[word_address] = column
        else:
            word[lane] = value

    # -- group accessors ----------------------------------------------------

    def _get(self, word_address: int, lanes):
        """The word for a group: int, or a (k,) gather copy."""
        word = self._words.get(word_address, 0)
        if isinstance(word, int):
            return word
        return word[lanes]

    def load_uniform(self, lanes, address: int, width: int):
        """All lanes of the group load the same address."""
        if width == 8 and address % 8 == 0:
            return self._get(address, lanes)
        value = 0
        for byte_index in range(width):
            byte_address = address + byte_index
            word_address = byte_address & ~7
            shift = 8 * (byte_address - word_address)
            word = self._get(word_address, lanes)
            if isinstance(word, int):
                byte = (word >> shift) & 0xFF
            else:
                byte = (word >> np.uint64(shift)) & np.uint64(0xFF)
            if isinstance(byte, int) and isinstance(value, int):
                value |= byte << (8 * byte_index)
            else:
                value = _vu(value) | (_vu(byte) << np.uint64(8 * byte_index))
        return value

    def store_uniform(self, lanes, full: bool, address: int, value,
                      width: int) -> None:
        """All lanes of the group store to the same address.

        *value* is an int (all lanes store the same bits) or a (k,)
        column aligned with *lanes*; *full* says the group covers every
        batch lane (the store may then keep scalar representations).
        """
        if isinstance(value, int):
            value &= (1 << (8 * width)) - 1
        else:
            value = value & np.uint64((1 << (8 * width)) - 1)
        if width == 8 and address % 8 == 0:
            if isinstance(value, int):
                if full:
                    self._words[address] = value
                else:
                    word = self._words.get(address, 0)
                    if isinstance(word, int):
                        if value == word:
                            return
                        column = np.full(self.n_lanes, word & MASK64,
                                         dtype=np.uint64)
                        self._words[address] = column
                    else:
                        column = word
                    column[lanes] = value
            else:
                word = self._words.get(address, 0)
                if full and isinstance(word, int):
                    column = np.empty(self.n_lanes, dtype=np.uint64)
                    column[lanes] = value
                    self._words[address] = column
                elif isinstance(word, int):
                    column = np.full(self.n_lanes, word & MASK64,
                                     dtype=np.uint64)
                    column[lanes] = value
                    self._words[address] = column
                else:
                    word[lanes] = value
            return
        for byte_index in range(width):
            if isinstance(value, int):
                byte = (value >> (8 * byte_index)) & 0xFF
            else:
                byte = (value >> np.uint64(8 * byte_index)) & np.uint64(0xFF)
            byte_address = address + byte_index
            word_address = byte_address & ~7
            shift = 8 * (byte_address - word_address)
            word = self._get(word_address, lanes)
            if isinstance(word, int) and isinstance(byte, int):
                new = (word & ~(0xFF << shift)) | (byte << shift)
            else:
                new = ((_vu(word) & np.uint64(MASK64 ^ (0xFF << shift)))
                       | (_vu(byte) << np.uint64(shift)))
            self.store_uniform(lanes, full, word_address, new, 8)

    def load_lane(self, lane: int, address: int, width: int) -> int:
        """Scalar FlatMemory.load semantics for one lane."""
        if width == 8 and address % 8 == 0:
            return self._lane_word(address, lane)
        value = 0
        for byte_index in range(width):
            byte_address = address + byte_index
            word_address = byte_address & ~7
            shift = 8 * (byte_address - word_address)
            value |= ((self._lane_word(word_address, lane) >> shift) & 0xFF) \
                << (8 * byte_index)
        return value

    def load_scatter(self, lanes, addresses, width: int):
        """Per-lane addresses (the divergent path): python fallback."""
        out = np.empty(len(lanes), dtype=np.uint64)
        for position, (lane, address) in enumerate(
                zip(lanes.tolist(), addresses.tolist())):
            out[position] = self.load_lane(lane, address, width)
        return out

    def store_scatter(self, lanes, addresses, value, width: int) -> None:
        if isinstance(value, int):
            values = [value] * len(lanes)
        else:
            values = value.tolist()
        for lane, address, lane_value in zip(
                lanes.tolist(), addresses.tolist(), values):
            self.poke(lane, address, lane_value, width)


class _LaneView:
    """One lane of a :class:`BatchMemory` through the FlatMemory store
    interface (enough for :func:`poke_secrets`)."""

    __slots__ = ("_memory", "_lane")

    def __init__(self, memory: BatchMemory, lane: int) -> None:
        self._memory = memory
        self._lane = lane

    def store(self, address: int, value: int, width: int = 8) -> None:
        self._memory.poke(self._lane, address, value, width)

    def load(self, address: int, width: int = 8) -> int:
        return self._memory.load_lane(self._lane, address, width)


class _Seg:
    """One group's trace segment: scalar columns + sparse patch vectors.

    Rows shared by every lane of the group are plain ints in the
    ``pc``/``addr``/``taken`` lists; rows whose value differs per lane
    (secure-branch outcomes, divergent memory addresses, indirect-jump
    targets) hold a placeholder and carry their per-lane values in
    ``addr_patch``/``taken_patch`` as ``(absolute_row, column)`` pairs,
    where the column is aligned with ``lanes``.  Group splits freeze the
    segment; both children chain to it through ``parent``, so sibling
    groups share their common prefix instead of copying it.
    """

    __slots__ = ("parent", "lanes", "pc", "addr", "taken",
                 "addr_patch", "taken_patch")

    def __init__(self, parent, lanes) -> None:
        self.parent = parent
        self.lanes = lanes
        self.pc: list[int] = []
        self.addr: list[int] = []
        self.taken: list[int] = []
        self.addr_patch: list[tuple[int, object]] = []
        self.taken_patch: list[tuple[int, object]] = []


class _BatchRegion:
    """One active SecBlock of one group (mirror of Executor._Region plus
    the per-group snapshot storage the serial engine keeps in the SPM).

    ``outcome`` is a python bool when every lane's secure branch agreed,
    else a (k,) bool column — either way all lanes run NT then T and the
    exit merge selects per lane in constant time.
    """

    __slots__ = ("level", "target", "outcome", "phase",
                 "entry_regs", "nt_regs", "t_modified", "nt_modified")

    def __init__(self, level: int, target: int, outcome) -> None:
        self.level = level
        self.target = target
        self.outcome = outcome
        self.phase = "NT"
        self.entry_regs: list | None = None
        self.nt_regs: list | None = None
        self.t_modified: set[int] = set()
        self.nt_modified: set[int] = set()


class _Group:
    """A set of lanes in lockstep (identical instruction history)."""

    __slots__ = (
        "lanes", "full", "regs", "pc", "halted", "error",
        "icount", "secure_icount", "loads", "stores", "branches",
        "taken_branches", "secure_loads", "secure_stores", "op_counts",
        "secure_branches", "secure_regions", "max_nesting", "drains",
        "spm_save_cycles", "spm_restore_cycles",
        "regions", "mstack", "jb",
        "seg", "row_count", "last_flush", "boundaries",
        "_template", "_arrays", "_timing_hasher",
    )

    def __init__(self) -> None:
        self._template = None
        self._arrays = None
        self._timing_hasher = None

    @classmethod
    def root(cls, n_lanes: int, entry: int, jb_depth: int) -> "_Group":
        g = cls()
        g.lanes = np.arange(n_lanes, dtype=np.int64)
        g.full = True
        g.regs = [0] * NUM_REGS
        g.regs[SP] = STACK_BASE
        g.regs[GP] = DATA_BASE
        g.pc = entry
        g.halted = False
        g.error = None
        g.icount = g.secure_icount = 0
        g.loads = g.stores = g.branches = g.taken_branches = 0
        g.secure_loads = g.secure_stores = 0
        g.op_counts = [0] * NUM_OPS
        g.secure_branches = g.secure_regions = g.max_nesting = g.drains = 0
        g.spm_save_cycles = g.spm_restore_cycles = 0
        g.regions = []
        g.mstack = []
        g.jb = JumpBackTable(depth=jb_depth)
        g.seg = _Seg(None, g.lanes)
        g.row_count = 0
        g.last_flush = 0
        g.boundaries = []
        return g

    def split(self, positions) -> "_Group":
        """A child carrying the lane subset at *positions* (a bool mask
        over this group's lane positions); shares the frozen trace."""
        child = _Group()
        child.lanes = self.lanes[positions]
        child.full = False
        child.regs = [value if isinstance(value, int) else value[positions]
                      for value in self.regs]
        child.pc = self.pc
        child.halted = False
        child.error = None
        for name in ("icount", "secure_icount", "loads", "stores",
                     "branches", "taken_branches", "secure_loads",
                     "secure_stores", "secure_branches", "secure_regions",
                     "max_nesting", "drains", "spm_save_cycles",
                     "spm_restore_cycles", "row_count", "last_flush"):
            setattr(child, name, getattr(self, name))
        child.op_counts = list(self.op_counts)
        child.boundaries = list(self.boundaries)
        child.regions = []
        child.mstack = []
        for region in self.regions:
            clone = _BatchRegion(region.level, region.target,
                                 region.outcome[positions]
                                 if not isinstance(region.outcome, bool)
                                 else region.outcome)
            clone.phase = region.phase
            if region.entry_regs is not None:
                clone.entry_regs = [
                    value if isinstance(value, int) else value[positions]
                    for value in region.entry_regs]
            if region.nt_regs is not None:
                clone.nt_regs = [
                    value if isinstance(value, int) else value[positions]
                    for value in region.nt_regs]
            clone.t_modified = set(region.t_modified)
            clone.nt_modified = set(region.nt_modified)
            child.regions.append(clone)
            child.mstack.append(clone.nt_modified if clone.phase == "NT"
                                else clone.t_modified)
        child.jb = JumpBackTable(depth=self.jb.depth)
        for entry in self.jb._entries:
            pushed = child.jb.push(target=entry.target, taken=entry.taken)
            pushed.valid = entry.valid
            pushed.jump_back = entry.jump_back
        child.seg = _Seg(self.seg, child.lanes)
        return child


class BatchExecutor:
    """Run ``n_lanes`` trials of one program in lockstep; see module doc.

    The constructor mirrors :class:`~repro.arch.executor.Executor`
    (``spm``/``jbtable`` act as geometry prototypes for the SPM cycle
    accounting and jbTable depth), except that ``speculation`` must be
    ``None`` or a closed window: an open one raises ``ValueError``.
    Usage::

        executor = BatchExecutor(program, sempe=True, n_lanes=64)
        for lane, secrets in enumerate(secret_sets):
            poke_secrets(executor.memory.lane_view(lane), symbols, secrets)
        executor.run(line_bytes=64)
        chunks = executor.lane_chunks(0)      # bit-identical to FastExecutor

    ``run`` never raises for per-lane failures: a group that faults
    (bad PC, fuel exhaustion, SPM overflow) records the exception for
    its lanes and drops out of the worklist;
    :meth:`lane_error` reports it and callers re-raise where the serial
    engine would have.
    """

    def __init__(
        self,
        program: Program,
        sempe: bool = True,
        n_lanes: int = 1,
        spm: ScratchpadMemory | None = None,
        jbtable: JumpBackTable | None = None,
        max_instructions: int = 50_000_000,
        speculation=None,
    ) -> None:
        _require_numpy()
        if n_lanes < 1:
            raise ValueError(f"n_lanes must be >= 1, got {n_lanes}")
        if speculation is not None and speculation.enabled:
            raise ValueError(
                "BatchExecutor runs lockstep campaigns only; with the "
                "speculation window open every lane takes the serial "
                "fast engine")
        self.program = program
        self.sempe = sempe
        self.n_lanes = n_lanes
        self.max_instructions = max_instructions
        proto = spm if spm is not None else ScratchpadMemory(
            n_arch_regs=NUM_REGS)
        self._spm_slots = proto.n_slots
        self._spm_reg_bytes = proto.reg_bytes
        self._spm_bitvec = proto.bitvector_bytes
        self._spm_bpc = proto.bytes_per_cycle
        self._spm_entry_cycles = proto.entry_save_cycles()
        self._jb_depth = (jbtable.depth if jbtable is not None
                          else JumpBackTable().depth)
        self.memory = BatchMemory(n_lanes, program.initial_memory())
        self._pred = None
        self._pred_digest = None
        self._ijump_kind = None
        self._groups: list[_Group] = []
        self._lane_group: dict[int, _Group] = {}
        self._ran = False

    # -- execution ---------------------------------------------------------

    def _spm_cycles(self, nbytes: int) -> int:
        return max(1, -(-nbytes // self._spm_bpc))

    def run(self, line_bytes: int = 64) -> None:
        """Execute every lane to halt or fault (single-use)."""
        if self._ran:
            raise RuntimeError("BatchExecutor.run is single-use")
        self._ran = True
        self._pred = self.program.predecode(line_bytes)
        work = [_Group.root(self.n_lanes, self.program.entry,
                            self._jb_depth)]
        while work:
            self._execute(work.pop(), work)
        for group in self._groups:
            for lane in group.lanes.tolist():
                self._lane_group[lane] = group

    def _execute(self, g: _Group, work: list) -> None:
        """Step one group until halt, fault, or divergence split."""
        pred = self._pred
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

        mem = self.memory
        sempe = self.sempe
        max_instructions = self.max_instructions
        spm_slots = self._spm_slots
        reg_bytes = self._spm_reg_bytes
        bitvec_bytes = self._spm_bitvec
        entry_cycles = self._spm_entry_cycles
        spm_cyc = self._spm_cycles

        lanes = g.lanes
        k = len(lanes)
        full = g.full
        regs = g.regs
        regions = g.regions
        mstack = g.mstack
        jb = g.jb
        seg = g.seg
        ap, aa, at = seg.pc.append, seg.addr.append, seg.taken.append
        apatch = seg.addr_patch.append
        tpatch = seg.taken_patch.append

        icount = g.icount
        secure_icount = g.secure_icount
        loads = g.loads
        stores = g.stores
        branches = g.branches
        taken_branches = g.taken_branches
        secure_loads = g.secure_loads
        secure_stores = g.secure_stores
        op_counts = g.op_counts
        row_count = g.row_count
        last_flush = g.last_flush
        boundaries = g.boundaries

        pc = g.pc
        split_mask = None
        try:
            while True:
                if not 0 <= pc < n_prog:
                    raise SimulationError(f"PC out of range: {pc}")
                if icount >= max_instructions:
                    raise InstructionLimitError(
                        f"exceeded {max_instructions} dynamic instructions",
                        executed=icount,
                    )
                kop = kind_t[pc]
                icount += 1
                op_counts[opid_t[pc]] += 1
                if regions:
                    secure_icount += 1
                next_pc = pc + 1

                if kop <= K_LAST_ALU:
                    r1 = rs1_t[pc]
                    a = regs[r1] if r1 >= 0 else 0
                    if b_imm_t[pc]:
                        b = imm_t[pc]
                    else:
                        r2 = rs2_t[pc]
                        b = regs[r2] if r2 >= 0 else 0
                    if isinstance(a, int) and isinstance(b, int):
                        # Scalar fast path: all lanes agree — identical
                        # to the serial fast engine, one op for k lanes.
                        if kop == K_ADD:
                            value = a + b
                        elif kop == K_SUB:
                            value = a - b
                        elif kop == K_AND:
                            value = a & b
                        elif kop == K_OR:
                            value = a | b
                        elif kop == K_XOR:
                            value = a ^ b
                        elif kop == K_SLL:
                            value = a << (b & 63)
                        elif kop == K_SRL:
                            value = a >> (b & 63)
                        elif kop == K_SRA:
                            sa = a - (1 << 64) if a >= SIGN_BIT else a
                            value = sa >> (b & 63)
                        elif kop == K_SLT:
                            ub = b & MASK64
                            sa = a - (1 << 64) if a >= SIGN_BIT else a
                            sb = ub - (1 << 64) if ub >= SIGN_BIT else ub
                            value = 1 if sa < sb else 0
                        elif kop == K_SLTU:
                            value = 1 if a < (b & MASK64) else 0
                        elif kop == K_LUI:
                            value = imm_t[pc]
                        elif kop == K_MUL:
                            sa = a - (1 << 64) if a >= SIGN_BIT else a
                            ub = b & MASK64
                            sb = ub - (1 << 64) if ub >= SIGN_BIT else ub
                            value = sa * sb
                        else:    # K_DIV / K_REM
                            sa = a - (1 << 64) if a >= SIGN_BIT else a
                            ub = b & MASK64
                            sb = ub - (1 << 64) if ub >= SIGN_BIT else ub
                            if sb == 0:
                                value = -1 if kop == K_DIV else sa
                            else:
                                quotient = abs(sa) // abs(sb)
                                if (sa < 0) != (sb < 0):
                                    quotient = -quotient
                                value = quotient if kop == K_DIV \
                                    else sa - quotient * sb
                        value &= MASK64
                    else:
                        # Vector path: uint64 columns wrap like the
                        # serial engine's mask-at-write.
                        if kop == K_ADD:
                            value = _vu(a) + _vu(b)
                        elif kop == K_SUB:
                            value = _vu(a) - _vu(b)
                        elif kop == K_AND:
                            value = _vu(a) & _vu(b)
                        elif kop == K_OR:
                            value = _vu(a) | _vu(b)
                        elif kop == K_XOR:
                            value = _vu(a) ^ _vu(b)
                        elif kop == K_SLL:
                            sh = (b & 63) if isinstance(b, int) else (b & _U63)
                            value = _vu(a) << sh
                        elif kop == K_SRL:
                            sh = (b & 63) if isinstance(b, int) else (b & _U63)
                            value = _vu(a) >> sh
                        elif kop == K_SRA:
                            av = a if not isinstance(a, int) \
                                else np.full(k, a & MASK64, dtype=np.uint64)
                            if isinstance(b, int):
                                sh = np.full(k, b & 63, dtype=np.int64)
                            else:
                                sh = (b & _U63).astype(np.int64)
                            value = (av.view(np.int64) >> sh).view(np.uint64)
                        elif kop == K_SLT:
                            # Signed compare == unsigned compare with the
                            # sign bit flipped.
                            value = ((_vu(a) ^ _SIGN64) < (_vu(b) ^ _SIGN64)) \
                                .astype(np.uint64)
                        elif kop == K_SLTU:
                            value = (_vu(a) < _vu(b)).astype(np.uint64)
                        elif kop == K_MUL:
                            # Low 64 bits of the product are sign-agnostic.
                            value = _vu(a) * _vu(b)
                        else:    # K_DIV / K_REM
                            au = a if not isinstance(a, int) \
                                else np.full(k, a & MASK64, dtype=np.uint64)
                            bu = b if not isinstance(b, int) \
                                else np.full(k, b & MASK64, dtype=np.uint64)
                            b_zero = bu == _U64_0
                            neg_a = au >= _SIGN64
                            neg_b = bu >= _SIGN64
                            abs_a = np.where(neg_a, _U64_0 - au, au)
                            abs_b = np.where(neg_b, _U64_0 - bu, bu)
                            safe_b = np.where(b_zero, np.uint64(1), abs_b)
                            quotient = abs_a // safe_b
                            quotient = np.where(neg_a ^ neg_b,
                                                _U64_0 - quotient, quotient)
                            if kop == K_DIV:
                                value = np.where(b_zero, np.uint64(MASK64),
                                                 quotient)
                            else:
                                remainder = au - quotient * bu
                                value = np.where(b_zero, au, remainder)
                    d = rd_t[pc]
                    if d > 0:
                        regs[d] = value
                        if mstack:
                            mstack[-1].add(d)
                    ap(pc); aa(-1); at(-1)
                    row_count += 1

                elif kop == K_LOAD:
                    a = regs[rs1_t[pc]]
                    loads += 1
                    if regions:
                        secure_loads += 1
                    width = w_t[pc]
                    if isinstance(a, int):
                        addr = (a + imm_t[pc]) & MASK64
                        value = mem.load_uniform(lanes, addr, width)
                        ap(pc); aa(addr); at(-1)
                    else:
                        addr_vec = a + (imm_t[pc] & MASK64)
                        value = mem.load_scatter(lanes, addr_vec, width)
                        ap(pc); aa(0); at(-1)
                        apatch((row_count, addr_vec))
                    row_count += 1
                    d = rd_t[pc]
                    if d > 0:
                        regs[d] = value & MASK64 if isinstance(value, int) \
                            else value
                        if mstack:
                            mstack[-1].add(d)

                elif kop == K_STORE:
                    a = regs[rs1_t[pc]]
                    value = regs[rs2_t[pc]]
                    stores += 1
                    if regions:
                        secure_stores += 1
                    width = w_t[pc]
                    if isinstance(a, int):
                        addr = (a + imm_t[pc]) & MASK64
                        mem.store_uniform(lanes, full, addr, value, width)
                        ap(pc); aa(addr); at(-1)
                    else:
                        addr_vec = a + (imm_t[pc] & MASK64)
                        mem.store_scatter(lanes, addr_vec, value, width)
                        ap(pc); aa(0); at(-1)
                        apatch((row_count, addr_vec))
                    row_count += 1

                elif kop <= K_LAST_BRANCH:
                    a = regs[rs1_t[pc]]
                    b = regs[rs2_t[pc]]
                    if isinstance(a, int) and isinstance(b, int):
                        if kop == K_BEQ:
                            taken = a == b
                        elif kop == K_BNE:
                            taken = a != b
                        elif kop == K_BLTU:
                            taken = a < b
                        elif kop == K_BGEU:
                            taken = a >= b
                        else:
                            sa = a - (1 << 64) if a >= SIGN_BIT else a
                            sb = b - (1 << 64) if b >= SIGN_BIT else b
                            taken = sa < sb if kop == K_BLT else sa >= sb
                    else:
                        if kop == K_BEQ:
                            cond = _vu(a) == _vu(b)
                        elif kop == K_BNE:
                            cond = _vu(a) != _vu(b)
                        elif kop == K_BLTU:
                            cond = _vu(a) < _vu(b)
                        elif kop == K_BGEU:
                            cond = _vu(a) >= _vu(b)
                        else:
                            xa = _vu(a) ^ _SIGN64
                            xb = _vu(b) ^ _SIGN64
                            cond = xa < xb if kop == K_BLT else xa >= xb
                        t = int(cond.sum())
                        if t == 0:
                            taken = False
                        elif t == k:
                            taken = True
                        else:
                            taken = cond
                    secure = sec_t[pc] and sempe
                    if not isinstance(taken, bool) and not secure:
                        # Divergent ordinary branch: partition, no side
                        # effects kept from this half-step.
                        icount -= 1
                        op_counts[opid_t[pc]] -= 1
                        if regions:
                            secure_icount -= 1
                        split_mask = taken
                        break
                    branches += 1
                    ap(pc); aa(-1)
                    if isinstance(taken, bool):
                        at(1 if taken else 0)
                    else:
                        at(0)
                        tpatch((row_count, taken.astype(np.uint64)))
                    row_count += 1
                    if secure:
                        # sJMP: jbTable push, ArchRS snapshot, drain #1 —
                        # mirrors Executor._enter_secure_region, with
                        # the snapshot held per group.
                        level = len(regions)
                        jb.push(target=tgt_t[pc],
                                taken=taken if isinstance(taken, bool)
                                else True)
                        jb.set_valid(tgt_t[pc])
                        if level >= spm_slots:
                            raise SPMOverflowError(
                                f"sJMP nesting {level + 1} exceeds SPM "
                                f"capacity {spm_slots}")
                        save_cycles = entry_cycles
                        region = _BatchRegion(level, tgt_t[pc], taken)
                        region.entry_regs = list(regs)
                        regions.append(region)
                        mstack.append(region.nt_modified)
                        g.secure_branches += 1
                        g.secure_regions += 1
                        if level + 1 > g.max_nesting:
                            g.max_nesting = level + 1
                        g.drains += 1
                        g.spm_save_cycles += save_cycles
                        ap(-1); aa(save_cycles); at(level)
                        row_count += 1
                    elif taken:
                        taken_branches += 1
                        next_pc = tgt_t[pc]

                elif kop == K_EOSJMP:
                    ap(pc); aa(-1); at(-1)
                    row_count += 1
                    if sempe and regions:
                        region = regions[-1]
                        if region.phase == "NT":
                            # First eosJMP: save NT results, rewind to
                            # the entry state, jump back to the T path.
                            save_cycles = spm_cyc(
                                len(region.nt_modified) * reg_bytes
                                + bitvec_bytes)
                            restore_cycles = entry_cycles
                            region.nt_regs = list(regs)
                            regs[:] = region.entry_regs
                            jb.take_jump_back()
                            region.phase = "T"
                            mstack[-1] = region.t_modified
                            g.drains += 1
                            g.spm_save_cycles += save_cycles
                            g.spm_restore_cycles += restore_cycles
                            next_pc = region.target
                            ap(-2); aa(save_cycles + restore_cycles)
                            at(region.level)
                            row_count += 1
                        else:
                            # Second eosJMP: constant-time per-lane merge.
                            union = region.t_modified | region.nt_modified
                            restore_cycles = spm_cyc(
                                len(union) * reg_bytes + 2 * bitvec_bytes)
                            outcome = region.outcome
                            nt_regs = region.nt_regs
                            entry_regs = region.entry_regs
                            only_t = region.t_modified - region.nt_modified
                            if isinstance(outcome, bool):
                                if not outcome:
                                    for reg in region.nt_modified:
                                        regs[reg] = nt_regs[reg]
                                    for reg in only_t:
                                        regs[reg] = entry_regs[reg]
                            else:
                                for reg in region.nt_modified:
                                    regs[reg] = _merge(outcome, regs[reg],
                                                       nt_regs[reg])
                                for reg in only_t:
                                    regs[reg] = _merge(outcome, regs[reg],
                                                       entry_regs[reg])
                            jb.pop()
                            regions.pop()
                            mstack.pop()
                            if mstack:
                                mstack[-1] |= union
                            g.drains += 1
                            g.spm_restore_cycles += restore_cycles
                            ap(-3); aa(restore_cycles); at(region.level)
                            row_count += 1

                elif kop == K_JMP:
                    branches += 1
                    taken_branches += 1
                    next_pc = tgt_t[pc]
                    ap(pc); aa(-1); at(1)
                    row_count += 1

                elif kop == K_JAL:
                    branches += 1
                    taken_branches += 1
                    d = rd_t[pc]
                    if d > 0:
                        regs[d] = (pc + 1) & MASK64
                        if mstack:
                            mstack[-1].add(d)
                    next_pc = tgt_t[pc]
                    ap(pc); aa(-1); at(1)
                    row_count += 1

                elif kop == K_JALR:
                    target = regs[rs1_t[pc]]
                    if not isinstance(target, int):
                        first = target[0]
                        same = target == first
                        if bool(same.all()):
                            target = int(first)
                        else:
                            icount -= 1
                            op_counts[opid_t[pc]] -= 1
                            if regions:
                                secure_icount -= 1
                            split_mask = same
                            break
                    branches += 1
                    taken_branches += 1
                    d = rd_t[pc]
                    if d > 0:
                        regs[d] = (pc + 1) & MASK64
                        if mstack:
                            mstack[-1].add(d)
                    next_pc = target
                    ap(pc); aa(target); at(1)
                    row_count += 1

                elif kop == K_CMOV:
                    d = rd_t[pc]
                    cond = regs[rs2_t[pc]]
                    a = regs[rs1_t[pc]]
                    old = regs[d] if d >= 0 else 0
                    if isinstance(cond, int):
                        value = a if cond != 0 else old
                    else:
                        value = _merge(cond != _U64_0, _vu(a), _vu(old))
                    if d > 0:
                        regs[d] = value & MASK64 if isinstance(value, int) \
                            else value
                        if mstack:
                            mstack[-1].add(d)
                    ap(pc); aa(-1); at(-1)
                    row_count += 1

                elif kop == K_NOP:
                    ap(pc); aa(-1); at(-1)
                    row_count += 1

                else:    # K_HALT
                    g.halted = True
                    ap(pc); aa(-1); at(-1)
                    row_count += 1
                    pc += 1
                    break

                pc = next_pc
                if row_count - last_flush >= CHUNK_RECORDS:
                    boundaries.append(row_count)
                    last_flush = row_count
        except (SimulationError, SPMOverflowError, JbTableError) as exc:
            g.error = exc
        finally:
            g.pc = pc
            g.icount = icount
            g.secure_icount = secure_icount
            g.loads = loads
            g.stores = stores
            g.branches = branches
            g.taken_branches = taken_branches
            g.secure_loads = secure_loads
            g.secure_stores = secure_stores
            g.row_count = row_count
            g.last_flush = last_flush

        if split_mask is not None:
            inverse = ~split_mask
            work.append(g.split(split_mask))
            work.append(g.split(inverse))
        else:
            self._groups.append(g)

    # -- per-lane views ----------------------------------------------------

    def _group_of(self, lane: int) -> _Group:
        if not self._ran:
            raise RuntimeError("call run() before reading lane results")
        return self._lane_group[lane]

    def lane_error(self, lane: int) -> Exception | None:
        """The exception this lane's serial run would have raised."""
        return self._group_of(lane).error

    def lane_result(self, lane: int) -> ExecutionResult:
        """This lane's ExecutionResult (counters are group-uniform)."""
        g = self._group_of(lane)
        op_counts: dict[str, int] = {}
        for op, count in zip(OPS, g.op_counts):
            if count:
                op_counts[op.value] = count
        return ExecutionResult(
            instructions=g.icount,
            secure_branches=g.secure_branches,
            secure_regions=g.secure_regions,
            max_nesting=g.max_nesting,
            loads=g.loads,
            stores=g.stores,
            branches=g.branches,
            taken_branches=g.taken_branches,
            secure_instructions=g.secure_icount,
            secure_loads=g.secure_loads,
            secure_stores=g.secure_stores,
            drains=g.drains,
            spm_save_cycles=g.spm_save_cycles,
            spm_restore_cycles=g.spm_restore_cycles,
            halted=g.halted,
            op_counts=op_counts,
        )

    def lane_regs(self, lane: int) -> list[int]:
        """Final architectural registers of one lane (python ints)."""
        g = self._group_of(lane)
        position = int(np.searchsorted(g.lanes, lane))
        return [value if isinstance(value, int) else int(value[position])
                for value in g.regs]

    def lane_halted(self, lane: int) -> bool:
        return self._group_of(lane).halted

    # -- trace materialization ---------------------------------------------

    def _segments(self, g: _Group) -> list[_Seg]:
        segs = []
        seg = g.seg
        while seg is not None:
            segs.append(seg)
            seg = seg.parent
        segs.reverse()
        return segs

    def _template(self, g: _Group):
        """Concatenated scalar columns + ordered patches for a group.

        Shared by every lane of the group; built once, cached.  Patches
        are ``(absolute_row, column, seg_lanes)`` in row order.
        """
        if g._template is None:
            pc_all: list[int] = []
            addr_all: list[int] = []
            taken_all: list[int] = []
            addr_patches: list[tuple[int, object, object]] = []
            taken_patches: list[tuple[int, object, object]] = []
            for seg in self._segments(g):
                pc_all.extend(seg.pc)
                addr_all.extend(seg.addr)
                taken_all.extend(seg.taken)
                for row, column in seg.addr_patch:
                    addr_patches.append((row, column, seg.lanes))
                for row, column in seg.taken_patch:
                    taken_patches.append((row, column, seg.lanes))
            g._template = (pc_all, addr_all, taken_all,
                           addr_patches, taken_patches)
        return g._template

    def _chunk_ends(self, g: _Group) -> list[int]:
        """Absolute end rows of the chunks a serial run would yield.

        Faulted lanes only ever yielded their full flushed chunks (the
        partial buffer dies with the exception, exactly like
        ``FastExecutor.run_chunks``); completed lanes flush the tail.
        """
        ends = list(g.boundaries)
        if g.error is None and g.row_count > (ends[-1] if ends else 0):
            ends.append(g.row_count)
        return ends

    def lane_chunks(self, lane: int) -> Iterator[TraceChunk]:
        """This lane's trace, byte-identical to the serial fast engine."""
        g = self._group_of(lane)
        pc_all, addr_all, taken_all, addr_patches, taken_patches = \
            self._template(g)
        positions: dict[int, int] = {}

        def lane_position(seg_lanes) -> int:
            key = id(seg_lanes)
            position = positions.get(key)
            if position is None:
                position = int(np.searchsorted(seg_lanes, lane))
                positions[key] = position
            return position

        a_index = t_index = 0
        low = 0
        for high in self._chunk_ends(g):
            col_pc = pc_all[low:high]
            col_addr = addr_all[low:high]
            col_taken = taken_all[low:high]
            while (a_index < len(addr_patches)
                   and addr_patches[a_index][0] < high):
                row, column, seg_lanes = addr_patches[a_index]
                col_addr[row - low] = int(column[lane_position(seg_lanes)])
                a_index += 1
            while (t_index < len(taken_patches)
                   and taken_patches[t_index][0] < high):
                row, column, seg_lanes = taken_patches[t_index]
                col_taken[row - low] = int(column[lane_position(seg_lanes)])
                t_index += 1
            yield TraceChunk(low, col_pc, col_addr, col_taken, self._pred)
            low = high

    # -- timing digests and lockstep-group views ---------------------------

    def group_template_chunks(self, lane: int) -> Iterator[TraceChunk]:
        """The lane's group-shared trace columns, unpatched.

        One chunk over the scalar template — exactly the rows every
        lane of the group commits, with per-lane divergences still at
        their placeholders.  No engine calls this: the benchmark's
        layer tracer (``perfbench/``) wraps it by name, so it stays
        until that benchmark changes.
        """
        g = self._group_of(lane)
        pc_all, addr_all, taken_all, _ap, _tp = self._template(g)
        ends = self._chunk_ends(g)
        limit = ends[-1] if ends else 0
        if limit != len(pc_all):
            pc_all = pc_all[:limit]
            addr_all = addr_all[:limit]
            taken_all = taken_all[:limit]
        if limit:
            yield TraceChunk(0, pc_all, addr_all, taken_all, self._pred)

    def lane_timing_digest(self, lane: int) -> str:
        """Content digest of this lane's timing-relevant stream.

        Two lanes with equal digests feed the timing pipeline
        byte-identical inputs: the digest covers the
        static tables the model reads (:func:`predecode_digest`), the
        dynamic ``(pc, addr, taken)`` columns, and the lane's address
        patches in row order.  **Taken patches are excluded by
        construction**: they exist only for SeMPE secure-branch
        outcomes, which the timing model never consults (the front end
        always falls through on an sJMP, §IV-E) — that is what lets
        every lane of a SeMPE campaign share one digest, and one
        pipeline pass.
        """
        if self._pred_digest is None:
            self._pred_digest = predecode_digest(self._pred)
        g = self._group_of(lane)
        ends = self._chunk_ends(g)
        limit = ends[-1] if ends else 0
        if g._timing_hasher is None:
            hasher = hashlib.sha256(self._pred_digest)
            pc_all, addr_all, taken_all, _ap, _tp = self._template(g)
            if limit != len(pc_all):
                update_stream_digest(hasher, pc_all[:limit],
                                     addr_all[:limit], taken_all[:limit])
            else:
                update_stream_digest(hasher, pc_all, addr_all, taken_all)
            g._timing_hasher = hasher
        hasher = g._timing_hasher.copy()
        addr_patches = self._template(g)[3]
        for row, column, seg_lanes in addr_patches:
            if row >= limit:
                break
            position = int(np.searchsorted(seg_lanes, lane))
            hasher.update(b"%d=%d;" % (row, int(column[position])))
        return hasher.hexdigest()

    def _base_arrays(self, g: _Group):
        """Group-shared vector columns over the *yielded* trace rows.

        ``(pc, addr_u64, addr_valid)``: drain rows keep their negative
        pc; ``addr_valid`` marks rows whose addr column held a
        non-negative value before patching (memory addresses, dynamic
        jump targets — drain-cycle rows are screened by pc later).
        Divergent-row placeholders are patched per lane afterwards.
        """
        if g._arrays is None:
            pc_all, addr_all, _taken_all, _ap, _tp = self._template(g)
            ends = self._chunk_ends(g)
            limit = ends[-1] if ends else 0
            pc_arr = np.array(pc_all[:limit], dtype=np.int64)
            try:
                addr_signed = np.array(addr_all[:limit], dtype=np.int64)
                addr_arr = addr_signed.view(np.uint64).copy()
                addr_valid = addr_signed >= 0
            except OverflowError:
                # An address at or above 2**63 (wild but architecturally
                # legal) — assemble the masked column the slow way.
                column = addr_all[:limit]
                addr_arr = np.array([a & MASK64 for a in column],
                                    dtype=np.uint64)
                addr_valid = np.array([a >= 0 for a in column], dtype=bool)
            g._arrays = (pc_arr, addr_arr, addr_valid, limit)
        return g._arrays

    def lane_streams(self, lane: int, line_bytes: int):
        """Observable streams of one lane, vectorized.

        Returns ``(instruction_count, pc_values, mem_lines)`` where
        ``pc_values`` is the committed-instruction PC sequence and
        ``mem_lines`` the data-address stream divided down to cache
        lines — exactly the records a
        :class:`~repro.security.observer.TraceObserver` would see from
        this lane's serial run (drain rows dropped, indirect-jump
        targets excluded from the memory stream).
        """
        g = self._group_of(lane)
        pc_arr, addr_base, addr_valid, limit = self._base_arrays(g)
        _pc_all, _addr_all, _taken_all, addr_patches, _taken_patches = \
            self._template(g)
        if addr_patches:
            addr_arr = addr_base.copy()
            rows = []
            values = []
            for row, column, seg_lanes in addr_patches:
                if row >= limit:
                    break
                rows.append(row)
                values.append(column[int(np.searchsorted(seg_lanes, lane))])
            if rows:
                addr_arr[np.array(rows, dtype=np.int64)] = \
                    np.array(values, dtype=np.uint64)
        else:
            addr_arr = addr_base
        inst = pc_arr >= 0
        if self._ijump_kind is None:
            self._ijump_kind = np.array(self._pred.kind, dtype=np.int64)
        mem_rows = np.nonzero(inst & addr_valid)[0]
        keep = self._ijump_kind[pc_arr[mem_rows]] != K_JALR
        mem_lines = addr_arr[mem_rows[keep]] // np.uint64(line_bytes)
        return int(inst.sum()), pc_arr[inst], mem_lines
