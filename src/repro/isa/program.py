"""Programs: code, data, and symbol resolution.

A :class:`Program` couples an instruction list with an initial data image.
Instruction addresses are ``index * 4``.  Data lives in a separate address
range starting at :data:`DATA_BASE`, with the stack placed above it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import INSTRUCTION_BYTES, Instruction
from repro.isa.opcodes import Op, OP_CLASS_IDS, OP_ID, mem_width

CODE_BASE = 0x0000_0000
DATA_BASE = 0x0010_0000
STACK_BASE = 0x0080_0000   # initial stack pointer (grows down)
SHADOW_BASE = 0x0040_0000  # compiler-managed ShadowMemory region
HEAP_BASE = 0x0020_0000    # bump-allocated dynamic memory


@dataclass
class DataItem:
    """A named, initialised chunk of the data segment."""

    name: str
    address: int
    values: list[int]
    width: int = 8  # bytes per element (8 for .quad, 1 for .byte)

    @property
    def size(self) -> int:
        return len(self.values) * self.width


class ProgramError(Exception):
    """Raised for malformed programs (duplicate/undefined labels ...)."""


class Program:
    """A sealed program ready for simulation.

    Attributes:
        instructions: the instruction list.
        labels: label name -> instruction index.
        data: list of :class:`DataItem` in the data segment.
        symbols: data symbol name -> byte address.
        entry: instruction index where execution begins.
        name: human-readable program name.
    """

    def __init__(
        self,
        instructions: list[Instruction],
        labels: dict[str, int] | None = None,
        data: list[DataItem] | None = None,
        entry: str | int = 0,
        name: str = "program",
        source_lines: list[int] | None = None,
    ) -> None:
        self.instructions = instructions
        self.labels = dict(labels or {})
        self.data = list(data or [])
        self.symbols = {item.name: item.address for item in self.data}
        self.name = name
        # Debug map: instruction index -> source line (0 = no position).
        lines = list(source_lines or [])
        lines += [0] * (len(instructions) - len(lines))
        self.source_lines = tuple(lines[: len(instructions)])
        if isinstance(entry, str):
            if entry not in self.labels:
                raise ProgramError(f"entry label {entry!r} not defined")
            self.entry = self.labels[entry]
        else:
            self.entry = entry
        self._seal()

    # -- construction ------------------------------------------------------

    def _seal(self) -> None:
        """Resolve symbolic branch targets and data references."""
        for index, inst in enumerate(self.instructions):
            if inst.label is None:
                continue
            if inst.is_control:
                if inst.label not in self.labels:
                    raise ProgramError(
                        f"undefined label {inst.label!r} at instruction {index}"
                    )
                inst.target = self.labels[inst.label]
            elif inst.op is Op.LUI:
                if inst.label not in self.symbols:
                    raise ProgramError(
                        f"undefined data symbol {inst.label!r} at instruction {index}"
                    )
                inst.imm = self.symbols[inst.label]

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.instructions)

    def address_of(self, index: int) -> int:
        """Byte address of instruction *index*."""
        return CODE_BASE + index * INSTRUCTION_BYTES

    def index_of_address(self, address: int) -> int:
        return (address - CODE_BASE) // INSTRUCTION_BYTES

    def initial_memory(self) -> dict[int, int]:
        """Byte address -> byte value map for the initial data image."""
        image: dict[int, int] = {}
        for item in self.data:
            addr = item.address
            for value in item.values:
                masked = value & ((1 << (8 * item.width)) - 1)
                for byte_index in range(item.width):
                    image[addr + byte_index] = (masked >> (8 * byte_index)) & 0xFF
                addr += item.width
        return image

    def count_secure_branches(self) -> int:
        """Static count of sJMP instructions in the program."""
        return sum(1 for inst in self.instructions if inst.is_secure_branch)

    def listing(self) -> str:
        """Human-readable assembly listing."""
        index_to_labels: dict[int, list[str]] = {}
        for label, index in self.labels.items():
            index_to_labels.setdefault(index, []).append(label)
        lines = []
        for index, inst in enumerate(self.instructions):
            for label in sorted(index_to_labels.get(index, [])):
                lines.append(f"{label}:")
            lines.append(f"    {inst}")
        return "\n".join(lines)

    def predecode(self, line_bytes: int = 64) -> "PredecodedProgram":
        """Lower the instruction list to flat tables (cached per geometry).

        The fast engine dispatches through these tables instead of
        touching :class:`Instruction` objects or Enum members in its
        inner loop.  *line_bytes* fixes the instruction-cache line size
        used for the precomputed line indices, so the cache is keyed by
        it.
        """
        cache = getattr(self, "_predecoded", None)
        if cache is None:
            cache = {}
            self._predecoded = cache
        predecoded = cache.get(line_bytes)
        if predecoded is None:
            predecoded = PredecodedProgram(self, line_bytes)
            cache[line_bytes] = predecoded
        return predecoded


# --------------------------------------------------------------------------
# Predecoded form: one handler-kind int per instruction plus parallel
# operand tables, so the fast engine's inner loop is table lookups and
# small-int comparisons only.
# --------------------------------------------------------------------------

# Handler kinds.  ALU kinds collapse the reg/imm variants (ADD/ADDI ...)
# into one semantic handler; the operand tables say where the second
# operand comes from.
(
    K_ADD, K_SUB, K_MUL, K_DIV, K_REM, K_AND, K_OR, K_XOR,
    K_SLL, K_SRL, K_SRA, K_SLT, K_SLTU, K_LUI,
    K_LOAD, K_STORE,
    K_BEQ, K_BNE, K_BLT, K_BGE, K_BLTU, K_BGEU,
    K_JMP, K_JAL, K_JALR, K_CMOV, K_EOSJMP, K_NOP, K_HALT,
) = range(29)

K_LAST_ALU = K_LUI        # kinds <= this compute a register value
K_FIRST_BRANCH = K_BEQ
K_LAST_BRANCH = K_BGEU

_HANDLER_KIND = {
    Op.ADD: K_ADD, Op.ADDI: K_ADD,
    Op.SUB: K_SUB,
    Op.MUL: K_MUL,
    Op.DIV: K_DIV,
    Op.REM: K_REM,
    Op.AND: K_AND, Op.ANDI: K_AND,
    Op.OR: K_OR, Op.ORI: K_OR,
    Op.XOR: K_XOR, Op.XORI: K_XOR,
    Op.SLL: K_SLL, Op.SLLI: K_SLL,
    Op.SRL: K_SRL, Op.SRLI: K_SRL,
    Op.SRA: K_SRA, Op.SRAI: K_SRA,
    Op.SLT: K_SLT, Op.SLTI: K_SLT,
    Op.SLTU: K_SLTU,
    Op.LUI: K_LUI,
    Op.LD: K_LOAD, Op.LB: K_LOAD,
    Op.ST: K_STORE, Op.SB: K_STORE,
    Op.BEQ: K_BEQ, Op.BNE: K_BNE, Op.BLT: K_BLT, Op.BGE: K_BGE,
    Op.BLTU: K_BLTU, Op.BGEU: K_BGEU,
    Op.JMP: K_JMP, Op.JAL: K_JAL, Op.JALR: K_JALR,
    Op.CMOV: K_CMOV,
    Op.EOSJMP: K_EOSJMP,
    Op.NOP: K_NOP,
    Op.HALT: K_HALT,
}


class PredecodedProgram:
    """Struct-of-arrays lowering of a sealed :class:`Program`.

    All tables are tuples indexed by instruction index; ``-1`` encodes
    "no register"/"no target".  ``srcs`` keeps the exact source-register
    tuples :meth:`Instruction.src_regs` would return, so trace chunks can
    be re-materialized bit-exactly.
    """

    __slots__ = (
        "program", "n", "line_bytes",
        "kind", "op_id", "cls_id",
        "rd", "rs1", "rs2", "imm", "b_is_imm",
        "target", "secure", "width", "line", "srcs", "dst", "rows",
    )

    def __init__(self, program: Program, line_bytes: int = 64) -> None:
        self.program = program
        self.line_bytes = line_bytes
        instructions = program.instructions
        self.n = len(instructions)
        kind, op_id, cls_id = [], [], []
        rd, rs1, rs2, imm, b_is_imm = [], [], [], [], []
        target, secure, width, line, srcs, dst = [], [], [], [], [], []
        insts_per_line = max(line_bytes // INSTRUCTION_BYTES, 1)
        for index, inst in enumerate(instructions):
            op = inst.op
            kind.append(_HANDLER_KIND[op])
            op_index = OP_ID[op]
            op_id.append(op_index)
            cls_id.append(OP_CLASS_IDS[op_index])
            rd.append(-1 if inst.rd is None else inst.rd)
            rs1.append(-1 if inst.rs1 is None else inst.rs1)
            rs2.append(-1 if inst.rs2 is None else inst.rs2)
            imm.append(0 if inst.imm is None else inst.imm)
            # Mirrors Executor._alu's operand selection exactly.
            b_is_imm.append(1 if (inst.imm is not None and inst.rs2 is None)
                            else 0)
            target.append(-1 if inst.target is None else inst.target)
            secure.append(1 if inst.secure else 0)
            width.append(mem_width(op) if inst.is_mem else 0)
            line.append(index // insts_per_line)
            srcs.append(inst.src_regs())
            dst_reg = inst.dst_reg()
            dst.append(-1 if dst_reg is None else dst_reg)
        self.kind = tuple(kind)
        self.op_id = tuple(op_id)
        self.cls_id = tuple(cls_id)
        self.rd = tuple(rd)
        self.rs1 = tuple(rs1)
        self.rs2 = tuple(rs2)
        self.imm = tuple(imm)
        self.b_is_imm = tuple(b_is_imm)
        self.target = tuple(target)
        self.secure = tuple(secure)
        self.width = tuple(width)
        self.line = tuple(line)
        self.srcs = tuple(srcs)
        self.dst = tuple(dst)
        # What the timing loop reads for every instruction, one tuple
        # per pc: (cls_id, line, srcs, dst).
        self.rows = tuple(zip(self.cls_id, self.line, self.srcs, self.dst))
