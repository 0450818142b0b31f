"""Programmatic program construction.

:class:`ProgramBuilder` is the interface the compiler back end and the
workload generators use to emit code.  It manages labels, the data
segment layout, and fresh-name generation, and produces a sealed
:class:`repro.isa.program.Program`.
"""

from __future__ import annotations

import itertools

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Op
from repro.isa.program import DATA_BASE, SHADOW_BASE, DataItem, Program, ProgramError
from repro.isa.registers import ZERO


class ProgramBuilder:
    """Incremental builder for :class:`Program` objects."""

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self.instructions: list[Instruction] = []
        self.labels: dict[str, int] = {}
        self.data: list[DataItem] = []
        self.source_lines: list[int] = []
        self._current_line = 0
        self._data_cursor = DATA_BASE
        self._shadow_cursor = SHADOW_BASE
        self._label_counter = itertools.count()

    # -- code emission -------------------------------------------------------

    def set_line(self, line: int) -> None:
        """Attribute subsequently emitted instructions to source *line*.

        The compiler back end calls this per statement/expression; every
        instruction emitted until the next call is stamped with *line* in
        the debug map (``Program.source_lines``).  Line 0 means "no
        source position" (builder-generated scaffolding).
        """
        self._current_line = int(line)

    def emit(self, inst: Instruction) -> Instruction:
        """Append *inst* and return it."""
        self.instructions.append(inst)
        self.source_lines.append(self._current_line)
        return inst

    def op(self, op: Op, **kwargs) -> Instruction:
        """Emit an instruction by opcode with keyword operands."""
        return self.emit(Instruction(op, **kwargs))

    def label(self, name: str) -> str:
        """Bind *name* to the next instruction index."""
        if name in self.labels:
            raise ProgramError(f"duplicate label {name!r}")
        self.labels[name] = len(self.instructions)
        return name

    def fresh_label(self, stem: str = "L") -> str:
        """Return a unique label name (not yet bound)."""
        return f".{stem}{next(self._label_counter)}"

    @property
    def here(self) -> int:
        """Index of the next instruction to be emitted."""
        return len(self.instructions)

    # -- common instruction helpers -------------------------------------------

    def li(self, rd: int, value: int, comment: str = "") -> None:
        """Load a (possibly large) immediate into *rd*."""
        value = int(value)
        if -(1 << 31) <= value < (1 << 31):
            self.op(Op.ADDI, rd=rd, rs1=ZERO, imm=value, comment=comment)
        else:
            high = value >> 32
            low = value & 0xFFFF_FFFF
            self.op(Op.ADDI, rd=rd, rs1=ZERO, imm=high, comment=comment)
            self.op(Op.SLLI, rd=rd, rs1=rd, imm=32)
            self.op(Op.ORI, rd=rd, rs1=rd, imm=low)

    def la(self, rd: int, symbol: str, comment: str = "") -> None:
        """Load the address of data *symbol* into *rd*."""
        self.op(Op.LUI, rd=rd, label=symbol, comment=comment)

    def mv(self, rd: int, rs: int, comment: str = "") -> None:
        self.op(Op.ADDI, rd=rd, rs1=rs, imm=0, comment=comment)

    def branch(
        self,
        op: Op,
        rs1: int,
        rs2: int,
        label: str,
        secure: bool = False,
        comment: str = "",
    ) -> Instruction:
        return self.op(
            op, rs1=rs1, rs2=rs2, label=label, secure=secure, comment=comment
        )

    def jmp(self, label: str, comment: str = "") -> Instruction:
        return self.op(Op.JMP, label=label, comment=comment)

    def eosjmp(self, comment: str = "") -> Instruction:
        return self.op(Op.EOSJMP, comment=comment)

    def halt(self) -> Instruction:
        return self.op(Op.HALT)

    # -- data segment ---------------------------------------------------------

    def data_quads(self, name: str, values: list[int]) -> int:
        """Allocate 8-byte words in the data segment; returns the address."""
        return self._alloc(name, list(values), width=8)

    def data_space(self, name: str, n_quads: int) -> int:
        """Allocate *n_quads* zero-initialised 8-byte words."""
        return self._alloc(name, [0] * n_quads, width=8)

    def shadow_space(self, name: str, n_quads: int) -> int:
        """Allocate ShadowMemory (path-private copies) for SeMPE code."""
        address = self._shadow_cursor
        item = DataItem(name=name, address=address, values=[0] * n_quads, width=8)
        self.data.append(item)
        self._shadow_cursor = _align(address + item.size, 8)
        return address

    def _alloc(self, name: str, values: list[int], width: int) -> int:
        if any(item.name == name for item in self.data):
            raise ProgramError(f"duplicate data symbol {name!r}")
        address = self._data_cursor
        item = DataItem(name=name, address=address, values=values, width=width)
        self.data.append(item)
        self._data_cursor = _align(address + item.size, 8)
        return address

    # -- finishing --------------------------------------------------------------

    def build(self, entry: str | int = 0) -> Program:
        """Seal and return the finished :class:`Program`."""
        return Program(
            instructions=self.instructions,
            labels=self.labels,
            data=self.data,
            entry=entry,
            name=self.name,
            source_lines=self.source_lines,
        )


def _align(address: int, alignment: int) -> int:
    return (address + alignment - 1) // alignment * alignment
