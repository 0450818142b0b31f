"""Register-snapshot mechanisms considered in §IV-F.

The paper evaluates three designs for dealing with phantom register
dependences between the two paths of a secure branch, and adopts the
third:

* **LRS** (Lazy Register Spill) — a cache-like rename table with SecBlock
  tags; spills only modified registers but complicates renaming and slows
  instructions outside SecBlocks.
* **PhyRS** (Physical Register Snapshot) — snapshot the entire physical
  register file plus the RAT; simple but produces very large SPM traffic
  (hundreds of physical registers).
* **ArchRS** (Architectural Register Snapshot) — snapshot only the
  architectural registers plus two modified-register bit-vectors; this is
  the adopted design.

All three share one functional behaviour (save entry state / save NT
state / constant-time restore) and differ in their per-event SPM traffic
and in a steady-state penalty.  The engine consumes a
:class:`SnapshotMechanism` so the ablation bench can swap them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SnapshotCost:
    """Cycles charged at each of the three drain points of a SecBlock."""

    entry_cycles: int
    nt_end_cycles: int
    exit_cycles: int


class SnapshotMechanism:
    """Base class: cost model for one snapshot design."""

    name = "base"

    def __init__(self, n_arch_regs: int = 48, n_phys_regs: int = 256,
                 reg_bytes: int = 8, spm_bytes_per_cycle: int = 64) -> None:
        self.n_arch_regs = n_arch_regs
        self.n_phys_regs = n_phys_regs
        self.reg_bytes = reg_bytes
        self.spm_bytes_per_cycle = spm_bytes_per_cycle

    # -- shared helpers ----------------------------------------------------

    def _cycles(self, nbytes: int) -> int:
        return max(1, -(-nbytes // self.spm_bytes_per_cycle))

    @property
    def bitvector_bytes(self) -> int:
        return (self.n_arch_regs + 7) // 8

    # -- interface ------------------------------------------------------------

    def cost(self, n_modified_nt: int, n_modified_t: int) -> SnapshotCost:
        """Per-SecBlock drain costs, given the modified-register counts."""
        raise NotImplementedError

    def rename_overhead_per_instruction(self) -> float:
        """Extra cycles added to every renamed instruction (LRS only)."""
        return 0.0

    def snapshot_bytes(self) -> int:
        """Storage needed per nesting level."""
        raise NotImplementedError


class ArchRS(SnapshotMechanism):
    """Architectural Register Snapshot — the adopted design.

    Entry: save all architectural registers (plus a cleared bit-vector).
    NT end: save only NT-modified registers; read the entry state back.
    Exit: read the union of modified registers (constant-time restore).
    """

    name = "ArchRS"

    def cost(self, n_modified_nt: int, n_modified_t: int) -> SnapshotCost:
        regstate = self.n_arch_regs * self.reg_bytes
        entry = self._cycles(regstate + self.bitvector_bytes)
        nt_save = self._cycles(n_modified_nt * self.reg_bytes + self.bitvector_bytes)
        nt_restore = self._cycles(regstate)
        union = len(set(range(n_modified_nt)) | set(range(n_modified_t)))
        exit_read = self._cycles(max(n_modified_nt, n_modified_t, union)
                                 * self.reg_bytes + 2 * self.bitvector_bytes)
        return SnapshotCost(entry, nt_save + nt_restore, exit_read)

    def snapshot_bytes(self) -> int:
        return 2 * self.n_arch_regs * self.reg_bytes + 2 * self.bitvector_bytes


class PhyRS(SnapshotMechanism):
    """Physical Register Snapshot — rejected: too much SPM spilling.

    Every drain moves the whole physical register file plus the RAT.
    """

    name = "PhyRS"

    @property
    def _rat_bytes(self) -> int:
        # One physical-register index (~2 bytes) per architectural register.
        return self.n_arch_regs * 2

    def cost(self, n_modified_nt: int, n_modified_t: int) -> SnapshotCost:
        full = self.n_phys_regs * self.reg_bytes + self._rat_bytes
        entry = self._cycles(full)
        nt_end = self._cycles(full) + self._cycles(full)  # save + restore
        exit_read = self._cycles(full)
        return SnapshotCost(entry, nt_end, exit_read)

    def snapshot_bytes(self) -> int:
        return 2 * (self.n_phys_regs * self.reg_bytes + self._rat_bytes)


class LazyRegisterSpill(SnapshotMechanism):
    """LRS — rejected: tagged rename table slows *all* instructions.

    Spills only the modified registers (cheap drains) but adds a rename
    overhead to every instruction in the program, inside or outside
    SecBlocks, modelling the extra tag-match level in the rename table.
    """

    name = "LRS"

    def __init__(self, *args, rename_penalty: float = 0.15, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rename_penalty = rename_penalty

    def cost(self, n_modified_nt: int, n_modified_t: int) -> SnapshotCost:
        entry = 1  # tag allocation only
        nt_end = self._cycles(n_modified_nt * self.reg_bytes)
        exit_read = self._cycles(
            (n_modified_nt + n_modified_t) * self.reg_bytes
        )
        return SnapshotCost(entry, nt_end, exit_read)

    def rename_overhead_per_instruction(self) -> float:
        return self.rename_penalty

    def snapshot_bytes(self) -> int:
        return self.n_arch_regs * self.reg_bytes + self.bitvector_bytes


_MECHANISMS = {
    "archrs": ArchRS,
    "phyrs": PhyRS,
    "lrs": LazyRegisterSpill,
}


def make_snapshot_mechanism(name: str, **kwargs) -> SnapshotMechanism:
    """Factory by case-insensitive name: ``archrs``, ``phyrs``, ``lrs``."""
    key = name.lower()
    if key not in _MECHANISMS:
        raise ValueError(f"unknown snapshot mechanism {name!r}")
    return _MECHANISMS[key](**kwargs)


def drain_timing(config) -> tuple[float, float]:
    """``(drain_scale, rename_overhead)`` of *config*'s snapshot mechanism.

    The functional executors charge ArchRS-shaped SPM cycles into their
    drain events; another mechanism scales that traffic by the ratio of
    its per-snapshot footprint to ArchRS's, and LRS adds a
    per-instruction rename penalty.  The SPM timing uses the paper's
    architectural state size (``config.spm_arch_regs``), so snapshot
    traffic matches the paper's machine even though the ISA has fewer
    registers.
    """
    shape = dict(n_arch_regs=config.spm_arch_regs,
                 n_phys_regs=config.int_phys_regs,
                 spm_bytes_per_cycle=config.spm_bytes_per_cycle)
    mechanism = make_snapshot_mechanism(config.snapshot_mechanism, **shape)
    if isinstance(mechanism, ArchRS):
        scale = 1.0
    else:
        scale = mechanism.snapshot_bytes() / max(
            ArchRS(**shape).snapshot_bytes(), 1)
    return scale, mechanism.rename_overhead_per_instruction()
