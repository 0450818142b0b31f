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
state / constant-time restore), which the executors charge as ArchRS
traffic through :class:`repro.mem.scratchpad.ScratchpadMemory`.  They
differ in their per-snapshot footprint and in a steady-state rename
penalty: :func:`drain_timing` turns ``config.snapshot_mechanism`` into
those two numbers for the timing model, so the ablation bench can swap
mechanisms.
"""

from __future__ import annotations

_REG_BYTES = 8


def _archrs_bytes(arch_regs: int, phys_regs: int) -> int:
    """The architectural registers and the two modified-register
    bit-vectors, for both saved states (entry and NT)."""
    return 2 * arch_regs * _REG_BYTES + 2 * ((arch_regs + 7) // 8)


def _phyrs_bytes(arch_regs: int, phys_regs: int) -> int:
    """The whole physical register file plus the RAT (one ~2-byte
    physical-register index per architectural register), twice."""
    return 2 * (phys_regs * _REG_BYTES + arch_regs * 2)


def _lrs_bytes(arch_regs: int, phys_regs: int) -> int:
    """The spilled registers and one bit-vector, once."""
    return arch_regs * _REG_BYTES + (arch_regs + 7) // 8


# name -> (snapshot bytes per nesting level, rename cycles added to
# every instruction).  Only LRS's tagged rename table slows renaming.
_MECHANISMS = {
    "archrs": (_archrs_bytes, 0.0),
    "phyrs": (_phyrs_bytes, 0.0),
    "lrs": (_lrs_bytes, 0.15),
}


def drain_timing(config) -> tuple[float, float]:
    """``(drain_scale, rename_overhead)`` of *config*'s snapshot mechanism.

    The functional executors charge ArchRS-shaped SPM cycles into their
    drain events; another mechanism scales that traffic by the ratio of
    its per-snapshot footprint to ArchRS's, and LRS adds a
    per-instruction rename penalty.  The footprints use the paper's
    architectural state size (``config.spm_arch_regs``) and
    ``config.int_phys_regs``.  An unknown mechanism name is a
    ``ValueError``.
    """
    key = config.snapshot_mechanism.lower()
    if key not in _MECHANISMS:
        raise ValueError(
            f"unknown snapshot mechanism {config.snapshot_mechanism!r}")
    snapshot_bytes, rename_overhead = _MECHANISMS[key]
    if key == "archrs":
        return 1.0, rename_overhead
    shape = (config.spm_arch_regs, config.int_phys_regs)
    return (snapshot_bytes(*shape) / max(_archrs_bytes(*shape), 1),
            rename_overhead)
