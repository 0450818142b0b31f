"""Snapshot-mechanism drain timing (§IV-F)."""

import pytest

from repro.core.snapshots import drain_timing
from repro.uarch.config import MachineConfig


def _timing(mechanism):
    return drain_timing(MachineConfig(snapshot_mechanism=mechanism))


def test_archrs_is_the_unscaled_baseline():
    assert _timing("archrs") == (1.0, 0.0)


def test_archrs_scale_independent_of_register_counts():
    config = MachineConfig(spm_arch_regs=16, int_phys_regs=512)
    assert drain_timing(config) == (1.0, 0.0)


def test_phyrs_scale_grows_with_physical_registers():
    """PhyRS copies the whole physical register file, so its drains
    scale with ``int_phys_regs``; ArchRS's footprint does not."""
    small = drain_timing(MachineConfig(snapshot_mechanism="phyrs",
                                       int_phys_regs=128))
    large = drain_timing(MachineConfig(snapshot_mechanism="phyrs",
                                       int_phys_regs=512))
    assert small[0] < large[0]


def test_phyrs_much_more_traffic_than_archrs():
    """The paper rejects PhyRS for excessive SPM spilling: hundreds of
    physical registers vs dozens of architectural ones."""
    scale, rename_overhead = _timing("PhyRS")
    assert scale > 2.5
    assert rename_overhead == 0.0


def test_lrs_cheap_drains_but_rename_overhead():
    """The paper rejects LRS because it slows instructions outside
    SecBlocks (tagged rename table)."""
    scale, rename_overhead = _timing("lrs")
    assert scale < 1.0
    assert rename_overhead > 0


def test_unknown_mechanism_rejected():
    with pytest.raises(ValueError, match="unknown snapshot mechanism"):
        _timing("nope")
