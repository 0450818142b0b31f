"""ScratchPad Memory snapshot storage and timing."""

import pytest

from repro.mem.scratchpad import ScratchpadMemory, SPMOverflowError


def test_snapshot_sizes():
    spm = ScratchpadMemory(n_slots=30, n_arch_regs=48, reg_bytes=8)
    assert spm.regstate_bytes == 384
    assert spm.bitvector_bytes == 6
    assert spm.snapshot_bytes == 2 * 384 + 2 * 6
    assert spm.total_bytes == 30 * spm.snapshot_bytes


def test_save_entry_cycles_at_throughput():
    spm = ScratchpadMemory(n_arch_regs=48, bytes_per_cycle=64)
    cycles = spm.save_entry_state(0, [0] * 48)
    # 384 + 6 bytes at 64 B/cycle -> ceil(390/64) = 7
    assert cycles == 7


def test_save_nt_state_scales_with_modified():
    spm = ScratchpadMemory(n_arch_regs=48, bytes_per_cycle=64)
    spm.save_entry_state(0, [0] * 48)
    few = spm.save_nt_state(0, [0] * 48, {1, 2})
    spm.save_entry_state(1, [0] * 48)
    many = spm.save_nt_state(1, [0] * 48, set(range(40)))
    assert few < many


def test_restore_reads_union_constant_time():
    """Restore traffic depends only on the union of modified sets."""
    spm = ScratchpadMemory(n_arch_regs=32)
    spm.save_entry_state(0, list(range(32)))
    slot = spm.slot(0)
    slot.nt_modified = {1, 2, 3}
    slot.t_modified = {3, 4}
    cycles_a = spm.restore_cycles_for(0)
    slot.nt_modified = {1, 2, 3, 4}
    slot.t_modified = set()
    cycles_b = spm.restore_cycles_for(0)
    assert cycles_a == cycles_b   # same union size -> same traffic


def test_nesting_overflow_raises():
    spm = ScratchpadMemory(n_slots=2)
    spm.save_entry_state(0, [0] * 32)
    spm.save_entry_state(1, [0] * 32)
    with pytest.raises(SPMOverflowError):
        spm.save_entry_state(2, [0] * 32)


def test_slot_reuse_after_release():
    spm = ScratchpadMemory(n_slots=1, n_arch_regs=32)
    spm.save_entry_state(0, [7] * 32)
    spm.release(0)
    spm.save_entry_state(0, [9] * 32)
    assert spm.slot(0).entry_regs == [9] * 32


def test_entry_state_preserved_until_release():
    spm = ScratchpadMemory(n_arch_regs=4)
    spm.save_entry_state(0, [10, 11, 12, 13])
    spm.save_nt_state(0, [20, 21, 22, 23], {1})
    slot = spm.slot(0)
    assert slot.entry_regs == [10, 11, 12, 13]
    assert slot.nt_regs == [20, 21, 22, 23]
    assert slot.nt_modified == {1}


def test_reset_clears_everything():
    spm = ScratchpadMemory(n_arch_regs=4)
    spm.save_entry_state(0, [1, 2, 3, 4])
    spm.reset()
    assert spm.save_ops == 0
    assert spm.slot(0).entry_regs is None


def test_minimum_one_cycle():
    spm = ScratchpadMemory(n_arch_regs=4, bytes_per_cycle=4096)
    assert spm.save_entry_state(0, [0] * 4) == 1


def test_snapshot_bytes_in_papers_ballpark():
    """48 architectural registers -> several hundred bytes per snapshot
    (the paper reports 7392 B including RAT metadata; ours is the
    register payload portion)."""
    spm = ScratchpadMemory(n_arch_regs=48)
    assert 700 <= spm.snapshot_bytes <= 7392
