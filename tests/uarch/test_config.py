"""Machine configuration (Table II)."""

import pytest

from repro.uarch.config import MachineConfig, fast_functional, haswell_like


def test_table2_defaults():
    config = haswell_like()
    assert config.fetch_width == 8
    assert config.retire_width == 12
    assert config.rob_entries == 192
    assert config.int_phys_regs == 256
    assert config.int_issue_buffer == 60
    assert config.load_queue == 32 and config.store_queue == 32
    assert config.hierarchy.dl1.size_bytes == 32 * 1024
    assert config.hierarchy.il1.size_bytes == 16 * 1024
    assert config.hierarchy.l2.size_bytes == 256 * 1024
    assert config.hierarchy.dl1.assoc == 2
    assert config.spm_slots == 30
    assert config.spm_bytes_per_cycle == 64
    assert config.jbtable_depth == 30


def test_latency_table_covers_all_classes():
    config = MachineConfig()
    from repro.isa.opcodes import OpClass
    for opclass in OpClass:
        assert config.latency_for(opclass.value) >= 1


def test_div_slower_than_mul_slower_than_alu():
    config = MachineConfig()
    assert config.latency_for("alu") < config.latency_for("mul")
    assert config.latency_for("mul") < config.latency_for("div")


def test_fast_functional_is_smaller():
    fast = fast_functional()
    full = haswell_like()
    assert fast.rob_entries < full.rob_entries
    assert fast.hierarchy.dl1.size_bytes < full.hierarchy.dl1.size_bytes


def test_unmodelled_knob_is_an_error():
    """Table II rows the model does not represent are not fields, so
    setting one fails instead of silently changing nothing."""
    with pytest.raises(TypeError):
        MachineConfig(decode_width=1)
