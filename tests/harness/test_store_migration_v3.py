"""Schema-v3 migration: pre-speculation store entries become misses.

This PR gave the machine a transient-execution window
(``MachineConfig.speculation``), which changed the store's addressing
twice over: descriptors with a config grew the ``speculation``
sub-dict, and reports themselves can now depend on the window (traces
carry a transient digest, verify cells a speculative site class) even
for cells whose descriptor stayed stable (``config: None``).
``SCHEMA_VERSION`` moved 2 -> 3 so *every* cell is rekeyed: v2 records
live at addresses the v3 code never computes (clean misses), and a
v2-shaped record planted at a v3 address is invalidated by the schema
check, never served.
"""

import json
import os

import pytest

from repro.harness import ResultStore, SweepCell, clear_cache, set_store
from repro.harness.runner import cell_descriptor
from repro.harness.store import SCHEMA_VERSION, canonical_json, fingerprint
from repro.uarch.config import fast_functional
from repro.workloads.registry import WorkloadRunSpec


@pytest.fixture
def store(tmp_path):
    clear_cache()
    store = ResultStore(str(tmp_path / "store"))
    previous = set_store(store)
    yield store
    set_store(previous)
    clear_cache()


SPEC = WorkloadRunSpec("gcd", {"bits": 8, "other": 21})


def _v2_descriptor(kind, spec, mode, config, engine):
    """The pre-speculation descriptor shape (schema 2, no speculation)."""
    descriptor = cell_descriptor(kind, spec, mode, config, engine)
    descriptor["schema"] = 2
    if descriptor["config"] is not None:
        del descriptor["config"]["speculation"]
    return descriptor


def test_schema_version_is_3_and_descriptor_carries_speculation():
    assert SCHEMA_VERSION == 3
    descriptor = cell_descriptor("workload", SPEC, "plain",
                                 fast_functional(), "fast")
    assert descriptor["schema"] == 3
    assert descriptor["config"]["speculation"] == {
        "enabled": False, "window": 32}


def test_speculation_knob_readdresses_cells():
    """Enabling the window is a different machine: different address."""
    off = fast_functional()
    on = fast_functional()
    on.speculation.enabled = True
    fp_off = fingerprint(cell_descriptor("workload", SPEC, "plain",
                                         off, "fast"))
    fp_on = fingerprint(cell_descriptor("workload", SPEC, "plain",
                                        on, "fast"))
    assert fp_off != fp_on


def test_v2_records_age_out_as_clean_misses(store):
    """A store full of v2 records: the v3 code never addresses them."""
    config = fast_functional()
    old = _v2_descriptor("workload", SPEC, "plain", config, "fast")
    old_fp = fingerprint(old)
    store.put(old_fp, old, {"cycles": 123, "stale": True})
    store.stats.stores = 0

    new = cell_descriptor("workload", SPEC, "plain", config, "fast")
    new_fp = fingerprint(new)
    assert new_fp != old_fp                  # rekeyed, not aliased
    assert store.get(new_fp, new) is None    # clean miss...
    assert store.stats.misses == 1
    assert store.stats.invalidations == 0    # ...not corruption
    assert store.contains(old_fp)            # old record left untouched


def test_confignone_cells_are_rekeyed_too(store):
    """``config: None`` descriptors did not change shape — only the
    schema bump separates them from pre-speculation records, which is
    exactly why the bump exists."""
    old = cell_descriptor("workload", SPEC, "plain", None, "fast")
    old["schema"] = 2
    assert fingerprint(old) != fingerprint(
        cell_descriptor("workload", SPEC, "plain", None, "fast"))


def test_v2_record_at_v3_address_invalidated_not_served(store):
    """A v2-schema record planted at a v3 fingerprint is dropped."""
    descriptor = cell_descriptor("workload", SPEC, "plain", None, "fast")
    fp = fingerprint(descriptor)
    path = store.path_for(fp)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    stale_key = _v2_descriptor("workload", SPEC, "plain", None, "fast")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json({
            "schema": 2,
            "fingerprint": fp,
            "key": stale_key,
            "report": {"cycles": 999},
        }) + "\n")
    assert store.get(fp, descriptor) is None
    assert store.stats.invalidations == 1
    assert not os.path.exists(path)          # removed, will recompute

    # Recompute rewrites a valid v3 record in place.
    SweepCell("workload", SPEC, "plain", engine="fast").run()
    assert os.path.exists(path)
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    assert record["schema"] == SCHEMA_VERSION
    assert record["key"] == descriptor
