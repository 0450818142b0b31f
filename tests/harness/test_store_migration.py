"""Store migrations: records of an older descriptor shape are clean
misses at their own address and never served at a new one.

Three changes re-addressed the store's cells:

* **v1 -> v2** bumped ``SCHEMA_VERSION`` and keyed descriptors on the
  defense registry (a ``defense`` fingerprint field).
* **v2 -> v3** gave the machine a transient-execution window
  (``MachineConfig.speculation``): descriptors with a config grew the
  ``speculation`` sub-dict, and since reports can depend on the window
  even where the descriptor kept its shape (``config: None``), the
  schema bump re-addresses *every* cell.
* **Removed fields**: ``MachineConfig`` lost seven fields that did not
  move the model (the clock, the decode and rename widths, the FP
  register file and issue buffer, the predictor name and the TAGE
  size).  No report changed, so the schema stays: a cell with a config
  re-addresses because its config dict shrank, and a ``config: None``
  cell keeps its address and is still served.

An old record lives at an address the new code never computes (a clean
miss, the record left alone); an old-shaped record planted at a new
address fails the store's schema or key check and is invalidated.
"""

import json
import os

import pytest

from repro.defenses import get_defense
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

# Two of the removed fields at their old fast_functional() values.
REMOVED_FIELDS = {"decode_width": 8, "predictor": "tage"}


def _v1(descriptor):
    """Schema 1: no defense field."""
    old = dict(descriptor, schema=1)
    del old["defense"]
    return old


def _v2(descriptor):
    """Schema 2: no speculation window in the config."""
    old = dict(descriptor, schema=2)
    if old["config"] is not None:
        old["config"] = {key: value for key, value in old["config"].items()
                         if key != "speculation"}
    return old


def _removed_fields(descriptor):
    """Schema 3 before the no-op fields left ``MachineConfig``."""
    if descriptor["config"] is None:
        return dict(descriptor)
    return dict(descriptor, config=dict(descriptor["config"],
                                        **REMOVED_FIELDS))


# (old descriptor shape, the machine of the cell).
MIGRATIONS = {
    "v1": (_v1, None),
    "v2": (_v2, fast_functional),
    "v2-confignone": (_v2, None),
    "removed-fields": (_removed_fields, fast_functional),
}


def _cell(config_factory):
    config = config_factory() if config_factory else None
    descriptor = cell_descriptor("workload", SPEC, "plain", config, "fast")
    return descriptor, SweepCell("workload", SPEC, "plain", config=config,
                                 engine="fast")


def test_descriptor_carries_schema_defense_and_speculation():
    assert SCHEMA_VERSION == 3
    descriptor = cell_descriptor("workload", SPEC, "plain",
                                 fast_functional(), "fast")
    assert descriptor["schema"] == 3
    assert descriptor["defense"] == get_defense("plain").fingerprint()
    assert descriptor["config"]["speculation"] == {
        "enabled": False, "window": 32}
    assert not set(REMOVED_FIELDS) & set(descriptor["config"])


@pytest.mark.parametrize("migration", sorted(MIGRATIONS))
def test_old_records_age_out_as_clean_misses(store, migration):
    """A store full of old records: the new code never addresses them,
    and the logical cell recomputes and is served from the store after."""
    old_shape, config_factory = MIGRATIONS[migration]
    new, cell = _cell(config_factory)
    old = old_shape(new)
    old_fp = fingerprint(old)
    store.put(old_fp, old, {"cycles": 123, "stale": True})
    store.stats.stores = 0

    new_fp = fingerprint(new)
    assert new_fp != old_fp                  # rekeyed, not aliased
    assert store.get(new_fp, new) is None    # clean miss...
    assert store.stats.misses == 1
    assert store.stats.invalidations == 0    # ...not corruption
    assert store.contains(old_fp)            # old record left untouched

    result = cell.run()
    clear_cache()
    again = cell.run()
    assert again.report.to_dict() == result.report.to_dict()
    assert store.stats.hits >= 1


@pytest.mark.parametrize("migration", sorted(MIGRATIONS))
def test_old_record_at_new_address_invalidated_not_served(store, migration):
    """An old-shaped record planted at a new fingerprint is dropped, and
    the recompute rewrites a current record in place."""
    old_shape, config_factory = MIGRATIONS[migration]
    descriptor, cell = _cell(config_factory)
    stale_key = old_shape(descriptor)
    fp = fingerprint(descriptor)
    path = store.path_for(fp)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json({
            "schema": stale_key["schema"],
            "fingerprint": fp,
            "key": stale_key,
            "report": {"cycles": 999},
        }) + "\n")
    assert store.get(fp, descriptor) is None
    assert store.stats.invalidations == 1
    assert not os.path.exists(path)          # removed, will recompute

    cell.run()
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    assert record["schema"] == SCHEMA_VERSION
    assert record["key"] == descriptor


def test_removed_fields_keep_confignone_cells_served(store):
    """A ``config: None`` descriptor never held the removed fields, so a
    record stored before they left is at the same address and served."""
    descriptor, cell = _cell(None)
    assert _removed_fields(descriptor) == descriptor
    result = cell.run()
    clear_cache()
    store.stats.hits = 0
    again = cell.run()
    assert store.stats.hits == 1
    assert again.report.to_dict() == result.report.to_dict()


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


def test_defense_semantics_change_readdresses_cells():
    """Two defenses with identical names but different hooks would
    collide by name; the descriptor's defense *fingerprint* keeps their
    cells apart — and distinct registered defenses never share a key."""
    plain = cell_descriptor("workload", SPEC, "plain", None, "fast")
    fenced = cell_descriptor("workload", SPEC, "fence", None, "fast")
    flushed = cell_descriptor("workload", SPEC, "flush-local", None,
                              "fast")
    prints = {fingerprint(d) for d in (plain, fenced, flushed)}
    assert len(prints) == 3
