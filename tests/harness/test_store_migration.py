"""Schema-v2 migration: pre-refactor store entries become clean misses.

PR 5 bumped ``SCHEMA_VERSION`` to 2 and rekeyed cell descriptors on the
defense registry (a ``defense`` fingerprint field).  A store written by
the pre-refactor code must neither be misread nor crash the new code:
v1 records live at v1 fingerprints (which v2 descriptors never
address — a plain miss), and a v1-shaped record planted at a v2
address is detected by the schema check and invalidated, not served.
"""

import json
import os

import pytest

from repro.defenses import get_defense
from repro.harness import ResultStore, SweepCell, clear_cache, set_store
from repro.harness.runner import cell_descriptor
from repro.harness.store import SCHEMA_VERSION, canonical_json, fingerprint
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


def _v1_descriptor(kind, spec, mode, engine):
    """The pre-refactor descriptor shape (no defense field, schema 1)."""
    import dataclasses

    return {
        "kind": kind,
        "spec": dataclasses.asdict(spec),
        "mode": mode,
        "config": None,
        "engine": engine,
        "schema": 1,
    }


def test_schema_version_bumped_and_descriptor_rekeyed():
    # v1 -> v2 introduced the defense field and schema >= 2; later bumps
    # (see test_store_migration_v3) keep both invariants.
    assert SCHEMA_VERSION >= 2
    descriptor = cell_descriptor("workload", SPEC, "plain", None, "fast")
    assert descriptor["schema"] == SCHEMA_VERSION
    assert descriptor["defense"] == get_defense("plain").fingerprint()


def test_v1_records_age_out_as_clean_misses(store):
    """A store full of v1 records: the new code never addresses them."""
    old = _v1_descriptor("workload", SPEC, "plain", "fast")
    old_fp = fingerprint(old)
    store.put(old_fp, old, {"cycles": 123, "stale": True})
    store.stats.stores = 0

    new = cell_descriptor("workload", SPEC, "plain", None, "fast")
    new_fp = fingerprint(new)
    assert new_fp != old_fp                  # rekeyed, not aliased
    assert store.get(new_fp, new) is None    # clean miss...
    assert store.stats.misses == 1
    assert store.stats.invalidations == 0    # ...not corruption
    assert store.contains(old_fp)            # old record left untouched

    # The logical cell recomputes and is served from the store after.
    result = SweepCell("workload", SPEC, "plain", engine="fast").run()
    clear_cache()
    again = SweepCell("workload", SPEC, "plain", engine="fast").run()
    assert again.report.to_dict() == result.report.to_dict()
    assert store.stats.hits >= 1


def test_v1_record_at_v2_address_invalidated_not_served(store):
    """A v1-schema record planted at a v2 fingerprint is dropped."""
    descriptor = cell_descriptor("workload", SPEC, "plain", None, "fast")
    fp = fingerprint(descriptor)
    path = store.path_for(fp)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    stale_key = dict(descriptor, schema=1)
    stale_key.pop("defense")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json({
            "schema": 1,
            "fingerprint": fp,
            "key": stale_key,
            "report": {"cycles": 999},
        }) + "\n")
    assert store.get(fp, descriptor) is None
    assert store.stats.invalidations == 1
    assert not os.path.exists(path)          # removed, will recompute

    # Recompute rewrites a valid v2 record in place.
    SweepCell("workload", SPEC, "plain", engine="fast").run()
    assert os.path.exists(path)
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    assert record["schema"] == SCHEMA_VERSION
    assert record["key"]["defense"] == get_defense("plain").fingerprint()


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
