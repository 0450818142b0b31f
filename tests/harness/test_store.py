"""Persistent result store: round-trips, invalidation, runner backing."""

import json
import os

import pytest

from repro.core.engine import SimulationReport
from repro.harness import runner
from repro.harness.sweep import SweepCell
from repro.harness.store import (
    SCHEMA_VERSION,
    ResultStore,
    canonical_json,
    fingerprint,
)
from repro.uarch.config import MachineConfig
from repro.workloads.microbench import MicrobenchSpec

SPEC = MicrobenchSpec("fibonacci", w=1, iters=1)


@pytest.fixture(autouse=True)
def clean_runner():
    runner.clear_cache()
    previous = runner.set_store(None)
    yield
    runner.set_store(previous)
    runner.clear_cache()


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


def _descriptor(engine="fast", config=None, mode="plain"):
    return runner.cell_descriptor("micro", SPEC, mode, config, engine)


def test_report_dict_round_trip():
    result = SweepCell("micro", SPEC, "sempe").run()
    report = result.report
    rebuilt = SimulationReport.from_dict(report.to_dict())
    assert rebuilt == report
    assert rebuilt.to_dict() == report.to_dict()


def test_store_round_trip(store):
    result = SweepCell("micro", SPEC, "plain").run()
    descriptor = _descriptor()
    fp = fingerprint(descriptor)
    store.put(fp, descriptor, result.report.to_dict())
    assert store.contains(fp)
    assert len(store) == 1
    loaded = store.get(fp, descriptor)
    assert loaded == result.report.to_dict()
    assert store.stats.hits == 1 and store.stats.stores == 1


def test_fingerprint_is_structural():
    """Equal configs address the same record; any field change
    re-addresses."""
    assert fingerprint(_descriptor(config=MachineConfig())) == \
        fingerprint(_descriptor(config=MachineConfig()))
    shrunk = MachineConfig()
    shrunk.rob_entries = 32
    assert fingerprint(_descriptor(config=MachineConfig())) != \
        fingerprint(_descriptor(config=shrunk))
    assert fingerprint(_descriptor(engine="fast")) != \
        fingerprint(_descriptor(engine="reference"))
    assert fingerprint(_descriptor(mode="plain")) != \
        fingerprint(_descriptor(mode="sempe"))


def test_miss_on_absent_record(store):
    descriptor = _descriptor()
    assert store.get(fingerprint(descriptor), descriptor) is None
    assert store.stats.misses == 1


def test_corrupt_record_invalidated(store):
    result = SweepCell("micro", SPEC, "plain").run()
    descriptor = _descriptor()
    fp = fingerprint(descriptor)
    store.put(fp, descriptor, result.report.to_dict())
    with open(store.path_for(fp), "w", encoding="utf-8") as handle:
        handle.write("{not json")
    assert store.get(fp, descriptor) is None
    assert store.stats.invalidations == 1
    assert not store.contains(fp)


def test_truncated_record_counts_as_miss_not_raise(store):
    """A record cut off mid-write (crash, full disk) must behave like a
    miss — invalidated and recomputed — never raise into the sweep."""
    result = SweepCell("micro", SPEC, "plain").run()
    descriptor = _descriptor()
    fp = fingerprint(descriptor)
    store.put(fp, descriptor, result.report.to_dict())
    path = store.path_for(fp)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text[: len(text) // 2])
    assert store.get(fp, descriptor) is None
    assert store.stats.misses == 1
    assert store.stats.invalidations == 1
    assert not store.contains(fp)
    # The slot is reusable: a re-put round-trips again.
    store.put(fp, descriptor, result.report.to_dict())
    assert store.get(fp, descriptor) == result.report.to_dict()


def test_binary_garbage_record_counts_as_miss(store):
    """Undecodable bytes (UnicodeDecodeError, not JSONDecodeError) are
    an invalidation too."""
    result = SweepCell("micro", SPEC, "plain").run()
    descriptor = _descriptor()
    fp = fingerprint(descriptor)
    store.put(fp, descriptor, result.report.to_dict())
    with open(store.path_for(fp), "wb") as handle:
        handle.write(b"\x80\x81\xfe\xff\x00garbage")
    assert store.get(fp, descriptor) is None
    assert store.stats.misses == 1
    assert store.stats.invalidations == 1
    assert not store.contains(fp)


def test_non_object_record_counts_as_miss(store):
    """Valid JSON with the wrong top-level type must not crash the
    ``record.get`` probes."""
    result = SweepCell("micro", SPEC, "plain").run()
    descriptor = _descriptor()
    fp = fingerprint(descriptor)
    store.put(fp, descriptor, result.report.to_dict())
    with open(store.path_for(fp), "w", encoding="utf-8") as handle:
        handle.write("[1, 2, 3]\n")
    assert store.get(fp, descriptor) is None
    assert store.stats.misses == 1
    assert store.stats.invalidations == 1


def test_corrupt_store_degrades_to_recompute(store):
    """End-to-end: a corrupted record behind the runner is recomputed
    and re-stored, bit-identical."""
    runner.set_store(store)
    first = SweepCell("micro", SPEC, "sempe").run()
    fp_count = len(store)
    for dirpath, _dirnames, filenames in os.walk(store.root):
        for name in filenames:
            if name.endswith(".json"):
                with open(os.path.join(dirpath, name), "w",
                          encoding="utf-8") as handle:
                    handle.write('{"schema":')   # truncated
    runner.clear_cache()
    second = SweepCell("micro", SPEC, "sempe").run()
    assert second.report == first.report
    assert store.stats.invalidations == fp_count
    assert store.stats.stores == 2 * fp_count   # re-persisted


def test_schema_bump_invalidates(store):
    result = SweepCell("micro", SPEC, "plain").run()
    descriptor = _descriptor()
    fp = fingerprint(descriptor)
    store.put(fp, descriptor, result.report.to_dict())
    path = store.path_for(fp)
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    record["schema"] = SCHEMA_VERSION + 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(record))
    assert store.get(fp, descriptor) is None
    assert store.stats.invalidations == 1


def test_key_mismatch_invalidates(store):
    """A record whose stored descriptor disagrees with the requested one
    (hash collision / hand-edited file) is dropped, not served."""
    result = SweepCell("micro", SPEC, "plain").run()
    descriptor = _descriptor()
    fp = fingerprint(descriptor)
    store.put(fp, _descriptor(mode="sempe"), result.report.to_dict())
    assert store.get(fp, descriptor) is None
    assert store.stats.invalidations == 1


def test_runner_served_from_store_across_sessions(store):
    """clear_cache() simulates a new process: the second run must come
    from disk, bit-identical, with zero new simulations."""
    runner.set_store(store)
    first = SweepCell("micro", SPEC, "sempe").run()
    assert store.stats.stores == 1

    runner.clear_cache()          # "new process"
    second = SweepCell("micro", SPEC, "sempe").run()
    assert store.stats.hits == 1
    assert store.stats.stores == 1          # nothing re-simulated
    assert second is not first
    assert second.report == first.report
    # and it is now an L1 entry: a third call is a pure cache hit
    third = SweepCell("micro", SPEC, "sempe").run()
    assert third is second


def test_config_change_misses_store(store):
    runner.set_store(store)
    SweepCell("micro", SPEC, "plain", config=MachineConfig()).run()
    shrunk = MachineConfig()
    shrunk.rob_entries = 32
    runner.clear_cache()
    SweepCell("micro", SPEC, "plain", config=shrunk).run()
    assert store.stats.stores == 2          # distinct records
    assert len(store) == 2


def test_store_survives_reopen(tmp_path):
    root = str(tmp_path / "store")
    runner.set_store(ResultStore(root))
    first = SweepCell("micro", SPEC, "plain").run()
    runner.clear_cache()
    reopened = ResultStore(root)            # fresh instance, same dir
    runner.set_store(reopened)
    second = SweepCell("micro", SPEC, "plain").run()
    assert reopened.stats.hits == 1
    assert second.report == first.report


def test_store_layout(store):
    runner.set_store(store)
    SweepCell("micro", SPEC, "plain").run()
    assert os.path.exists(os.path.join(store.root, "STORE_FORMAT"))
    fp = fingerprint(_descriptor())
    path = store.path_for(fp)
    assert path.endswith(os.path.join(fp[:2], fp + ".json"))
    assert os.path.exists(path)


def test_format_marker_validated(tmp_path):
    root = str(tmp_path / "store")
    ResultStore(root)
    with open(os.path.join(root, "STORE_FORMAT"), "w",
              encoding="utf-8") as handle:
        handle.write("someone-elses-format-v9\n")
    with pytest.raises(ValueError, match="someone-elses-format-v9"):
        ResultStore(root)


# -- quarantine records ----------------------------------------------------

FAILURE = {
    "fingerprint": "", "name": "fibonacci-W1-I1-natural", "mode": "plain",
    "kind": "micro", "failure": "exception", "error_type": "RuntimeError",
    "message": "boom", "traceback": "", "attempts": 2, "duration": 0.0,
    "engine": "fast", "quarantined": True,
}


def _quarantine(store, descriptor=None):
    descriptor = descriptor or _descriptor()
    fp = fingerprint(descriptor)
    store.put_failure(fp, descriptor, dict(FAILURE, fingerprint=fp))
    return fp, descriptor


def test_failure_record_round_trip(store):
    fp, descriptor = _quarantine(store)
    assert store.contains_failure(fp)
    assert store.failure_count() == 1
    record = store.get_failure(fp, descriptor)
    assert record == dict(FAILURE, fingerprint=fp)
    assert store.stats.quarantines == 1
    assert store.stats.quarantine_hits == 1


def test_failure_records_live_outside_the_object_tree(store):
    fp, _ = _quarantine(store)
    assert len(store) == 0                  # no object record
    assert not store.contains(fp)
    path = store.failure_path_for(fp)
    assert os.path.join("quarantine", fp[:2]) in path
    assert os.path.exists(path)


def test_clear_failure(store):
    fp, _ = _quarantine(store)
    assert store.clear_failure(fp) is True
    assert not store.contains_failure(fp)
    assert store.failure_count() == 0
    assert store.clear_failure(fp) is False  # already gone


def test_failure_descriptor_mismatch_self_heals(store):
    fp, _ = _quarantine(store)
    other = _descriptor(mode="sempe")
    assert store.get_failure(fp, other) is None
    # the stale marker was dropped so the cell will be re-run
    assert not store.contains_failure(fp)


def test_corrupt_failure_record_self_heals(store):
    fp, descriptor = _quarantine(store)
    with open(store.failure_path_for(fp), "w", encoding="utf-8") as handle:
        handle.write("{truncated")
    assert store.get_failure(fp, descriptor) is None
    assert not store.contains_failure(fp)


def test_failure_schema_bump_self_heals(store):
    fp, descriptor = _quarantine(store)
    path = store.failure_path_for(fp)
    with open(path, "rb") as handle:
        record = json.loads(handle.read())
    record["schema"] = SCHEMA_VERSION + 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(record))
    assert store.get_failure(fp, descriptor) is None
    assert not store.contains_failure(fp)


def test_missing_failure_record_is_none(store):
    assert store.get_failure("ab" * 32, _descriptor()) is None
    assert store.failure_count() == 0


# -- atomic writes ---------------------------------------------------------

def test_interrupted_put_leaves_no_partial_record(store, monkeypatch):
    """A crash between the temp write and the rename must leave the
    store without a (possibly truncated) record under the real name."""
    descriptor = _descriptor()
    fp = fingerprint(descriptor)

    def crash(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        store.put(fp, descriptor, {"x": 1})
    monkeypatch.undo()
    assert not store.contains(fp)
    assert store.get(fp, descriptor) is None


def test_interrupted_put_preserves_previous_record(store, monkeypatch):
    descriptor = _descriptor()
    fp = fingerprint(descriptor)
    store.put(fp, descriptor, {"x": "original"})

    monkeypatch.setattr(os, "replace",
                        lambda src, dst: (_ for _ in ()).throw(
                            OSError("simulated crash")))
    with pytest.raises(OSError):
        store.put(fp, descriptor, {"x": "replacement"})
    monkeypatch.undo()
    assert store.get(fp, descriptor) == {"x": "original"}
