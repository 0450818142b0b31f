"""The static-vs-dynamic differential and its harness integration."""

import json

import pytest

from repro.analysis.differential import (
    VerifyReport,
    VerifySpec,
    execute_verify,
)
from repro.harness import (
    SweepCell,
    cache_info,
    clear_cache,
    set_store,
    sweep_results,
)
from repro.uarch.config import fast_functional
from repro.workloads.registry import WorkloadSpec


def test_verify_spec_names():
    assert VerifySpec("gcd").name == "verify-gcd"
    assert VerifySpec("bsearch", {"entries": 8}).name == \
        "verify-bsearch-entries8"


def test_baseline_pair_is_sound_and_leaks():
    report = execute_verify(VerifySpec("gcd"), "plain",
                            config=fast_functional())
    assert report.ok and report.sound
    assert report.dynamic, "the unprotected baseline must leak"
    assert set(report.dynamic) <= set(report.predicted)
    assert report.dynamic_only == ()
    assert report.violations == ()


def test_sempe_pair_closes_both_sides():
    report = execute_verify(VerifySpec("gcd"), "sempe",
                            config=fast_functional())
    assert report.ok
    assert report.predicted == ()
    assert report.dynamic == ()


def test_verify_report_round_trips_through_json():
    report = execute_verify(VerifySpec("gcd"), "plain",
                            config=fast_functional())
    blob = json.dumps(report.to_dict(), sort_keys=True)
    rebuilt = VerifyReport.from_dict(json.loads(blob))
    assert rebuilt == report
    assert rebuilt.ok == report.ok


def test_verify_sweep_cell_runs_through_the_harness(tmp_path):
    previous = set_store(None)
    try:
        clear_cache()
        config = fast_functional()
        cell = SweepCell("verify", VerifySpec("gcd"), "sempe", config)
        assert cell.descriptor()["kind"] == "verify"
        ((swept, result),) = sweep_results("verify-test", [cell])
        assert swept is cell
        assert cache_info()["entries"] == 1   # computed once, by the sweep
        assert isinstance(result.report, VerifyReport)
        assert result.report.ok
    finally:
        clear_cache()
        set_store(previous)


@pytest.mark.parametrize("name", ["gcd", "spectre"])
def test_verify_cell_compiles_its_workload_once(name, monkeypatch):
    """The static and the dynamic side read one campaign, so a verify
    cell compiles its workload exactly once."""
    compiles = []
    compile_ = WorkloadSpec.compile

    def counting(self, mode, *args, **kwargs):
        compiles.append((self.name, mode))
        return compile_(self, mode, *args, **kwargs)

    monkeypatch.setattr(WorkloadSpec, "compile", counting)
    execute_verify(VerifySpec(name), "sempe", config=fast_functional())
    assert compiles == [(name, "sempe")]
