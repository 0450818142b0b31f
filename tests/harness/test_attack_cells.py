"""Attack cells in the sweep/cache/store machinery.

The ``attack`` sweep-cell kind must behave exactly like the simulation
kinds: fingerprinted by content, memoized in L1, persisted in the
store, and schedulable on the multiprocessing pool with
submission-independent results.  The store round trip is checked for
every kind in ``test_cell_kinds.py``.
"""

import pytest

pytestmark = pytest.mark.attack

from repro.harness import (
    SweepSpec,
    cache_info,
    clear_cache,
    run_sweep,
    set_store,
)
from repro.harness.parallel import run_cells
from repro.harness.sweep import SweepCell
from repro.security.attackers import AttackReport, AttackSpec

SPEC = AttackSpec("memcmp", "prime-probe", trials=16)


@pytest.fixture
def clean_harness():
    clear_cache()
    previous = set_store(None)
    yield
    set_store(previous)
    clear_cache()


def test_run_attack_memoizes(clean_harness):
    first = SweepCell("attack", SPEC, "plain", engine="fast").run()
    before = cache_info()
    second = SweepCell("attack", SPEC, "plain", engine="fast").run()
    after = cache_info()
    assert second is first                      # L1 hit returns the object
    assert after["hits"] == before["hits"] + 1
    assert isinstance(first.report, AttackReport)
    assert first.report.verdict == "recovered"


def test_attack_cells_fingerprint_by_content(clean_harness):
    cell = SweepCell("attack", SPEC, "plain", None, "fast")
    same = SweepCell("attack", AttackSpec("memcmp", "prime-probe",
                                          trials=16), "plain", None, "fast")
    assert cell.fingerprint() == same.fingerprint()
    for other in (
        SweepCell("attack", SPEC, "sempe", None, "fast"),
        SweepCell("attack", SPEC, "plain", None, "reference"),
        SweepCell("attack", AttackSpec("memcmp", "prime-probe", trials=32),
                  "plain", None, "fast"),
        SweepCell("attack", AttackSpec("memcmp", "prime-probe", trials=16,
                                       seed=1), "plain", None, "fast"),
        SweepCell("attack", AttackSpec("memcmp", "timing", trials=16),
                  "plain", None, "fast"),
    ):
        assert other.fingerprint() != cell.fingerprint()


def test_attack_cell_runs_through_sweep(clean_harness):
    cells = [SweepCell("attack", SPEC, mode, None, "fast")
             for mode in ("plain", "sempe")]
    stats = run_sweep(SweepSpec("attack-smoke", cells), jobs=1)
    assert stats.computed == 2
    # Everything is now warm: a second sweep computes nothing.
    stats = run_sweep(SweepSpec("attack-smoke", cells), jobs=1)
    assert stats.computed == 0 and stats.cached == 2


def test_pooled_attack_cells_match_serial(clean_harness):
    cells = [SweepCell("attack", AttackSpec("memcmp", attacker, trials=16),
                       mode, None, "fast")
             for attacker in ("prime-probe", "timing")
             for mode in ("plain", "sempe")]
    run_cells(list(cells), jobs=1)
    serial = {cell.fingerprint(): cell.run().report for cell in cells}
    clear_cache()
    run_cells(list(cells), jobs=2)
    pooled = {cell.fingerprint(): cell.run().report for cell in cells}
    assert pooled == serial
