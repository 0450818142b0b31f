"""One cell, three paths, one answer.

Every cell kind in ``CELL_KINDS`` is computed by one function,
``compute_cell``, whether it runs in process (``SweepCell.run``) or in a
pool worker (``run_sweep(..., jobs=2)``), and a store hit is rebuilt
through the kind's report type.  For the smallest cell of each kind,
all three results must serialize identically.
"""

import pytest

from repro.analysis.differential import VerifySpec
from repro.harness import (
    ResultStore,
    SweepCell,
    SweepSpec,
    clear_cache,
    run_sweep,
    set_store,
)
from repro.harness.runner import CELL_KINDS
from repro.security.attackers import AttackSpec
from repro.uarch.config import fast_functional
from repro.workloads.djpeg import DjpegSpec
from repro.workloads.microbench import MicrobenchSpec
from repro.workloads.registry import WorkloadRunSpec, get_workload


# The cheapest cell of each kind; a kind missing here fails its test.
SMALLEST = {
    "micro": SweepCell("micro", MicrobenchSpec("ones", w=1, iters=1),
                       "sempe"),
    "djpeg": SweepCell("djpeg", DjpegSpec("bmp", 128), "sempe"),
    "workload": SweepCell(
        "workload", WorkloadRunSpec("gcd", get_workload("gcd").resolve()),
        "sempe"),
    "attack": SweepCell("attack",
                        AttackSpec("memcmp", "prime-probe", trials=16),
                        "plain", None, "fast"),
    "verify": SweepCell("verify", VerifySpec("gcd"), "sempe",
                        fast_functional()),
}


@pytest.fixture
def clean_harness():
    clear_cache()
    previous = set_store(None)
    yield
    set_store(previous)
    clear_cache()


@pytest.mark.parametrize("kind", sorted(CELL_KINDS))
def test_cold_pooled_and_stored_results_agree(kind, clean_harness,
                                              tmp_path):
    cell = SMALLEST[kind]
    cold = cell.run()
    assert isinstance(cold.report, CELL_KINDS[kind].report_type)
    assert cell.run() is cold                       # L1 hit

    clear_cache()
    store = ResultStore(str(tmp_path / "store"))
    set_store(store)
    stats = run_sweep(SweepSpec(kind, [cell]), jobs=2)
    assert stats.computed == 1 and stats.ok
    pooled = cell.run()

    clear_cache()                                   # drop L1, keep store
    reloaded = cell.run()
    assert store.stats.hits == 1

    assert (cold.name, cold.mode) == (pooled.name, pooled.mode) \
        == (reloaded.name, reloaded.mode)
    assert cold.report.to_dict() == pooled.report.to_dict() \
        == reloaded.report.to_dict()
