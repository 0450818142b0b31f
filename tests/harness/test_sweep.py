"""Sweep orchestration: grids, worker-pool determinism, cache warming."""

import pytest

from repro.harness import runner
from repro.harness.parallel import cell_seed, run_cells
from repro.harness.store import ResultStore
from repro.harness.sweep import (
    SweepCell,
    SweepSpec,
    run_sweep,
    sweep_results,
)
from repro.harness.experiments import (
    MICRO_ITERS,
    experiment_cells,
    fig8_cells,
    fig10a_cells,
    fig10b_cells,
    table1_cells,
)
from repro.uarch.config import MachineConfig
from repro.workloads.microbench import MicrobenchSpec


@pytest.fixture(autouse=True)
def clean_runner():
    runner.clear_cache()
    previous = runner.set_store(None)
    yield
    runner.set_store(previous)
    runner.clear_cache()


def _small_cells():
    return fig10a_cells(w_sweep=(1,), workloads=("fibonacci", "ones"))


# -- SweepCell / SweepSpec ------------------------------------------------

def test_cell_rejects_unknown_kind_mode_and_engine():
    spec = MicrobenchSpec("ones", w=1, iters=1)
    with pytest.raises(ValueError, match="choose from"):
        SweepCell("mikro", spec, "plain")
    with pytest.raises(ValueError, match="MicrobenchSpec"):
        SweepCell("djpeg", spec, "plain")
    with pytest.raises(ValueError, match="choose from"):
        SweepCell("micro", spec, "plain", engine="warp")
    with pytest.raises(ValueError):
        SweepCell("micro", spec, "turbo").descriptor()


def test_spec_dedupes_by_fingerprint():
    cells = _small_cells()
    spec = SweepSpec("dup", cells + cells)
    assert len(spec) == len(cells)
    # fig8 and fig9 share their whole grid
    grid = fig8_cells(sizes=(128,))
    assert len(SweepSpec("u", grid + fig8_cells(sizes=(128,)))) == len(grid)


def test_experiment_cells_registry():
    assert len(experiment_cells("table2")) == 0
    assert len(experiment_cells("table1", w=2,
                                workloads=("fibonacci",))) == 3
    assert len(experiment_cells("fig10b", w_sweep=(1,),
                                workloads=("ones",))) == 3
    with pytest.raises(ValueError, match="unknown experiment"):
        experiment_cells("fig99")
    # fig10b's ideal variant really is the unconditional compile
    kinds = {cell.spec.variant for cell in fig10b_cells(
        w_sweep=(1,), workloads=("ones",))}
    assert kinds == {"natural", "oblivious", "unconditional"}


def test_cells_use_shared_iteration_table():
    (cell,) = [c for c in table1_cells(w=1, workloads=("quicksort",))
               if c.mode == "plain"]
    assert cell.spec.iters == MICRO_ITERS["quicksort"]


# -- deterministic seeds ---------------------------------------------------

def test_cell_seed_is_stable_and_structural():
    cells = _small_cells()
    seeds = [cell_seed(cell.fingerprint()) for cell in cells]
    assert seeds == [cell_seed(cell.fingerprint()) for cell in cells]
    assert len(set(seeds)) == len(seeds)
    # the seed is a function of the cell, not of sweep composition
    reordered = list(reversed(cells))
    assert [cell_seed(c.fingerprint()) for c in reordered] == \
        list(reversed(seeds))


# -- execution -------------------------------------------------------------

def test_run_sweep_warms_cache_serial():
    cells = _small_cells()
    stats = run_sweep(SweepSpec("warm", cells), jobs=1)
    assert stats.cells == len(cells)
    assert stats.computed == len(cells)
    info = runner.cache_info()
    assert info["entries"] == len(cells)
    # table assembly is now pure hits
    for cell in cells:
        cell.run()
    assert runner.cache_info()["misses"] == info["misses"]


def test_run_sweep_skips_resident_cells():
    cells = _small_cells()
    run_sweep(SweepSpec("a", cells), jobs=1)
    stats = run_sweep(SweepSpec("b", cells), jobs=1)
    assert stats.cached == len(cells)
    assert stats.computed == 0


def test_sweep_results_pairs_one_sweep_in_grid_order():
    cells = _small_cells()
    pairs = sweep_results("e", cells)
    assert [cell for cell, _ in pairs] == cells
    # One sweep computed every cell, and the pairs are its results.
    assert runner.cache_info()["entries"] == len(cells)
    assert all(result is cell.run() for cell, result in pairs)


@pytest.mark.slow
def test_worker_pool_matches_serial_bit_for_bit():
    """--jobs 4 must produce exactly the state --jobs 1 produces."""
    cells = _small_cells()
    run_sweep(SweepSpec("serial", cells), jobs=1)
    serial = {cell.fingerprint(): cell.run().report.to_dict()
              for cell in cells}

    runner.clear_cache()
    stats = run_sweep(SweepSpec("pool", cells), jobs=4)
    assert stats.computed == len(cells)
    parallel_reports = {cell.fingerprint(): cell.run().report.to_dict()
                        for cell in cells}
    assert parallel_reports == serial


@pytest.mark.slow
def test_worker_pool_writes_store_like_serial(tmp_path):
    """The stores left behind by jobs=1 and jobs=4 hold identical
    records."""
    cells = _small_cells()
    serial_store = ResultStore(str(tmp_path / "serial"))
    runner.set_store(serial_store)
    run_sweep(SweepSpec("s", cells), jobs=1)

    runner.clear_cache()
    pool_store = ResultStore(str(tmp_path / "pool"))
    runner.set_store(pool_store)
    run_sweep(SweepSpec("p", cells), jobs=4)

    assert len(serial_store) == len(pool_store) == len(cells)
    for cell in cells:
        descriptor = cell.descriptor()
        fp = cell.fingerprint()
        assert serial_store.get(fp, descriptor) == \
            pool_store.get(fp, descriptor)


def test_run_cells_collapses_duplicates():
    cells = _small_cells()
    outcome = run_cells(cells + cells, jobs=1)
    assert outcome.computed == len(cells)
    assert outcome.ok and not outcome.failures


def test_workload_cells_through_worker_pool(tmp_path):
    """Registry-workload cells run through the process pool, land in the
    store, and a second (serial) sweep is fully served from it."""
    from repro.workloads.registry import WorkloadRunSpec, get_workload

    spec = get_workload("gcd")
    cells = [
        SweepCell("workload", WorkloadRunSpec("gcd", params), mode)
        for params in spec.grid_points()
        for mode in ("plain", "sempe")
    ]
    store = ResultStore(str(tmp_path / "store"))
    runner.set_store(store)
    stats = run_sweep(SweepSpec("victims", cells), jobs=2)
    assert stats.computed == len(cells)
    assert store.stats.stores == len(cells)

    runner.clear_cache()
    again = run_sweep(SweepSpec("victims", cells), jobs=1)
    assert again.computed == 0
    assert again.from_store == len(cells)
    result = SweepCell("workload", WorkloadRunSpec(
        "gcd", spec.grid_points()[0]), "sempe").run()
    assert result.cycles > 0


def test_sweep_respects_configs():
    shrunk = MachineConfig()
    shrunk.rob_entries = 32
    spec = MicrobenchSpec("fibonacci", w=1, iters=1)
    cells = [SweepCell("micro", spec, "plain"),
             SweepCell("micro", spec, "plain", config=shrunk)]
    stats = run_sweep(SweepSpec("cfg", cells), jobs=1)
    assert stats.cells == 2 and stats.computed == 2
    default_run, shrunk_run = cells[0].run(), cells[1].run()
    assert default_run is not shrunk_run
