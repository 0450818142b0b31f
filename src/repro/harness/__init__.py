"""Experiment harness: sweeps, result caching, and table/figure rendering.

Every table and figure of the paper's evaluation is one declaration in
:mod:`repro.harness.experiments`: a builder of its sweep grid, a
renderer of that grid's results and the paper's claims about them,
reached by name through
:func:`render_experiment` (or :func:`render_cells` for a grid the
caller built).  :mod:`repro.harness.sweep` runs those grids as
declarative, parallelizable batches, and :mod:`repro.harness.store`
persists their results across runs.
"""

from repro.harness.failures import (
    CellFailure,
    ExecutionPolicy,
    RunOutcome,
    SweepInterrupted,
)
from repro.harness.runner import (
    RunResult,
    cache_info,
    clear_cache,
    get_store,
    set_store,
)
from repro.harness.report import format_table
from repro.harness.store import ResultStore
from repro.harness.sweep import (
    SweepCell,
    SweepFailed,
    SweepSpec,
    SweepStats,
    check_jobs,
    run_sweep,
    sweep_results,
)
from repro.harness.experiments import (
    EXPERIMENTS,
    experiment_cells,
    render_cells,
    render_experiment,
    attacks_cells,
    verify_cells,
)

__all__ = [
    "CellFailure",
    "ExecutionPolicy",
    "RunOutcome",
    "SweepFailed",
    "SweepInterrupted",
    "verify_cells",
    "attacks_cells",
    "RunResult",
    "ResultStore",
    "SweepCell",
    "SweepSpec",
    "SweepStats",
    "clear_cache",
    "cache_info",
    "set_store",
    "get_store",
    "run_sweep",
    "sweep_results",
    "check_jobs",
    "format_table",
    "EXPERIMENTS",
    "experiment_cells",
    "render_cells",
    "render_experiment",
]
