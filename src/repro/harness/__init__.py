"""Experiment harness: sweeps, result caching, and table/figure rendering.

Every table and figure of the paper's evaluation has a function in
:mod:`repro.harness.experiments` that regenerates it; the benchmark
modules under ``benchmarks/`` are thin wrappers that time these and
print the rows.  :mod:`repro.harness.sweep` turns the grids behind
those functions into declarative, parallelizable batches, and
:mod:`repro.harness.store` persists their results across runs.
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
    store_info,
)
from repro.harness.report import format_table
from repro.harness.store import ResultStore
from repro.harness.sweep import (
    SweepCell,
    SweepSpec,
    SweepStats,
    check_jobs,
    ensure_cells,
    run_sweep,
)
from repro.harness.experiments import (
    EXPERIMENTS,
    experiment_cells,
    render_experiment,
    table1_comparison,
    table2_config,
    fig8_djpeg_overhead,
    fig9_cache_missrates,
    fig10a_microbench,
    fig10b_normalized_to_ideal,
    victims_overhead,
    victims_cells,
    leakmatrix,
    attack_matrix,
    attacks_cells,
    defensematrix,
    defensematrix_cells,
    verifymatrix,
    verify_cells,
    DEFAULT_ATTACK_DEFENSES,
    DEFAULT_W_SWEEP,
)

__all__ = [
    "CellFailure",
    "ExecutionPolicy",
    "RunOutcome",
    "SweepInterrupted",
    "verifymatrix",
    "verify_cells",
    "attack_matrix",
    "attacks_cells",
    "victims_overhead",
    "victims_cells",
    "leakmatrix",
    "defensematrix",
    "defensematrix_cells",
    "DEFAULT_ATTACK_DEFENSES",
    "RunResult",
    "ResultStore",
    "SweepCell",
    "SweepSpec",
    "SweepStats",
    "clear_cache",
    "cache_info",
    "set_store",
    "get_store",
    "store_info",
    "run_sweep",
    "ensure_cells",
    "check_jobs",
    "format_table",
    "EXPERIMENTS",
    "experiment_cells",
    "render_experiment",
    "table1_comparison",
    "table2_config",
    "fig8_djpeg_overhead",
    "fig9_cache_missrates",
    "fig10a_microbench",
    "fig10b_normalized_to_ideal",
    "DEFAULT_W_SWEEP",
]
