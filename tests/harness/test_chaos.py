"""Chaos suite: fault-injected sweeps through the tolerant executor.

Drives :mod:`repro.testing.faults` through every failure path —
exception, hang/timeout, worker death, retry-then-succeed, fallback,
quarantine — and checks the acceptance property: the final store state
is byte-identical for ``--jobs 1`` and ``--jobs 8``, faults included.
"""

import multiprocessing.connection
import os

import pytest

from repro.harness import parallel, runner
from repro.harness.experiments import fig10a_cells
from repro.harness.failures import (
    FAILURE_EXCEPTION,
    FAILURE_FUEL,
    FAILURE_TIMEOUT,
    FAILURE_WORKER_DIED,
    ExecutionPolicy,
    SweepInterrupted,
)
from repro.harness.parallel import run_cells
from repro.harness.store import ResultStore
from repro.harness.sweep import SweepCell, SweepSpec, run_sweep
from repro.analysis.differential import VerifySpec
from repro.security.attackers import AttackSpec
from repro.testing.faults import FaultPlan, FaultSpec, KILL_EXIT_CODE
from repro.workloads.registry import WorkloadRunSpec


@pytest.fixture(autouse=True)
def clean_runner():
    runner.clear_cache()
    previous = runner.set_store(None)
    yield
    runner.set_store(previous)
    runner.clear_cache()


def _cells():
    return fig10a_cells(w_sweep=(1,), workloads=("ones",))


def _fps(cells):
    return sorted(cell.fingerprint() for cell in cells)


def _tree(root):
    """{relative path: file bytes} for a whole store directory."""
    snapshot = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                snapshot[os.path.relpath(path, root)] = handle.read()
    return snapshot


# -- exception isolation ---------------------------------------------------

def test_injected_exception_is_isolated_pooled():
    cells = _cells()
    bad = _fps(cells)[0]
    plan = FaultPlan({bad: FaultSpec("raise")})
    outcome = run_cells(cells, jobs=2,
                        policy=ExecutionPolicy(fault_plan=plan))
    assert outcome.computed == len(cells) - 1
    (failure,) = outcome.failures
    assert failure.fingerprint == bad
    assert failure.failure == FAILURE_EXCEPTION
    assert failure.error_type == "InjectedFault"
    assert "InjectedFault" in failure.traceback
    assert failure.attempts == 1
    # the healthy cells really were installed
    assert runner.cache_info()["entries"] == len(cells) - 1


def test_exception_is_isolated_serial_in_process(monkeypatch):
    cells = _cells()
    real = parallel.compute_cell

    def flaky(kind, spec, mode, config, engine, max_instructions):
        if mode == "cte":
            raise RuntimeError("natural failure, no injection")
        return real(kind, spec, mode, config, engine, max_instructions)

    monkeypatch.setattr(parallel, "compute_cell", flaky)
    outcome = run_cells(cells, jobs=1)      # serial, in-process
    assert outcome.computed == len(cells) - 1
    (failure,) = outcome.failures
    assert failure.mode == "cte"
    assert failure.error_type == "RuntimeError"
    assert "natural failure" in failure.message


# -- retry / backoff -------------------------------------------------------

def test_flaky_cell_retries_then_succeeds():
    cells = _cells()
    bad = _fps(cells)[1]
    plan = FaultPlan({bad: FaultSpec("raise", times=1)})
    outcome = run_cells(cells, jobs=1, policy=ExecutionPolicy(
        retries=2, backoff=0.01, fault_plan=plan))
    assert outcome.ok and outcome.computed == len(cells)


def test_retry_exhaustion_quarantines(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    runner.set_store(store)
    cells = _cells()
    bad = _fps(cells)[0]
    plan = FaultPlan({bad: FaultSpec("raise")})
    outcome = run_cells(cells, jobs=1, policy=ExecutionPolicy(
        retries=1, backoff=0.01, fault_plan=plan))
    (failure,) = outcome.failures
    assert failure.attempts == 2            # first try + one retry
    assert failure.quarantined
    assert store.contains_failure(bad)
    descriptor = next(c.descriptor() for c in cells
                      if c.fingerprint() == bad)
    record = store.get_failure(bad, descriptor)
    assert record["failure"] == FAILURE_EXCEPTION
    assert record["duration"] == 0.0        # zeroed for determinism
    assert record["quarantined"] is True
    assert store.stats.quarantines == 1


def test_fuel_exhaustion_is_not_retried():
    cells = _cells()
    outcome = run_cells(cells, jobs=1, policy=ExecutionPolicy(
        retries=3, backoff=0.01, max_instructions=10))
    assert outcome.computed == 0
    assert len(outcome.failures) == len(cells)
    for failure in outcome.failures:
        assert failure.failure == FAILURE_FUEL
        assert failure.error_type == "InstructionLimitError"
        assert failure.attempts == 1        # deterministic: no retry


def test_attack_cells_are_exempt_from_fuel():
    cell = SweepCell("attack",
                     AttackSpec("memcmp", "prime-probe", trials=16),
                     "plain")
    outcome = run_cells([cell], jobs=1,
                        policy=ExecutionPolicy(max_instructions=10))
    assert outcome.ok and outcome.computed == 1


# -- worker death ----------------------------------------------------------

def test_killed_worker_is_detected_and_pool_survives():
    cells = _cells()
    bad = _fps(cells)[0]
    plan = FaultPlan({bad: FaultSpec("kill")})
    outcome = run_cells(cells, jobs=2,
                        policy=ExecutionPolicy(fault_plan=plan))
    assert outcome.computed == len(cells) - 1
    (failure,) = outcome.failures
    assert failure.failure == FAILURE_WORKER_DIED
    assert f"exit code {KILL_EXIT_CODE}" in failure.message


def test_worker_death_retry_then_succeeds():
    cells = _cells()
    bad = _fps(cells)[2]
    plan = FaultPlan({bad: FaultSpec("kill", times=1)})
    outcome = run_cells(cells, jobs=2, policy=ExecutionPolicy(
        retries=1, backoff=0.01, fault_plan=plan))
    assert outcome.ok and outcome.computed == len(cells)


# -- hangs / deadlines -----------------------------------------------------

@pytest.mark.slow
def test_hung_cell_is_killed_at_the_deadline():
    cells = _cells()
    bad = _fps(cells)[1]
    plan = FaultPlan({bad: FaultSpec("hang", hang_seconds=60.0)})
    outcome = run_cells(cells, jobs=2, policy=ExecutionPolicy(
        timeout=1.5, fault_plan=plan))
    assert outcome.computed == len(cells) - 1
    (failure,) = outcome.failures
    assert failure.failure == FAILURE_TIMEOUT
    assert "deadline" in failure.message


@pytest.mark.slow
def test_hung_cell_retry_then_succeeds():
    cells = _cells()
    bad = _fps(cells)[1]
    plan = FaultPlan({bad: FaultSpec("hang", times=1, hang_seconds=60.0)})
    outcome = run_cells(cells, jobs=2, policy=ExecutionPolicy(
        timeout=1.5, retries=1, backoff=0.01, fault_plan=plan))
    assert outcome.ok and outcome.computed == len(cells)


# -- reference-engine fallback ---------------------------------------------

def test_fast_engine_failure_falls_back_to_reference(tmp_path):
    cells = _cells()
    bad = _fps(cells)[0]
    bad_cell = next(c for c in cells if c.fingerprint() == bad)

    healthy_store = ResultStore(str(tmp_path / "healthy"))
    runner.set_store(healthy_store)
    assert run_cells(cells, jobs=1).ok
    runner.clear_cache()

    fallback_store = ResultStore(str(tmp_path / "fallback"))
    runner.set_store(fallback_store)
    plan = FaultPlan({bad: FaultSpec("raise", engines=("fast",))})
    outcome = run_cells(cells, jobs=1, policy=ExecutionPolicy(
        fallback_reference=True, fault_plan=plan))
    assert outcome.ok and outcome.computed == len(cells)
    assert outcome.fellback == [bad_cell.spec.name]
    # the oracle's report is byte-identical to the fast engine's, so
    # the stores agree record for record — fallback included
    assert _tree(healthy_store.root) == _tree(fallback_store.root)


def test_attack_cells_never_fall_back():
    # AttackReports seed their RNG per engine, so a reference-engine
    # rerun would install a *different* result under the fast cell's
    # fingerprint; the policy must quarantine instead.
    cell = SweepCell("attack",
                     AttackSpec("memcmp", "prime-probe", trials=16),
                     "plain")
    plan = FaultPlan({cell.fingerprint(): FaultSpec(
        "raise", engines=("fast",))})
    outcome = run_cells([cell], jobs=1, policy=ExecutionPolicy(
        fallback_reference=True, fault_plan=plan))
    assert not outcome.fellback
    (failure,) = outcome.failures
    assert failure.failure == FAILURE_EXCEPTION


# -- failure budget --------------------------------------------------------

def test_failure_budget_aborts_pooled():
    cells = _cells()
    plan = FaultPlan({fp: FaultSpec("raise") for fp in _fps(cells)})
    outcome = run_cells(cells, jobs=2, policy=ExecutionPolicy(
        max_failures=0, fault_plan=plan))
    assert outcome.aborted and not outcome.ok
    assert outcome.failed >= 1


def test_failure_budget_aborts_serial(monkeypatch):
    monkeypatch.setattr(
        parallel, "compute_cell",
        lambda *args: (_ for _ in ()).throw(RuntimeError("down")))
    outcome = run_cells(_cells(), jobs=1,
                        policy=ExecutionPolicy(max_failures=0))
    assert outcome.aborted
    assert outcome.failed == 1 and outcome.remaining == 2


# -- quarantine lifecycle through run_sweep --------------------------------

def test_quarantine_skip_and_retry_lifecycle(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    runner.set_store(store)
    cells = _cells()
    bad = _fps(cells)[0]
    spec = SweepSpec("chaos", cells)

    plan = FaultPlan({bad: FaultSpec("raise")})
    stats = run_sweep(spec, jobs=1,
                      policy=ExecutionPolicy(fault_plan=plan))
    assert stats.failed == 1 and stats.computed == len(cells) - 1
    assert store.failure_count() == 1

    # resume skips the poisoned cell instead of re-running it
    runner.clear_cache()
    resumed = run_sweep(SweepSpec("chaos", _cells()), jobs=1)
    assert resumed.quarantined == 1 and resumed.failed == 1
    assert resumed.computed == 0
    assert resumed.from_store == len(cells) - 1
    assert resumed.failures[0].quarantined
    assert "quarantined" in resumed.summary()

    # --retry-quarantined clears the record and recomputes
    runner.clear_cache()
    retried = run_sweep(SweepSpec("chaos", _cells()), jobs=1,
                        policy=ExecutionPolicy(retry_quarantined=True))
    assert retried.ok and retried.computed == 1
    assert store.failure_count() == 0


@pytest.mark.parametrize("kind, make_spec", [
    ("attack", lambda: AttackSpec("gcd", "mistrain-reload")),
    ("attack", lambda: AttackSpec("nope", "timing")),
    ("workload", lambda: WorkloadRunSpec("gcd", {"bogus": 1})),
    ("verify", lambda: VerifySpec("nope")),
], ids=["inapplicable-attacker", "unknown-workload", "unknown-param",
        "unknown-verify-workload"])
def test_unrunnable_cell_never_reaches_the_store(kind, make_spec,
                                                 tmp_path):
    """A cell that cannot run is rejected when its spec is built, so a
    store-backed sweep is never handed it and writes no quarantine
    record for it."""
    store = ResultStore(str(tmp_path / "store"))
    runner.set_store(store)
    with pytest.raises(ValueError):
        run_sweep(SweepSpec("bad", [SweepCell(kind, make_spec(), "plain")]),
                  jobs=1)
    assert store.failure_count() == 0
    assert not os.path.exists(os.path.join(store.root, "quarantine"))


def test_success_clears_stale_quarantine(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    runner.set_store(store)
    cell = _cells()[0]
    fp = cell.fingerprint()
    store.put_failure(fp, cell.descriptor(), {
        "fingerprint": fp, "name": cell.spec.name, "mode": cell.mode,
        "kind": "micro", "failure": FAILURE_EXCEPTION,
        "error_type": "RuntimeError", "message": "stale", "traceback": "",
        "attempts": 1, "duration": 0.0, "engine": "fast",
        "quarantined": True})
    assert run_cells([cell], jobs=1).ok
    assert not store.contains_failure(fp)


# -- progress channel ------------------------------------------------------

def test_progress_reports_failures():
    cells = _cells()
    bad = _fps(cells)[0]
    plan = FaultPlan({bad: FaultSpec("raise")})
    calls = []
    outcome = run_cells(
        cells, jobs=1,
        progress=lambda done, total, name, ok:
            calls.append((done, total, name, ok)),
        policy=ExecutionPolicy(fault_plan=plan))
    assert len(calls) == len(cells)
    assert [done for done, *_ in calls] == [1, 2, 3]
    assert all(total == len(cells) for _, total, *_ in calls)
    assert sum(1 for *_, ok in calls if not ok) == outcome.failed == 1


# -- interrupts ------------------------------------------------------------

def test_serial_interrupt_carries_partial_outcome(monkeypatch):
    cells = _cells()
    real = parallel.compute_cell
    seen = []

    def interrupting(kind, spec, mode, config, engine, max_instructions):
        if len(seen) == 1:
            raise KeyboardInterrupt
        seen.append(spec)
        return real(kind, spec, mode, config, engine, max_instructions)

    monkeypatch.setattr(parallel, "compute_cell", interrupting)
    with pytest.raises(SweepInterrupted) as err:
        run_cells(cells, jobs=1)
    outcome = err.value.outcome
    assert outcome.interrupted and outcome.computed == 1


def test_pooled_interrupt_kills_workers(monkeypatch):
    monkeypatch.setattr(
        multiprocessing.connection, "wait",
        lambda *args, **kwargs: (_ for _ in ()).throw(KeyboardInterrupt))
    with pytest.raises(SweepInterrupted) as err:
        run_cells(_cells(), jobs=2)
    assert err.value.outcome.interrupted
    assert err.value.outcome.computed == 0


def test_run_sweep_attaches_stats_to_interrupt(monkeypatch):
    cells = _cells()
    monkeypatch.setattr(
        parallel, "compute_cell",
        lambda *args: (_ for _ in ()).throw(KeyboardInterrupt))
    with pytest.raises(SweepInterrupted) as err:
        run_sweep(SweepSpec("int", cells), jobs=1)
    stats = err.value.stats
    assert stats is not None and stats.interrupted
    assert "INTERRUPTED" in stats.summary()


# -- the acceptance property ----------------------------------------------

@pytest.mark.slow
def test_chaos_store_state_is_jobs_independent(tmp_path):
    """A fault-injected sweep (raise + hang + kill among healthy cells)
    leaves a byte-identical store for --jobs 1 and --jobs 8, and its
    healthy cells are byte-identical to a fault-free run."""
    cells = fig10a_cells(w_sweep=(1,), workloads=("fibonacci", "ones"))
    fps = _fps(cells)
    plan = FaultPlan({
        fps[0]: FaultSpec("raise"),
        fps[2]: FaultSpec("hang", hang_seconds=60.0),
        fps[4]: FaultSpec("kill"),
    })
    policy = ExecutionPolicy(timeout=1.5, fault_plan=plan)

    trees = {}
    for jobs in (1, 8):
        runner.clear_cache()
        store = ResultStore(str(tmp_path / f"jobs{jobs}"))
        runner.set_store(store)
        outcome = run_cells(cells, jobs=jobs, policy=policy)
        assert outcome.computed == len(cells) - 3
        assert sorted(f.failure for f in outcome.failures) == \
            sorted([FAILURE_EXCEPTION, FAILURE_TIMEOUT,
                    FAILURE_WORKER_DIED])
        assert store.failure_count() == 3
        trees[jobs] = _tree(store.root)

    assert trees[1] == trees[8]

    # healthy cells match a fault-free sweep record for record
    runner.clear_cache()
    clean_store = ResultStore(str(tmp_path / "clean"))
    runner.set_store(clean_store)
    assert run_cells(cells, jobs=1).ok
    clean = _tree(clean_store.root)
    for cell in cells:
        if cell.fingerprint() in plan.faults:
            continue
        rel = os.path.relpath(clean_store.path_for(cell.fingerprint()),
                              clean_store.root)
        assert trees[1][rel] == clean[rel]


def test_serial_and_pooled_agree_without_faults(tmp_path):
    """The pooled path is byte-equivalent to the serial in-process path
    even when a policy (isolation) forces jobs=1 through the pool."""
    cells = _cells()
    serial_store = ResultStore(str(tmp_path / "serial"))
    runner.set_store(serial_store)
    assert run_cells(cells, jobs=1).ok          # in-process

    runner.clear_cache()
    pooled_store = ResultStore(str(tmp_path / "pooled"))
    runner.set_store(pooled_store)
    isolated = ExecutionPolicy(fault_plan=FaultPlan())
    assert isolated.needs_isolation()
    assert run_cells(cells, jobs=1, policy=isolated).ok  # pooled
    assert _tree(serial_store.root) == _tree(pooled_store.root)
