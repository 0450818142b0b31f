"""Failure vocabulary: CellFailure records, policies, outcomes."""

import pytest

from repro.harness.failures import (
    FAILURE_EXCEPTION,
    FAILURE_FUEL,
    FAILURE_KINDS,
    RETRYABLE_FAILURES,
    CellFailure,
    ExecutionPolicy,
    RunOutcome,
    SweepInterrupted,
)
from repro.testing.faults import FaultPlan


def _failure(**overrides):
    base = dict(fingerprint="ab" * 32, name="ones-W1-I1-natural",
                mode="sempe", kind="micro", failure=FAILURE_EXCEPTION,
                error_type="RuntimeError", message="boom",
                traceback="Traceback ...", attempts=2, duration=0.5,
                engine="fast")
    base.update(overrides)
    return CellFailure(**base)


def test_fuel_is_the_only_non_retryable_failure():
    assert set(FAILURE_KINDS) - set(RETRYABLE_FAILURES) == {FAILURE_FUEL}


def test_cell_failure_round_trips_through_dict():
    failure = _failure(quarantined=True)
    rebuilt = CellFailure.from_dict(failure.to_dict())
    assert rebuilt == failure


def test_cell_failure_from_dict_ignores_unknown_keys():
    data = _failure().to_dict()
    data["added_in_some_future_schema"] = 1
    assert CellFailure.from_dict(data) == _failure()


def test_describe_names_the_cell_and_the_failure():
    text = _failure().describe()
    assert "ones-W1-I1-natural/sempe" in text
    assert "[exception]" in text and "RuntimeError" in text
    assert "attempt 2" in text


def test_default_policy_changes_nothing():
    policy = ExecutionPolicy()
    assert policy.timeout is None and policy.retries == 0
    assert policy.max_failures is None and policy.max_instructions is None
    assert not policy.retry_quarantined
    assert policy.fault_plan is None
    assert not policy.needs_isolation()


def test_isolation_forced_by_timeout_or_fault_plan():
    assert ExecutionPolicy(timeout=5.0).needs_isolation()
    assert ExecutionPolicy(fault_plan=FaultPlan()).needs_isolation()
    assert not ExecutionPolicy(retries=3,
                               max_instructions=10).needs_isolation()


def test_run_outcome_accounting():
    outcome = RunOutcome(total=5, computed=3)
    outcome.failures.append(_failure())
    assert outcome.failed == 1
    assert outcome.resolved == 4
    assert outcome.remaining == 1
    assert not outcome.ok
    assert RunOutcome(total=2, computed=2).ok


def test_interrupt_is_a_keyboard_interrupt_with_the_partial_outcome():
    outcome = RunOutcome(total=4, computed=1)
    stop = SweepInterrupted(outcome)
    assert isinstance(stop, KeyboardInterrupt)
    assert stop.outcome is outcome
    assert outcome.interrupted and not outcome.ok
    assert stop.stats is None

    with pytest.raises(KeyboardInterrupt):
        raise SweepInterrupted(RunOutcome())
