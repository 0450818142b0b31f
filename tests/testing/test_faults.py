"""Deterministic fault injection: plans, specs, seeded chaos."""

import multiprocessing

import pytest

from repro.testing.faults import (
    ACTIONS,
    ALWAYS,
    KILL_EXIT_CODE,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)

FPS = [f"{i:02x}" + "0" * 62 for i in range(16)]


# -- FaultSpec -------------------------------------------------------------

def test_unknown_action_rejected():
    with pytest.raises(ValueError):
        FaultSpec("explode")


def test_fires_gates_on_attempt():
    spec = FaultSpec("raise", times=2)
    assert spec.fires(1) and spec.fires(2)
    assert not spec.fires(3)
    assert FaultSpec("raise").fires(10**9)   # ALWAYS


# -- FaultPlan.apply -------------------------------------------------------

def test_apply_healthy_cell_is_noop():
    plan = FaultPlan({FPS[0]: FaultSpec("raise")})
    plan.apply(FPS[1], 1)                        # not in the plan


def test_apply_raises_injected_fault():
    plan = FaultPlan({FPS[0]: FaultSpec("raise")})
    with pytest.raises(InjectedFault, match=FPS[0][:12]):
        plan.apply(FPS[0], 1)


def test_apply_flaky_fault_exhausts():
    plan = FaultPlan({FPS[0]: FaultSpec("raise", times=1)})
    with pytest.raises(InjectedFault):
        plan.apply(FPS[0], 1)
    plan.apply(FPS[0], 2)                 # second attempt succeeds


def test_apply_elapsed_hang_still_raises():
    plan = FaultPlan({FPS[0]: FaultSpec("hang", hang_seconds=0.01)})
    with pytest.raises(InjectedFault, match="hang"):
        plan.apply(FPS[0], 1)


def test_apply_kill_exits_hard():
    # A kill fault dies via os._exit — exercised in a child process so
    # the test suite survives its own fault injector.
    plan = FaultPlan({FPS[0]: FaultSpec("kill")})
    ctx = multiprocessing.get_context()
    proc = ctx.Process(target=plan.apply, args=(FPS[0], 1))
    proc.start()
    proc.join(timeout=30)
    assert proc.exitcode == KILL_EXIT_CODE


def test_has_hangs():
    assert FaultPlan({FPS[0]: FaultSpec("hang")}).has_hangs()
    assert not FaultPlan({FPS[0]: FaultSpec("raise")}).has_hangs()
    assert not FaultPlan().has_hangs()


# -- FaultPlan.seeded ------------------------------------------------------

def test_seeded_is_deterministic():
    a = FaultPlan.seeded(FPS, seed=7, rate=0.5)
    b = FaultPlan.seeded(FPS, seed=7, rate=0.5)
    assert a.faults == b.faults


def test_seeded_is_order_independent():
    forward = FaultPlan.seeded(FPS, seed=3, rate=0.5)
    backward = FaultPlan.seeded(list(reversed(FPS)), seed=3, rate=0.5)
    assert forward.faults == backward.faults


def test_seeded_respects_rate_extremes():
    assert len(FaultPlan.seeded(FPS, seed=1, rate=0.0)) == 0
    full = FaultPlan.seeded(FPS, seed=1, rate=1.0)
    assert len(full) == len(FPS)
    assert {spec.action for spec in full.faults.values()} <= set(ACTIONS)


def test_seeded_rejects_bad_rate():
    with pytest.raises(ValueError):
        FaultPlan.seeded(FPS, seed=1, rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan.seeded(FPS, seed=1, rate=-0.1)


def test_seeded_propagates_hang_seconds_and_actions():
    plan = FaultPlan.seeded(FPS, seed=2, rate=1.0, hang_seconds=0.25,
                            actions=("raise",))
    assert all(spec.action == "raise" for spec in plan.faults.values())
    assert all(spec.hang_seconds == 0.25 for spec in plan.faults.values())
    assert all(spec.times == ALWAYS for spec in plan.faults.values())


def test_seeded_varies_with_seed():
    plans = {frozenset(FaultPlan.seeded(FPS, seed=s, rate=0.5).faults)
             for s in range(8)}
    assert len(plans) > 1
