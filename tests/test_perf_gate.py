"""The perf gate's decision rule (``benchmarks/perf_gate.py:decide``).

Bounds are read from the repository's ``BENCHMARK.json``, the same file
the gate reads, so a changed bound moves these tests with it.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perf_gate", os.path.join(ROOT, "benchmarks", "perf_gate.py"))
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

END_TO_END = perf_gate.load_benchmark(ROOT)["end_to_end"]
BOUNDS = {entry["name"]: entry for entry in END_TO_END}


def result(scale=None, correct=True, failed=0):
    """One perfbench result object; *scale* multiplies chosen metrics."""
    scale = scale or {}
    return {"correct": correct, "attempted": 10, "failed": failed,
            "sim_digest": "d",
            "metrics": {entry["name"]: {"value": 2.0 * scale.get(
                entry["name"], 1.0), "unit": entry["unit"]}
                for entry in END_TO_END}}


def runs(**kwargs):
    return [result(**kwargs) for _ in range(perf_gate.PAIRS)]


def worsen(name, margin):
    """The factor that moves *name* past (margin > 0) or inside
    (margin < 0) its bound, in its ``better`` direction."""
    entry = BOUNDS[name]
    amount = entry["bound"] + margin
    return 1 + amount if entry["better"] == "lower" else 1 - amount


def test_green_inside_every_bound():
    change = runs(scale={name: worsen(name, -0.01) for name in BOUNDS})
    reasons, rows = perf_gate.decide(runs(), change, END_TO_END)
    assert reasons == []
    assert [row["metric"] for row in rows] == list(BOUNDS)
    assert all(row["ok"] for row in rows)


@pytest.mark.parametrize("name", ["wall_s", "sim_ips"])
def test_red_past_a_bound_in_its_direction(name):
    assert BOUNDS["wall_s"]["better"] == "lower"
    assert BOUNDS["sim_ips"]["better"] == "higher"
    change = runs(scale={name: worsen(name, 0.01)})
    reasons, rows = perf_gate.decide(runs(), change, END_TO_END)
    assert len(reasons) == 1 and reasons[0].startswith(name)
    assert [row["metric"] for row in rows if not row["ok"]] == [name]


def test_improvement_is_never_red():
    better = {name: worsen(name, -0.5) for name in BOUNDS}
    reasons, _ = perf_gate.decide(runs(), runs(scale=better), END_TO_END)
    assert reasons == []


def test_red_when_change_fails_more_operations():
    reasons, _ = perf_gate.decide(runs(failed=1), runs(failed=2),
                                  END_TO_END)
    assert reasons == ["change failed 6 operations, base 3"]
    reasons, _ = perf_gate.decide(runs(failed=2), runs(failed=1),
                                  END_TO_END)
    assert reasons == []


@pytest.mark.parametrize("side", ["base", "change"])
def test_red_when_either_side_is_incorrect(side):
    sides = {"base": runs(), "change": runs()}
    sides[side][1] = result(correct=False)
    reasons, _ = perf_gate.decide(sides["base"], sides["change"],
                                  END_TO_END)
    assert reasons == [f"{side} reported correct: false in 1 of "
                       f"{perf_gate.PAIRS} runs"]


def test_crashed_run_is_red():
    crashed = {"correct": False, "failed": 0, "metrics": {},
               "sim_digest": None, "error": "exit 1: boom"}
    reasons, rows = perf_gate.decide(runs(), [crashed] * perf_gate.PAIRS,
                                     END_TO_END)
    assert reasons[0] == (f"change reported correct: false in "
                          f"{perf_gate.PAIRS} of {perf_gate.PAIRS} runs "
                          "(exit 1: boom)")
    assert rows == []
