"""Self-test of the benchmark, at a minimal grid scale.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

(The file name keeps it out of the repository's default test
collection; naming it on the command line collects it.)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import run as runner  # noqa: E402
from perfbench import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)


def _invoke(workload: str, trace: int, capsys) -> tuple[dict, dict]:
    args = runner._parse(["--workload", workload, "--seed", "3",
                          "--seconds", "0", "--trace", str(trace)])
    result = runner.run(args, minimal=True)
    details = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return result, details


def test_declared_workloads_are_the_runner_choices():
    assert [w["name"] for w in DECLARED["workloads"]] == \
        list(workloads.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_output_names_every_declared_metric(workload, trace, capsys):
    result, details = _invoke(workload, trace, capsys)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert details["failed_frac"] == 0.0
    assert len(details["sim_digest"]) == 64
    json.dumps(result)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # Layer self times plus the uncovered remainder are the traced wall.
    covered = sum(value for name, value in metrics.items()
                  if name.endswith(".self_s")
                  or name in ("store.get_s", "store.put_s"))
    assert metrics["trace.uncovered_s"] >= 0.0
    assert covered + metrics["trace.uncovered_s"] == \
        pytest.approx(metrics["trace.wall_s"], rel=1e-6)
    assert metrics["runner.cache_misses"] >= 1


def test_attack_matrix_time_goes_to_statistics(capsys):
    result, _ = _invoke("attack-matrix", 1, capsys)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["stats.perm_tests"] >= 1
    assert metrics["stats.welch_tests"] >= 1
    assert metrics["stats.self_s"] > 0.0
    assert metrics["core.self_s"] == 0.0    # attacks never call simulate


def test_contradicted_verdict_counts_as_failure(capsys, monkeypatch):
    flipped = {"recovered": "chance", "chance": "recovered"}
    expected = workloads.expected_verdict
    monkeypatch.setattr(workloads, "expected_verdict",
                        lambda attacker, mode: flipped.get(
                            expected(attacker, mode)))
    result, details = _invoke("attack-matrix", 0, capsys)
    assert not result["correct"]
    assert result["failed"] > 0
    assert details["failed_frac"] > 0.0


def test_sim_digest_is_stable_across_runs(capsys):
    _, first = _invoke("paper-figures", 0, capsys)
    _, second = _invoke("paper-figures", 0, capsys)
    assert first["sim_digest"] == second["sim_digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(tmp_path, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attack-matrix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
