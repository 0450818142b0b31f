"""Rendered-table golden: every experiment but the attack matrix.

A renderer is a pure function of its grid's ``(cell, result)`` pairs,
so changing how an experiment is declared or rendered must leave its
table exactly as it was.  This fixture holds one JSON line per
experiment at a small sizing: the rendered ``experiment``, ``headers``,
``rows`` and ``series`` (tuple series keys joined with ``|``).  The
attack matrix is covered report by report by
``tests/security/golden/attack_matrix.jsonl`` instead.

Regenerate only for an intentional change to a table or to the timing
model (the timing golden moves with it), and say why in the change
description:

    PYTHONPATH=src python tests/harness/test_experiment_golden.py \\
        > tests/harness/golden/experiments.jsonl
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.harness.experiments import EXPERIMENTS, render_experiment

GOLDEN = pathlib.Path(__file__).parent / "golden" / "experiments.jsonl"

SIZING = {"w": 2, "w_sweep": (1, 2), "sizes": (64,),
          "workloads": ("fibonacci", "ones")}

# The grids that run noninterference campaigns, the whole victim
# registry or a 512-pixel djpeg take seconds each; they run in the slow
# lane.
SLOW = ("prefetch", "victims", "leakmatrix", "defensematrix", "verify",
        "spectre")

NAMES = [name for name in EXPERIMENTS if name != "attacks"]


def _canonical(value):
    """*value* as JSON-ready data: tuples become lists and tuple dict
    keys become ``|``-joined strings."""
    if isinstance(value, dict):
        return {"|".join(key) if isinstance(key, tuple) else str(key):
                _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def rendered(name: str) -> dict:
    result = render_experiment(name, **SIZING)
    return _canonical({"experiment": result.experiment,
                       "headers": result.headers, "rows": result.rows,
                       "series": result.series})


def _golden() -> dict[str, dict]:
    records = {}
    for line in GOLDEN.read_text().splitlines():
        record = json.loads(line)
        records[record.pop("name")] = record
    return records


def test_golden_covers_every_experiment_but_attacks():
    assert sorted(_golden()) == sorted(NAMES)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow) if name in SLOW else name
    for name in NAMES])
def test_rendered_table_matches_golden(name):
    assert rendered(name) == _golden()[name]


if __name__ == "__main__":
    for name in NAMES:
        print(json.dumps({"name": name, **rendered(name)}, sort_keys=True))
