"""Timing golden: every simulated value of the shared timing model.

The engine parity suites compare the reference, fast and batch engines
against each other, but all three share one set of predictors, caches
and prefetchers — a change inside TAGE, ITTAGE or the cache hierarchy
moves every engine the same way and no parity suite can see it.  This
fixture is their oracle: one JSON line per cell holding the cell's full
:class:`~repro.uarch.pipeline.PipelineStats`, miss rates, cycles and
post-run residue (predictor, BTB, ITTAGE and RAS state digests, the
attacker-facing cache digest and a digest of the per-set occupancy),
recorded on the fast engine through :func:`repro.simulate`.

The grid covers every structure the model touches: Fig. 10a at
W in {1, 2} (4 microbenchmarks x plain/sempe/cte), djpeg at 64 px
(3 formats x plain/sempe), memcmp under the four machine-side cache and
predictor defenses, and the spectre victim with the speculation window
open (transient rows drive the caches through mispredictions).

Regenerate only for an intentional change to the timing model, and say
why in the change description:

    PYTHONPATH=src python tests/uarch/test_timing_golden.py \\
        > tests/uarch/golden/timing.jsonl
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib
from unittest import mock

import pytest

import repro.core.engine as engine_module
from repro.core.engine import simulate
from repro.defenses.registry import get_defense
from repro.harness.experiments import fig10a_cells
from repro.uarch.batch_pipeline import residue_digests
from repro.uarch.config import MachineConfig, SpeculationConfig
from repro.uarch.pipeline import OutOfOrderPipeline
from repro.workloads.djpeg import FORMATS, DjpegSpec, compile_djpeg
from repro.workloads.microbench import compile_microbench
from repro.workloads.registry import WorkloadRunSpec, compile_workload

GOLDEN = pathlib.Path(__file__).parent / "golden" / "timing.jsonl"

_COMPILE = {
    "micro": compile_microbench,
    "djpeg": compile_djpeg,
    "workload": compile_workload,
}

SPECULATION = MachineConfig(speculation=SpeculationConfig(enabled=True))


def timing_cells() -> list[tuple[str, str, object, str, MachineConfig | None]]:
    """``(key, kind, spec, defense, config)`` for every golden cell."""
    cells = [(cell.kind, cell.spec, cell.mode, None)
             for cell in fig10a_cells((1, 2))]
    cells += [("djpeg", DjpegSpec(fmt, 64), mode, None)
              for fmt in FORMATS for mode in ("plain", "sempe")]
    cells += [("workload", WorkloadRunSpec("memcmp"), mode, None)
              for mode in ("fence", "flush-local", "cache-partition",
                           "cache-randomize")]
    cells.append(("workload", WorkloadRunSpec("spectre"), "plain",
                  SPECULATION))
    return [(f"{kind}|{spec.name}|{mode}|{'spec' if config else 'base'}",
             kind, spec, mode, config)
            for kind, spec, mode, config in cells]


class _Capturing(OutOfOrderPipeline):
    """The engine's pipeline, remembered so its residue can be read."""

    last: OutOfOrderPipeline | None = None

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        _Capturing.last = self


def timing_record(kind: str, spec, mode: str,
                  config: MachineConfig | None) -> dict:
    """One cell's simulated timing values, JSON-safe."""
    defense = get_defense(mode)
    program = _COMPILE[kind](spec, defense.compile_mode).program
    with mock.patch.object(engine_module, "OutOfOrderPipeline", _Capturing):
        report = simulate(program, defense=defense, config=config,
                          engine="fast")
    pipeline = _Capturing.last
    cache_digest, occupancy, _ = residue_digests(
        pipeline.hierarchy, pipeline.predictor, pipeline.btb,
        pipeline.ittage, pipeline.ras)
    return {
        "cycles": report.cycles,
        "stats": dataclasses.asdict(report.pipeline),
        "miss_rates": report.miss_rates,
        "residue": {
            "predictor": pipeline.predictor.state_digest(),
            "btb": pipeline.btb.state_digest(),
            "ittage": pipeline.ittage.state_digest(),
            "ras": pipeline.ras.state_digest(),
            "cache": cache_digest,
            "occupancy": hashlib.sha256(
                repr(occupancy).encode()).hexdigest(),
        },
    }


@functools.lru_cache(maxsize=None)
def _golden() -> dict[str, dict]:
    records = {}
    for line in GOLDEN.read_text().splitlines():
        record = json.loads(line)
        records[record.pop("cell")] = record
    return records


CELLS = timing_cells()


def test_golden_covers_the_grid():
    assert sorted(_golden()) == sorted(key for key, *_ in CELLS)


@pytest.mark.parametrize("key,kind,spec,mode,config", CELLS,
                         ids=[cell[0] for cell in CELLS])
def test_timing_matches_golden(key, kind, spec, mode, config):
    assert timing_record(kind, spec, mode, config) == _golden()[key]


if __name__ == "__main__":
    for key, kind, spec, mode, config in CELLS:
        print(json.dumps({"cell": key,
                          **timing_record(kind, spec, mode, config)},
                         sort_keys=True))
