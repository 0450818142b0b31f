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
predictor defenses, the spectre victim with the speculation window
open (transient rows drive the caches through mispredictions), a
queue-stress kernel on machines with the ROB, issue queue, load queue
or store queue shrunk until each one binds (so a ring one entry short
moves a value), and the PhyRS and LRS snapshot mechanisms (drain
scaling and the LRS rename penalty).

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
from types import SimpleNamespace
from unittest import mock

import pytest

import repro.uarch.batch_pipeline as lane_core
from repro.core.engine import simulate
from repro.defenses.registry import get_defense
from repro.harness.experiments import fig10a_cells
from repro.isa.assembler import assemble
from repro.uarch.batch_pipeline import residue_digests
from repro.uarch.config import MachineConfig, SpeculationConfig
from repro.uarch.pipeline import OutOfOrderPipeline
from repro.workloads.djpeg import FORMATS, DjpegSpec, compile_djpeg
from repro.workloads.microbench import MicrobenchSpec, compile_microbench
from repro.workloads.registry import WorkloadRunSpec, compile_workload

pytestmark = pytest.mark.parity

GOLDEN = pathlib.Path(__file__).parent / "golden" / "timing.jsonl"


@dataclasses.dataclass(frozen=True)
class AsmSpec:
    """A hand-written assembly kernel (assembled as is in every mode)."""

    name: str
    source: str


# Every iteration misses to DRAM on a pseudo-random line, then queues
# work behind the miss: a dependent chain (issue queue), loads and
# stores to hot lines (load/store queues, held until the miss commits)
# and independent ALU work (ROB).
QUEUE_STRESS = AsmSpec("queue-stress", """
    .data
buf: .space 131072
    .text
main:
    la   s1, buf
    addi s0, zero, 40
    addi s2, zero, 1
    addi t0, zero, 29
loop:
    mul  s2, s2, t0
    addi s2, s2, 7
    andi s2, s2, 127
    slli t1, s2, 10
    add  a0, s1, t1
    ld   a1, 0(a0)
""" + "".join(f"    add  a{2 + i % 4}, a1, a{2 + (i + 3) % 4}\n"
              for i in range(12))
    + "".join(f"    ld   a6, {8 * i}(s1)\n" for i in range(8))
    + "".join(f"    st   s0, {512 + 8 * i}(s1)\n" for i in range(8))
    + "".join(f"    addi x{4 + i % 6}, x{4 + i % 6}, 1\n" for i in range(24))
    + """    addi s0, s0, -1
    bne  s0, zero, loop
    halt
""")

_COMPILE = {
    "micro": compile_microbench,
    "djpeg": compile_djpeg,
    "workload": compile_workload,
    "asm": lambda spec, mode: SimpleNamespace(program=assemble(spec.source)),
}

SPECULATION = MachineConfig(speculation=SpeculationConfig(enabled=True))

# Machines for the queue-stress kernel, each with one queue shrunk.
SHRUNK_QUEUES = {
    "rob32": MachineConfig(rob_entries=32),
    "iq6": MachineConfig(int_issue_buffer=6),
    "lq4": MachineConfig(load_queue=4),
    "sq4": MachineConfig(store_queue=4),
}


def timing_cells() -> list[tuple[str, str, object, str, MachineConfig | None]]:
    """``(key, kind, spec, defense, config)`` for every golden cell."""
    cells = [(cell.kind, cell.spec, cell.mode, None, "base")
             for cell in fig10a_cells((1, 2))]
    cells += [("djpeg", DjpegSpec(fmt, 64), mode, None, "base")
              for fmt in FORMATS for mode in ("plain", "sempe")]
    cells += [("workload", WorkloadRunSpec("memcmp"), mode, None, "base")
              for mode in ("fence", "flush-local", "cache-partition",
                           "cache-randomize")]
    cells.append(("workload", WorkloadRunSpec("spectre"), "plain",
                  SPECULATION, "spec"))
    cells += [("asm", QUEUE_STRESS, "plain", config, label)
              for label, config in SHRUNK_QUEUES.items()]
    cells += [("micro", MicrobenchSpec("ones", w=1, iters=4), "sempe",
               MachineConfig(snapshot_mechanism=mechanism), mechanism)
              for mechanism in ("phyrs", "lrs")]
    return [(f"{kind}|{spec.name}|{mode}|{label}", kind, spec, mode, config)
            for kind, spec, mode, config, label in cells]


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
    with mock.patch.object(lane_core, "OutOfOrderPipeline", _Capturing):
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
