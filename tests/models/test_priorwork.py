"""Raccoon / GhostRider cost models."""

from repro.core import simulate
from repro.models.priorwork import GhostRiderModel, RaccoonModel
from repro.workloads.microbench import MicrobenchSpec, compile_microbench


def reports(workload="ones", w=2, iters=1):
    spec = MicrobenchSpec(workload, w=w, iters=iters)
    base = simulate(compile_microbench(spec, "plain").program, defense="plain")
    sempe = simulate(compile_microbench(spec, "sempe").program,
                     defense="sempe")
    return base, sempe


def test_raccoon_slower_than_sempe():
    base, sempe = reports()
    estimate = RaccoonModel().estimate(sempe, base.cycles)
    assert estimate.slowdown > sempe.cycles / base.cycles
    assert estimate.approach == "Raccoon"


def test_ghostrider_slower_than_raccoon():
    base, sempe = reports()
    raccoon = RaccoonModel().estimate(sempe, base.cycles)
    ghostrider = GhostRiderModel().estimate(sempe, base.cycles)
    assert ghostrider.slowdown > raccoon.slowdown


def test_penalties_scale_models():
    base, sempe = reports()
    cheap = RaccoonModel(txn_penalty=1).estimate(sempe, base.cycles)
    expensive = RaccoonModel(txn_penalty=100).estimate(sempe, base.cycles)
    assert expensive.slowdown > cheap.slowdown


def test_memory_density_drives_oram_cost():
    """The workload whose secure regions are more memory-dense must pay
    a larger ORAM multiplier relative to its SeMPE cost."""
    ghostrider = GhostRiderModel()
    densities = {}
    ratios = {}
    for workload in ("fibonacci", "ones"):
        base, sempe = reports(workload=workload)
        functional = sempe.functional
        mem_ops = functional.secure_loads + functional.secure_stores
        densities[workload] = mem_ops / max(sempe.cycles, 1)
        estimate = ghostrider.estimate(sempe, base.cycles)
        ratios[workload] = estimate.slowdown / (sempe.cycles / base.cycles)
    denser = max(densities, key=densities.get)
    lighter = min(densities, key=densities.get)
    assert ratios[denser] > ratios[lighter]
