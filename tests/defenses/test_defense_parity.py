"""Golden parity: the runner reproduces direct simulation, the cte
scheme runs on the baseline machine, and both engines agree under every
defense."""

import pytest

from repro.core.engine import simulate
from repro.defenses import defense_names, get_defense
from repro.harness import clear_cache, run_microbench, run_workload
from repro.security.leakage import noninterference_report
from repro.security.observer import (
    collect_observation,
    collect_observations_batch,
)
from repro.workloads.microbench import MicrobenchSpec, compile_microbench
from repro.workloads.registry import WorkloadRunSpec, get_workload

pytestmark = pytest.mark.parity

MICRO = MicrobenchSpec("fibonacci", w=2, iters=2)


def test_cte_runs_on_the_baseline_machine():
    """The cte scheme is a compiler transform only: a cte-compiled
    program runs bit-identically under defense="cte" and "plain"."""
    spec = MicrobenchSpec("fibonacci", w=2, iters=2, variant="oblivious")
    program = compile_microbench(spec, "cte").program
    assert simulate(program, defense="cte").to_dict() == \
        simulate(program, defense="plain").to_dict()


@pytest.mark.parametrize("mode", ["plain", "sempe", "cte"])
def test_runner_path_matches_direct_simulation(mode):
    """run_workload through the defense registry = direct simulate."""
    clear_cache()
    workload = get_workload("gcd")
    result = run_workload(WorkloadRunSpec("gcd", workload.resolve()), mode)
    direct = simulate(workload.compile(mode).program, defense=mode)
    assert result.report.to_dict() == direct.to_dict()
    clear_cache()


@pytest.mark.parametrize("defense", sorted(defense_names()))
def test_engines_bit_identical_under_every_defense(defense):
    """The fast and reference engines agree for all seven schemes."""
    workload = get_workload("memcmp")
    program = workload.compile(get_defense(defense).compile_mode).program
    fast = simulate(program, defense=defense, engine="fast")
    reference = simulate(program, defense=defense, engine="reference")
    assert fast.to_dict() == reference.to_dict()


def test_default_defense_is_sempe():
    """simulate(program) keeps its historical meaning (SeMPE machine)."""
    program = compile_microbench(MICRO, "sempe").program
    assert simulate(program).to_dict() == \
        simulate(program, defense="sempe").to_dict()


ENTRY_POINTS = {
    "simulate": lambda program, *args, **kwargs:
        simulate(program, *args, **kwargs),
    "collect_observation": lambda program, *args, **kwargs:
        collect_observation(program, *args, **kwargs),
    "collect_observations_batch": lambda program, *args, **kwargs:
        collect_observations_batch(program, [None], *args, **kwargs),
    "noninterference_report": lambda program, *args, **kwargs:
        noninterference_report(program, "x", [0], *args, **kwargs),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_defense_is_the_only_machine_argument(entry):
    """No entry point takes the old sempe= bool, and the defense cannot
    be passed positionally."""
    call = ENTRY_POINTS[entry]
    program = compile_microbench(MICRO, "sempe").program
    with pytest.raises(TypeError):
        call(program, sempe=True)
    with pytest.raises(TypeError):
        call(program, "plain")


def test_microbench_runner_defense_cells_distinct():
    """Each defense addresses its own cache entry (no aliasing)."""
    clear_cache()
    cycles = {name: run_microbench(MICRO, name).cycles
              for name in ("plain", "fence", "flush-local")}
    assert cycles["fence"] > cycles["plain"]        # serialization cost
    assert cycles["flush-local"] > cycles["plain"]  # flush cost
    clear_cache()
