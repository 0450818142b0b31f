"""Fig. 7 microbenchmark generator."""

import pytest

from repro.arch.executor import Executor
from repro.arch.state import to_signed
from repro.core import simulate
from repro.workloads.microbench import (
    WORKLOADS, MicrobenchSpec, compile_microbench, microbench_source,
)


def sink_value(compiled, sempe):
    executor = Executor(compiled.program, sempe=sempe)
    executor.run_to_completion()
    return to_signed(
        executor.state.memory.load(compiled.program.symbols["sink"]))


def test_spec_validation():
    with pytest.raises(ValueError):
        MicrobenchSpec("nope", w=1)
    with pytest.raises(ValueError):
        MicrobenchSpec("fibonacci", w=-1)
    with pytest.raises(ValueError):
        MicrobenchSpec("fibonacci", w=1, variant="weird")


def test_source_structure_w3():
    spec = MicrobenchSpec("fibonacci", w=3, iters=2)
    source = microbench_source(spec)
    assert source.count("secret int s") == 3
    assert source.count("if (s") == 3


def test_static_sjmp_count_matches_w():
    """The paper: W sJMPs per iteration, W-1 nested."""
    for w in (1, 3, 5):
        spec = MicrobenchSpec("ones", w=w)
        compiled = compile_microbench(spec, "sempe")
        assert compiled.program.count_secure_branches() == w


def test_nesting_depth_is_w():
    spec = MicrobenchSpec("fibonacci", w=4, iters=1)
    compiled = compile_microbench(spec, "sempe")
    executor = Executor(compiled.program, sempe=True)
    executor.run_to_completion()
    assert executor.result.max_nesting == 4
    assert executor.result.secure_regions == 4


@pytest.mark.parametrize("workload", WORKLOADS)
def test_all_modes_agree_on_sink(workload):
    """baseline / SeMPE / CTE(oblivious) / ideal all compute the same
    architectural result (secrets are 0: workloads 1..W discarded)."""
    natural = MicrobenchSpec(workload, w=2, iters=1)
    oblivious = MicrobenchSpec(workload, w=2, iters=1, variant="oblivious")
    ideal = MicrobenchSpec(workload, w=2, iters=1, variant="unconditional")
    base_sink = sink_value(compile_microbench(natural, "plain"), False)
    sempe_sink = sink_value(compile_microbench(natural, "sempe"), True)
    cte_sink = sink_value(compile_microbench(oblivious, "cte"), False)
    assert base_sink == sempe_sink == cte_sink
    # The ideal variant *does* run all workloads (different sink), but
    # must at least run without error.
    sink_value(compile_microbench(ideal, "plain"), False)


def test_oblivious_quicksort_actually_sorts():
    """The odd-even network must produce the same result as quicksort."""
    natural = MicrobenchSpec("quicksort", w=1, iters=1,
                             variant="unconditional")
    oblivious_spec = MicrobenchSpec("quicksort", w=1, iters=1,
                                    variant="oblivious")
    # Compare via the unconditional (all bodies run) sinks: compile the
    # oblivious variant in plain mode so everything executes.
    natural_sink = sink_value(compile_microbench(natural, "plain"), False)
    # For the oblivious variant, poke the secret to 1 so the body runs.
    compiled = compile_microbench(oblivious_spec, "plain")
    executor = Executor(compiled.program, sempe=False)
    executor.state.memory.store(compiled.program.symbols["s1"], 1)
    executor.run_to_completion()
    oblivious_sink = to_signed(
        executor.state.memory.load(compiled.program.symbols["sink"]))
    # natural unconditional sink = body1 + body2 sums; oblivious with
    # s1=1 runs body1 + body2 as well (W=1: nested body + tail body).
    assert oblivious_sink == natural_sink


def test_queens_counts_solutions():
    """4-queens has exactly 2 solutions; both variants must find them."""
    for variant in ("natural", "oblivious"):
        spec = MicrobenchSpec("queens", w=1, iters=1, variant=variant,
                              size=4)
        compiled = compile_microbench(spec, "plain")
        executor = Executor(compiled.program, sempe=False)
        executor.state.memory.store(compiled.program.symbols["s1"], 1)
        executor.run_to_completion()
        sink = to_signed(
            executor.state.memory.load(compiled.program.symbols["sink"]))
        # sink = solutions(body1) + solutions(tail body) = 2 + 2.
        assert sink == 4, variant


def test_fibonacci_value():
    spec = MicrobenchSpec("fibonacci", w=0, iters=1, size=10)
    compiled = compile_microbench(spec, "plain")
    assert sink_value(compiled, False) == 55


def test_sempe_instruction_ratio_near_w_plus_1():
    spec = MicrobenchSpec("ones", w=4, iters=2)
    base = simulate(compile_microbench(spec, "plain").program, defense="plain")
    sempe = simulate(compile_microbench(spec, "sempe").program,
                     defense="sempe")
    ratio = sempe.instructions / base.instructions
    assert 4.0 < ratio < 6.0


def test_iterations_scale_work():
    small = MicrobenchSpec("fibonacci", w=1, iters=1)
    large = MicrobenchSpec("fibonacci", w=1, iters=4)
    base_small = simulate(compile_microbench(small, "plain").program,
                          defense="plain")
    base_large = simulate(compile_microbench(large, "plain").program,
                          defense="plain")
    assert base_large.instructions > 3 * base_small.instructions


def test_w_zero_has_no_secure_branches():
    spec = MicrobenchSpec("fibonacci", w=0, iters=1)
    compiled = compile_microbench(spec, "sempe")
    assert compiled.program.count_secure_branches() == 0
