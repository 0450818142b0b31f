"""Functional correctness of every registered victim, on both engines.

For each workload, each declared compiler mode, and each representative
secret value, the simulated result global must equal the spec's Python
reference — on the reference executor and the fast executor alike.
"""

import pytest

from repro.arch.executor import Executor
from repro.arch.fast_executor import FastExecutor
from repro.workloads.registry import get_workload, workload_names
from repro.workloads.bsearch import bsearch_reference, search_table
from repro.workloads.gcd import gcd_reference, worst_case_rounds
from repro.workloads.memcmp import guess_pattern, memcmp_reference
from repro.workloads.table_lookup import sbox_table, table_lookup_reference

from tests.conftest import leak_candidates

MASK64 = (1 << 64) - 1

NEW_VICTIMS = ("memcmp", "table_lookup", "bsearch", "gcd")


def run_victim(spec, mode, secret_value, engine, **overrides):
    """Compile at the leak parameters, poke the secret, run, read result."""
    params = spec.leak_resolve(overrides)
    compiled = spec.compile(mode, **params)
    sempe = mode == "sempe"
    executor_cls = FastExecutor if engine == "fast" else Executor
    executor = executor_cls(compiled.program, sempe=sempe)
    base = compiled.program.symbols[spec.secret]
    values = (secret_value if isinstance(secret_value, (list, tuple))
              else [secret_value])
    for index, element in enumerate(values):
        executor.state.memory.store(base + 8 * index, element & MASK64, 8)
    if engine == "fast":
        for _chunk in executor.run_chunks():
            pass
    else:
        executor.run_to_completion()
    return executor.state.memory.load(compiled.program.symbols[spec.result])


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("mode", ["plain", "sempe", "cte"])
@pytest.mark.parametrize("name", NEW_VICTIMS)
def test_new_victims_match_reference(name, mode, engine):
    spec = get_workload(name)
    params = spec.leak_resolve()
    for secret in leak_candidates(spec):
        expected = spec.reference(params, secret) & MASK64
        assert run_victim(spec, mode, secret, engine) == expected, (
            name, mode, engine, secret)


@pytest.mark.parametrize("name", sorted(workload_names()))
def test_every_registered_reference_agrees_on_sempe(name):
    """All six victims (including the ported modexp and djpeg) produce
    the reference result under the SeMPE transform."""
    spec = get_workload(name)
    params = spec.leak_resolve()
    secret = leak_candidates(spec)[-1]
    expected = spec.reference(params, secret) & MASK64
    assert run_victim(spec, "sempe", secret, "fast") == expected


# --------------------------------------------------------------------------
# Reference-model spot checks (the references themselves)
# --------------------------------------------------------------------------


def test_memcmp_reference_semantics():
    guess = guess_pattern(8)
    assert memcmp_reference(guess, n=8) == 1
    assert memcmp_reference(guess[:-1] + [7], n=8) == 0
    assert memcmp_reference([0] * 8, n=8) == 0


def test_gcd_reference_equals_math_gcd():
    import math

    for u in (0, 1, 12, 35, 40902, 65535, 46368):
        assert gcd_reference(u, bits=16, other=40902) == \
            math.gcd(u & 0xFFFF, 40902)
    assert worst_case_rounds(16) >= 24   # covers the Fibonacci worst case


def test_bsearch_reference_prefix_behaviour():
    table = search_table(16)
    # Keys below the first element converge to position 0.
    assert bsearch_reference(0, entries=16) == 0
    # Keys above the last element walk off the right edge.
    assert bsearch_reference(table[-1] + 10, entries=16) == 16
    # A present key lands just past its slot (lo = index + 1).
    assert bsearch_reference(table[5], entries=16) == 6


def test_table_lookup_reference_chains():
    table = sbox_table(16, 40503)
    first = table_lookup_reference(0, entries=16, rounds=1)
    assert first >= table[0] * 3      # at least the first hop happened
    # Different start indices give different chains.
    assert table_lookup_reference(3, entries=16) != \
        table_lookup_reference(11, entries=16)
