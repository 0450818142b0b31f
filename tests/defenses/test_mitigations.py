"""Empirical acceptance for the four new mitigations.

Each scheme must drive its *targeted* attack — an adversary exploiting
a channel the scheme declares protected — to chance, on both engines,
while the same adversary recovers the key on the unprotected baseline.
The noninterference side is the leak matrix's claim, judged here on
representative victims for the channels each scheme declares.
"""

import pytest

from repro.security.attackers import (
    AttackSpec,
    execute_attack,
    expected_verdict,
)
from repro.security.leakage import victim_report
from repro.uarch.config import fast_functional

pytestmark = pytest.mark.attack

# One targeted campaign per new mitigation: (workload, attacker,
# defense).  The attacker's channel is declared-protected by the
# defense, so the expected verdict is "chance"; on plain the same pair
# must recover the key.
TARGETED = (
    ("table_lookup", "predictor-probe", "fence"),
    ("memcmp", "prime-probe", "cache-partition"),
    ("memcmp", "prime-probe", "cache-randomize"),
    ("memcmp", "prime-probe", "flush-local"),
    ("table_lookup", "predictor-probe", "flush-local"),
)


@pytest.mark.parametrize("workload,attacker,defense", TARGETED)
def test_targeted_attack_at_chance_baseline_recovered(workload, attacker,
                                                      defense):
    spec = AttackSpec(workload, attacker, trials=16)
    assert expected_verdict(attacker, defense) == "chance"
    baseline = execute_attack(spec, "plain", engine="fast")
    assert baseline.verdict == "recovered", baseline.summary()
    protected = execute_attack(spec, defense, engine="fast")
    assert protected.verdict == "chance", protected.summary()
    # A defeated attacker recovers at coin-flip rates, not most bits.
    assert protected.bits_recovered < protected.bits_total


@pytest.mark.slow
@pytest.mark.parametrize("workload,attacker,defense", TARGETED)
def test_targeted_attack_engine_agreement(workload, attacker, defense):
    """The reference engine reaches the same verdicts as the fast one."""
    spec = AttackSpec(workload, attacker, trials=16)
    for mode in ("plain", defense):
        fast = execute_attack(spec, mode, engine="fast")
        reference = execute_attack(spec, mode, engine="reference")
        assert fast.verdict == reference.verdict, (mode, fast.summary())


@pytest.mark.slow
@pytest.mark.parametrize("defense,workload", [
    ("fence", "memcmp"),          # public loops inside the secret path
    ("fence", "modexp"),          # the mulmod block, per key bit
    ("fence", "table_lookup"),
    ("cache-partition", "memcmp"),
    ("cache-partition", "modexp"),
    ("cache-randomize", "memcmp"),
    ("cache-randomize", "modexp"),
    ("flush-local", "memcmp"),
    ("flush-local", "table_lookup"),
])
def test_declared_protected_channels_closed(defense, workload):
    """Every channel a scheme declares protected is empirically closed
    on representative victims — including the ones whose secret paths
    contain public branches (the case a naive per-branch fence fails):
    the leak matrix's claim holds on the pair's verify cell.  The claim
    reads only the channels the victim declares; the scheme may leak
    no channel it protects, declared or not."""
    from repro.defenses import get_defense
    from repro.harness import render_cells, verify_cells

    result = render_cells("leakmatrix", verify_cells((defense,),
                                                     (workload,)))
    assert "FAIL" not in [v.status for v in result.claims], result.claims
    leaking = result.series[workload]["defenses"][defense]["leaking"]
    broken = [c for c in get_defense(defense).protects if c in leaking]
    assert not broken, (defense, workload, broken)


@pytest.mark.slow
def test_plain_still_leaks_targeted_channels():
    """The mitigations close channels because they act, not because the
    channels went quiet: the unprotected baseline still leaks them."""
    report = victim_report("memcmp", "plain", config=fast_functional())
    assert "cache-state" in report.leaking_channels()
    report = victim_report("table_lookup", "plain",
                           config=fast_functional())
    assert "branch-predictor" in report.leaking_channels()


def test_defense_overhead_is_real():
    """Each mitigation costs cycles on a victim it protects (there is
    no free lunch — the defense matrix's cost column is non-trivial)."""
    from repro.core.engine import simulate
    from repro.defenses import get_defense
    from repro.workloads.registry import get_workload

    workload = get_workload("memcmp")
    config = fast_functional()
    cycles = {}
    for name in ("plain", "fence", "flush-local", "sempe"):
        program = workload.compile(get_defense(name).compile_mode).program
        cycles[name] = simulate(program, defense=name,
                                config=config).cycles
    assert cycles["fence"] > cycles["plain"]
    assert cycles["flush-local"] > cycles["plain"]
    assert cycles["sempe"] > cycles["plain"]
