"""The statistical attack engine: registry, reports, and the matrix.

The slow acceptance test at the bottom is the PR's headline: every
applicable (victim, adversary) pair recovers the key on the baseline
machine and sits at chance under SeMPE, on both engines, with the
trials fanned out through the multiprocessing sweep pool.
"""

import dataclasses
import json
import pathlib

import pytest

pytestmark = pytest.mark.attack

from repro.security.attackers import (
    ATTACKERS,
    AttackReport,
    AttackSpec,
    applicable_attackers,
    attacker_names,
    execute_attack,
    get_attacker,
)
from repro.workloads.registry import get_workload, workload_names

SMOKE = AttackSpec("memcmp", "prime-probe", trials=16)

# Every report of the plain/sempe attack matrix, one JSON line per cell
# keyed "<AttackSpec.name>|<defense>|<engine>".  The fixture was
# recorded when flush-reload still observed the full line-address tuple
# and the permutation test hashed canonical observation keys on every
# shuffle; the digest observable and the int-coded test must reproduce
# it exactly.  Regenerate only for an intentional change to the attack
# engine:
#
#     PYTHONPATH=src python -c "
#     import json
#     from repro.harness.experiments import attacks_cells
#     from repro.security.attackers import execute_attack
#     reports = {f'{c.spec.name}|{c.mode}|{c.engine}': execute_attack(
#         c.spec, c.mode, engine=c.engine).to_dict()
#         for c in attacks_cells(('plain', 'sempe'))}
#     for key in sorted(reports):
#         print(json.dumps({'cell': key, **reports[key]}, sort_keys=True))
#     " > tests/security/golden/attack_matrix.jsonl
GOLDEN_MATRIX = pathlib.Path(__file__).parent / "golden" / "attack_matrix.jsonl"


def _golden_matrix() -> dict[str, dict]:
    reports = {}
    for line in GOLDEN_MATRIX.read_text().splitlines():
        report = json.loads(line)
        reports[report.pop("cell")] = report
    return reports


def _cell_key(spec: AttackSpec, mode: str, engine: str) -> str:
    return f"{spec.name}|{mode}|{engine}"


# --------------------------------------------------------------------------
# Registry mechanics (fast)
# --------------------------------------------------------------------------

def test_attacker_registry_contents():
    assert attacker_names() == ["branch-trace", "flush-reload",
                                "mistrain-reload", "predictor-probe",
                                "prime-probe", "timing"]
    for name, attacker in ATTACKERS.items():
        assert attacker.name == name
        assert attacker.channel
        assert attacker.description


def test_unknown_attacker_rejected():
    with pytest.raises(ValueError, match="unknown attacker"):
        get_attacker("psychic")


def test_applicability_follows_declared_channels():
    for workload in workload_names():
        spec = get_workload(workload)
        names = applicable_attackers(spec)
        assert names, workload        # every victim has >= 1 adversary
        for name in names:
            assert ATTACKERS[name].channel in spec.channels


def test_inapplicable_pair_rejected():
    # modexp does not declare memory-address (it has no secret-indexed
    # data accesses), so flush-reload must refuse to run against it.
    assert "memory-address" not in get_workload("modexp").channels
    with pytest.raises(ValueError, match="does not declare"):
        execute_attack(AttackSpec("modexp", "flush-reload"), "plain")


def test_attack_rejects_unknown_defense():
    # Any registered defense is attackable (the three-axis matrix);
    # an unregistered name must fail loudly before any simulation.
    with pytest.raises(ValueError, match="unknown defense"):
        execute_attack(SMOKE, "rot13")


def test_attack_rejects_statistically_meaningless_trials():
    # Below the floor even a fully leaking channel cannot reach ALPHA,
    # so a tiny campaign must fail loudly, not report a false "chance".
    with pytest.raises(ValueError, match="statistical floor"):
        AttackSpec("memcmp", "prime-probe", trials=8)


def test_attack_spec_names_are_distinct():
    base = AttackSpec("memcmp", "timing")
    assert AttackSpec("memcmp", "timing", trials=64).name != base.name
    assert AttackSpec("memcmp", "timing", seed=1).name != base.name
    assert AttackSpec("memcmp", "prime-probe").name != base.name
    assert AttackSpec("memcmp", "timing",
                      params={"n": 24}).name != base.name


# --------------------------------------------------------------------------
# One attack end to end (the CI smoke scenario)
# --------------------------------------------------------------------------

def test_prime_probe_recovers_memcmp_on_baseline():
    report = execute_attack(SMOKE, "plain", engine="fast")
    assert report.verdict == "recovered"
    assert report.success_rate >= 0.9
    assert report.p_value < 0.01
    assert report.key_bits == 16 and report.bits_total == 16


def test_prime_probe_at_chance_under_sempe():
    report = execute_attack(SMOKE, "sempe", engine="fast")
    assert report.verdict == "chance"
    assert report.p_value >= 0.01
    assert report.success_rate < 0.9
    # Under SeMPE the profiled channel carries no information at all.
    assert report.profiled_mi == 0.0


def test_attack_is_deterministic_per_seed():
    first = execute_attack(SMOKE, "plain", engine="fast")
    second = execute_attack(SMOKE, "plain", engine="fast")
    assert first == second
    reseeded = execute_attack(
        dataclasses.replace(SMOKE, seed=1), "plain", engine="fast")
    assert reseeded.verdict == first.verdict    # conclusions are stable


def test_attack_report_roundtrips_through_dict():
    report = execute_attack(SMOKE, "plain", engine="fast")
    assert AttackReport.from_dict(report.to_dict()) == report


def test_timing_attack_uses_welch_and_survives_jitter():
    spec = AttackSpec("memcmp", "timing", trials=16, jitter=8.0)
    report = execute_attack(spec, "plain", engine="fast")
    assert report.stat_kind == "welch-t"
    assert abs(report.statistic) >= 4.5       # clears the TVLA bar
    assert report.verdict == "recovered"


def test_workload_params_reach_the_victim():
    wide = AttackSpec("memcmp", "timing", trials=16, params={"n": 24})
    narrow = AttackSpec("memcmp", "timing", trials=16)
    wide_report = execute_attack(wide, "plain", engine="fast")
    narrow_report = execute_attack(narrow, "plain", engine="fast")
    assert wide_report.verdict == "recovered"
    # A longer secret means a longer class pair repr, not just a rerun.
    assert wide_report.pair != narrow_report.pair


def test_golden_covers_the_plain_sempe_matrix():
    from repro.harness import attacks_cells

    assert sorted(_golden_matrix()) == sorted(
        _cell_key(cell.spec, cell.mode, cell.engine)
        for cell in attacks_cells(("plain", "sempe")))


@pytest.mark.parametrize("key", sorted(
    key for key in _golden_matrix()
    if ("+flush-reload-" in key or "+prime-probe-" in key)
    and not key.startswith("djpeg+")
    or key.startswith(("modexp+timing-", "modexp+branch-trace-"))))
def test_fast_lane_attack_matches_golden(key):
    """Reports that must never move, checked on every push: every
    non-djpeg categorical attacker cell (the digest observable and the
    int-coded permutation test) and the paper's Fig. 1 attack, timing
    and branch-trace against modular exponentiation.  The djpeg cells
    run in the slow full-matrix test."""
    expected = _golden_matrix()[key]
    spec = AttackSpec(expected["workload"], expected["attacker"],
                      trials=expected["trials"], seed=expected["seed"])
    assert _cell_key(spec, expected["mode"], expected["engine"]) == key
    report = execute_attack(spec, expected["mode"], engine=expected["engine"])
    assert report.to_dict() == expected


# --------------------------------------------------------------------------
# The full matrix (the acceptance criterion) — slow lane
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_attack_matrix_full_acceptance():
    """Every victim x applicable adversary x engine: key recovered on
    the baseline, chance under SeMPE — batched through the sweep pool
    and rendered from the warmed cache, every report equal to the
    golden fixture.  (The legacy two-point axis; the new mitigations
    have their own acceptance suite in
    tests/defenses/test_mitigations.py.)"""
    from repro.harness import (
        attacks_cells,
        render_cells,
        run_sweep,
    )
    from repro.harness.sweep import SweepSpec

    from repro.harness.experiments import ATTACK_ENGINES

    defenses = ("plain", "sempe")
    cells = attacks_cells(defenses)
    # Shape: every mode and every engine for every applicable pair.
    pairs = {(cell.spec.workload, cell.spec.attacker) for cell in cells}
    assert {w for w, _a in pairs} == set(workload_names())
    assert len(cells) == len(defenses) * len(ATTACK_ENGINES) * len(pairs)

    run_sweep(SweepSpec("attack-matrix-test", cells), jobs=4)
    golden = _golden_matrix()
    for cell in cells:
        key = _cell_key(cell.spec, cell.mode, cell.engine)
        report = cell.run().report
        assert report.to_dict() == golden[key], key
    result = render_cells("attacks", cells)
    assert result.rows, "matrix must not be empty"
    assert "FAIL" not in [v.status for v in result.claims], result.claims
    # SeMPE's dual-path commit says nothing about the wrong path, so no
    # claim covers this cell: the transient channel stays open and the
    # adversary still recovers (the fence row of the spectre
    # experiment owns closure).
    assert result.series[("spectre", "mistrain-reload")]["defenses"][
        "sempe"] == "recovered"
