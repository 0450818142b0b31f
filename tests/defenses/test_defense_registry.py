"""The protection-scheme registry: registration, lookup, identity."""

import json

import pytest

from repro.defenses import registry
from repro.defenses.registry import (
    DefenseError,
    DefenseSpec,
    defense_names,
    get_defense,
    iter_defenses,
    sempe_machine,
)
from repro.uarch.config import MachineConfig


BUILTINS = ("plain", "sempe", "cte", "fence", "cache-partition",
            "cache-randomize", "flush-local")


def test_builtins_registered():
    names = defense_names()
    for name in BUILTINS:
        assert name in names
    # The legacy mode axis is a strict subset of the defense axis.
    for mode in ("plain", "sempe", "cte"):
        assert mode in names


def test_unknown_defense_rejected():
    with pytest.raises(DefenseError, match="unknown defense"):
        get_defense("rot13")


def test_get_defense_returns_a_spec_as_is():
    spec = get_defense("fence")
    assert get_defense(spec) is spec


def test_duplicate_name_rejected():
    with pytest.raises(DefenseError, match="already registered"):
        registry.register(DefenseSpec(
            name="plain", title="again", compile_mode="plain"))


def test_unknown_compile_mode_rejected():
    with pytest.raises(DefenseError, match="unknown compile mode"):
        registry.register(DefenseSpec(
            name="dummy-transform", title="x", compile_mode="turbo"))
    assert "dummy-transform" not in defense_names()


def test_unknown_protected_channel_rejected():
    with pytest.raises(DefenseError, match="unknown channels"):
        registry.register(DefenseSpec(
            name="dummy-chan", title="x", compile_mode="plain",
            protects=("psychic",)))
    assert "dummy-chan" not in defense_names()


def test_transient_memory_is_a_claimable_channel():
    """Defense claims validate against ALL_CHANNELS, not just the
    architectural set — the fence claims the transient channel."""
    from repro.security.leakage import ALL_CHANNELS, CHANNELS

    assert "transient-memory" in ALL_CHANNELS
    assert "transient-memory" not in CHANNELS
    assert get_defense("fence").protects_channel("transient-memory")
    # The architectural schemes deliberately do NOT claim it.
    for name in ("sempe", "cte"):
        assert not get_defense(name).protects_channel(
            "transient-memory"), name


def test_sempe_machine_helper():
    # The one helper behind machine selection: only the sempe scheme
    # runs on the dual-path hardware.
    assert sempe_machine("sempe") is True
    for name in defense_names():
        if name != "sempe":
            assert sempe_machine(name) is False, name


def test_legacy_modes_compile_as_themselves():
    for mode in ("plain", "sempe", "cte"):
        assert get_defense(mode).compile_mode == mode


def test_describe_is_json_safe():
    for spec in iter_defenses():
        described = spec.describe()
        assert json.loads(json.dumps(described)) == described


def test_fingerprints_distinct_and_stable():
    prints = {spec.name: spec.fingerprint() for spec in iter_defenses()}
    assert len(set(prints.values())) == len(prints)
    for spec in iter_defenses():
        assert spec.fingerprint() == prints[spec.name]


def test_fingerprint_is_the_store_fingerprint():
    """The registry hashes locally (no harness import) but must agree
    with the result store's content address of the same descriptor."""
    from repro.harness.store import fingerprint

    for spec in iter_defenses():
        assert spec.fingerprint() == fingerprint(spec.describe())


def test_unknown_override_path_rejected():
    spec = DefenseSpec(name="x", title="x", compile_mode="plain",
                       config_overrides={"hierarchy.dl9.assoc": 2})
    with pytest.raises(DefenseError, match="unknown config path"):
        spec.apply_config(MachineConfig())


def test_apply_config_reaches_nested_fields():
    spec = get_defense("cache-partition")
    derived = spec.apply_config(MachineConfig())
    assert derived.hierarchy.dl1.protected_ways == 1
    assert derived.hierarchy.il1.protected_ways == 1
    assert derived.hierarchy.l2.protected_ways == 1


def test_apply_config_identity_when_no_overrides():
    config = MachineConfig()
    assert get_defense("sempe").apply_config(config) is config
