"""The campaign memo is transparent.

:func:`repro.security.leakage.victim_campaign` serves a campaign it has
profiled before from a process-wide memo instead of running the victim
again.  A served campaign must equal a fresh, memo-off one for every
registered victim on both memoized engines; it must be isolated from
its callers' mutations; the ``reference`` oracle must never read or
fill it; a change to any input the campaign reads must miss; and a
served campaign compiles its victim only when a caller reads it.
"""

import pytest

from repro.harness import clear_cache
from repro.security import leakage
from repro.security.attackers import AttackSpec, attack_config, execute_attack
from repro.security.leakage import campaign_info, victim_campaign
from repro.workloads import registry
from repro.workloads.registry import workload_names

pytestmark = pytest.mark.parity

# gcd's campaign with its candidates pinned, so that a leak parameter
# changes the victim's source and nothing else.
BASE = dict(params={"other": 40902}, secret_values=[0, 12, 35],
            engine="fast")


@pytest.fixture(autouse=True)
def _cold_memo():
    """Every test starts and ends with a cold, enabled campaign memo."""
    clear_cache()
    leakage.set_memo_enabled(True)
    yield
    clear_cache()
    leakage.set_memo_enabled(True)


def _fresh(*args, **kwargs):
    """The campaign's traces with the memo off."""
    previous = leakage.set_memo_enabled(False)
    try:
        return victim_campaign(*args, **kwargs).traces
    finally:
        leakage.set_memo_enabled(previous)


@pytest.mark.parametrize("engine", ("fast", "batch"))
@pytest.mark.parametrize("mode", ("plain", "sempe"))
@pytest.mark.parametrize("name", workload_names())
def test_served_campaign_equals_a_fresh_one(name, mode, engine):
    if engine == "batch":
        pytest.importorskip("numpy")
    config = attack_config()
    stored = victim_campaign(name, mode, config=config, engine=engine)
    served = victim_campaign(name, mode, config=config, engine=engine)
    assert campaign_info() == {"hits": 1, "misses": 1, "entries": 1}
    fresh = _fresh(name, mode, config=config, engine=engine)
    assert served.traces == stored.traces == fresh
    assert served.candidates == stored.candidates


def test_mutating_traces_leaves_the_memo_unchanged():
    """Neither the traces a miss returns nor those a hit serves share
    state with the stored entry."""
    fresh = _fresh("gcd", "plain", **BASE)
    stored = victim_campaign("gcd", "plain", **BASE).traces
    stored[0].cycles += 1
    served = victim_campaign("gcd", "plain", **BASE).traces
    assert served == fresh
    served[0].cache_occupancy = ()
    served[1].pc_digest = "poisoned"
    served.pop()
    assert victim_campaign("gcd", "plain", **BASE).traces == fresh
    assert campaign_info()["hits"] == 2


def test_reference_campaigns_are_never_served_or_stored(monkeypatch):
    profiled = []
    collect = leakage.collect_observations_batch

    def recording(program, secret_sets, **kwargs):
        profiled.append(kwargs["engine"])
        return collect(program, secret_sets, **kwargs)

    monkeypatch.setattr(leakage, "collect_observations_batch", recording)
    reference = dict(BASE, engine="reference")
    victim_campaign("gcd", "plain", **reference)
    assert campaign_info() == {"hits": 0, "misses": 0, "entries": 0}
    victim_campaign("gcd", "plain", **BASE)
    again = victim_campaign("gcd", "plain", **reference)
    assert profiled == ["reference", "fast", "reference"]
    assert campaign_info() == {"hits": 0, "misses": 1, "entries": 1}
    assert again.traces == _fresh("gcd", "plain", **BASE)


def test_memo_off_neither_serves_nor_stores():
    victim_campaign("gcd", "plain", **BASE)
    leakage.set_memo_enabled(False)
    victim_campaign("gcd", "plain", **BASE)
    assert campaign_info() == {"hits": 0, "misses": 1, "entries": 1}
    leakage.set_memo_enabled(True)
    clear_cache()
    leakage.set_memo_enabled(False)
    victim_campaign("gcd", "plain", **BASE)
    assert campaign_info() == {"hits": 0, "misses": 0, "entries": 0}


def test_memo_round_trips_occupancy_exactly():
    """Entries keep per-set occupancy as bytes; a hit returns the same
    tuples of ints, counts that do not fit a byte included."""
    for occupancy in (((0, 1, 2), (255,), ()), ((256, 0), (1,), (2,))):
        served = leakage.unpack_occupancy(leakage.pack_occupancy(occupancy))
        assert served == occupancy
        assert all(type(level) is tuple for level in served)


def _bigger_rob():
    config = attack_config()
    config.rob_entries += 1
    return config


# One changed key input per row, over BASE on the attack machine.
CHANGES = {
    "leak-parameter": dict(params={"other": 40903}),
    "defense": dict(mode="sempe"),
    "machine": dict(config=_bigger_rob),
    "candidates": dict(secret_values=[0, 12, 36]),
    "max-instructions": dict(max_instructions=10_000_000),
    "engine": dict(engine="batch"),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_changing_one_key_input_misses(change):
    if change == "engine":
        pytest.importorskip("numpy")
    base = dict(BASE, mode="plain", config=attack_config)
    changed = dict(base, **CHANGES[change])

    def run(kwargs):
        kwargs = dict(kwargs)
        return victim_campaign("gcd", kwargs.pop("mode"),
                               config=kwargs.pop("config")(), **kwargs)

    run(base)
    run(changed)
    assert campaign_info() == {"hits": 0, "misses": 2, "entries": 2}
    run(base)
    run(changed)
    assert campaign_info() == {"hits": 2, "misses": 2, "entries": 2}


def test_clear_cache_empties_the_memo():
    victim_campaign("gcd", "plain", **BASE)
    victim_campaign("gcd", "plain", **BASE)
    assert campaign_info() == {"hits": 1, "misses": 1, "entries": 1}
    clear_cache()
    assert campaign_info() == {"hits": 0, "misses": 0, "entries": 0}
    victim_campaign("gcd", "plain", **BASE)
    assert campaign_info() == {"hits": 0, "misses": 1, "entries": 1}


def test_memo_is_bounded(monkeypatch):
    """Past CAMPAIGN_CAPACITY the least recently used campaign goes."""
    monkeypatch.setattr(leakage, "CAMPAIGN_CAPACITY", 1)
    victim_campaign("gcd", "plain", **BASE)
    victim_campaign("gcd", "sempe", **BASE)
    victim_campaign("gcd", "plain", **BASE)
    assert campaign_info() == {"hits": 0, "misses": 3, "entries": 1}


def _counting_compiler(monkeypatch) -> list:
    """Record every victim compile (each goes through the registry's
    ``compile_source``)."""
    compiles = []
    compile_source = registry.compile_source

    def counting(*args, **kwargs):
        compiles.append(kwargs.get("name"))
        return compile_source(*args, **kwargs)

    monkeypatch.setattr(registry, "compile_source", counting)
    return compiles


def test_an_attack_served_by_the_memo_never_compiles(monkeypatch):
    compiles = _counting_compiler(monkeypatch)
    spec = AttackSpec("memcmp", "prime-probe", trials=16)
    stored = execute_attack(spec, "plain")
    assert compiles == ["memcmp-plain"]
    served = execute_attack(spec, "plain")
    assert compiles == ["memcmp-plain"]
    assert campaign_info() == {"hits": 1, "misses": 1, "entries": 1}
    assert served == stored


def test_compiled_on_a_hit_equals_a_fresh_compile(monkeypatch):
    compiles = _counting_compiler(monkeypatch)
    stored = victim_campaign("gcd", "sempe", **BASE)
    served = victim_campaign("gcd", "sempe", **BASE)
    assert campaign_info()["hits"] == 1
    assert len(compiles) == 1
    assert served.compiled.program.listing() \
        == stored.compiled.program.listing()
    assert served.compiled.secrets == stored.compiled.secrets
    assert len(compiles) == 2
