"""Leak suites for the four new victims, on both engines.

The acceptance contract of the workload registry: for every new victim,
the unprotected baseline leaks (at least) its declared channels, and
the SeMPE machine produces observations indistinguishable across all
representative secret values — with identical verdicts from the
reference and the fast engine.
"""

import pytest

pytestmark = pytest.mark.slow

from repro.security import collect_observation, victim_report
from repro.workloads.registry import get_workload

from tests.conftest import leak_candidates

NEW_VICTIMS = ("memcmp", "table_lookup", "bsearch", "gcd")
ENGINES = ("reference", "fast")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", NEW_VICTIMS)
def test_baseline_leaks_declared_channels(name, engine, fast_config):
    spec = get_workload(name)
    report = victim_report(spec, "plain", config=fast_config, engine=engine)
    assert not report.secure
    leaking = set(report.leaking_channels())
    missing = set(spec.channels) - leaking
    assert not missing, (name, engine, missing)
    # And the leak is quantifiable: at least one full bit somewhere.
    assert max(report.channels[c].mutual_information
               for c in spec.channels) >= 1.0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", NEW_VICTIMS)
def test_sempe_indistinguishable(name, engine, fast_config):
    spec = get_workload(name)
    report = victim_report(spec, "sempe", config=fast_config, engine=engine)
    assert report.secure, (name, engine, report.leaking_channels())
    for channel in report.channels.values():
        assert channel.mutual_information == 0.0


@pytest.mark.parametrize("name", NEW_VICTIMS)
def test_cte_also_closes_channels(name, fast_config):
    """The FaCT-style rewrite is the software baseline; it must be
    secure too (at much higher cost, per the overhead experiments)."""
    spec = get_workload(name)
    report = victim_report(spec, "cte", config=fast_config)
    assert report.secure, (name, report.leaking_channels())


@pytest.mark.parametrize("name", NEW_VICTIMS)
def test_observations_identical_across_engines(name, fast_config):
    """Engine parity extends to the attacker's view: every digest and
    counter of the observation trace matches between engines, so leak
    verdicts can never depend on --engine."""
    spec = get_workload(name)
    params = spec.leak_resolve()
    secret = leak_candidates(spec)[0]
    for mode in ("plain", "sempe"):
        compiled = spec.compile(mode, **params)
        traces = [
            collect_observation(compiled.program, defense=mode,
                                secret_values={spec.secret: secret},
                                config=fast_config, engine=engine)
            for engine in ENGINES
        ]
        assert traces[0] == traces[1], (name, mode)
