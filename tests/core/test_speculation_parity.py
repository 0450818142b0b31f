"""Engine parity with the speculation window enabled.

The wrong-path fork lives in two places — the reference executor and
the fast chunk loop — and the bit-identical contract extends to all of
it: reports (including the transient pipeline counters) and
observation traces (including the transient digest) must agree exactly
with ``speculation.enabled = True``, for the architectural victims and
for the spectre gadget itself.  The batch engine runs no lockstep lanes
with the window open: its campaigns
(:func:`~repro.security.observer.collect_observations_batch`) take
serial lanes, which must equal per-secret serial observations.
"""

import copy

import pytest

pytestmark = pytest.mark.parity

from repro.core.engine import simulate
from repro.security import collect_observation
from repro.security.observer import collect_observations_batch
from repro.workloads.registry import get_workload

ENGINES = ("reference", "fast", "batch")


def _spec_config(fast_config, window=32):
    config = copy.deepcopy(fast_config)
    config.speculation.enabled = True
    config.speculation.window = window
    return config


@pytest.mark.parametrize("mode", ["plain", "sempe", "fence"])
@pytest.mark.parametrize("name", ["gcd", "bsearch", "spectre"])
def test_reports_identical_across_engines(name, mode, fast_config):
    spec = get_workload(name)
    program = spec.compile(mode, **spec.resolve()).program
    config = _spec_config(fast_config)
    reports = [simulate(program, defense=mode, config=config,
                        engine=engine)
               for engine in ENGINES]
    assert reports[0] == reports[1] == reports[2], (name, mode)


@pytest.mark.parametrize("name", ["gcd", "spectre"])
def test_observations_identical_across_engines(name, fast_config):
    """The attacker's view — every digest, transient included — cannot
    depend on --engine with the window open."""
    spec = get_workload(name)
    params = spec.leak_resolve()
    config = _spec_config(fast_config)
    compiled = spec.compile("plain", **params)
    secret_sets = [{spec.secret: secret}
                   for secret in spec.secret_values(params)[:2]]
    batched = collect_observations_batch(
        compiled.program, secret_sets, defense="plain", config=config)
    for lane, secret_values in enumerate(secret_sets):
        serial = [collect_observation(
                      compiled.program, defense="plain",
                      secret_values=secret_values,
                      config=config, engine=engine)
                  for engine in ("reference", "fast")]
        assert serial[0] == serial[1], name
        assert batched[lane] == serial[0], name


def test_spectre_transient_digest_distinguishes_secrets(fast_config):
    """The channel itself: with the window open, different keys give
    different wrong-path line streams — on every engine identically —
    while all committed digests stay secret-independent."""
    spec = get_workload("spectre")
    params = spec.resolve()
    compiled = spec.compile("plain", **params)
    config = _spec_config(fast_config)
    traces = {}
    for key in (1, 5):
        traces[key] = collect_observation(
            compiled.program, defense="plain",
            secret_values={"key": key}, config=config, engine="fast")
    a, b = traces[1], traces[5]
    assert a.transient_digest != b.transient_digest
    assert a.pc_digest == b.pc_digest
    assert a.mem_digest == b.mem_digest
    assert a.cycles == b.cycles


@pytest.mark.parametrize("window", [4, 32])
def test_window_size_respected_identically(window, fast_config):
    """Shrinking the window changes what the wrong path reaches; every
    engine must agree on the cut."""
    spec = get_workload("spectre")
    program = spec.compile("plain", **spec.resolve()).program
    config = _spec_config(fast_config, window=window)
    reports = [simulate(program, defense="plain", config=config,
                        engine=engine)
               for engine in ENGINES]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].pipeline.transient_instructions > 0
