"""The fast engine's serial campaigns share timing passes.

A campaign's serial lanes key each fast-engine stream by its timing
digest and share one pipeline pass per distinct digest, the way the
lockstep lanes of a batch do.  A shared lane must equal a fresh pipeline
pass, nothing may outlive the campaign, and the serial path must stay
free of numpy.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.engine import simulate
from repro.defenses import iter_defenses
from repro.harness import clear_cache
from repro.security import leakage
from repro.security.leakage import victim_report
from repro.security.observer import (
    collect_observation,
    collect_observations_batch,
)
from repro.uarch import batch_pipeline
from repro.uarch.config import fast_functional
from repro.workloads.registry import get_workload, iter_workloads

from tests.conftest import leak_candidates


@pytest.fixture(autouse=True)
def _cold_memo():
    """Every test starts and ends with zeroed pass counters and a cold,
    enabled campaign memo (a served campaign never reaches a
    pipeline)."""
    clear_cache()
    leakage.set_memo_enabled(True)
    yield
    clear_cache()
    leakage.set_memo_enabled(True)


@pytest.mark.parametrize("defense", ("plain", "sempe"))
def test_serial_campaign_lanes_equal_fresh_passes(defense):
    """gcd with the speculation window open: a batch campaign takes
    serial lanes, which share passes by stream digest.  Every lane
    equals a lone observation (timed afresh) and the reference oracle,
    the transient digest included."""
    spec = get_workload("gcd")
    program = spec.compile(defense, **spec.leak_resolve()).program
    config = fast_functional()
    config.speculation.enabled = True
    secret_sets = [{spec.secret: value} for value in leak_candidates(spec)]
    served = collect_observations_batch(program, secret_sets,
                                        defense=defense, config=config,
                                        engine="batch")
    info = batch_pipeline.memo_info()
    assert info["misses"] + info["shared"] == len(secret_sets)
    for lane, secret_values in enumerate(secret_sets):
        for engine in ("fast", "reference"):
            fresh = collect_observation(program, defense=defense,
                                        config=config,
                                        secret_values=secret_values,
                                        engine=engine)
            assert served[lane] == fresh, (lane, engine)


def test_simulate_counts_one_pass():
    """``simulate`` times its one lane through the lane core: one pass."""
    program = get_workload("memcmp").compile("sempe").program
    simulate(program, defense="sempe", config=fast_functional())
    assert batch_pipeline.memo_info()["misses"] == 1


def _channel_observations(report):
    return {name: dict(channel.observations)
            for name, channel in report.channels.items()}


@pytest.mark.slow
def test_verify_grid_reports_identical_with_memo_on_and_off():
    """Every victim x defense noninterference report of the verify grid
    (the leak-matrix machine) is identical served from the campaign
    memo and profiled with it off."""
    config = fast_functional()
    pairs = [(spec, defense.name) for spec in iter_workloads()
             for defense in iter_defenses()]
    for spec, name in pairs:
        victim_report(spec, name, config=config)
    cached = [_channel_observations(victim_report(spec, name,
                                                  config=config))
              for spec, name in pairs]
    assert leakage.campaign_info()["hits"] == len(pairs)
    assert batch_pipeline.memo_info()["shared"] > 0
    leakage.set_memo_enabled(False)
    for (spec, name), expected in zip(pairs, cached):
        uncached = _channel_observations(victim_report(spec, name,
                                                       config=config))
        assert uncached == expected, (spec.name, name)


def test_fast_serial_observations_never_import_numpy():
    """The serial fast path digests its streams without numpy, so a
    verify cell in a fresh interpreter never pays for importing it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys\n"
        "from repro.security.leakage import victim_report\n"
        "from repro.uarch.config import fast_functional\n"
        "report = victim_report('memcmp', 'sempe', config=fast_functional(),"
        " engine='fast')\n"
        "assert report.secure\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_long_streams_are_timed_as_they_stream(monkeypatch):
    """A stream longer than MEMO_STREAM_ROWS is not held for its
    digest: it is timed as it streams, sharing no pass, and observes
    exactly like the oracle."""
    from repro.security import observer

    monkeypatch.setattr(observer, "MEMO_STREAM_ROWS", 100)
    spec = get_workload("memcmp")
    program = spec.compile("sempe", **spec.leak_resolve()).program
    config = fast_functional()
    secret_sets = [{spec.secret: value} for value in leak_candidates(spec)]
    streamed = collect_observations_batch(program, secret_sets,
                                          config=config, engine="fast")
    assert batch_pipeline.memo_info()["misses"] == len(secret_sets)
    assert batch_pipeline.memo_info()["shared"] == 0
    assert streamed == collect_observations_batch(
        program, secret_sets, config=config, engine="reference")
