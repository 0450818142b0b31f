"""The fast engine's serial observations go through the timing memo.

``collect_observation(engine="fast")`` keys each run by its timing
stream digest and serves repeated streams from the pipeline memo, the
same memo the batched path fills.  A memo hit must equal a fresh
pipeline pass, whichever path wrote the entry, and the serial path must
stay free of numpy.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.defenses import iter_defenses
from repro.security.leakage import clear_campaigns, victim_report
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
    """Every test starts and ends with a cold, enabled pipeline memo,
    and no campaign memoized above it (a served campaign never reaches
    the pipeline memo)."""
    clear_campaigns()
    batch_pipeline.clear_memo()
    batch_pipeline.set_memo_enabled(True)
    yield
    clear_campaigns()
    batch_pipeline.clear_memo()
    batch_pipeline.set_memo_enabled(True)


def _speculative_campaign(defense):
    """gcd on a machine with a speculation window: a batch campaign
    takes serial lanes, so both paths key the memo by the same serial
    stream digest."""
    spec = get_workload("gcd")
    program = spec.compile(defense, **spec.leak_resolve()).program
    config = fast_functional()
    config.speculation.enabled = True
    secret_sets = [{spec.secret: value} for value in leak_candidates(spec)]
    return program, config, secret_sets


def _fresh_batch(program, config, secret_sets, defense):
    batch_pipeline.set_memo_enabled(False)
    try:
        return collect_observations_batch(program, secret_sets,
                                          defense=defense, config=config,
                                          engine="batch")
    finally:
        batch_pipeline.set_memo_enabled(True)


@pytest.mark.parametrize("defense", ("plain", "sempe"))
def test_serial_entries_serve_batch_lookups_like_a_fresh_pass(defense):
    """Entries written by serial observations, served to a batch
    campaign's serial lanes, reproduce a memo-free batch run exactly —
    the transient digest included."""
    program, config, secret_sets = _speculative_campaign(defense)
    serial = [collect_observation(program, defense=defense, config=config,
                                  secret_values=secret_values,
                                  engine="fast")
              for secret_values in secret_sets]
    before = batch_pipeline.memo_info()
    served = collect_observations_batch(program, secret_sets,
                                        defense=defense, config=config,
                                        engine="batch")
    after = batch_pipeline.memo_info()
    assert after["hits"] - before["hits"] == len(secret_sets)
    assert after["misses"] == before["misses"]
    fresh = _fresh_batch(program, config, secret_sets, defense)
    assert served == fresh == serial


@pytest.mark.parametrize("defense", ("plain", "sempe"))
def test_batch_entries_serve_serial_lookups_like_a_fresh_pass(defense):
    """The converse: entries written by a batch campaign's serial lanes
    serve serial observations, equal to the reference engine's fresh
    pass."""
    program, config, secret_sets = _speculative_campaign(defense)
    collect_observations_batch(program, secret_sets, defense=defense,
                               config=config, engine="batch")
    before = batch_pipeline.memo_info()
    for secret_values in secret_sets:
        served = collect_observation(program, defense=defense,
                                     config=config,
                                     secret_values=secret_values,
                                     engine="fast")
        fresh = collect_observation(program, defense=defense,
                                    config=config,
                                    secret_values=secret_values,
                                    engine="reference")
        assert served == fresh, secret_values
    after = batch_pipeline.memo_info()
    assert after["hits"] - before["hits"] == len(secret_sets)
    assert after["misses"] == before["misses"]


def _channel_observations(report):
    return {name: dict(channel.observations)
            for name, channel in report.channels.items()}


@pytest.mark.slow
def test_verify_grid_reports_identical_with_memo_on_and_off():
    """Every victim x defense noninterference report of the verify grid
    (the leak-matrix machine) is identical with the memo on and off."""
    config = fast_functional()
    pairs = [(spec, defense.name) for spec in iter_workloads()
             for defense in iter_defenses()]
    cached = [_channel_observations(victim_report(spec, name,
                                                  config=config))
              for spec, name in pairs]
    assert batch_pipeline.memo_info()["hits"] > 0
    batch_pipeline.set_memo_enabled(False)
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
    """A stream longer than MEMO_STREAM_ROWS is not held for the memo:
    it is timed as it streams, and observes exactly like the oracle."""
    from repro.security import observer

    monkeypatch.setattr(observer, "MEMO_STREAM_ROWS", 100)
    spec = get_workload("memcmp")
    program = spec.compile("sempe", **spec.leak_resolve()).program
    config = fast_functional()
    secret_values = {spec.secret: leak_candidates(spec)[0]}
    streamed = collect_observation(program, config=config, engine="fast",
                                   secret_values=secret_values)
    assert batch_pipeline.memo_info()["entries"] == 0
    assert streamed == collect_observation(
        program, config=config, engine="reference",
        secret_values=secret_values)
