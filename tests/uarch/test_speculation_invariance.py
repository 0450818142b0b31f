"""Speculation-off invariance: the window must be invisible when off.

The transient-execution refactor threads a speculation knob through
the executors, the pipeline, and the observer.  The contract that kept
every pre-existing golden green is pinned here directly: with
``speculation.enabled = False`` (the default), reports, observation
traces, and raw chunk streams are byte-identical to a config that
never mentions speculation at all, the window size is irrelevant, the
transient digest is the constant hash-of-nothing, and the pipeline's
transient counters stay zero.
"""

import hashlib

import pytest

from repro.core.engine import simulate
from repro.security import collect_observation
from repro.security.observer import collect_observations_batch
from repro.uarch.config import MachineConfig, SpeculationConfig
from repro.workloads.microbench import MicrobenchSpec, compile_microbench
from repro.workloads.registry import get_workload

from tests.conftest import leak_candidates

EMPTY_DIGEST = hashlib.sha256().hexdigest()


def _off_config(fast_config, window=32):
    import copy

    config = copy.deepcopy(fast_config)
    config.speculation = SpeculationConfig(enabled=False, window=window)
    return config


def test_default_config_has_speculation_off():
    config = MachineConfig()
    assert config.speculation == SpeculationConfig(enabled=False,
                                                   window=32)


@pytest.mark.parametrize("mode", ["plain", "sempe", "fence"])
def test_reports_identical_with_explicit_off_config(mode, fast_config):
    spec = MicrobenchSpec("fibonacci", w=2, iters=1)
    program = compile_microbench(spec, mode).program
    baseline = simulate(program, defense=mode, config=fast_config,
                        engine="fast")
    explicit = simulate(program, defense=mode,
                        config=_off_config(fast_config), engine="fast")
    assert explicit == baseline


def test_window_size_irrelevant_when_disabled(fast_config):
    spec = MicrobenchSpec("quicksort", w=1, iters=1)
    program = compile_microbench(spec, "plain").program
    reports = [simulate(program, defense="plain",
                        config=_off_config(fast_config, window=window),
                        engine="fast")
               for window in (1, 32, 4096)]
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("name", ["gcd", "memcmp"])
def test_traces_identical_and_transient_empty(name, engine, fast_config):
    """The observation stream — the bytes every leak verdict and every
    attack calibration is computed from — does not move, and the
    transient channel observes the constant empty digest."""
    spec = get_workload(name)
    secret = leak_candidates(spec)[0]
    compiled = spec.compile("plain", **spec.leak_resolve())
    baseline = collect_observation(
        compiled.program, defense="plain",
        secret_values={spec.secret: secret},
        config=fast_config, engine=engine)
    explicit = collect_observation(
        compiled.program, defense="plain",
        secret_values={spec.secret: secret},
        config=_off_config(fast_config), engine=engine)
    assert explicit == baseline
    assert explicit.transient_digest == EMPTY_DIGEST


def test_batch_lanes_identical_and_transient_empty(fast_config):
    """The trial-batched collection path (attack calibration inputs)
    is equally invariant, lane for lane."""
    spec = get_workload("gcd")
    compiled = spec.compile("plain", **spec.leak_resolve())
    secret_sets = [{spec.secret: value}
                   for value in leak_candidates(spec)[:3]]
    baseline = collect_observations_batch(
        compiled.program, secret_sets, defense="plain",
        config=fast_config, engine="batch")
    explicit = collect_observations_batch(
        compiled.program, secret_sets, defense="plain",
        config=_off_config(fast_config), engine="batch")
    assert explicit == baseline
    assert all(trace.transient_digest == EMPTY_DIGEST
               for trace in explicit)


def test_chunk_streams_byte_identical_when_off(fast_config):
    """Below the observer: the raw TraceChunk columns contain no
    transient rows and do not change shape with the knob present."""
    from repro.arch.fast_executor import FastExecutor

    spec = get_workload("gcd")
    compiled = spec.compile("plain", **spec.leak_resolve())

    def chunks(config):
        executor = FastExecutor(compiled.program, sempe=False,
                                speculation=config.speculation)
        return [(tuple(chunk.pc[:chunk.n]),
                 tuple(chunk.addr[:chunk.n]),
                 tuple(chunk.taken[:chunk.n]))
                for chunk in executor.run_chunks(64)]

    baseline = chunks(fast_config)
    explicit = chunks(_off_config(fast_config))
    assert explicit == baseline
    # No transient rows (pc <= -4) anywhere in the stream.
    assert all(pc > -4 for stream in explicit for pc in stream[0])


def test_pipeline_transient_counters_zero_when_off(fast_config):
    spec = MicrobenchSpec("fibonacci", w=2, iters=1)
    program = compile_microbench(spec, "plain").program
    report = simulate(program, defense="plain",
                      config=_off_config(fast_config), engine="fast")
    assert report.pipeline.transient_instructions == 0
    assert report.pipeline.transient_accesses == 0
