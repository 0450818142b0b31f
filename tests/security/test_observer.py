"""Observation collection plumbing."""

import hashlib

import pytest

from repro.lang.compiler import compile_source
from repro.security.observer import (
    TraceObserver,
    collect_observation,
    poke_secrets,
)

from tests.conftest import leak_candidates

SOURCE = """
secret int key = 1;
int result = 0;
void main() {
  int buf[8];
  for (int i = 0; i < 8; i = i + 1) { buf[i] = i; }
  result = buf[3];
}
"""


def test_collect_observation_fields(fast_config):
    compiled = compile_source(SOURCE, mode="plain")
    trace = collect_observation(compiled.program, defense="plain",
                                config=fast_config)
    assert trace.cycles > 0
    assert trace.instruction_count > 0
    assert len(trace.pc_digest) == 64
    assert len(trace.mem_digest) == 64
    channels = trace.channels()
    assert set(channels) == {
        "timing", "instruction-count", "control-flow", "memory-address",
        "cache-state", "branch-predictor", "transient-memory",
    }
    # Speculation is off by default, so the transient observable is the
    # constant empty-stream digest.
    assert channels["transient-memory"] == hashlib.sha256().hexdigest()


def test_digest_matches_streams(fast_config):
    """The digests hash exactly the committed PC stream and its
    line-granular data-address stream, as the reference engine emits
    them."""
    from repro.arch.executor import Executor

    compiled = compile_source(SOURCE, mode="plain")
    trace = collect_observation(compiled.program, defense="plain",
                                config=fast_config)
    line_bytes = fast_config.hierarchy.dl1.line_bytes
    pcs, lines = hashlib.sha256(), hashlib.sha256()
    n_lines = 0
    for record in Executor(compiled.program).run():
        if record.kind != "inst":
            continue
        pcs.update(record.pc.to_bytes(8, "little"))
        if record.mem_addr is not None:
            lines.update((record.mem_addr // line_bytes).to_bytes(8, "little"))
            n_lines += 1
    assert n_lines > 0      # the array writes
    assert trace.pc_digest == pcs.hexdigest()
    assert trace.mem_digest == lines.hexdigest()


def test_observer_granularity_is_cache_lines():
    observer = TraceObserver(line_bytes=64)

    class FakeRecord:
        kind = "inst"
        pc = 0
        mem_addr = 0

    record_a = FakeRecord()
    record_a.mem_addr = 0
    record_b = FakeRecord()
    record_b.mem_addr = 63
    observer.observe(record_a)
    observer.observe(record_b)
    same_line = hashlib.sha256((0).to_bytes(8, "little") * 2).hexdigest()
    assert observer.mem_digest == same_line


def test_secret_poke_changes_functional_result(fast_config):
    compiled = compile_source("""
    secret int key = 1;
    int result = 0;
    void main() { result = key * 2; }
    """, mode="plain")
    trace_a = collect_observation(compiled.program, defense="plain",
                                  secret_values={"key": 3},
                                  config=fast_config)
    trace_b = collect_observation(compiled.program, defense="plain",
                                  secret_values={"key": 4},
                                  config=fast_config)
    # Straight-line data flow: no observable difference...
    assert trace_a.cycles == trace_b.cycles
    assert trace_a.pc_digest == trace_b.pc_digest


# --------------------------------------------------------------------------
# Hermeticity: every trial gets a fresh machine.  Residue from one run
# (trained prefetcher tables, predictor state, resident cache lines)
# must never reach the next — the multi-trial attack engine's bedrock.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ("reference", "fast"))
@pytest.mark.parametrize("mode", ("plain", "sempe"))
def test_observation_trials_are_hermetic(engine, mode, fast_config):
    """The same (program, secret) twice back-to-back yields identical
    observations — every digest, counter, and occupancy vector."""
    from repro.workloads.registry import get_workload

    spec = get_workload("memcmp")
    compiled = spec.compile(mode, **spec.leak_resolve())
    secret = leak_candidates(spec)[0]
    first = collect_observation(compiled.program, defense=mode,
                                secret_values={spec.secret: secret},
                                config=fast_config, engine=engine)
    second = collect_observation(compiled.program, defense=mode,
                                 secret_values={spec.secret: secret},
                                 config=fast_config, engine=engine)
    assert first == second


@pytest.mark.parametrize("engine", ("reference", "fast"))
def test_interleaved_secrets_leave_no_residue(engine, fast_config):
    """A different secret in between must not perturb a repeated run:
    trained StridePrefetcher/TAGE state from trial N-1 cannot show up
    in trial N's observation."""
    from repro.workloads.registry import get_workload

    spec = get_workload("memcmp")
    compiled = spec.compile("plain", **spec.leak_resolve())
    values = leak_candidates(spec)
    baseline = collect_observation(compiled.program, defense="plain",
                                   secret_values={spec.secret: values[0]},
                                   config=fast_config, engine=engine)
    collect_observation(compiled.program, defense="plain",
                        secret_values={spec.secret: values[-1]},
                        config=fast_config, engine=engine)
    repeated = collect_observation(compiled.program, defense="plain",
                                   secret_values={spec.secret: values[0]},
                                   config=fast_config, engine=engine)
    assert repeated == baseline


def test_cache_occupancy_recorded_and_engine_independent(fast_config):
    compiled = compile_source(SOURCE, mode="plain")
    traces = [collect_observation(compiled.program, defense="plain",
                                  config=fast_config, engine=engine)
              for engine in ("reference", "fast")]
    assert traces[0].cache_occupancy == traces[1].cache_occupancy
    il1, dl1, l2 = traces[0].cache_occupancy
    assert sum(il1) > 0 and sum(dl1) > 0 and sum(l2) > 0
    assert len(dl1) == fast_config.hierarchy.dl1.n_sets


def test_poke_secrets_word_encoding():
    """Scalars are masked to one 8-byte word; arrays fill consecutive
    words — the single encoding both attacker and victim use."""
    from repro.mem.memory import FlatMemory

    memory = FlatMemory()
    symbols = {"k": 0x100, "arr": 0x200}
    poke_secrets(memory, symbols, {"k": -1, "arr": (1, -2, 3)})
    assert memory.load(0x100, 8) == (1 << 64) - 1
    assert memory.load(0x200, 8) == 1
    assert memory.load(0x208, 8) == (1 << 64) - 2
    assert memory.load(0x210, 8) == 3
    assert memory.load(0x218, 8) == 0        # nothing past the array


@pytest.mark.parametrize("engine", ("fast", "reference", "batch"))
@pytest.mark.parametrize("mechanism", ("archrs", "phyrs", "lrs"))
def test_observed_cycles_follow_snapshot_mechanism(mechanism, engine):
    """The snapshot mechanism's drain scaling and LRS rename penalty
    reach an observation's timing exactly as they reach simulate()."""
    if engine == "batch":
        pytest.importorskip("numpy")
    from repro.core.engine import simulate
    from repro.uarch.config import MachineConfig
    from repro.workloads.microbench import MicrobenchSpec, compile_microbench

    program = compile_microbench(
        MicrobenchSpec("ones", w=2, iters=4), "sempe").program
    config = MachineConfig(snapshot_mechanism=mechanism)
    report = simulate(program, defense="sempe", config=config,
                      engine=engine)
    observation = collect_observation(program, defense="sempe",
                                      config=config, engine=engine)
    assert observation.cycles == report.cycles
