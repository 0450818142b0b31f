"""Golden batch parity: every lane is byte-identical to a serial run.

The serial fast engine (itself pinned bit-exact to the reference by
``test_engine_parity.py``) is the oracle here: a ``BatchExecutor``
running N trials must produce, for **every** lane, the same
functional result and final registers, the same chunked trace (row for
row, including drain rows), and the same attacker-observable trace —
under every registered defense — as N independent serial runs.
"""

import dataclasses

import pytest

pytestmark = pytest.mark.parity

np = pytest.importorskip("numpy")

from repro.arch.batch import BatchExecutor
from repro.arch.executor import InstructionLimitError
from repro.arch.fast_executor import FastExecutor
from repro.core.engine import simulate
from repro.security.observer import (
    collect_observation,
    collect_observations_batch,
    poke_secrets,
)
from repro.workloads.microbench import (
    MicrobenchSpec,
    WORKLOADS,
    compile_microbench,
)
from repro.workloads.registry import get_workload

from tests.conftest import leak_candidates


# --------------------------------------------------------------------------
# simulate(): engine="batch" outside a campaign is the serial fast run
# (stored cell descriptors keep "batch", so it must stay accepted)
# --------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["sempe", "plain"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulate_batch_equals_fast(workload, mode, fast_config):
    spec = MicrobenchSpec(workload, w=2, iters=1)
    program = compile_microbench(spec, mode).program
    fast = simulate(program, defense=mode, config=fast_config,
                    engine="fast")
    batch = simulate(program, defense=mode, config=fast_config,
                     engine="batch")
    assert batch == fast


@pytest.mark.parametrize("mechanism", ["archrs", "phyrs", "lrs"])
def test_simulate_batch_snapshot_mechanisms(mechanism, fast_config):
    """PhyRS exercises the drain-scaling path, LRS the per-instruction
    rename-overhead path — both must match the fast run under "batch"."""
    fast_config.snapshot_mechanism = mechanism
    spec = MicrobenchSpec("fibonacci", w=2, iters=1)
    program = compile_microbench(spec, "sempe").program
    fast = simulate(program, defense="sempe", config=fast_config,
                    engine="fast")
    batch = simulate(program, defense="sempe", config=fast_config,
                     engine="batch")
    assert batch == fast


@pytest.mark.parametrize("budget", [1, 37, 500])
def test_simulate_batch_fuel_parity(budget, fast_config):
    spec = MicrobenchSpec("fibonacci", w=2, iters=1)
    program = compile_microbench(spec, "sempe").program
    errors = []
    for engine in ("fast", "batch"):
        with pytest.raises(InstructionLimitError) as err:
            simulate(program, defense="sempe", config=fast_config,
                     max_instructions=budget, engine=engine)
        errors.append(err.value)
    fast, batch = errors
    assert batch.executed == fast.executed == budget
    assert str(batch) == str(fast)


# --------------------------------------------------------------------------
# Lane-exact chunk streams on a diverging campaign
# --------------------------------------------------------------------------

def _campaign(n_lanes, mode="sempe"):
    """memcmp with per-lane secrets: lanes diverge on the baseline
    machine and stay in lockstep under SeMPE."""
    spec = get_workload("memcmp")
    program = spec.compile(mode).program
    sample = leak_candidates(spec)[0]
    secrets = [
        tuple((lane * 29 + index * 7) % 256 for index in range(len(sample)))
        for lane in range(n_lanes)
    ]
    return spec, program, secrets


def _serial_chunks(program, sempe, secret, symbols, secret_name):
    executor = FastExecutor(program, sempe=sempe)
    poke_secrets(executor.state.memory, symbols, {secret_name: secret})
    rows = []
    for chunk in executor.run_chunks(64):
        rows.extend(zip(chunk.pc, chunk.addr, chunk.taken))
    return rows, executor


@pytest.mark.parametrize("mode", ["sempe", "plain"])
def test_lane_chunks_match_serial_row_for_row(mode):
    sempe = mode == "sempe"
    spec, program, secrets = _campaign(5, mode)
    executor = BatchExecutor(program, sempe=sempe, n_lanes=len(secrets))
    for lane, secret in enumerate(secrets):
        poke_secrets(executor.memory.lane_view(lane), program.symbols,
                     {spec.secret: secret})
    executor.run(line_bytes=64)

    for lane, secret in enumerate(secrets):
        serial_rows, serial = _serial_chunks(
            program, sempe, secret, program.symbols, spec.secret)
        batch_rows = []
        for chunk in executor.lane_chunks(lane):
            batch_rows.extend(zip(chunk.pc, chunk.addr, chunk.taken))
        assert batch_rows == serial_rows, f"lane {lane} trace diverged"
        assert executor.lane_result(lane) == serial.result, lane
        assert executor.lane_regs(lane) == serial.state.snapshot_regs(), lane


# --------------------------------------------------------------------------
# Attacker observations under every registered defense
# --------------------------------------------------------------------------

def test_observations_match_serial_under_every_defense():
    from repro.defenses import iter_defenses

    n_lanes = 3
    for defense in iter_defenses():
        spec, program, secrets = _campaign(n_lanes, defense.compile_mode)
        secret_sets = [{spec.secret: secret} for secret in secrets]
        batch_traces = collect_observations_batch(
            program, secret_sets, defense=defense.name, engine="batch")
        for lane, secret_values in enumerate(secret_sets):
            serial = collect_observation(
                program, defense=defense.name, secret_values=secret_values,
                engine="fast")
            assert batch_traces[lane] == serial, (defense.name, lane)


def test_collect_observation_engine_batch_delegates():
    """One secret set on "batch" takes the serial fast (memo) path."""
    spec, program, secrets = _campaign(1)
    secret_values = {spec.secret: secrets[0]}
    fast = collect_observation(program, defense="sempe",
                               secret_values=secret_values, engine="fast")
    batch = collect_observation(program, defense="sempe",
                                secret_values=secret_values, engine="batch")
    assert batch == fast


@pytest.mark.parametrize("budget", [1, 37, 500])
def test_campaign_fuel_parity(budget):
    """A lane that runs out of fuel raises what the serial run raises,
    at the same instruction."""
    spec, program, secrets = _campaign(2)
    secret_sets = [{spec.secret: secret} for secret in secrets]
    errors = []
    with pytest.raises(InstructionLimitError) as err:
        collect_observations_batch(program, secret_sets,
                                   max_instructions=budget, engine="batch")
    errors.append(err.value)
    with pytest.raises(InstructionLimitError) as err:
        collect_observation(program, secret_values=secret_sets[0],
                            max_instructions=budget, engine="fast")
    errors.append(err.value)
    batch, fast = errors
    assert batch.executed == fast.executed == budget
    assert str(batch) == str(fast)


def test_open_speculation_window_is_rejected():
    """Wrong-path walks diverge per lane, so the lockstep engine refuses
    an open window instead of running it wrongly."""
    from repro.uarch.config import MachineConfig

    spec, program, _secrets = _campaign(2)
    config = MachineConfig()
    config.speculation.enabled = True
    with pytest.raises(ValueError):
        BatchExecutor(program, n_lanes=2, speculation=config.speculation)


# --------------------------------------------------------------------------
# Attack reports: batch profiling is bit-identical modulo the engine tag
# --------------------------------------------------------------------------

def test_attack_report_batch_equals_fast():
    from repro.security.attackers import AttackSpec, execute_attack

    specs = (AttackSpec("memcmp", "prime-probe", trials=16),
             # A speculation campaign: serial lanes on the batch engine.
             AttackSpec("spectre", "mistrain-reload", trials=16))
    for spec in specs:
        for defense in ("plain", "sempe"):
            fast = execute_attack(spec, defense, engine="fast")
            batch = execute_attack(spec, defense, engine="batch")
            assert batch.engine == "batch"
            assert dataclasses.replace(batch, engine="fast") == fast, \
                (spec.workload, defense)
