"""Per-lane parity for the batched timing pipeline.

The serial per-lane pipeline (``FastExecutor`` chunks into
``OutOfOrderPipeline.run_chunks``) is the oracle: the batched timing
path (:func:`repro.uarch.batch_pipeline.lane_outcomes` — lockstep lane
sharing within a campaign) must reproduce **bit-identical**
:class:`PipelineStats` for every lane under every registered defense.
With the speculation window open a campaign takes serial lanes, whose
observations must match per-secret serial ones and the oracle's
cycles.  Sharing must be semantically invisible: a campaign keeps
nothing, so a repeated one costs the same passes and observes the same.
"""

import dataclasses
import random

import pytest

pytestmark = pytest.mark.parity

np = pytest.importorskip("numpy")

from repro.arch.batch import BatchExecutor
from repro.arch.fast_executor import FastExecutor
from repro.core.engine import flush_penalty_cycles
from repro.defenses import get_defense, iter_defenses
from repro.harness import clear_cache
from repro.security.leakage import noninterference_report
from repro.security.observer import (
    collect_observation,
    collect_observations_batch,
    poke_secrets,
)
from repro.uarch import batch_pipeline
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import OutOfOrderPipeline, PipelineStats
from repro.workloads.registry import get_workload

from tests.conftest import leak_candidates

N_LANES = 4

_DEFENSES = [spec.name for spec in iter_defenses()]


@pytest.fixture(autouse=True)
def _zero_counts():
    """Every test starts and ends with zeroed timing-pass counters."""
    clear_cache()
    yield
    clear_cache()


def _campaign(mode):
    """memcmp with diverging per-lane secrets (lockstep under SeMPE,
    divergent control flow on the baseline machine)."""
    spec = get_workload("memcmp")
    program = spec.compile(mode).program
    sample = leak_candidates(spec)[0]
    secrets = [
        tuple((lane * 29 + index * 7) % 256 for index in range(len(sample)))
        for lane in range(N_LANES)
    ]
    return spec, program, [{spec.secret: secret} for secret in secrets]


def _machine(defense_name, speculate):
    spec = get_defense(defense_name)
    config = spec.apply_config(MachineConfig())
    if speculate:
        config.speculation.enabled = True
    return spec, config


def _serial_lane_stats(program, spec, config, secret_values):
    """The oracle: one serial fast-engine run through the serial
    pipeline, with the defense's exit flush applied like simulate()."""
    executor = FastExecutor(program, sempe=spec.sempe_machine,
                            speculation=config.speculation,
                            fence=spec.fence_branches)
    poke_secrets(executor.state.memory, program.symbols, secret_values)
    pipeline = OutOfOrderPipeline(config, sempe=spec.sempe_machine,
                                  fence=spec.fence_branches)
    stats = pipeline.run_chunks(
        executor.run_chunks(line_bytes=config.hierarchy.il1.line_bytes))
    if spec.flush_on_exit:
        stats.cycles += flush_penalty_cycles(config)
        pipeline.flush_transient_state()
    return stats


def _batched_lane_stats(program, spec, config, secret_sets):
    executor = BatchExecutor(program, sempe=spec.sempe_machine,
                             n_lanes=len(secret_sets))
    for lane, secret_values in enumerate(secret_sets):
        poke_secrets(executor.memory.lane_view(lane), program.symbols,
                     secret_values)
    executor.run(line_bytes=config.hierarchy.il1.line_bytes)
    outcomes = batch_pipeline.lane_outcomes(
        executor, config,
        sempe=spec.sempe_machine,
        fence=spec.fence_branches,
        flush_penalty=flush_penalty_cycles(config)
        if spec.flush_on_exit else 0,
    )
    return [outcome.stats for outcome in outcomes]


@pytest.mark.parametrize("speculate", [False, True],
                         ids=["no-spec", "speculation"])
@pytest.mark.parametrize("defense", _DEFENSES)
def test_lane_stats_bit_identical_to_serial(defense, speculate):
    """Lockstep lanes match the serial per-lane pipeline exactly, every
    PipelineStats field, for every lane.  With the window open the
    campaign takes serial lanes: each observation equals the per-secret
    serial one and carries the oracle's cycles."""
    spec, config = _machine(defense, speculate)
    workload, program, secret_sets = _campaign(spec.compile_mode)
    if speculate:
        batch = collect_observations_batch(program, secret_sets,
                                           defense=defense, config=config,
                                           engine="batch")
        for lane, secret_values in enumerate(secret_sets):
            serial = collect_observation(
                program, defense=defense, config=config,
                secret_values=secret_values, engine="fast")
            assert batch[lane] == serial, (defense, lane)
            oracle = _serial_lane_stats(program, spec, config,
                                        secret_values)
            assert oracle.transient_instructions > 0, (defense, lane)
            assert batch[lane].cycles == oracle.cycles, (defense, lane)
        return
    batched = _batched_lane_stats(program, spec, config, secret_sets)
    for lane, secret_values in enumerate(secret_sets):
        serial = _serial_lane_stats(program, spec, config, secret_values)
        assert batched[lane] == serial, (defense, lane)


@pytest.mark.parametrize("speculate", [False, True],
                         ids=["no-spec", "speculation"])
def test_observations_bit_identical_to_serial(speculate):
    """Full ObservationTrace parity (cycles + every digest channel)
    through collect_observations_batch, per defense."""
    for defense in _DEFENSES:
        spec, config = _machine(defense, speculate)
        workload, program, secret_sets = _campaign(spec.compile_mode)
        batch = collect_observations_batch(
            program, secret_sets, defense=defense, config=config,
            engine="batch")
        for lane, secret_values in enumerate(secret_sets):
            serial = collect_observation(
                program, defense=defense, config=config,
                secret_values=secret_values, engine="fast")
            assert batch[lane] == serial, (defense, speculate, lane)


def test_memoization_is_transparent():
    """No timing outcome outlives its campaign: two identical campaigns
    cost two passes and return equal observations."""
    spec, config = _machine("sempe", False)
    workload, program, secret_sets = _campaign(spec.compile_mode)

    first = collect_observations_batch(program, secret_sets,
                                       defense="sempe", config=config,
                                       engine="batch")
    assert batch_pipeline.memo_info()["misses"] == 1
    second = collect_observations_batch(program, secret_sets,
                                        defense="sempe", config=config,
                                        engine="batch")
    info = batch_pipeline.memo_info()
    assert info["misses"] == 2
    assert info["hits"] == info["entries"] == 0
    assert first == second


@pytest.mark.parametrize("engine", ("batch", "fast"))
def test_sempe_campaign_collapses_to_one_pass(engine):
    """SeMPE lanes share one timing digest (secure-branch outcomes are
    pipeline-invisible), so a whole campaign — one batch, or a serial
    noninterference report over the same secrets — costs one pipeline
    pass."""
    spec, config = _machine("sempe", False)
    workload, program, secret_sets = _campaign("sempe")
    if engine == "batch":
        collect_observations_batch(program, secret_sets, defense="sempe",
                                   config=config, engine="batch")
    else:
        report = noninterference_report(
            program, workload.secret,
            [secret_values[workload.secret] for secret_values in secret_sets],
            defense="sempe", config=config, engine="fast")
        assert report.secure
    info = batch_pipeline.memo_info()
    assert info["misses"] == 1
    assert info["shared"] == N_LANES - 1


def test_divergent_plain_lanes_get_distinct_passes():
    """Baseline lanes with secret-dependent control flow must NOT over-
    share: the number of pipeline passes equals the number of distinct
    serial chunk streams, no fewer."""
    from repro.workloads.memcmp import guess_pattern

    spec, config = _machine("plain", False)
    workload = get_workload("memcmp")
    program = workload.compile("plain").program
    # Matching-prefix lengths 0/3/6/12: four genuinely different
    # early-exit traces on the unprotected machine.
    guess = guess_pattern(12)
    secret_sets = [
        {workload.secret: tuple(guess[:k]) + (255,) * (12 - k)}
        for k in (0, 3, 6, 12)
    ]

    distinct = set()
    for secret_values in secret_sets:
        executor = FastExecutor(program, sempe=False)
        poke_secrets(executor.state.memory, program.symbols, secret_values)
        rows = []
        for chunk in executor.run_chunks(
                line_bytes=config.hierarchy.il1.line_bytes):
            rows.extend(zip(chunk.pc, chunk.addr, chunk.taken))
        distinct.add(tuple(rows))
    assert len(distinct) >= 2  # the campaign really diverges

    collect_observations_batch(program, secret_sets, defense="plain",
                               config=config, engine="batch")
    info = batch_pipeline.memo_info()
    assert info["misses"] == len(distinct)


def test_memo_hits_are_mutation_isolated():
    """Lanes sharing a pass never alias, and a caller mutating a
    returned outcome must not poison the campaign's later lanes."""
    spec, config = _machine("sempe", False)
    workload, program, secret_sets = _campaign("sempe")
    executor = BatchExecutor(program, sempe=True, n_lanes=2)
    for lane, secret_values in enumerate(secret_sets[:2]):
        poke_secrets(executor.memory.lane_view(lane), program.symbols,
                     secret_values)
    executor.run(line_bytes=config.hierarchy.il1.line_bytes)
    digests = [executor.lane_timing_digest(lane) for lane in range(2)]
    assert digests[0] == digests[1]

    campaign = {}
    first = batch_pipeline.shared_outcomes(
        digests, executor.lane_chunks, campaign, config, sempe=True)
    assert first[0].stats is not first[1].stats  # lanes never alias
    assert first[0].miss_rates is not first[1].miss_rates
    pristine = dataclasses.replace(first[0].stats)
    first[0].stats.cycles += 12345
    first[0].miss_rates["poison"] = 1.0
    later = batch_pipeline.shared_outcomes(
        digests[:1], executor.lane_chunks, campaign, config, sempe=True)
    assert batch_pipeline.memo_info() == {
        "hits": 0, "misses": 1, "shared": 2, "entries": 0}
    assert later[0].stats == first[1].stats == pristine
    assert "poison" not in later[0].miss_rates


# --------------------------------------------------------------------------
# PipelineStats.merge: lane-order independence (satellite property test)
# --------------------------------------------------------------------------

def _random_stats(rng):
    return PipelineStats(**{
        field.name: rng.randrange(0, 1 << 20)
        for field in dataclasses.fields(PipelineStats)
    })


def test_merge_is_lane_order_independent():
    rng = random.Random(1234)
    for trial in range(25):
        lanes = [_random_stats(rng) for _ in range(rng.randrange(0, 9))]
        merged = PipelineStats.merge(lanes)
        shuffled = lanes[:]
        rng.shuffle(shuffled)
        assert PipelineStats.merge(shuffled) == merged
        # Field-wise equality with the plain per-field sum.
        for field in dataclasses.fields(PipelineStats):
            assert getattr(merged, field.name) == sum(
                getattr(entry, field.name) for entry in lanes)


def test_merge_grouping_invariance():
    """merge(a + b) == merge([merge(a), merge(b)]) — any batching of
    lanes lands on the same totals (associativity)."""
    rng = random.Random(99)
    lanes = [_random_stats(rng) for _ in range(7)]
    whole = PipelineStats.merge(lanes)
    split = PipelineStats.merge(
        [PipelineStats.merge(lanes[:3]), PipelineStats.merge(lanes[3:])])
    assert split == whole


def test_merge_empty_is_zero():
    assert PipelineStats.merge([]) == PipelineStats()
