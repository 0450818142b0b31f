"""Property tests: batched execution is a pure reshaping of trials.

Three invariances pin the :class:`BatchExecutor` contract under random
per-trial secrets:

* a batch of one is byte-identical to a serial fast-engine run;
* lane results are invariant under permutation of the trial order
  (lane identity is data, not schedule);
* one batch of N trials equals two batches of N/2 merged — batch size
  is a throughput knob, never an observable.
"""

import pytest

pytestmark = pytest.mark.slow

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.batch import BatchExecutor
from repro.arch.fast_executor import FastExecutor
from repro.security.observer import poke_secrets
from repro.workloads.registry import get_workload

from tests.conftest import leak_candidates

_SPEC = get_workload("memcmp")
_SECRET_WIDTH = len(leak_candidates(_SPEC)[0])

secret_tuples = st.tuples(
    *[st.integers(min_value=0, max_value=255)] * _SECRET_WIDTH)


def _programs():
    return {mode: _SPEC.compile(mode).program for mode in ("plain", "sempe")}


_PROGRAMS = _programs()


def _run_batch(mode, secrets):
    program = _PROGRAMS[mode]
    executor = BatchExecutor(program, sempe=mode == "sempe",
                             n_lanes=len(secrets))
    for lane, secret in enumerate(secrets):
        poke_secrets(executor.memory.lane_view(lane), program.symbols,
                     {_SPEC.secret: secret})
    executor.run(line_bytes=64)
    return executor


def _lane_fingerprint(executor, lane):
    rows = []
    for chunk in executor.lane_chunks(lane):
        rows.extend(zip(chunk.pc, chunk.addr, chunk.taken))
    return (rows, executor.lane_result(lane), executor.lane_regs(lane))


def _serial_fingerprint(mode, secret):
    program = _PROGRAMS[mode]
    executor = FastExecutor(program, sempe=mode == "sempe")
    poke_secrets(executor.state.memory, program.symbols,
                 {_SPEC.secret: secret})
    rows = []
    for chunk in executor.run_chunks(64):
        rows.extend(zip(chunk.pc, chunk.addr, chunk.taken))
    return (rows, executor.result, executor.state.snapshot_regs())


@settings(max_examples=20, deadline=None)
@given(secret_tuples, st.sampled_from(["plain", "sempe"]))
def test_batch_of_one_equals_serial(secret, mode):
    executor = _run_batch(mode, [secret])
    assert _lane_fingerprint(executor, 0) == _serial_fingerprint(mode, secret)


@settings(max_examples=10, deadline=None)
@given(st.lists(secret_tuples, min_size=2, max_size=6, unique=True),
       st.randoms(use_true_random=False),
       st.sampled_from(["plain", "sempe"]))
def test_lane_results_invariant_under_trial_permutation(secrets, rng, mode):
    permuted = list(secrets)
    rng.shuffle(permuted)
    direct = _run_batch(mode, secrets)
    shuffled = _run_batch(mode, permuted)
    by_secret = {secret: _lane_fingerprint(shuffled, lane)
                 for lane, secret in enumerate(permuted)}
    for lane, secret in enumerate(secrets):
        assert _lane_fingerprint(direct, lane) == by_secret[secret], lane


@settings(max_examples=10, deadline=None)
@given(st.lists(secret_tuples, min_size=2, max_size=8),
       st.sampled_from(["plain", "sempe"]))
def test_batch_split_in_halves_changes_nothing(secrets, mode):
    whole = _run_batch(mode, secrets)
    half = len(secrets) // 2
    first = _run_batch(mode, secrets[:half])
    second = _run_batch(mode, secrets[half:])
    merged = [_lane_fingerprint(first, lane) for lane in range(half)] + \
        [_lane_fingerprint(second, lane) for lane in range(len(secrets) - half)]
    for lane in range(len(secrets)):
        assert _lane_fingerprint(whole, lane) == merged[lane], lane
