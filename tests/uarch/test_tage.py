"""TAGE predictor."""

import hashlib
import random

import pytest

from repro.uarch.branch.tage import Tage

pytestmark = pytest.mark.parity


def test_storage_near_paper_budget():
    """Table II: a 31KB TAGE.  Our geometry should be the same order."""
    tage = Tage()
    kilobytes = tage.storage_bits() / 8 / 1024
    assert 8 <= kilobytes <= 64


def test_history_lengths_geometric():
    tage = Tage(n_components=6, min_history=4, max_history=128)
    lengths = tage.history_lengths
    assert lengths[0] == 4
    assert lengths[-1] == 128
    assert all(a < b for a, b in zip(lengths, lengths[1:]))


def test_learns_biased_branch():
    tage = Tage()
    pc = 0x444
    for _ in range(32):
        tage.update(pc, True)
    assert tage.predict(pc) is True


def test_learns_long_period_pattern():
    """A period-8 pattern needs history: TAGE should learn it."""
    tage = Tage()
    pc = 0x80
    pattern = [True, True, False, True, False, False, True, False]
    correct = 0
    total = 0
    for round_index in range(300):
        outcome = pattern[round_index % len(pattern)]
        prediction = tage.predict(pc)
        tage.update(pc, outcome)
        if round_index >= 200:
            total += 1
            correct += int(prediction == outcome)
    assert correct / total > 0.85


def test_learns_correlated_branches():
    """Branch B's outcome equals branch A's, a coin flip: only global
    history predicts B (a per-PC counter sits near 50 %)."""
    tage = Tage()
    rng = random.Random(7)
    correct = total = 0
    for round_index in range(800):
        outcome_a = rng.random() < 0.5
        # pc_a trains history; pc_b is the correlated branch.
        tage.predict(0x10)
        tage.update(0x10, outcome_a)
        prediction = tage.predict(0x20)
        tage.update(0x20, outcome_a)
        if round_index >= 400:
            total += 1
            correct += int(prediction == outcome_a)
    assert correct / total > 0.9


def test_digest_reflects_state():
    tage = Tage()
    initial = tage.state_digest()
    tage.update(0x40, True)
    assert tage.state_digest() != initial
    tage.reset()
    assert tage.state_digest() == initial


def test_record_counts_mispredicts():
    tage = Tage()
    mispredicted = tage.record(True, False)
    assert mispredicted
    assert tage.stats.lookups == 1
    assert tage.stats.mispredicts == 1
    assert tage.stats.accuracy == 0.0


def test_loop_stream_matches_recorded_behaviour():
    """Every prediction and the final state on a loop-shaped stream, as
    the dataclass-entry TAGE with from-scratch history folds produced
    them.  The 16-entry tables put the allocator under capacity
    pressure, so its useful-bit decay path runs too (the timing golden's
    cells never reach it)."""
    rng = random.Random(13)
    pcs = [rng.randrange(1 << 14) * 4 for _ in range(32)]
    patterns = [[rng.random() < 0.5 for _ in range(rng.randrange(2, 12))]
                for _ in pcs]
    tage = Tage(tagged_bits=4)
    predictions = bytearray()
    for iteration in range(3000):
        for pc, pattern in zip(pcs, patterns):
            predictions.append(tage.predict(pc))
            tage.update(pc, pattern[iteration % len(pattern)])
    assert hashlib.sha256(predictions).hexdigest() == \
        "7729d4e6c6979390257fa3323d7d348fd39a66c9ef3bb23bd2e0d58f77c31745"
    assert tage.state_digest() == 5825670802988538404
