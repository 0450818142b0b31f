"""Branch predictors: bimodal, gshare, BTB, RAS, ITTAGE."""

import hashlib
import random

from repro.uarch.branch import (
    AlwaysNotTaken, AlwaysTaken, Bimodal, BranchTargetBuffer, GShare,
    Ittage, ReturnAddressStack, make_predictor,
)


def test_factory_names():
    for name in ("tage", "gshare", "bimodal", "always-taken",
                 "always-not-taken"):
        predictor = make_predictor(name)
        assert hasattr(predictor, "predict")


def test_static_predictors():
    assert AlwaysTaken().predict(0) is True
    assert AlwaysNotTaken().predict(0) is False


def test_bimodal_learns_bias():
    predictor = Bimodal()
    pc = 0x400
    for _ in range(4):
        predictor.update(pc, True)
    assert predictor.predict(pc) is True
    for _ in range(4):
        predictor.update(pc, False)
    assert predictor.predict(pc) is False


def test_bimodal_hysteresis():
    predictor = Bimodal()
    pc = 0x100
    for _ in range(4):
        predictor.update(pc, True)
    predictor.update(pc, False)   # one not-taken shouldn't flip it
    assert predictor.predict(pc) is True


def test_gshare_learns_alternating_pattern():
    """History-based prediction: T,N,T,N is perfectly predictable."""
    predictor = GShare(table_bits=10, history_bits=8)
    pc = 0x200
    outcomes = [bool(i % 2) for i in range(400)]
    correct = 0
    for outcome in outcomes:
        if predictor.predict(pc) == outcome:
            correct += 1
        predictor.update(pc, outcome)
    # After warmup the pattern is learned.
    assert correct > 300


def test_bimodal_cannot_learn_alternating():
    predictor = Bimodal()
    pc = 0x200
    correct = 0
    for index in range(400):
        outcome = bool(index % 2)
        if predictor.predict(pc) == outcome:
            correct += 1
        predictor.update(pc, outcome)
    assert correct <= 240   # ~50%


def test_state_digest_changes_on_update():
    predictor = GShare()
    before = predictor.state_digest()
    predictor.update(0x40, True)
    assert predictor.state_digest() != before


def test_reset_restores_initial_digest():
    predictor = Bimodal()
    initial = predictor.state_digest()
    predictor.update(0x40, True)
    predictor.reset()
    assert predictor.state_digest() == initial


def test_btb_caches_targets():
    btb = BranchTargetBuffer(entries=16)
    assert btb.predict(0x40) is None
    btb.update(0x40, 0x1000)
    assert btb.predict(0x40) == 0x1000
    assert btb.misses == 1


def test_btb_conflict_eviction():
    btb = BranchTargetBuffer(entries=4)
    btb.update(0, 100)
    btb.update(4, 200)    # same index, different pc
    assert btb.predict(0) is None
    assert btb.predict(4) == 200


def test_ras_lifo():
    ras = ReturnAddressStack(depth=4)
    ras.push(1)
    ras.push(2)
    assert ras.pop() == 2
    assert ras.pop() == 1
    assert ras.pop() is None


def test_ras_depth_overflow_drops_oldest():
    ras = ReturnAddressStack(depth=2)
    for address in (1, 2, 3):
        ras.push(address)
    assert ras.pop() == 3
    assert ras.pop() == 2
    assert ras.pop() is None


def test_ittage_learns_stable_target():
    ittage = Ittage()
    pc = 0x80
    for _ in range(8):
        ittage.update(pc, 0x4000)
    assert ittage.predict(pc) == 0x4000


def test_ittage_history_dependent_targets():
    """Alternating targets keyed by path history become predictable."""
    ittage = Ittage()
    pc = 0x80
    mispredicts_late = 0
    for index in range(600):
        target = 0x1000 if index % 2 == 0 else 0x2000
        ittage.predict(pc)
        mispredicted = ittage.update(pc, target)
        if index >= 500 and mispredicted:
            mispredicts_late += 1
    assert mispredicts_late < 40


def test_ittage_random_stream_matches_recorded_behaviour():
    """Every prediction and the final state on a random indirect-jump
    stream, as the ITTAGE with from-scratch history folds produced
    them."""
    rng = random.Random(14)
    pcs = [rng.randrange(1 << 12) * 4 for _ in range(64)]
    targets = [rng.randrange(1 << 12) * 4 for _ in range(16)]
    ittage = Ittage()
    predicted = []
    for _ in range(5000):
        pc = rng.choice(pcs)
        predicted.append(ittage.predict(pc))
        ittage.update(pc, rng.choice(targets))
    assert hashlib.sha256(repr(predicted).encode()).hexdigest() == \
        "081500f061a4264a3e5fd302d9c2ca65669b299d36127f2fab49a4888a96a67b"
    assert ittage.state_digest() == 5634120865031837308
    assert ittage.mispredicts == 4657
