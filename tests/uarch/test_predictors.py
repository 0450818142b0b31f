"""Branch predictors other than TAGE (see test_tage.py): BTB, RAS,
ITTAGE."""

import hashlib
import random

import pytest

from repro.uarch.branch import BranchTargetBuffer, Ittage, ReturnAddressStack


# name -> (constructor, one training step)
_STATEFUL = {
    "btb": (BranchTargetBuffer, lambda btb: btb.update(0x40, 0x1000)),
    "ras": (ReturnAddressStack, lambda ras: ras.push(0x44)),
    "ittage": (Ittage, lambda ittage: ittage.update(0x40, 0x1000)),
}


@pytest.mark.parametrize("name", sorted(_STATEFUL))
def test_state_digest_changes_on_update(name):
    make, train = _STATEFUL[name]
    predictor = make()
    before = predictor.state_digest()
    train(predictor)
    assert predictor.state_digest() != before


@pytest.mark.parametrize("name", sorted(_STATEFUL))
def test_reset_restores_initial_digest(name):
    make, train = _STATEFUL[name]
    predictor = make()
    initial = predictor.state_digest()
    train(predictor)
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
