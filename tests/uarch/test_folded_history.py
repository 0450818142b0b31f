"""Incremental folded histories equal the from-scratch fold.

TAGE and ITTAGE keep each component's index and tag fold in a circular
shift register, packed as lanes of one int per width
(:class:`repro.uarch.branch.folded.FoldedHistory`).
``tests.conftest.refold`` is the original from-scratch computation the
predictors used before; it is the oracle.  After every update on random
branch streams the registers, read through ``FoldedHistory.folds()``,
must equal it.
"""

import random

import pytest

from repro.uarch.branch.folded import FoldedHistory
from repro.uarch.branch.ittage import Ittage
from repro.uarch.branch.tage import Tage
from tests.conftest import refold

pytestmark = pytest.mark.parity


def _assert_folds_exact(predictor, index_bits: int, tag_bits: int) -> None:
    history = predictor._history.value
    index_folds, tag_folds = predictor._history.folds()
    for component, length in enumerate(predictor.history_lengths):
        assert index_folds[component] == \
            refold(history, length, index_bits)
        assert tag_folds[component] == \
            refold(history, length, tag_bits)


def _drive_tage(tage: Tage, index_bits: int, tag_bits: int, seed: int,
                steps: int = 3000) -> None:
    rng = random.Random(seed)
    pcs = [rng.randrange(1 << 16) * 4 for _ in range(24)]
    bias = {pc: rng.random() for pc in pcs}
    for _ in range(steps):
        pc = rng.choice(pcs)
        tage.predict(pc)
        tage.update(pc, rng.random() < bias[pc])
        _assert_folds_exact(tage, index_bits, tag_bits)


def _drive_ittage(ittage: Ittage, index_bits: int, tag_bits: int,
                  seed: int, steps: int = 3000) -> None:
    rng = random.Random(seed)
    pcs = [rng.randrange(1 << 16) * 4 for _ in range(12)]
    targets = [rng.randrange(1 << 16) * 4 for _ in range(6)]
    for _ in range(steps):
        pc = rng.choice(pcs)
        ittage.predict(pc)
        ittage.update(pc, rng.choice(targets))
        _assert_folds_exact(ittage, index_bits, tag_bits)


# (constructor kwargs, index bits, tag bits).  The non-default
# geometries have a max_history that is not a multiple of either fold
# width and at least one history length that is (the outgoing bit then
# lands on position 0, where the wrap-around bit also goes).
TAGE_GEOMETRIES = [
    ({}, 10, 9),
    (dict(n_components=4, tagged_bits=8, tag_bits=7, min_history=5,
          max_history=100), 8, 7),
]
ITTAGE_GEOMETRIES = [
    ({}, 7, 9),
    (dict(n_components=3, tagged_bits=6, tag_bits=7, min_history=6,
          max_history=57), 6, 7),
]


def _edge_geometry(lengths, max_history, widths) -> bool:
    return (any(max_history % width for width in widths)
            and any(length % width == 0
                    for length in lengths for width in widths))


@pytest.mark.parametrize("kwargs,index_bits,tag_bits", TAGE_GEOMETRIES)
def test_tage_folds_equal_refold(kwargs, index_bits, tag_bits):
    tage = Tage(**kwargs)
    if kwargs:
        assert _edge_geometry(tage.history_lengths, kwargs["max_history"],
                              (index_bits, tag_bits))
    _drive_tage(tage, index_bits, tag_bits, seed=1)


@pytest.mark.parametrize("kwargs,index_bits,tag_bits", ITTAGE_GEOMETRIES)
def test_ittage_folds_equal_refold(kwargs, index_bits, tag_bits):
    ittage = Ittage(**kwargs)
    if kwargs:
        assert _edge_geometry(ittage.history_lengths,
                              kwargs["max_history"], (index_bits, tag_bits))
    _drive_ittage(ittage, index_bits, tag_bits, seed=2)


@pytest.mark.parametrize("kwargs,index_bits,tag_bits", TAGE_GEOMETRIES)
def test_tage_folds_after_reset(kwargs, index_bits, tag_bits):
    tage = Tage(**kwargs)
    _drive_tage(tage, index_bits, tag_bits, seed=3, steps=500)
    tage.reset()
    assert tage._history.value == 0
    _assert_folds_exact(tage, index_bits, tag_bits)
    assert tage.state_digest() == Tage(**kwargs).state_digest()
    _drive_tage(tage, index_bits, tag_bits, seed=4, steps=500)


@pytest.mark.parametrize("kwargs,index_bits,tag_bits", ITTAGE_GEOMETRIES)
def test_ittage_folds_after_reset(kwargs, index_bits, tag_bits):
    ittage = Ittage(**kwargs)
    _drive_ittage(ittage, index_bits, tag_bits, seed=5, steps=500)
    ittage.reset()
    assert ittage._history.value == 0
    _assert_folds_exact(ittage, index_bits, tag_bits)
    assert ittage.state_digest() == Ittage(**kwargs).state_digest()
    _drive_ittage(ittage, index_bits, tag_bits, seed=6, steps=500)


def test_fold_longer_than_history_rejected():
    with pytest.raises(ValueError):
        FoldedHistory(16, [4, 17], (5,))
