"""The permutation test's shortcuts change no p-value and no RNG draw.

:func:`repro.security.stats.permutation_test` hoists the
shuffle-invariant entropies out of its rounds, skips the MI of a
constant observation column and shuffles with an inlined sampler.
Cached attack reports and every later draw of an attack's RNG depend on
its ``(observed, p)`` and on the state it leaves, so both are checked
bit for bit against ``random.Random.shuffle`` and against the body the
shortcuts replaced.
"""

import random

import pytest

from repro.security.stats import (
    _coded_mi,
    category_codes,
    permutation_test,
    shuffler,
)


@pytest.mark.parametrize("length", range(65))
def test_shuffler_draws_exactly_as_random_shuffle(length):
    for seed in range(40):
        inlined, library = random.Random(seed), random.Random(seed)
        values, expected = list(range(length)), list(range(length))
        shuffle = shuffler(length, inlined)
        for _ in range(3):
            shuffle(values)
            library.shuffle(expected)
            assert values == expected
        assert inlined.getstate() == library.getstate()


def test_shuffler_defers_to_other_rng_types():
    class Counting(random.Random):
        calls = 0

        def shuffle(self, values):
            Counting.calls += 1
            super().shuffle(values)

    rng = Counting(3)
    shuffler(4, rng)([1, 2, 3, 4])
    assert Counting.calls == 1


def _unhoisted_permutation_test(pairs, rng, rounds=500):
    """The body the shortcuts replaced: every round shuffles with
    ``rng.shuffle`` and recomputes the whole MI."""
    if len(pairs) < 2:
        return 0.0, 1.0
    labels = category_codes(label for label, _obs in pairs)
    observations = category_codes(obs for _label, obs in pairs)
    observed = _coded_mi(labels, observations)
    at_least = 0
    for _ in range(rounds):
        rng.shuffle(labels)
        if _coded_mi(labels, observations) >= observed - 1e-12:
            at_least += 1
    return observed, (1 + at_least) / (1 + rounds)


def _pairs(rng: random.Random, case: str) -> list:
    """Labelled observations of one shape: a constant observation
    column, exactly two label classes, three or more, or fewer than two
    pairs.  Observations mix repeated canonical-key-like tuples with
    unique corrupted-probe tokens."""
    if case == "under-two":
        return [(0, ("obs", 1))][:rng.randrange(2)]
    count = rng.randrange(2, 48)
    if case == "constant":
        return [(rng.randrange(3), ("obs", 7)) for _ in range(count)]
    classes = 2 if case == "two-classes" else rng.randrange(3, 6)
    labels = list(range(classes)) + [rng.randrange(classes)
                                     for _ in range(count)]
    rng.shuffle(labels)
    streams = [("obs", rng.randrange(1000))
               for _ in range(rng.randrange(2, 5))]
    return [(label,
             ("corrupted", rng.getrandbits(64)) if rng.random() < 0.1
             else rng.choice(streams))
            for label in labels]


@pytest.mark.parametrize(
    "case", ("constant", "two-classes", "many-classes", "under-two"))
def test_permutation_test_matches_the_unhoisted_body(case):
    cases = random.Random(case)
    for _ in range(60):
        pairs = _pairs(cases, case)
        seed = cases.getrandbits(32)
        rounds = cases.choice((0, 1, 40))
        fast, oracle = random.Random(seed), random.Random(seed)
        assert permutation_test(pairs, fast, rounds=rounds) \
            == _unhoisted_permutation_test(pairs, oracle, rounds=rounds)
        assert fast.getstate() == oracle.getstate()
