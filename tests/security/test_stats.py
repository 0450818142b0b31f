"""The statistical distinguisher toolkit (pure math, no simulation)."""

import math
import random

import pytest

pytestmark = pytest.mark.attack

from repro.security.stats import (
    TTestResult,
    category_codes,
    majority_vote,
    mean,
    paired_mutual_information_bits,
    permutation_test,
    regularized_incomplete_beta,
    student_t_sf,
    variance,
    welch_t_test,
)


# --------------------------------------------------------------------------
# Student's t machinery
# --------------------------------------------------------------------------

def test_incomplete_beta_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0


def test_incomplete_beta_uniform_case():
    # I_x(1, 1) is the uniform CDF.
    for x in (0.1, 0.5, 0.9):
        assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x)


def test_student_t_sf_known_quantiles():
    # Two-sided 5% critical values from standard t tables.
    assert student_t_sf(2.228, 10) == pytest.approx(0.05, abs=1e-3)
    assert student_t_sf(1.96, 1e6) == pytest.approx(0.05, abs=1e-3)
    assert student_t_sf(0.0, 10) == pytest.approx(1.0)
    assert student_t_sf(math.inf, 10) == 0.0


def test_student_t_sf_symmetric():
    assert student_t_sf(-3.0, 7) == pytest.approx(student_t_sf(3.0, 7))


# --------------------------------------------------------------------------
# Welch's t-test
# --------------------------------------------------------------------------

def test_welch_separated_samples_reject():
    rng = random.Random(7)
    a = [100.0 + rng.gauss(0, 2) for _ in range(20)]
    b = [200.0 + rng.gauss(0, 2) for _ in range(20)]
    result = welch_t_test(a, b)
    assert abs(result.statistic) > 50
    assert result.p_value < 1e-10
    assert result.significant()


def test_welch_identical_distributions_do_not_reject():
    rng = random.Random(11)
    a = [50.0 + rng.gauss(0, 3) for _ in range(30)]
    b = [50.0 + rng.gauss(0, 3) for _ in range(30)]
    result = welch_t_test(a, b)
    assert result.p_value > 0.01


def test_welch_degenerate_sizes():
    assert welch_t_test([], []).p_value == 1.0
    assert welch_t_test([1.0], [2.0, 3.0]).p_value == 1.0


def test_welch_zero_variance_cases():
    same = welch_t_test([5.0, 5.0], [5.0, 5.0])
    assert same.p_value == 1.0 and same.statistic == 0.0
    different = welch_t_test([5.0, 5.0], [9.0, 9.0])
    assert different.p_value == 0.0
    assert math.isinf(different.statistic)


def test_welch_result_is_dataclass_with_counts():
    result = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0])
    assert isinstance(result, TTestResult)
    assert (result.n_a, result.n_b) == (3, 2)


def test_mean_and_variance_basics():
    assert mean([]) == 0.0
    assert mean([2.0, 4.0]) == 3.0
    assert variance([3.0]) == 0.0
    assert variance([1.0, 3.0]) == pytest.approx(2.0)


# --------------------------------------------------------------------------
# Paired mutual information + permutation test
# --------------------------------------------------------------------------

def test_paired_mi_perfect_binary_channel():
    pairs = [(0, "a"), (0, "a"), (1, "b"), (1, "b")] * 4
    assert paired_mutual_information_bits(pairs) == pytest.approx(1.0)


def test_paired_mi_independent_channel():
    pairs = [(0, "x"), (1, "x")] * 8
    assert paired_mutual_information_bits(pairs) == 0.0


def test_paired_mi_never_negative_and_bounded():
    rng = random.Random(3)
    pairs = [(rng.randrange(2), rng.randrange(3)) for _ in range(40)]
    value = paired_mutual_information_bits(pairs)
    assert 0.0 <= value <= 1.0 + 1e-12    # bounded by H(label) = 1 bit


def test_paired_mi_degenerate():
    assert paired_mutual_information_bits([]) == 0.0
    assert paired_mutual_information_bits([(0, "a")]) == 0.0


def test_permutation_test_detects_aligned_labels():
    pairs = ([(0, "a") for _ in range(8)] + [(1, "b") for _ in range(8)])
    observed, p = permutation_test(pairs, random.Random(0))
    assert observed == pytest.approx(1.0)
    assert p < 0.01


def test_permutation_test_null_on_constant_observations():
    pairs = ([(0, "same") for _ in range(8)]
             + [(1, "same") for _ in range(8)])
    observed, p = permutation_test(pairs, random.Random(0))
    assert observed == 0.0
    assert p == 1.0


def test_permutation_test_deterministic_per_seed():
    pairs = [(i % 2, i % 3) for i in range(20)]
    first = permutation_test(pairs, random.Random(42))
    second = permutation_test(pairs, random.Random(42))
    assert first == second


def test_category_codes_first_appearance():
    assert category_codes([]) == []
    assert category_codes(["b", "a", "b", ("t",), "a"]) == [0, 1, 0, 2, 1]


# The dict-of-keys estimator the int-coded one replaced: the coding must
# reproduce it bit for bit (not approximately), or cached attack
# reports and their verdicts would drift.
def _reference_entropy(counts: dict) -> float:
    total = sum(counts.values())
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def _reference_mi(pairs) -> float:
    if len(pairs) < 2:
        return 0.0
    labels: dict = {}
    observations: dict = {}
    joint: dict = {}
    for label, obs in pairs:
        labels[label] = labels.get(label, 0) + 1
        observations[obs] = observations.get(obs, 0) + 1
        joint[(label, obs)] = joint.get((label, obs), 0) + 1
    return max(0.0, _reference_entropy(labels)
               + _reference_entropy(observations) - _reference_entropy(joint))


def _reference_permutation_test(pairs, rng, rounds=500):
    observed = _reference_mi(pairs)
    if len(pairs) < 2:
        return observed, 1.0
    labels = [label for label, _obs in pairs]
    observations = [obs for _label, obs in pairs]
    at_least = 0
    for _ in range(rounds):
        rng.shuffle(labels)
        if _reference_mi(list(zip(labels, observations))) >= observed - 1e-12:
            at_least += 1
    return observed, (1 + at_least) / (1 + rounds)


def _random_pairs(rng: random.Random) -> list:
    n_labels = rng.choice((1, 2, 3, 5))
    # Long nested-tuple observations, like the canonical key of a
    # line-address stream, plus a few unique "corrupted probe" tokens.
    streams = [tuple(("int", rng.randrange(4)) for _ in range(50))
               for _ in range(rng.randrange(1, 5))]
    pairs = []
    for _ in range(rng.randrange(0, 48)):
        obs = (("corrupted", rng.getrandbits(64)) if rng.random() < 0.1
               else rng.choice(streams))
        pairs.append((rng.randrange(n_labels), obs))
    return pairs


def test_coded_statistics_bit_identical_to_reference():
    rng = random.Random(2024)
    for case in range(150):
        pairs = _random_pairs(rng)
        assert paired_mutual_information_bits(pairs) == _reference_mi(pairs)
        seed = rng.getrandbits(32)
        coded_rng, reference_rng = random.Random(seed), random.Random(seed)
        assert permutation_test(pairs, coded_rng, rounds=40) \
            == _reference_permutation_test(pairs, reference_rng, rounds=40), \
            case
        # The shuffles drew exactly the same random numbers.
        assert coded_rng.getstate() == reference_rng.getstate()


# --------------------------------------------------------------------------
# Majority vote
# --------------------------------------------------------------------------

def test_majority_vote_basics():
    assert majority_vote([1, 1, 0]) == 1
    assert majority_vote([0, 0, 1]) == 0
    with pytest.raises(ValueError):
        majority_vote([])


def test_majority_vote_tie_breaking():
    assert majority_vote([0, 1]) == 0                 # default: 0
    rng = random.Random(5)
    seen = {majority_vote([0, 1], rng) for _ in range(32)}
    assert seen == {0, 1}                             # rng ties are coin flips


def test_majority_vote_corrects_noise():
    rng = random.Random(9)
    truth = [rng.randrange(2) for _ in range(64)]
    rows = []
    for _ in range(15):
        rows.append([bit ^ (1 if rng.random() < 0.2 else 0)
                     for bit in truth])
    # One vote per key position, as the attack engine recovers its key.
    recovered = [majority_vote([row[position] for row in rows], rng)
                 for position in range(len(truth))]
    assert recovered == truth
