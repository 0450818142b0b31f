"""Statistical distinguishers for the attack engine.

A realistic adversary never sees one clean trace; it sees many noisy
ones and must *decide*.  This module is the standard leakage-assessment
toolkit (pure Python, no dependencies) that the attackers in
:mod:`repro.security.attackers` plug their observations into:

* :func:`welch_t_test` — the fixed-vs-fixed TVLA test on scalar
  observables (timing): are the two secret classes' sample means
  distinguishable?  Returns the t statistic and a two-sided p-value
  from Student's t distribution with Welch–Satterthwaite degrees of
  freedom.
* :func:`paired_mutual_information_bits` — plug-in (maximum-likelihood)
  MI estimate between secret labels and repeated noisy observations,
  the quantitative "how many bits leak" measure (the deterministic
  one-observation-per-secret form lives in
  :mod:`repro.security.leakage`).
* :func:`permutation_test` — a label-shuffling null for the MI
  statistic on categorical observables (digests), where a parametric
  test does not apply.  Robust to spurious structure (e.g. unique
  corrupted-probe tokens inflate plug-in MI identically under the
  null, so the p-value is honest).  Observations are coded to small
  ints once (:func:`category_codes`), so the test costs O(pairs) per
  shuffle however large each observation is.
* :func:`majority_vote` — per-position vote across repeated noisy
  trials, the classic error-correction step of multi-trial key
  recovery.

All randomized helpers take an explicit :class:`random.Random` so every
attack run is reproducible from its seed.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence


# --------------------------------------------------------------------------
# Scalar helpers (stdlib `statistics` with degenerate-size guards, so
# callers never branch on sample counts)
# --------------------------------------------------------------------------

def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def variance(values: Sequence[float]) -> float:
    """Unbiased sample variance (0.0 for fewer than two samples)."""
    if len(values) < 2:
        return 0.0
    return statistics.variance(values)


# --------------------------------------------------------------------------
# Student's t distribution (for Welch's test)
# --------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    max_iter = 200
    eps = 3e-12
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) via the symmetric continued-fraction expansion."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, dof: float) -> float:
    """Two-sided tail probability P(|T| >= |t|) for Student's t."""
    if dof <= 0:
        return 1.0
    if math.isinf(t):
        return 0.0
    x = dof / (dof + t * t)
    return regularized_incomplete_beta(dof / 2.0, 0.5, x)


@dataclass(frozen=True)
class TTestResult:
    """Outcome of one Welch test."""

    statistic: float
    dof: float
    p_value: float
    n_a: int
    n_b: int

    def significant(self, alpha: float = 0.01) -> bool:
        return self.p_value < alpha


def welch_t_test(sample_a: Sequence[float],
                 sample_b: Sequence[float]) -> TTestResult:
    """Welch's unequal-variance t-test between two samples.

    Degenerate inputs resolve conservatively rather than raising: with
    fewer than two observations on either side there is no variance
    estimate, so the test cannot reject (``p = 1.0``); two zero-variance
    samples are distinguishable iff their means differ (``p`` 0 or 1).
    """
    n_a, n_b = len(sample_a), len(sample_b)
    if n_a < 2 or n_b < 2:
        return TTestResult(0.0, 0.0, 1.0, n_a, n_b)
    mean_a, mean_b = mean(sample_a), mean(sample_b)
    var_a, var_b = variance(sample_a), variance(sample_b)
    if var_a == 0.0 and var_b == 0.0:
        if mean_a == mean_b:
            return TTestResult(0.0, float(n_a + n_b - 2), 1.0, n_a, n_b)
        return TTestResult(math.inf if mean_a > mean_b else -math.inf,
                           float(n_a + n_b - 2), 0.0, n_a, n_b)
    se_sq = var_a / n_a + var_b / n_b
    statistic = (mean_a - mean_b) / math.sqrt(se_sq)
    dof = se_sq ** 2 / (
        (var_a / n_a) ** 2 / (n_a - 1) + (var_b / n_b) ** 2 / (n_b - 1))
    return TTestResult(statistic, dof, student_t_sf(statistic, dof),
                       n_a, n_b)


# --------------------------------------------------------------------------
# Mutual information on labelled observations
# --------------------------------------------------------------------------

def category_codes(values: Iterable[Hashable]) -> list[int]:
    """Small-int codes for categorical values, in first-appearance order.

    Equal values get equal codes and distinct values distinct ones, so
    any statistic of the value counts is unchanged by the coding — but
    a code hashes in O(1), where a canonical observation key (a nested
    tuple over a whole access stream) rehashes its full length on every
    dictionary operation.
    """
    index: dict = {}
    return [index.setdefault(value, len(index)) for value in values]


def _entropy(counts: Iterable[int], total: int) -> float:
    """Plug-in entropy of *counts* (summed in the order given)."""
    entropy = 0.0
    for count in counts:
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def _coded_mi(labels: list[int], observations: list[int]) -> float:
    """I(L; O) over int-coded (label, observation) columns.

    Counters keep first-appearance order, so every entropy term is
    summed in the same order as over the uncoded pairs — the result is
    bit-identical, not just close.
    """
    total = len(labels)
    value = (_entropy(Counter(labels).values(), total)
             + _entropy(Counter(observations).values(), total)
             - _entropy(Counter(zip(labels, observations)).values(), total))
    # Clamp float round-off; information is never negative.
    return max(0.0, value)


def paired_mutual_information_bits(
        pairs: Sequence[tuple[Hashable, Hashable]]) -> float:
    """Plug-in estimate of I(label; observation) from (label, obs) pairs.

    Unlike the single-observation-per-secret form in
    :mod:`repro.security.leakage`, this handles repeated noisy trials:
    I = H(L) + H(O) - H(L, O) over the empirical joint.  Both elements
    of each pair must already be hashable keys (see
    :func:`repro.security.leakage.observation_key`); each is hashed
    once, so the cost is O(pairs) whatever the keys' size.
    """
    if len(pairs) < 2:
        return 0.0
    return _coded_mi(category_codes(label for label, _obs in pairs),
                     category_codes(obs for _label, obs in pairs))


def permutation_test(pairs: Sequence[tuple[Hashable, Hashable]],
                     rng: random.Random,
                     rounds: int = 500) -> tuple[float, float]:
    """Label-permutation p-value for the MI statistic.

    Returns ``(observed_mi, p_value)`` where ``p_value`` is the
    add-one-smoothed fraction of label shuffles whose MI is at least the
    observed value.  If the labels carry no information (all
    observations identical), every shuffle ties the observed statistic
    and the p-value is 1.0 — the distinguisher's null.

    ``rounds`` sets the p-value floor at ``1/(rounds + 1)``; the
    default leaves a comfortable margin below the attack engine's 0.01
    decision threshold even when a few shuffles of a small balanced
    campaign tie the observed statistic by chance.

    Labels and observations are coded to small ints once (see
    :func:`category_codes`), so each round costs O(pairs) on ints.  The
    shuffles consume *rng* exactly as shuffling the uncoded labels
    would.
    """
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


# --------------------------------------------------------------------------
# Majority vote
# --------------------------------------------------------------------------

def majority_vote(votes: Sequence[int],
                  rng: random.Random | None = None) -> int:
    """The majority bit of *votes*; exact ties are broken by *rng* (or 0).

    Raises ``ValueError`` on an empty vote set — a caller that has no
    observations has no business claiming a recovered bit.
    """
    if not votes:
        raise ValueError("majority_vote needs at least one vote")
    ones = sum(1 for vote in votes if vote)
    zeros = len(votes) - ones
    if ones == zeros:
        return rng.randrange(2) if rng is not None else 0
    return 1 if ones > zeros else 0
