"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.security.leakage import candidate_secrets
from repro.uarch.config import MachineConfig, fast_functional


def leak_candidates(spec, params: dict | None = None) -> list:
    """The candidate secrets of workload *spec* at its leak parameters
    (*params* override them): exactly the list ``victim_campaign``
    profiles."""
    return candidate_secrets(spec.leak_values(spec.leak_resolve(params)))


def refold(history: int, length: int, bits: int) -> int:
    """XOR of the *bits*-wide chunks of the newest *length* bits of
    *history*: the from-scratch fold the TAGE and ITTAGE predictors
    once computed per lookup, kept as the oracle of their incremental
    folds (:class:`repro.uarch.branch.folded.FoldedHistory`)."""
    history &= (1 << length) - 1
    folded = 0
    while history:
        folded ^= history & ((1 << bits) - 1)
        history >>= bits
    return folded


@pytest.fixture
def fast_config() -> MachineConfig:
    """A small machine that keeps unit-test simulations quick."""
    return fast_functional()


SIMPLE_SECRET_IF = """
secret int key = 1;
int result = 0;

void main() {
  int acc = 0;
  if (key) {
    acc = acc + 7;
  } else {
    acc = acc - 3;
  }
  result = acc;
}
"""


@pytest.fixture
def simple_secret_source() -> str:
    return SIMPLE_SECRET_IF
