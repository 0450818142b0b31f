"""Benchmark configuration.

Set ``REPRO_BENCH_SCALE=full`` to run the paper-scale sweeps
(W = 1..10, djpeg up to 4096 pixels).  The default ``quick`` scale
exercises every experiment end-to-end with smaller sweeps so the whole
benchmark suite finishes in a few minutes of pure-Python simulation.
"""

from __future__ import annotations

import os

import pytest

# Sizing keywords of ``render_experiment``; each experiment takes the
# ones it needs (Table I runs at depth ``w``).
QUICK = {
    "w": 4,
    "w_sweep": (1, 2, 4),
    "sizes": (256, 512, 1024),
    "workloads": ("fibonacci", "ones", "quicksort", "queens"),
}

FULL = {
    "w": 10,
    "w_sweep": (1, 2, 4, 6, 8, 10),
    "sizes": (512, 1024, 2048, 4096),
    "workloads": ("fibonacci", "ones", "quicksort", "queens"),
}


@pytest.fixture(scope="session")
def scale() -> dict:
    name = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    return FULL if name == "full" else QUICK
