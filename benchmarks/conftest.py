"""Benchmark configuration.

Set ``REPRO_BENCH_SCALE=full`` to run the paper-scale sweeps: every
experiment at its own default sizing (W = 1..10, djpeg up to 4096
pixels, the four microbenchmarks).  The default ``quick`` scale
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


@pytest.fixture(scope="session")
def scale() -> dict:
    name = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    # The paper scale passes no sizing: it is the experiments' defaults.
    return {} if name == "full" else QUICK
