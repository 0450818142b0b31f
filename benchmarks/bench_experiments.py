"""The paper's evaluation: Tables I and II, Figs. 8, 9, 10a and 10b.

Each experiment is regenerated through ``render_experiment`` at the
benchmark scale (``conftest.py``), printed, and checked against the
paper's shape.  These files are not collected by a bare ``pytest``
run; name them (``make bench`` at quick scale, ``make bench-full`` at
paper scale).  Timing is perfbench's job, not theirs.
"""

import pytest

from repro.harness import format_table, render_experiment
from repro.uarch.branch.tage import Tage


def check_table1(result, scale):
    """Table I: approach comparison (CTE, GhostRider, Raccoon, SeMPE).

    The qualitative rows plus an overhead row pairing the paper's
    reported numbers with overheads measured (SeMPE, CTE) or modelled
    (Raccoon, GhostRider) on our microbenchmarks.  Expected shape:
    SeMPE lowest overhead; CTE substantially higher; Raccoon and
    GhostRider (per-memory-op transaction / ORAM penalties) higher
    still, GhostRider the worst.
    """
    series = result.series
    assert max(series["SeMPE"]) < max(series["CTE"])
    assert max(series["CTE"]) < max(series["GhostRider"])
    assert max(series["Raccoon"]) > max(series["SeMPE"])


def check_table2(result, scale):
    """Table II: the baseline machine configuration matches the paper's
    parameters (2 GHz, 8-wide, 192-entry ROB, 31KB TAGE,
    32KB/16KB/256KB caches, 30-snapshot SPM at 64 B/cycle)."""
    text = format_table(result.headers, result.rows)
    for expected in ("2.0 GHz", "8 instructions / cycle", "192 uops",
                     "256 INT, 256 FP", "32+32 entries",
                     "32KB, 2-way assoc.", "16KB, 2-way assoc.",
                     "256KB, 2-way assoc.", "stride (L1), stream (L2)",
                     "30 snapshots", "64 B/cycle R/W"):
        assert expected in text, expected
    # The TAGE geometry lands in the paper's storage ballpark.
    assert 8 <= Tage().storage_bits() / 8 / 1024 <= 64


def check_fig8(result, scale):
    """Fig. 8: djpeg execution-time overhead, 3 formats x input sizes.

    Paper: overheads between 31% and 87%, ordered PPM > GIF > BMP, and
    essentially flat across image sizes (the secure-region work per
    block does not depend on the image size).
    """
    series = result.series
    for index in range(len(scale["sizes"])):
        assert series["ppm"][index] > series["gif"][index] > \
            series["bmp"][index]
    for fmt, overheads in series.items():
        for overhead in overheads:
            assert 0.05 < overhead < 1.5, (fmt, overhead)
        assert max(overheads) - min(overheads) < 0.25, (fmt, overheads)


def check_fig9(result, scale):
    """Fig. 9: IL1 / DL1 / L2 miss rates, baseline vs SeMPE, on djpeg.

    Paper: IL1 miss rates low and size-independent; DL1 impact small
    (the ShadowMemory working sets of the two paths overlap, giving a
    prefetch effect); L2 rates higher overall but moving with the DL1.
    """
    series = result.series
    # IL1 stays low on both machines.
    for rate in series["IL1"]["base"] + series["IL1"]["sempe"]:
        assert rate < 0.10
    # SeMPE never blows up a miss rate by more than a few points.
    for level in ("IL1", "DL1", "L2"):
        for base_rate, sempe_rate in zip(series[level]["base"],
                                         series[level]["sempe"]):
            assert abs(sempe_rate - base_rate) < 0.2, level


def check_fig10a(result, scale):
    """Fig. 10a: microbenchmark slowdown vs nesting depth, SeMPE vs FaCT.

    Paper: SeMPE slowdown tracks the number of executed paths (about
    W+1, reaching 8.4-10.6x at W=10); FaCT/CTE starts at 3-32x at W=1
    and grows super-linearly (12.9-187.3x at W=10); CTE is 1.6-18x
    slower than SeMPE.
    """
    w_last = scale["w_sweep"][-1]
    for workload in scale["workloads"]:
        sempe = result.series[(workload, "sempe")]
        cte = result.series[(workload, "cte")]
        # Monotone growth with W for both schemes.
        assert sempe[-1] > sempe[0]
        assert cte[-1] > cte[0]
        # SeMPE tracks the path count W+1 within a factor (the
        # mispredict-heavy queens baseline needs long runs to converge,
        # hence the loose lower bound at quick scale).
        assert 0.4 * (w_last + 1) < sempe[-1] < 1.6 * (w_last + 1)
        # CTE is slower than SeMPE at depth.
        assert cte[-1] > sempe[-1]

    # The CTE-vs-SeMPE gap spans a wide range across workloads
    # (paper: 1.6x to 18x).
    gaps = [result.series[(w, "cte")][-1] / result.series[(w, "sempe")][-1]
            for w in scale["workloads"]]
    assert min(gaps) > 1.1
    assert max(gaps) > 3.0


def check_fig10b(result, scale):
    """Fig. 10b: average slowdown normalized to the ideal case.

    The ideal overhead of any SDBCB-removing scheme is the sum of the
    execution times of all branch paths (§IV-A).  Paper: SeMPE stays
    near (or slightly below, thanks to cross-path prefetching) the
    ideal, while CTE's normalized cost grows with nesting depth.
    """
    for value in result.series["sempe"]:
        assert 0.6 < value < 1.7   # near-ideal at every depth
    # CTE normalized cost exceeds SeMPE's everywhere and by a widening
    # margin at depth.
    for sempe_value, cte_value in zip(result.series["sempe"],
                                      result.series["cte"]):
        assert cte_value > sempe_value
    assert result.series["cte"][-1] / result.series["sempe"][-1] > 1.5


CHECKS = {
    "table1": check_table1,
    "table2": check_table2,
    "fig8": check_fig8,
    "fig9": check_fig9,
    "fig10a": check_fig10a,
    "fig10b": check_fig10b,
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_experiment(name, scale):
    result = render_experiment(name, **scale)
    print()
    print(format_table(result.headers, result.rows, title=result.experiment))
    CHECKS[name](result, scale)
