"""Ablation: prefetchers and the dual-path locality effect.

The paper observes that executing both paths can *help* the caches:
one path warms lines for the other (and ShadowMemory copies sit close
together).  This bench runs djpeg with prefetchers on and off, on both
machines, and reports the DL1 miss-rate deltas.
"""

from repro.core import simulate
from repro.harness.report import format_table
from repro.uarch.config import MachineConfig
from repro.workloads.djpeg import DjpegSpec, compile_djpeg


def run_matrix():
    spec = DjpegSpec("gif", 512)
    results = {}
    for sempe in (False, True):
        program = compile_djpeg(spec, "sempe" if sempe else "plain").program
        for prefetch in (False, True):
            config = MachineConfig()
            config.hierarchy.enable_l1_prefetcher = prefetch
            config.hierarchy.enable_l2_prefetcher = prefetch
            report = simulate(program, defense="sempe" if sempe else "plain",
                              config=config)
            results[(sempe, prefetch)] = report
    return results


def test_ablation_prefetchers():
    results = run_matrix()
    rows = []
    for (sempe, prefetch), report in results.items():
        rows.append([
            "SeMPE" if sempe else "baseline",
            "on" if prefetch else "off",
            report.cycles,
            f"{report.miss_rates['DL1'] * 100:.2f}%",
            f"{report.miss_rates['L2'] * 100:.2f}%",
        ])
    print()
    print(format_table(
        ["machine", "prefetch", "cycles", "DL1 miss", "L2 miss"], rows,
        title="Prefetcher ablation (djpeg gif-512px)"))
    # Prefetching must not hurt cycles on either machine.
    assert results[(False, True)].cycles <= results[(False, False)].cycles
    assert results[(True, True)].cycles <= results[(True, False)].cycles
