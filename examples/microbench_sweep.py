#!/usr/bin/env python3
"""A miniature Fig. 10 sweep: slowdown vs nesting depth W.

Regenerates Figs. 10a and 10b through the experiment registry for the
Fibonacci and Ones microbenchmarks at a few nesting depths on all three
schemes (baseline, SeMPE, FaCT-like CTE), and prints each table with
the verdicts of the paper's claims about it.  `repro sweep fig10a
fig10b` runs the same experiments at any depth.

Run:  python examples/microbench_sweep.py
"""

from repro.harness import format_table, render_experiment

SIZING = {"w_sweep": (1, 2, 4), "workloads": ("fibonacci", "ones")}


def main() -> None:
    print("=== microbenchmark sweep (Fig. 10, reduced) ===")
    for name in ("fig10a", "fig10b"):
        result = render_experiment(name, **SIZING)
        print()
        print(format_table(result.headers, result.rows,
                           title=result.experiment))
        for verdict in result.claims:
            print(verdict)
    print("\nSeMPE tracks the executed path count (about W+1) and stays "
          "near the ideal;\nCTE's per-statement condition products make "
          "it grow super-linearly with W.")


if __name__ == "__main__":
    main()
