#!/usr/bin/env python3
"""Quickstart: compile a secret-branching program and compare machines.

Demonstrates the full pipeline in one page:

1. write a mini-C program with a ``secret`` variable;
2. compile it three ways: ``plain`` (insecure baseline), ``sempe``
   (secure branches + ShadowMemory), ``cte`` (FaCT-style constant-time);
3. run each on the simulated machine and compare cycles;
4. check the side channels with the noninterference reporter.

Run:  python examples/quickstart.py
"""

from repro.lang import compile_source
from repro.core import simulate
from repro.security import noninterference_report

SOURCE = """
secret int key = 0;
int result = 0;

void main() {
  int acc = 0;
  for (int it = 0; it < 10; it = it + 1) {
    if (key) {
      // the expensive path: runs (architecturally) only when key != 0,
      // but the SeMPE machine executes it on every iteration anyway.
      int w = 0;
      for (int i = 0; i < 40; i = i + 1) { w = w + i * i; }
      acc = acc + w;
    } else {
      acc = acc - 3;
    }
  }
  result = acc;
}
"""


def main() -> None:
    print("=== SeMPE quickstart ===\n")

    runs = {}
    for mode in ("plain", "sempe", "cte"):
        compiled = compile_source(SOURCE, mode=mode)
        report = simulate(compiled.program, defense=mode)
        runs[mode] = report
        machine = "SeMPE machine" if report.sempe else "baseline machine"
        print(f"{mode:6s} on {machine:16s}: "
              f"{report.cycles:6d} cycles, "
              f"{report.instructions:5d} instructions, "
              f"IPC {report.ipc:.2f}")

    base = runs["plain"].cycles
    print(f"\nSeMPE overhead:   {runs['sempe'].cycles / base:.2f}x "
          "(executes BOTH paths of the secret branch)")
    print(f"CTE overhead:     {runs['cte'].cycles / base:.2f}x "
          "(predicated straight-line code)")

    print("\n--- side channels across secret values {0, 1, 9} ---")
    for mode in ("plain", "sempe"):
        compiled = compile_source(SOURCE, mode=mode)
        report = noninterference_report(
            compiled.program, "key", [0, 1, 9], defense=mode)
        print(f"\n[{mode} compile, sempe={report.sempe}]")
        print(report.summary())

    print("\nThe baseline leaks on every behavioural channel; "
          "SeMPE closes all of them.")


if __name__ == "__main__":
    main()
