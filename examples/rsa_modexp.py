#!/usr/bin/env python3
"""The paper's Fig. 1 motivator: RSA square-and-multiply timing channel.

The modular-exponentiation loop multiplies only when the current key
bit is 1, so on a normal machine the execution time reveals the key's
Hamming weight — and the per-iteration branch trace reveals the key
itself.  This example:

1. runs the loop on the baseline machine for several keys and shows
   cycles tracking the Hamming weight (the classic timing attack);
2. runs the same binary on the SeMPE machine and shows the timing is
   flat;
3. verifies every run still computes the right power.

Run:  python examples/rsa_modexp.py
"""

from repro.arch.executor import Executor
from repro.lang import compile_source
from repro.uarch.pipeline import OutOfOrderPipeline
from repro.workloads.crypto import modexp_reference, modexp_source

BITS = 12
BASE = 7
MODULUS = 1000003
KEYS = [0x000, 0x001, 0x00F, 0x0FF, 0x3FF, 0xFFF, 0xA5A]


def run_with_key(compiled, sempe: bool, key: int):
    executor = Executor(compiled.program, sempe=sempe)
    executor.state.memory.store(compiled.program.symbols["ekey"], key)
    pipeline = OutOfOrderPipeline(sempe=sempe)
    stats = pipeline.run_chunks(executor.run_chunks(
        line_bytes=pipeline.config.hierarchy.il1.line_bytes))
    result = executor.state.memory.load(compiled.program.symbols["result"])
    return stats.cycles, result


def main() -> None:
    print(f"=== modular exponentiation: {BASE}^key mod {MODULUS}, "
          f"{BITS}-bit keys ===\n")
    source = modexp_source(bits=BITS, base=BASE, modulus=MODULUS, key=0)

    for mode, sempe, label in (
        ("plain", False, "baseline machine (vulnerable)"),
        ("sempe", True, "SeMPE machine (both paths execute)"),
    ):
        compiled = compile_source(source, mode=mode)
        print(f"--- {label} ---")
        print(f"{'key':>6s} {'weight':>6s} {'cycles':>8s} {'result ok':>9s}")
        cycles_seen = set()
        for key in KEYS:
            cycles, result = run_with_key(compiled, sempe, key)
            expected = modexp_reference(BITS, BASE, MODULUS, key)
            ok = "yes" if result == expected else "NO"
            weight = bin(key).count("1")
            print(f"{key:#06x} {weight:6d} {cycles:8d} {ok:>9s}")
            cycles_seen.add(cycles)
        if len(cycles_seen) == 1:
            print("=> constant time: the key is not inferable "
                  "from execution time.\n")
        else:
            spread = max(cycles_seen) - min(cycles_seen)
            print(f"=> timing varies by {spread} cycles with key weight: "
                  "the attacker reads the key.\n")


if __name__ == "__main__":
    main()
