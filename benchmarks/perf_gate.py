"""Performance gate: perfbench on this checkout against a base commit.

Usage (from the root of a checkout)::

    python3 benchmarks/perf_gate.py --base REF    # make perf-gate BASE=REF

Checks REF out into a temporary git worktree and runs every workload
named in ``BENCHMARK.json`` on both trees (the file's command and run
length, seed 0), :data:`PAIRS` pairs per workload with the side that
goes first alternating.  Exit 1 (red) when a median end-to-end metric
is worse than the base by more than its ``BENCHMARK.json`` bound, read
in its ``better`` direction; when either side reports ``correct:
false``; or when the change reports more ``failed`` operations.
Whether ``sim_digest`` matches is printed for information only: the
tier-1 goldens pin the model's results.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 3


def load_benchmark(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_perfbench(tree: str, workload: str, benchmark: dict) -> dict:
    """One perfbench run in *tree*: its result object plus the
    ``sim_digest`` of its details line (a crash is an incorrect run)."""
    command = benchmark["command"] + [
        "--workload", workload, "--seed", "0",
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["sim_digest"] = json.loads(lines[-2])["sim_digest"]
    except (IndexError, KeyError, ValueError):
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "failed": 0, "metrics": {},
                "sim_digest": None, "error": f"exit {done.returncode}: {tail}"}
    return result


def _spread(values: list[float]) -> float:
    """(max - min) / median of one side's samples."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def decide(base: list[dict], change: list[dict],
           end_to_end: list[dict]) -> tuple[list[str], list[dict]]:
    """The gate's rule over one workload's runs -> (reasons it is red,
    one row per end-to-end metric).  Green when the reasons are empty."""
    reasons = []
    for side, runs in (("base", base), ("change", change)):
        bad = [run for run in runs if not run["correct"]]
        if bad:
            reasons.append(f"{side} reported correct: false in {len(bad)} "
                           f"of {len(runs)} runs"
                           + (f" ({bad[0]['error']})" if "error" in bad[0]
                              else ""))
    base_failed = sum(run["failed"] for run in base)
    change_failed = sum(run["failed"] for run in change)
    if change_failed > base_failed:
        reasons.append(f"change failed {change_failed} operations, "
                       f"base {base_failed}")
    rows = []
    for entry in end_to_end:
        name, bound = entry["name"], entry["bound"]
        sides = [[run["metrics"][name]["value"] for run in runs
                  if name in run["metrics"]] for runs in (base, change)]
        if not all(sides):
            reasons.append(f"{name}: no measurement")
            continue
        base_median, change_median = map(statistics.median, sides)
        delta = change_median - base_median
        if entry["better"] == "higher":
            delta = -delta
        worse = (delta / base_median if base_median
                 else float("inf") if delta > 0 else 0.0)
        ok = worse <= bound
        if not ok:
            reasons.append(f"{name} worse by {worse:.1%} "
                           f"(bound {bound:.0%})")
        rows.append({"metric": name, "base": base_median,
                     "change": change_median, "worse": worse,
                     "base_spread": _spread(sides[0]),
                     "change_spread": _spread(sides[1]),
                     "bound": bound, "ok": ok})
    return reasons, rows


ROW = "{:<14} {:<12} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  {}"


def _report(workload: str, runs: dict, reasons: list[str],
            rows: list[dict]) -> None:
    for row in rows:
        print(ROW.format(workload, row["metric"], f"{row['base']:.4g}",
                         f"{row['change']:.4g}", f"{row['worse']:+.1%}",
                         f"{row['base_spread']:.1%}",
                         f"{row['change_spread']:.1%}", f"{row['bound']:.0%}",
                         "ok" if row["ok"] else "RED"))
    digests = {run["sim_digest"] for side in runs.values() for run in side}
    print(f"{workload:<14} sim_digest   "
          f"{'identical' if len(digests) == 1 else 'DIFFERS'} "
          "(information only)")
    for reason in reasons:
        print(f"{workload:<14} RED: {reason}")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git ref to compare this checkout against")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    red = False
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as workdir:
        trees = {"base": os.path.join(workdir, "base"), "change": ROOT}
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                        trees["base"], args.base], check=True)
        try:
            print(ROW.format("workload", "metric", "base", "change", "worse",
                             "base±", "change±", "bound", "verdict"),
                  flush=True)
            for workload in (w["name"] for w in benchmark["workloads"]):
                runs: dict[str, list[dict]] = {"base": [], "change": []}
                for pair in range(PAIRS):
                    order = ("base", "change") if pair % 2 == 0 \
                        else ("change", "base")
                    for side in order:
                        print(f"perf-gate: {workload} pair {pair + 1}/"
                              f"{PAIRS} {side}", file=sys.stderr, flush=True)
                        runs[side].append(
                            run_perfbench(trees[side], workload, benchmark))
                reasons, rows = decide(runs["base"], runs["change"],
                                       benchmark["end_to_end"])
                _report(workload, runs, reasons, rows)
                red = red or bool(reasons)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove",
                            "--force", trees["base"]], check=False)
    print(f"perf-gate vs {args.base}: {'RED' if red else 'green'}")
    return 1 if red else 0


if __name__ == "__main__":
    sys.exit(main())
