"""CI perf-regression gate: measured throughput vs committed baseline.

Compares a fresh quick-scale measurement of the engine throughput
metrics (``fast_ips``, ``batch_ips``, ``campaign_ips``) against the
committed ``BENCH_baseline.json`` and fails (exit 1) when any metric
regresses by more than :data:`THRESHOLD` after machine-speed
normalisation.

Every gated metric and the calibration figure are sampled
:data:`SAMPLES` times and the gate compares medians: on a shared host a
single sample of unchanged code lands 15–25 % under the baseline often
enough to turn the gate red by itself.  The spread of each metric's
samples is printed beside it.

Raw instructions/second are not comparable across machines, so the
baseline also records a **calibration** figure — the throughput of a
fixed pure-Python loop on the recording machine.  At gate time the same
loop is re-timed and every baseline metric is scaled by
``current_calibration / baseline_calibration`` before the threshold is
applied.  That keeps the gate about *the code*, not the runner.

Usage::

    python benchmarks/bench_gate.py                  # gate (CI entry)
    python benchmarks/bench_gate.py --write-baseline # refresh baseline
    python benchmarks/bench_gate.py --check-schema   # validate BENCH_perf.json
    python benchmarks/bench_gate.py --simulate-regression 20  # demo red

``--write-baseline`` is the **only** way the baseline moves: a refresh
must land as an explicit, reviewed diff of ``BENCH_baseline.json``
(see CONTRIBUTING.md), never as a side effect of a green run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import bench_perf_engine
from conftest import QUICK

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "BENCH_baseline.json")

# Fractional regression (after calibration scaling) that turns the
# gate red.  15% clears normal same-machine jitter; the calibration
# scaling absorbs cross-machine deltas.
THRESHOLD = 0.15

# Metrics under the gate.  fast_ips guards the serial hot loop,
# batch_ips the single-lane batched path, campaign_ips the
# many-trial aggregate that justifies the batched engine,
# pipeline_ips the default (speculation-off) pipeline path,
# pipeline_spec_ips the wrong-path replay with the window enabled,
# campaign_cycles_ips the with-timing campaign through the batched
# timing path (lane sharing + memoization), and pipeline_batch_ips
# the batched timing model alone (pipeline_ips's batched counterpart).
GATED_METRICS = ("fast_ips", "batch_ips", "campaign_ips",
                 "pipeline_ips", "pipeline_spec_ips",
                 "campaign_cycles_ips", "pipeline_batch_ips")

# Samples per gated metric (and of the calibration figure); the gate
# and the baseline both use their median.
SAMPLES = 3

_CALIBRATION_OPS = 2_000_000


def _calibrate() -> float:
    """Machine-speed probe: ops/second of a fixed interpreter-bound
    loop (same flavour of work as the simulator hot loops)."""
    best = 0.0
    for _attempt in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(_CALIBRATION_OPS):
            acc = (acc + i * 3) & 0xFFFFFFFFFFFFFFFF
        elapsed = time.perf_counter() - started
        best = max(best, _CALIBRATION_OPS / elapsed)
    return best


def _load_baseline() -> dict:
    with open(BASELINE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _measure_metrics() -> dict:
    entry = bench_perf_engine.measure(QUICK)
    problems = bench_perf_engine.validate_entry(entry)
    if problems:
        raise SystemExit(f"measurement violates bench schema: {problems}")
    return entry


def _sample() -> tuple[float, dict, dict[str, list[float]]]:
    """:data:`SAMPLES` calibration + measurement rounds, interleaved so
    both see the same machine.  Returns the median calibration, the last
    entry with every gated metric replaced by its median, and each
    gated metric's samples (``"calibration_ips"`` included)."""
    calibrations = []
    entries = []
    for _round in range(SAMPLES):
        calibrations.append(_calibrate())
        entries.append(_measure_metrics())
    samples = {key: [entry[key] for entry in entries]
               for key in GATED_METRICS}
    samples["calibration_ips"] = calibrations
    entry = dict(entries[-1])
    for key in GATED_METRICS:
        entry[key] = statistics.median(samples[key])
    return statistics.median(calibrations), entry, samples


def spread(values: list[float]) -> float:
    """(max - min) / median of one metric's samples."""
    return (max(values) - min(values)) / statistics.median(values)


def write_baseline() -> int:
    calibration, entry, samples = _sample()
    baseline = {
        "recorded": entry["timestamp"],
        "python": platform.python_version(),
        "cpu": entry["cpu"],
        "calibration_ips": round(calibration),
        "metrics": {key: round(entry[key]) for key in GATED_METRICS},
    }
    with open(BASELINE, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    print(f"baseline written to {BASELINE} (median of {SAMPLES}):")
    for key in GATED_METRICS + ("calibration_ips",):
        value = baseline[key] if key == "calibration_ips" \
            else baseline["metrics"][key]
        print(f"  {key:>18}: {value:,}  (spread {spread(samples[key]):.1%})")
    return 0


def check_schema() -> int:
    artifact = bench_perf_engine.ARTIFACT
    with open(artifact, "r", encoding="utf-8") as handle:
        trajectory = json.load(handle)
    if not trajectory:
        print(f"SCHEMA: {artifact} is empty", file=sys.stderr)
        return 1
    problems = bench_perf_engine.validate_entry(trajectory[-1])
    if problems:
        for problem in problems:
            print(f"SCHEMA: {problem}", file=sys.stderr)
        return 1
    print(f"schema OK: last of {len(trajectory)} entries carries all "
          f"{len(bench_perf_engine.SCHEMA_KEYS)} keys")
    return 0


def evaluate(baseline: dict, entry: dict, factor: float,
             penalty: float = 1.0) -> tuple[list[tuple], list[str]]:
    """Pure gate decision: delta rows and the list of failed metrics.

    *factor* scales the baseline to the current machine's speed;
    *penalty* scales the measurement down (the ``--simulate-regression``
    demo hook).  Separated from the timing so the threshold logic is
    unit-testable with synthetic numbers.
    """
    rows = []
    failed = []
    for key in GATED_METRICS:
        measured = entry[key] * penalty
        expected = baseline["metrics"][key] * factor
        delta = measured / expected - 1.0
        status = "ok"
        if delta < -THRESHOLD:
            status = "REGRESSION"
            failed.append(key)
        rows.append((key, baseline["metrics"][key], round(expected),
                     round(measured), delta, status))
    return rows, failed


def run_gate(simulate_regression: float = 0.0) -> int:
    baseline = _load_baseline()
    calibration, entry, samples = _sample()
    factor = calibration / baseline["calibration_ips"]
    rows, failed = evaluate(baseline, entry, factor,
                            penalty=1.0 - simulate_regression / 100.0)

    header = (f"{'metric':>18} {'baseline':>12} {'expected*':>12} "
              f"{'measured':>12} {'spread':>7} {'delta':>8}  status")
    print(header)
    print("-" * len(header))
    for key, base, expected, measured, delta, status in rows:
        print(f"{key:>18} {base:>12,} {expected:>12,} {measured:>12,} "
              f"{spread(samples[key]):>7.1%} {delta:>+7.1%}  {status}")
    print(f"(measured = median of {SAMPLES} samples, spread = "
          f"(max - min) / median; * baseline scaled by machine factor "
          f"{factor:.2f} = {calibration:,.0f} / "
          f"{baseline['calibration_ips']:,} calibration ops/s, spread "
          f"{spread(samples['calibration_ips']):.1%}; threshold "
          f"-{THRESHOLD:.0%})")
    if simulate_regression:
        print(f"(simulated regression of {simulate_regression:.0f}% "
              "applied to measured values)")

    if failed:
        print(f"\nGATE RED: {', '.join(failed)} regressed more than "
              f"{THRESHOLD:.0%}.  If this is an accepted trade-off, "
              "refresh the baseline explicitly:\n"
              "  python benchmarks/bench_gate.py --write-baseline\n"
              "and commit the BENCH_baseline.json diff for review.",
              file=sys.stderr)
        return 1
    print("\nGATE GREEN: no gated metric regressed beyond the threshold.")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write-baseline", action="store_true",
                        help="re-measure and overwrite BENCH_baseline.json")
    parser.add_argument("--check-schema", action="store_true",
                        help="validate the last BENCH_perf.json entry "
                             "against the fixed schema and exit")
    parser.add_argument("--simulate-regression", type=float, default=0.0,
                        metavar="PCT",
                        help="scale measured values down by PCT%% to "
                             "demonstrate the gate turning red")
    args = parser.parse_args(argv)
    if args.check_schema:
        return check_schema()
    if args.write_baseline:
        return write_baseline()
    return run_gate(simulate_regression=args.simulate_regression)


if __name__ == "__main__":
    sys.exit(main())
