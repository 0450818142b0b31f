"""End-to-end benchmark runner for the SeMPE reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload attack-matrix --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs one untraced pass and then the same phase again with
spans around every layer's public calls, and reports the per-layer
split.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries the details (``sim_digest``, ``failed_frac``, the
tail percentile and sample count, any failure messages).

See ``perfbench/README.md`` for the workloads, the metrics and what
each layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 7

END_TO_END_UNITS = {
    "wall_s": "s",
    "cell_p50_s": "s",
    "cell_tail_s": "s",
    "sim_ips": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "stats.self_s": "s",
    "stats.perm_tests": "count",
    "stats.welch_tests": "count",
    "attackers.self_s": "s",
    "uarch.self_s": "s",
    "uarch.passes": "count",
    "uarch.memo_hits": "count",
    "uarch.shared": "count",
    "uarch.memo_hit_frac": "ratio",
    "arch.self_s": "s",
    "arch.instructions": "count",
    "arch.lanes": "count",
    "lang.calls": "count",
    "lang.self_s": "s",
    "isa.predecode_calls": "count",
    "isa.self_s": "s",
    "core.self_s": "s",
    "observer.calls": "count",
    "observer.lanes": "count",
    "observer.self_s": "s",
    "analysis.self_s": "s",
    "leakage.self_s": "s",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.puts": "count",
    "parallel.wall_s": "s",
    "parallel.efficiency": "ratio",
    "runner.cache_hits": "count",
    "runner.cache_misses": "count",
    "experiments.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("attack-matrix", "paper-figures",
                                 "sweep-verify"))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (0 reproduces the cells "
                             "`repro experiments` caches)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget for the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one fresh-interpreter set-up measurement (see setup_s).
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_workloads():
    # Pin the engine: a REPRO_ENGINE from the environment would move the
    # default-engine cells to another engine.
    os.environ.pop("REPRO_ENGINE", None)
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import workloads

    return workloads


def _idle() -> None:
    """Target of the processes a sweep-verify set-up probe forks."""


def setup_probe(args: argparse.Namespace) -> int:
    """Import, build and fingerprint the grid (and, for sweep-verify,
    fork the pool's worker processes), then print the monotonic clock."""
    workloads = _import_workloads()
    workload = workloads.build(args.workload, args.seed, root=ROOT)
    workers = []
    if args.workload == "sweep-verify":
        import multiprocessing

        context = multiprocessing.get_context()
        workers = [context.Process(target=_idle)
                   for _ in range(workloads.SWEEP_JOBS)]
        for worker in workers:
            worker.start()
    ready = time.monotonic()
    for worker in workers:
        worker.join()
    del workload
    print(repr(ready))
    return 0


def setup_samples(args: argparse.Namespace, count: int,
                  speed) -> list[tuple[float, float]]:
    """(host, reference) seconds from launching a fresh interpreter to
    the point where the first cell would be dispatched, *count* times."""
    from perfbench.speed import NEAREST

    samples = []
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    for _ in range(count):
        speed.probe(NEAREST)
        launched = time.monotonic()
        offset = time.perf_counter() - launched
        done = subprocess.run(command, capture_output=True, text=True,
                              cwd=ROOT, timeout=120, check=True)
        ready = float(done.stdout.strip().splitlines()[-1])
        speed.probe(NEAREST)
        samples.append((ready - launched,
                        speed.scaled(launched + offset, ready + offset)))
    return samples


def _cell_stats(passes, seconds) -> tuple[float, float, int, int]:
    """Per-cell medians across passes -> (p50, tail, tail percentile,
    sample count); *seconds* converts a (start, end) span.  The tail is
    the highest percentile with at least ten cells beyond it."""
    by_cell: dict[str, list[float]] = {}
    for one in passes:
        for key, span in one.serial.cell_spans.items():
            by_cell.setdefault(key, []).append(seconds(*span))
    per_cell = sorted(statistics.median(v) for v in by_cell.values())
    if not per_cell:
        return 0.0, 0.0, 0, 0
    count = len(per_cell)
    rank = max(1, count - 10)
    return (statistics.median(per_cell), per_cell[rank - 1],
            int(100 * rank / count), count)


def _peak_rss_mb(pooled: bool) -> float:
    """Peak resident memory of this process, plus the largest peak of
    any child (a pool worker; set-up probes are smaller) when the
    workload forks a pool."""
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pooled:
        kilobytes += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kilobytes / 1024.0


def _run_passes(workload, seconds: float) -> list:
    """At least one pass; another only while it fits the budget."""
    start = time.perf_counter()
    passes = []
    while True:
        began = time.perf_counter()
        passes.append(workload.run_pass())
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            return passes


def end_to_end(workload, args) -> tuple[dict, list, dict]:
    """Every timing is reported in reference seconds (host seconds
    rescaled by the machine's measured slowdown, see perfbench/speed.py);
    the raw host-second values go to the details line."""
    speed = workload.speed
    # Set-up probes on both sides of the passes, so that they sample the
    # machine at two points in time.
    setup = setup_samples(args, SETUP_PROBES // 2, speed)
    passes = _run_passes(workload, args.seconds)
    timed = [phase for p in passes for phase in p.timed]
    walls = [speed.scaled(*phase.window) for phase in timed]
    p50, tail, tail_pct, samples = _cell_stats(passes, speed.scaled)
    metrics = {
        "wall_s": statistics.median(walls),
        "cell_p50_s": p50,
        "cell_tail_s": tail,
        "sim_ips": statistics.median(
            workload.simulated_instructions(phase) / wall
            for phase, wall in zip(timed, walls)),
        "peak_rss_mb": _peak_rss_mb(any(p.pooled for p in passes)),
    }
    setup += setup_samples(args, SETUP_PROBES - len(setup), speed)
    metrics["setup_s"] = statistics.median(ref for _host, ref in setup)
    raw_p50, raw_tail, _, _ = _cell_stats(passes, lambda a, b: b - a)
    details = {
        "passes": len(passes), "wall_samples": len(timed),
        "cell_tail_pct": tail_pct, "cell_samples": samples,
        "slowdown": speed.median_slowdown(),
        "host_s": {
            "wall_s": statistics.median(phase.wall for phase in timed),
            "cell_p50_s": raw_p50,
            "cell_tail_s": raw_tail,
            "setup_s": statistics.median(host for host, _ref in setup),
        },
    }
    return metrics, [phase for p in passes for phase in p.phases], details


def per_layer(workload, args, workloads) -> tuple[dict, list, dict]:
    """One untraced pass, then its serial phase again under the tracer
    (sweep-verify's traced phase runs its grid at jobs=1: spans from
    pool workers do not reach the parent)."""
    from perfbench import tracing
    from perfbench.speed import Speedometer

    # Raw host seconds throughout: no speed probes in either phase.
    workload.speed = Speedometer(enabled=False)
    untraced = workload.run_pass()
    tracer = tracing.Tracer()
    with tracer:
        traced = workload.serial_phase()
    self_times, covered = tracer.self_times(traced.window)
    counts = tracer.counts
    counters = traced.counters
    lookups = (counters["memo.hits"] + counters["memo.misses"]
               + counters["memo.shared"])
    metrics: dict[str, float] = {
        f"{layer}.self_s": self_times.get(f"{layer}.self_s", 0.0)
        for layer in tracing.SELF_TIME_LAYERS}
    metrics.update({
        "stats.perm_tests": counts["stats.perm_tests"],
        "stats.welch_tests": counts["stats.welch_tests"],
        "uarch.passes": counters["memo.misses"],
        "uarch.memo_hits": counters["memo.hits"],
        "uarch.shared": counters["memo.shared"],
        "uarch.memo_hit_frac": (counters["memo.hits"] / lookups
                                if lookups else 0.0),
        "arch.instructions": counts["arch.instructions"],
        "arch.lanes": counts["arch.lanes"],
        "lang.calls": counts["lang.calls"],
        "isa.predecode_calls": counts["isa.predecode_calls"],
        "observer.calls": counts["observer.calls"],
        "observer.lanes": counts["observer.lanes"],
        "store.get_s": self_times.get("store.get_s", 0.0),
        "store.put_s": self_times.get("store.put_s", 0.0),
        "store.hits": counters.get("store.hits", 0),
        "store.misses": counters.get("store.misses", 0),
        "store.puts": counters.get("store.puts", 0),
        "runner.cache_hits": counters["runner.cache_hits"],
        "runner.cache_misses": counters["runner.cache_misses"],
        "parallel.wall_s": 0.0,
        "parallel.efficiency": 0.0,
        "trace.wall_s": traced.wall,
        "trace.overhead_s": traced.wall - untraced.serial.wall,
        "trace.uncovered_s": traced.wall - covered,
    })
    if untraced.pooled:
        pooled_wall = statistics.median(p.wall for p in untraced.pooled)
        metrics["parallel.wall_s"] = pooled_wall
        metrics["parallel.efficiency"] = sum(
            end - start for start, end
            in untraced.serial.cell_spans.values()) / (
            workloads.SWEEP_JOBS * pooled_wall)
    spans_path = os.path.join(ROOT, workloads.WORK_DIR,
                              f"spans-{args.workload}.json")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
    details = {"passes": 1, "traced_jobs": 1, "spans": len(tracer.spans),
               "spans_file": os.path.relpath(spans_path, ROOT)}
    return metrics, untraced.phases + [traced], details


def run(args: argparse.Namespace, minimal: bool = False) -> dict:
    """Run one benchmark invocation; returns the result object and
    prints the details line.  *minimal* shrinks the grids for the
    self-test (``perfbench/selftest.py``)."""
    workloads = _import_workloads()
    workload = workloads.build(args.workload, args.seed, minimal=minimal,
                               root=ROOT)
    try:
        if args.trace:
            metrics, phases, details = per_layer(workload, args, workloads)
            units = PER_LAYER_UNITS
        else:
            metrics, phases, details = end_to_end(workload, args)
            units = END_TO_END_UNITS
    finally:
        workload.cleanup()
    failures = [f for phase in phases for f in phase.failures]
    digests = sorted({phase.digest() for phase in phases})
    if len(digests) > 1:
        failures.append(f"sim_digest differs between passes: {digests}")
    attempted = sum(phase.attempted for phase in phases)
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "sim_digest": digests[0],
        "failed_frac": len(failures) / max(attempted, 1),
        "failures": failures[:20],
    })
    print(json.dumps(details, sort_keys=True))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
