"""The benchmark's three workloads, driven through the public harness API.

Each workload is a closed loop with one caller: the next cell is
dispatched only after the previous one returned.  A *pass* evaluates the
workload's whole grid on a cold cache and renders its tables; the
runner (``perfbench/run.py``) repeats passes for the run's time budget
and reports medians.  Every timing is host time.

* ``attack-matrix`` — victims × applicable attackers × {plain, sempe} on
  the batch engine, serial, no store.  Dominated by attack statistics.
* ``paper-figures`` — Fig. 10a at W ∈ {1, 2, 3} and Fig. 8 at 256 and
  512 px on the default fast engine, serial, no store.  Dominated by
  compilation, functional execution and the serial timing loop.
* ``sweep-verify`` — one ``run_sweep`` over the verify, defensematrix
  and victims grids into an empty store on a worker pool, then a warm
  re-render of the three tables from the store.  Exercises the pool,
  the store and the static analysis.

Each pass also checks its outputs (verdicts, verify pairs, cycle
counts, the paper-figure shapes) and digests every cell's report, so a
speed-only change can show bit-identical simulated results.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field

from repro import harness
from repro.harness import ResultStore, SweepCell, SweepSpec, format_table
from repro.harness.experiments import (
    defensematrix_cells,
    fig10a_cells,
    verify_cells,
    victims_cells,
)
from repro.security.attackers import (
    AttackSpec,
    applicable_attackers,
    attack_config,
    expected_verdict,
)
from repro.security.leakage import victim_report
from repro.uarch.batch_pipeline import memo_info
from repro.workloads.djpeg import FORMATS, DjpegSpec
from repro.workloads.registry import iter_workloads

from perfbench.speed import NEAREST, Speedometer

# attack-matrix sizing.  Cells use the attack experiment's own
# trials=32 — at 16 the Welch test of the timing attacker rejects the
# null under SeMPE for about one cell in 250 — except flush-reload, the
# costliest attacker by far (its permutation test re-hashes the whole
# line-address stream per shuffle), which runs at 16 trials and keeps
# one cell on djpeg (its smallest image, baseline machine) and both
# defenses on gcd, the cheapest victim.  The full matrix takes minutes.
ATTACK_TRIALS = 32
ATTACK_ENGINE = "batch"
FLUSH_RELOAD_TRIALS = 16
FLUSH_RELOAD_CELLS = {
    "djpeg": ({"npixels": 64}, ("plain",)),
    "gcd": ({}, ("plain", "sempe")),
}

# paper-figures sizing: the W <= 3 part of Fig. 10a and two image sizes
# of Fig. 8 (enough for its flat-across-sizes check).
FIG10A_W = (1, 2, 3)
FIG8_SIZES = (256, 512)
DJPEG_DEFAULT_SEED = DjpegSpec("ppm", 64).seed

# sweep-verify pool width (the benchmark machine has two cores).
SWEEP_JOBS = 2
SWEEP_TABLES = ("verify", "defensematrix", "victims")

# Where sweep-verify puts its throwaway stores, relative to the checkout.
WORK_DIR = ".perfbench-work"


def djpeg_seed(seed: int) -> int:
    """DjpegSpec seed for benchmark seed *seed*: the default image at
    seed 0, a distinct odd seed (the generator forces the low bit)
    otherwise."""
    return DJPEG_DEFAULT_SEED + 2 * seed


@dataclass
class Phase:
    """One cold evaluation of a grid plus its table rendering."""

    wall: float = 0.0                 # first dispatch -> last table
    window: tuple[float, float] = (0.0, 0.0)   # perf_counter bounds
    # cell key -> (start, end) perf_counter bounds of its host time
    cell_spans: dict[str, tuple[float, float]] = field(default_factory=dict)
    reports: dict[str, object] = field(default_factory=dict)  # fp -> report
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)

    def digest(self) -> str:
        """SHA-256 over every cell's report, in fingerprint order."""
        sha = hashlib.sha256()
        for fp in sorted(self.reports):
            sha.update(fp.encode())
            sha.update(json.dumps(self.reports[fp].to_dict(),
                                  sort_keys=True).encode())
        return sha.hexdigest()


@dataclass
class Pass:
    """One pass: the serial phase (per-cell times; the phase a traced
    pass repeats) and, for a pooled workload, the pooled phases that
    ``wall_s`` is measured on."""

    serial: Phase
    pooled: list[Phase] = field(default_factory=list)

    @property
    def timed(self) -> list[Phase]:
        """The phases ``wall_s`` and ``sim_ips`` are measured on."""
        return self.pooled or [self.serial]

    @property
    def phases(self) -> list[Phase]:
        return self.pooled + [self.serial]


def _start_phase(speed: Speedometer) -> Phase:
    """Cold caches, a collected heap and fresh speed probes, then start
    the clock."""
    harness.clear_cache()
    gc.collect()
    speed.probe(NEAREST)
    phase = Phase()
    phase.window = (time.perf_counter(), 0.0)
    return phase


def _collect(phase: Phase) -> None:
    """Add the run-cache and timing-memo counters to *phase* (they reset
    with every ``clear_cache``)."""
    runner = harness.cache_info()
    memo = memo_info()
    for key, value in (("runner.cache_hits", runner["hits"]),
                       ("runner.cache_misses", runner["misses"]),
                       ("memo.hits", memo["hits"]),
                       ("memo.misses", memo["misses"]),
                       ("memo.shared", memo["shared"])):
        phase.counters[key] = phase.counters.get(key, 0) + value


def _end_phase(phase: Phase, speed: Speedometer,
               store: ResultStore | None = None) -> None:
    end = time.perf_counter()
    phase.window = (phase.window[0], end)
    phase.wall = end - phase.window[0]
    speed.probe(NEAREST)
    _collect(phase)
    if store is not None:
        stats = store.stats
        phase.counters.update({"store.hits": stats.hits,
                               "store.misses": stats.misses,
                               "store.puts": stats.stores})


def _run_cells(phase: Phase, cells: list[SweepCell],
               speed: Speedometer) -> None:
    """Dispatch *cells* one after another, timing each (and probing the
    machine's speed between them)."""
    for cell in cells:
        phase.attempted += 1
        began = time.perf_counter()
        try:
            report = cell.run().report
        except Exception as error:  # a failing cell is a result, not a crash
            phase.failures.append(
                f"{cell.spec.name}/{cell.mode}: {type(error).__name__}: "
                f"{error}")
            continue
        phase.cell_spans[cell.fingerprint()] = (began, time.perf_counter())
        phase.reports[cell.fingerprint()] = report
        speed.between_cells()


def _positive_cycles(phase: Phase, cells: list[SweepCell]) -> None:
    for cell in cells:
        report = phase.reports.get(cell.fingerprint())
        if report is not None and cell.kind in ("micro", "djpeg",
                                                 "workload") \
                and report.cycles <= 0:
            phase.failures.append(
                f"{cell.spec.name}/{cell.mode}: {report.cycles} cycles")


class Workload:
    """Base class: a named grid and how one pass evaluates it."""

    name = ""

    def __init__(self, seed: int, minimal: bool = False,
                 root: str = ".") -> None:
        self.seed = seed
        self.minimal = minimal
        self.root = root              # the checkout the run may write in
        self.speed = Speedometer()

    def run_pass(self) -> Pass:
        return Pass(self.serial_phase())

    def serial_phase(self) -> Phase:
        """The phase a traced pass repeats, comparable to
        ``Pass.serial`` of an untraced pass."""
        raise NotImplementedError

    def simulated_instructions(self, phase: Phase) -> int:
        """Committed simulated instructions behind one pass's wall time."""
        return sum(report.instructions for report in phase.reports.values()
                   if hasattr(report, "instructions"))

    def cleanup(self) -> None:
        """Remove what the workload left in the checkout."""


# --------------------------------------------------------------------------
# attack-matrix
# --------------------------------------------------------------------------

class AttackMatrix(Workload):
    name = "attack-matrix"

    def __init__(self, seed: int, minimal: bool = False,
                 root: str = ".") -> None:
        super().__init__(seed, minimal, root)
        cells: list[SweepCell] = []
        for spec in iter_workloads():
            if minimal and spec.name != "gcd":
                continue
            for attacker in applicable_attackers(spec):
                params: dict = {}
                modes: tuple[str, ...] = ("plain", "sempe")
                trials = ATTACK_TRIALS
                if attacker == "flush-reload":
                    if spec.name not in FLUSH_RELOAD_CELLS:
                        continue
                    params, modes = FLUSH_RELOAD_CELLS[spec.name]
                    trials = FLUSH_RELOAD_TRIALS
                attack = AttackSpec(spec.name, attacker, trials=trials,
                                    seed=seed, params=dict(params))
                for mode in modes:
                    cells.append(SweepCell("attack", attack, mode, None,
                                           ATTACK_ENGINE))
        self.cells = SweepSpec(self.name, cells).cells
        self._instructions: int | None = None

    def serial_phase(self) -> Phase:
        phase = _start_phase(self.speed)
        _run_cells(phase, self.cells, self.speed)
        rows = []
        for cell in self.cells:
            report = phase.reports.get(cell.fingerprint())
            rows.append([cell.spec.workload, cell.spec.attacker, cell.mode,
                         report.verdict if report else "FAILED"])
        format_table(["victim", "attacker", "defense", "verdict"], rows,
                     title="Attack matrix")
        _end_phase(phase, self.speed)
        for cell in self.cells:
            report = phase.reports.get(cell.fingerprint())
            expected = expected_verdict(cell.spec.attacker, cell.mode)
            if report is not None and expected is not None \
                    and report.verdict != expected:
                phase.failures.append(
                    f"{cell.spec.name}/{cell.mode}: verdict "
                    f"{report.verdict}, expected {expected}")
        return phase

    def simulated_instructions(self, phase: Phase) -> int:
        """Victim instructions the attacks simulate: each attack cell
        profiles one run per candidate secret, which is exactly what
        ``victim_report`` replays (same leak parameters, same machine).
        Counted once per run, outside every timed region."""
        if self._instructions is None:
            per_profile: dict[tuple, int] = {}
            total = 0
            for cell in self.cells:
                spec = cell.spec
                key = (spec.workload, cell.mode,
                       json.dumps(spec.params, sort_keys=True))
                if key not in per_profile:
                    report = victim_report(
                        spec.workload, cell.mode, config=attack_config(),
                        engine=ATTACK_ENGINE, **spec.params)
                    per_profile[key] = sum(report.channels[
                        "instruction-count"].observations.values())
                total += per_profile[key]
            self._instructions = total
        return self._instructions


# --------------------------------------------------------------------------
# paper-figures
# --------------------------------------------------------------------------

class PaperFigures(Workload):
    name = "paper-figures"

    def __init__(self, seed: int, minimal: bool = False,
                 root: str = ".") -> None:
        super().__init__(seed, minimal, root)
        self.w_sweep = (1, 2) if minimal else FIG10A_W
        self.micro = ("fibonacci",) if minimal else \
            ("fibonacci", "ones", "quicksort", "queens")
        self.sizes = (128, 256) if minimal else FIG8_SIZES
        cells = fig10a_cells(self.w_sweep, self.micro)
        for fmt in FORMATS:
            for size in self.sizes:
                spec = DjpegSpec(fmt, size, seed=djpeg_seed(seed))
                for mode in ("plain", "sempe"):
                    cells.append(SweepCell("djpeg", spec, mode))
        self.cells = SweepSpec(self.name, cells).cells

    def serial_phase(self) -> Phase:
        phase = _start_phase(self.speed)
        _run_cells(phase, self.cells, self.speed)
        fig10a = harness.render_experiment(
            "fig10a", w_sweep=self.w_sweep, workloads=self.micro)
        format_table(fig10a.headers, fig10a.rows, title=fig10a.experiment)
        fig8 = self._fig8(phase)
        _end_phase(phase, self.speed)
        _positive_cycles(phase, self.cells)
        phase.failures.extend(self._shape_failures(fig10a.series, fig8))
        return phase

    def _fig8(self, phase: Phase) -> dict[str, list[float]]:
        """Fig. 8 overheads from this run's (seeded) djpeg cells."""
        seed = djpeg_seed(self.seed)
        series: dict[str, list[float]] = {}
        rows = []
        for fmt in FORMATS:
            overheads = []
            for size in self.sizes:
                spec = DjpegSpec(fmt, size, seed=seed)
                base = SweepCell("djpeg", spec, "plain").run()
                sempe = SweepCell("djpeg", spec, "sempe").run()
                overheads.append(sempe.cycles / base.cycles - 1.0)
            series[fmt] = overheads
            rows.append([fmt.upper()] + [f"{o * 100:.0f}%"
                                         for o in overheads])
        format_table(["format"] + [f"{s}px" for s in self.sizes], rows,
                     title="Fig. 8")
        return series

    def _shape_failures(self, fig10a: dict, fig8: dict) -> list[str]:
        """The Fig. 10a / Fig. 8 shape checks of ``benchmarks/bench_fig*``
        that hold at every W and size this workload runs."""
        failures = []
        w_last = self.w_sweep[-1]
        gaps = []
        for workload in self.micro:
            sempe = fig10a[(workload, "sempe")]
            cte = fig10a[(workload, "cte")]
            if not (sempe[-1] > sempe[0] and cte[-1] > cte[0]):
                failures.append(f"fig10a {workload}: not growing with W")
            if not 0.4 * (w_last + 1) < sempe[-1] < 1.6 * (w_last + 1):
                failures.append(f"fig10a {workload}: SeMPE {sempe[-1]:.2f}x "
                                f"off the W+1 path count")
            if not cte[-1] > sempe[-1]:
                failures.append(f"fig10a {workload}: CTE not above SeMPE")
            gaps.append(cte[-1] / sempe[-1])
        if not self.minimal and not (min(gaps) > 1.1 and max(gaps) > 3.0):
            failures.append(f"fig10a: CTE/SeMPE gaps {gaps} too narrow")
        for index in range(len(self.sizes)):
            if not fig8["ppm"][index] > fig8["gif"][index] \
                    > fig8["bmp"][index]:
                failures.append(f"fig8: PPM > GIF > BMP broken at "
                                f"{self.sizes[index]}px")
        for fmt, overheads in fig8.items():
            if not all(0.05 < o < 1.5 for o in overheads):
                failures.append(f"fig8 {fmt}: overhead out of range")
            if max(overheads) - min(overheads) >= 0.25:
                failures.append(f"fig8 {fmt}: not flat across sizes")
        return failures


# --------------------------------------------------------------------------
# sweep-verify
# --------------------------------------------------------------------------

class SweepVerify(Workload):
    """The registry grids are fixed, so the seed only permutes the order
    the cells are declared in; the sweep must not depend on it (the
    pool dispatches in fingerprint order), so ``sim_digest`` is the same
    for every seed."""

    name = "sweep-verify"

    def __init__(self, seed: int, minimal: bool = False,
                 root: str = ".") -> None:
        super().__init__(seed, minimal, root)
        cells = verify_cells() + defensematrix_cells() + victims_cells()
        random.Random(seed).shuffle(cells)
        self.spec = SweepSpec(self.name, cells)
        self.work_dir = os.path.join(self.root, WORK_DIR)
        self._stores = 0

    def _fresh_store(self) -> ResultStore:
        self._stores += 1
        path = os.path.join(self.work_dir,
                            f"store-{os.getpid()}-{self._stores}")
        shutil.rmtree(path, ignore_errors=True)
        return ResultStore(path)

    def _sweep_phase(self, jobs: int) -> Phase:
        store = self._fresh_store()
        previous = harness.set_store(store)
        try:
            phase = _start_phase(self.speed)
            last = [time.perf_counter()]

            def progress(done: int, total: int, name: str, ok: bool) -> None:
                # Serial completions arrive one cell at a time, so the
                # gap between two callbacks is one cell's host time
                # (execution plus the store write).
                phase.cell_spans[f"{done}:{name}"] = (last[0],
                                                      time.perf_counter())
                self.speed.between_cells()
                last[0] = time.perf_counter()

            stats = harness.run_sweep(self.spec, jobs=jobs,
                                      progress=progress if jobs == 1
                                      else None)
            # Warm replay: drop L1, re-render every table from the store.
            _collect(phase)
            harness.clear_cache()
            tables = [harness.render_experiment(name)
                      for name in SWEEP_TABLES]
            for table in tables:
                format_table(table.headers, table.rows,
                             title=table.experiment)
            _end_phase(phase, self.speed, store)
            phase.attempted = len(self.spec)
            phase.failures.extend(
                f"{f.name}/{f.mode}: {f.failure}: {f.message}"
                for f in stats.failures)
            if not tables[0].series["all_ok"]:
                phase.failures.append("verify matrix: not all pairs ok")
            for cell in self.spec.cells:
                try:
                    report = cell.run().report
                except Exception as error:  # reported, not raised
                    phase.failures.append(
                        f"{cell.spec.name}/{cell.mode}: "
                        f"{type(error).__name__}: {error}")
                    continue
                phase.reports[cell.fingerprint()] = report
                if cell.kind == "verify" and not report.ok:
                    phase.failures.append(
                        f"{cell.spec.name}/{cell.mode}: verify pair not ok")
            _positive_cycles(phase, self.spec.cells)
        finally:
            harness.set_store(previous)
            harness.clear_cache()
            shutil.rmtree(store.root, ignore_errors=True)
        return phase

    def serial_phase(self) -> Phase:
        return self._sweep_phase(jobs=1)

    def run_pass(self) -> Pass:
        # Two pooled sweeps around the serial one: the short pooled phase
        # is sampled twice per pass, at two points in time.
        first = self._sweep_phase(jobs=SWEEP_JOBS)
        serial = self.serial_phase()
        return Pass(serial, [first, self._sweep_phase(jobs=SWEEP_JOBS)])

    def cleanup(self) -> None:
        try:
            os.rmdir(self.work_dir)
        except OSError:
            pass


WORKLOADS = {cls.name: cls for cls in (AttackMatrix, PaperFigures,
                                       SweepVerify)}
WORKLOAD_NAMES = tuple(WORKLOADS)


def build(name: str, seed: int, minimal: bool = False,
          root: str = ".") -> Workload:
    """Construct one workload: imports done, grid built and fingerprinted."""
    return WORKLOADS[name](seed, minimal, root)

