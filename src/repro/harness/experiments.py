"""One function per table/figure of the paper's evaluation.

Each function returns a ``(headers, rows)`` pair plus derived data so
the benchmark modules can both print the regenerated table and assert
on its shape.

Every experiment is split into two layers:

* a ``*_cells`` builder that *declares* the experiment's sweep grid as
  :class:`~repro.harness.sweep.SweepCell` objects — the CLI's
  ``repro sweep`` command unions these to run the full evaluation as
  one (optionally parallel, store-backed) batch;
* the renderer, which first materializes its grid through
  :func:`~repro.harness.sweep.ensure_cells` and then assembles rows
  from the warmed run cache.  Serial and parallel materialization are
  bit-identical, so the rendered tables never depend on ``--jobs``.

The rule that keeps the two layers honest: **a renderer reads only its
own cells.**  It never simulates, observes or analyzes anything itself,
so every number it prints is cached, pooled and stored like any other
cell result.  A new experiment is one builder, one renderer and one
:data:`_REGISTRY` row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.differential import VerifySpec
from repro.defenses.registry import defense_names, get_defense
from repro.harness.sweep import MICRO_ITERS, SweepCell, ensure_cells
from repro.models.priorwork import GhostRiderModel, RaccoonModel
from repro.security.attackers import (
    AttackSpec,
    applicable_attackers,
    expected_verdict,
)
from repro.security.leakage import CHANNELS
from repro.uarch.config import MachineConfig, fast_functional, haswell_like
from repro.workloads.djpeg import FORMATS, DjpegSpec
from repro.workloads.microbench import WORKLOADS, MicrobenchSpec
from repro.workloads.registry import WorkloadRunSpec, iter_workloads

# Default sweep parameters, sized so the pure-Python timing model
# finishes in benchmark-friendly time.
DEFAULT_W_SWEEP = (1, 2, 4, 6, 8, 10)
DEFAULT_DJPEG_SIZES = (512, 1024, 2048, 4096)   # paper: 256k..2048k pixels

# The defense axis the adversarial experiments sweep: the three legacy
# comparison points plus every new mitigation (cte is exercised by the
# overhead experiments; its attack behaviour matches its machine side,
# the plain core).
DEFAULT_ATTACK_DEFENSES = ("plain", "sempe", "fence", "cache-partition",
                           "cache-randomize", "flush-local")


def _micro_trio(workload: str, w: int) -> tuple[MicrobenchSpec,
                                                MicrobenchSpec]:
    """The (natural, oblivious) spec pair every microbench point uses."""
    iters = MICRO_ITERS[workload]
    natural = MicrobenchSpec(workload, w=w, iters=iters)
    oblivious = MicrobenchSpec(workload, w=w, iters=iters,
                               variant="oblivious")
    return natural, oblivious


@dataclass
class ExperimentResult:
    """A rendered experiment: table plus raw series for assertions."""

    experiment: str
    headers: list[str]
    rows: list[list[object]]
    series: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# Table I — approach comparison
# --------------------------------------------------------------------------

def table1_cells(w: int = 10, workloads=WORKLOADS) -> list[SweepCell]:
    """Sweep grid behind :func:`table1_comparison`."""
    cells: list[SweepCell] = []
    for workload in workloads:
        natural, oblivious = _micro_trio(workload, w)
        cells.append(SweepCell("micro", natural, "plain"))
        cells.append(SweepCell("micro", natural, "sempe"))
        cells.append(SweepCell("micro", oblivious, "cte"))
    return cells


def table1_comparison(w: int = 10, workloads=WORKLOADS) -> ExperimentResult:
    """Regenerate Table I.

    Qualitative columns come from each design; the overhead column pairs
    the paper's *reported* numbers with overheads measured (SeMPE, CTE)
    or modelled (Raccoon, GhostRider) on our microbenchmarks at W=*w*.
    """
    ensure_cells("table1", table1_cells(w, workloads))
    raccoon = RaccoonModel()
    ghostrider = GhostRiderModel()
    measured: dict[str, list[float]] = {
        "CTE": [], "SeMPE": [], "Raccoon": [], "GhostRider": []}
    for workload in workloads:
        natural, oblivious = _micro_trio(workload, w)
        base = SweepCell("micro", natural, "plain").run()
        sempe = SweepCell("micro", natural, "sempe").run()
        cte = SweepCell("micro", oblivious, "cte").run()
        measured["SeMPE"].append(sempe.cycles / base.cycles)
        measured["CTE"].append(cte.cycles / base.cycles)
        measured["Raccoon"].append(
            raccoon.estimate(sempe.report, base.cycles).slowdown)
        measured["GhostRider"].append(
            ghostrider.estimate(sempe.report, base.cycles).slowdown)

    def worst(name: str) -> float:
        return max(measured[name])

    headers = ["Aspect", "CTE", "GhostRider", "Raccoon", "SeMPE"]
    rows = [
        ["Approach", "elim. cond. branch", "equalize path",
         "execute both paths", "execute both paths"],
        ["Technique", "SW", "HW/SW", "SW", "HW/SW"],
        ["Programming complexity", "High", "Low", "Low", "Low"],
        ["Reported overheads (paper)", "187.3x", "1987x", "452x", "10.6x"],
        ["Measured/modelled here (worst)",
         f"{worst('CTE'):.1f}x", f"{worst('GhostRider'):.0f}x",
         f"{worst('Raccoon'):.0f}x", f"{worst('SeMPE'):.1f}x"],
        ["Simple architecture", "Yes", "No", "Yes", "Yes"],
        ["Backward compatible", "Yes", "No", "No", "Yes"],
    ]
    return ExperimentResult("Table I", headers, rows, series=measured)


# --------------------------------------------------------------------------
# Table II — configuration echo (sanity: we model the paper's machine)
# --------------------------------------------------------------------------

def table2_cells() -> list[SweepCell]:
    """Table II echoes the config; it simulates nothing."""
    return []


def table2_config(config: MachineConfig | None = None) -> ExperimentResult:
    config = config or haswell_like()
    hierarchy = config.hierarchy
    rows = [
        ["clock frequency", f"{config.clock_ghz:.1f} GHz"],
        ["branch predictor", f"{config.predictor} "
                             f"(~{config.tage_storage_kb}KB) + ITTAGE"],
        ["fetch", f"{config.fetch_width} instructions / cycle"],
        ["decode", f"{config.decode_width} uops / cycle"],
        ["rename", f"{config.rename_width} uops / cycle"],
        ["issue", f"{config.issue_width} uops"],
        ["load issue", f"{config.load_issue_width} loads / cycle"],
        ["retire", f"{config.retire_width} uops / cycle"],
        ["reorder buffer", f"{config.rob_entries} uops"],
        ["physical registers",
         f"{config.int_phys_regs} INT, {config.fp_phys_regs} FP"],
        ["issue buffers",
         f"{config.int_issue_buffer} INT / {config.fp_issue_buffer} FP uops"],
        ["load/store queue",
         f"{config.load_queue}+{config.store_queue} entries"],
        ["DL1 cache", _cache_text(hierarchy.dl1)],
        ["IL1 cache", _cache_text(hierarchy.il1)],
        ["L2 cache", _cache_text(hierarchy.l2)],
        ["prefetcher", "stride (L1), stream (L2)"],
        ["SPM slots", f"{config.spm_slots} snapshots"],
        ["SPM throughput", f"{config.spm_bytes_per_cycle} B/cycle R/W"],
        ["jbTable depth", str(config.jbtable_depth)],
    ]
    return ExperimentResult("Table II", ["parameter", "value"], rows)


def _cache_text(cache_config) -> str:
    return (f"{cache_config.size_bytes // 1024}KB, "
            f"{cache_config.assoc}-way assoc.")


# --------------------------------------------------------------------------
# Fig. 8 — djpeg execution-time overhead
# --------------------------------------------------------------------------

def fig8_cells(sizes=DEFAULT_DJPEG_SIZES,
               formats=FORMATS) -> list[SweepCell]:
    """Sweep grid behind Fig. 8 (and, identically, Fig. 9)."""
    cells: list[SweepCell] = []
    for fmt in formats:
        for size in sizes:
            spec = DjpegSpec(fmt, size)
            cells.append(SweepCell("djpeg", spec, "plain"))
            cells.append(SweepCell("djpeg", spec, "sempe"))
    return cells


def fig8_djpeg_overhead(sizes=DEFAULT_DJPEG_SIZES,
                        formats=FORMATS) -> ExperimentResult:
    ensure_cells("fig8", fig8_cells(sizes, formats))
    headers = ["format"] + [f"{size}px" for size in sizes]
    rows = []
    series: dict[str, list[float]] = {}
    for fmt in formats:
        overheads = []
        for size in sizes:
            spec = DjpegSpec(fmt, size)
            base = SweepCell("djpeg", spec, "plain").run()
            sempe = SweepCell("djpeg", spec, "sempe").run()
            overheads.append(sempe.cycles / base.cycles - 1.0)
        series[fmt] = overheads
        rows.append([fmt.upper()] + [f"{o * 100:.0f}%" for o in overheads])
    return ExperimentResult("Fig. 8", headers, rows, series=series)


# --------------------------------------------------------------------------
# Fig. 9 — cache miss rates (baseline vs SeMPE)
# --------------------------------------------------------------------------

def fig9_cache_missrates(sizes=DEFAULT_DJPEG_SIZES,
                         formats=FORMATS) -> ExperimentResult:
    ensure_cells("fig9", fig8_cells(sizes, formats))
    headers = ["config", "IL1 base", "IL1 sempe", "DL1 base", "DL1 sempe",
               "L2 base", "L2 sempe"]
    rows = []
    series: dict[str, dict[str, list[float]]] = {
        level: {"base": [], "sempe": []} for level in ("IL1", "DL1", "L2")
    }
    for fmt in formats:
        for size in sizes:
            spec = DjpegSpec(fmt, size)
            base = SweepCell("djpeg", spec, "plain").run()
            sempe = SweepCell("djpeg", spec, "sempe").run()
            row = [f"{fmt}-{size}px"]
            for level in ("IL1", "DL1", "L2"):
                base_rate = base.miss_rates[level]
                sempe_rate = sempe.miss_rates[level]
                series[level]["base"].append(base_rate)
                series[level]["sempe"].append(sempe_rate)
                row.extend([f"{base_rate * 100:.2f}%",
                            f"{sempe_rate * 100:.2f}%"])
            rows.append(row)
    return ExperimentResult("Fig. 9", headers, rows, series=series)


# --------------------------------------------------------------------------
# Fig. 10a — microbenchmark slowdown vs nesting depth, SeMPE vs FaCT
# --------------------------------------------------------------------------

def fig10a_cells(w_sweep=DEFAULT_W_SWEEP,
                 workloads=WORKLOADS) -> list[SweepCell]:
    cells: list[SweepCell] = []
    for workload in workloads:
        for w in w_sweep:
            natural, oblivious = _micro_trio(workload, w)
            cells.append(SweepCell("micro", natural, "plain"))
            cells.append(SweepCell("micro", natural, "sempe"))
            cells.append(SweepCell("micro", oblivious, "cte"))
    return cells


def fig10a_microbench(w_sweep=DEFAULT_W_SWEEP,
                      workloads=WORKLOADS) -> ExperimentResult:
    ensure_cells("fig10a", fig10a_cells(w_sweep, workloads))
    headers = ["workload", "scheme"] + [f"W={w}" for w in w_sweep]
    rows = []
    series: dict[tuple[str, str], list[float]] = {}
    for workload in workloads:
        sempe_row: list[object] = [workload, "SeMPE"]
        cte_row: list[object] = [workload, "FaCT/CTE"]
        sempe_series: list[float] = []
        cte_series: list[float] = []
        for w in w_sweep:
            natural, oblivious = _micro_trio(workload, w)
            base = SweepCell("micro", natural, "plain").run()
            sempe = SweepCell("micro", natural, "sempe").run()
            cte = SweepCell("micro", oblivious, "cte").run()
            sempe_slowdown = sempe.cycles / base.cycles
            cte_slowdown = cte.cycles / base.cycles
            sempe_series.append(sempe_slowdown)
            cte_series.append(cte_slowdown)
            sempe_row.append(f"{sempe_slowdown:.1f}x")
            cte_row.append(f"{cte_slowdown:.1f}x")
        rows.append(sempe_row)
        rows.append(cte_row)
        series[(workload, "sempe")] = sempe_series
        series[(workload, "cte")] = cte_series
    return ExperimentResult("Fig. 10a", headers, rows, series=series)


# --------------------------------------------------------------------------
# Fig. 10b — slowdown normalized to the ideal (sum of all paths)
# --------------------------------------------------------------------------

def fig10b_cells(w_sweep=DEFAULT_W_SWEEP,
                 workloads=WORKLOADS) -> list[SweepCell]:
    cells: list[SweepCell] = []
    for workload in workloads:
        for w in w_sweep:
            natural, oblivious = _micro_trio(workload, w)
            ideal = MicrobenchSpec(workload, w=w,
                                   iters=MICRO_ITERS[workload],
                                   variant="unconditional")
            cells.append(SweepCell("micro", ideal, "plain"))
            cells.append(SweepCell("micro", natural, "sempe"))
            cells.append(SweepCell("micro", oblivious, "cte"))
    return cells


def fig10b_normalized_to_ideal(w_sweep=DEFAULT_W_SWEEP,
                               workloads=WORKLOADS) -> ExperimentResult:
    ensure_cells("fig10b", fig10b_cells(w_sweep, workloads))
    headers = ["scheme"] + [f"W={w}" for w in w_sweep]
    sempe_norms: list[float] = []
    cte_norms: list[float] = []
    for w in w_sweep:
        sempe_vals = []
        cte_vals = []
        for workload in workloads:
            natural, oblivious = _micro_trio(workload, w)
            ideal_spec = MicrobenchSpec(workload, w=w,
                                        iters=MICRO_ITERS[workload],
                                        variant="unconditional")
            ideal = SweepCell("micro", ideal_spec, "plain").run()
            sempe = SweepCell("micro", natural, "sempe").run()
            cte = SweepCell("micro", oblivious, "cte").run()
            sempe_vals.append(sempe.cycles / ideal.cycles)
            cte_vals.append(cte.cycles / ideal.cycles)
        sempe_norms.append(sum(sempe_vals) / len(sempe_vals))
        cte_norms.append(sum(cte_vals) / len(cte_vals))
    rows = [
        ["SeMPE / ideal"] + [f"{value:.2f}" for value in sempe_norms],
        ["FaCT/CTE / ideal"] + [f"{value:.2f}" for value in cte_norms],
    ]
    return ExperimentResult(
        "Fig. 10b", headers, rows,
        series={"sempe": sempe_norms, "cte": cte_norms},
    )


# --------------------------------------------------------------------------
# Victim matrix — overhead per registered workload (the registry sweep)
# --------------------------------------------------------------------------

def victims_cells() -> list[SweepCell]:
    """Every registered workload × its parameter grid × plain/sempe."""
    cells: list[SweepCell] = []
    for spec in iter_workloads():
        for params in spec.grid_points():
            run_spec = WorkloadRunSpec(spec.name, params)
            cells.append(SweepCell("workload", run_spec, "plain"))
            cells.append(SweepCell("workload", run_spec, "sempe"))
    return cells


def victims_overhead() -> ExperimentResult:
    """SeMPE overhead across the full victim-workload matrix."""
    ensure_cells("victims", victims_cells())
    headers = ["victim", "params", "secret", "plain cycles",
               "sempe cycles", "overhead"]
    rows: list[list[object]] = []
    series: dict[str, list[float]] = {}
    for spec in iter_workloads():
        overheads: list[float] = []
        for params in spec.grid_points():
            run_spec = WorkloadRunSpec(spec.name, params)
            base = SweepCell("workload", run_spec, "plain").run()
            sempe = SweepCell("workload", run_spec, "sempe").run()
            overhead = sempe.cycles / base.cycles
            overheads.append(overhead)
            tag = ",".join(f"{key}={params[key]}" for key in sorted(params))
            rows.append([spec.name, tag, spec.secret, base.cycles,
                         sempe.cycles, f"{overhead:.2f}x"])
        series[spec.name] = overheads
    return ExperimentResult("Victim matrix", headers, rows, series=series)


# --------------------------------------------------------------------------
# Leak matrix — per-victim noninterference verdicts (baseline vs SeMPE)
# --------------------------------------------------------------------------

def leakmatrix_cells(defenses: tuple[str, ...] | None = None
                     ) -> list[SweepCell]:
    """The leak matrix is the dynamic half of the verify grid."""
    return verify_cells(defenses)


def leakmatrix(defenses: tuple[str, ...] | None = None) -> ExperimentResult:
    """Noninterference verdicts for every victim × defense.

    The baseline must leak every declared channel; SeMPE must close
    them all; every other scheme must close (at least) the channels it
    declares protected — its *claims* — while the rest stay honest
    about still leaking.  Each pair's leaking channels are its verify
    cell's dynamic observation.
    """
    cells = leakmatrix_cells(defenses)
    ensure_cells("leakmatrix", cells)
    dynamic = {(cell.spec.workload, cell.mode): cell.run().report.dynamic
               for cell in cells}
    defenses = tuple(defenses) if defenses else tuple(defense_names())
    headers = ["victim", "defense", "leaking channels", "verdict"]
    rows: list[list[object]] = []
    series: dict[str, dict[str, object]] = {}
    for spec in iter_workloads():
        per_defense: dict[str, dict[str, object]] = {}
        for name in defenses:
            scheme = get_defense(name)
            leaking = list(dynamic[(spec.name, name)])
            claims = [c for c in scheme.protects if c in spec.channels]
            broken = [c for c in claims if c in leaking]
            if name == "plain":
                missing = [c for c in spec.channels if c not in leaking]
                verdict = (f"LEAKS ({len(leaking)} ch)" if not missing
                           else f"UNDECLARED-TIGHT {missing}")
                ok = not missing
            elif not leaking:
                verdict = "closed"
                ok = True
            elif not broken:
                verdict = f"claims hold ({len(claims)} ch)"
                ok = True
            else:
                verdict = f"CLAIM BROKEN {broken}"
                ok = False
            per_defense[name] = {"leaking": leaking, "claims": claims,
                                 "ok": ok}
            rows.append([spec.name, name,
                         ", ".join(leaking) or "none", verdict])
        # SeMPE's closure claim is architectural: dual-path execution
        # says nothing about the wrong path, so a transient-only leak
        # (the spectre gadget under an open window) does not falsify
        # it — the fence row of the spectre experiment owns that story.
        series[spec.name] = {
            "baseline_leaks": per_defense.get("plain", {}).get(
                "leaking", []),
            "sempe_secure": not [
                c for c in per_defense.get("sempe", {}).get(
                    "leaking", ["unchecked"])
                if c in CHANNELS or c == "unchecked"],
            "defenses": per_defense,
        }
    return ExperimentResult("Leak matrix", headers, rows, series=series)


# --------------------------------------------------------------------------
# Attack matrix — every victim x every applicable adversary, both machines
# --------------------------------------------------------------------------

ATTACK_ENGINES = ("fast", "batch", "reference")
ATTACK_TRIALS = 32


def attacks_cells(defenses: tuple[str, ...] = DEFAULT_ATTACK_DEFENSES
                  ) -> list[SweepCell]:
    """Every registered workload x applicable attacker x defense x
    {fast, batch, reference} — the full three-axis adversarial product,
    as sweep cells (so ``repro sweep attacks --jobs N`` fans the trials
    out across the pool and caches the reports in the store)."""
    cells: list[SweepCell] = []
    for spec in iter_workloads():
        for attacker in applicable_attackers(spec):
            attack = AttackSpec(spec.name, attacker, trials=ATTACK_TRIALS)
            for mode in defenses:
                for engine in ATTACK_ENGINES:
                    cells.append(SweepCell("attack", attack, mode,
                                           None, engine))
    return cells


def attack_matrix(defenses: tuple[str, ...] = DEFAULT_ATTACK_DEFENSES
                  ) -> ExperimentResult:
    """Key recovery per victim/attacker across the defense axis.

    The headline security table: on the baseline machine every
    applicable adversary recovers the victim's key; under SeMPE every
    one of them degrades to chance; every other scheme drives the
    attackers on its declared-protected channels to chance — with
    identical verdicts from the reference and the fast engine.  A
    ``!`` marks a verdict that contradicts the defense's claim.
    """
    ensure_cells("attacks", attacks_cells(defenses))
    headers = ["victim", "attacker", "channel", *defenses, "engines"]
    rows: list[list[object]] = []
    series: dict[tuple[str, str], dict[str, object]] = {}
    for spec in iter_workloads():
        for attacker in applicable_attackers(spec):
            attack = AttackSpec(spec.name, attacker, trials=ATTACK_TRIALS)
            reports = {
                (mode, engine): SweepCell("attack", attack, mode, None,
                                          engine).run().report
                for mode in defenses
                for engine in ATTACK_ENGINES
            }
            agree = all(
                reports[(mode, engine)].verdict
                == reports[(mode, ATTACK_ENGINES[0])].verdict
                for mode in defenses for engine in ATTACK_ENGINES)
            verdicts = {mode: reports[(mode, ATTACK_ENGINES[0])].verdict
                        for mode in defenses}
            row: list[object] = [
                spec.name, attacker,
                reports[(defenses[0], ATTACK_ENGINES[0])].channel]
            for mode in defenses:
                expected = expected_verdict(attacker, mode)
                flag = ("" if expected is None
                        or verdicts[mode] == expected else " !")
                row.append(verdicts[mode] + flag)
            row.append("agree" if agree else "DIVERGE")
            rows.append(row)
            entry: dict[str, object] = {
                "engines_agree": agree,
                "defenses": verdicts,
            }
            if "plain" in verdicts:
                entry["baseline"] = verdicts["plain"]
            if "sempe" in verdicts:
                entry["sempe"] = verdicts["sempe"]
            series[(spec.name, attacker)] = entry
    return ExperimentResult("Attack matrix", headers, rows, series=series)


# --------------------------------------------------------------------------
# Verify matrix — static prediction vs dynamic observation, every pair
# --------------------------------------------------------------------------

def verify_cells(defenses: tuple[str, ...] | None = None,
                 workloads: tuple[str, ...] | None = None,
                 speculation: bool = False) -> list[SweepCell]:
    """Every selected workload × defense (default: all registered), as
    verify cells (static analysis + transform lint + dynamic
    noninterference on the leak-matrix machine, with its speculation
    window open when *speculation*)."""
    defenses = tuple(defenses) if defenses else tuple(defense_names())
    workloads = (tuple(workloads) if workloads
                 else tuple(spec.name for spec in iter_workloads()))
    # Leak verdicts do not depend on structure sizes; the small machine
    # the attack engine defaults to keeps per-secret runs quick.
    config = fast_functional()
    config.speculation.enabled = speculation
    return [SweepCell("verify", VerifySpec(workload), name, config)
            for workload in workloads for name in defenses]


def verifymatrix(defenses: tuple[str, ...] | None = None,
                 workloads: tuple[str, ...] | None = None,
                 speculation: bool = False) -> ExperimentResult:
    """The static-vs-dynamic differential gate over the selected grid
    (:func:`verify_cells`; default: the full grid).

    For every workload × defense pair the static prediction must cover
    everything the dynamic experiment observes (soundness) and the
    compiled output must satisfy the defense's structural invariants.
    ``static-only`` channels are the expected attacker/observer gap and
    are reported, not flagged; any ``dynamic-only`` channel or
    transform violation makes the pair's verdict non-``ok`` and the
    experiment's ``series["all_ok"]`` false — that is the CI gate.
    """
    cells = verify_cells(defenses, workloads, speculation)
    ensure_cells("verify", cells)
    headers = ["victim", "defense", "predicted", "dynamic",
               "static-only", "dynamic-only", "verdict"]
    rows: list[list[object]] = []
    series: dict[str, object] = {}
    pairs: dict[tuple[str, str], dict[str, object]] = {}
    failing = 0
    for cell in cells:
        workload, name = cell.spec.workload, cell.mode
        report = cell.run().report
        verdict = "ok" if report.ok else (
            "UNSOUND" if not report.sound else "TRANSFORM-VIOLATION")
        if not report.ok:
            failing += 1
        rows.append([
            workload, name,
            ", ".join(report.predicted) or "none",
            ", ".join(report.dynamic) or "none",
            ", ".join(report.static_only) or "-",
            ", ".join(report.dynamic_only) or "-",
            verdict,
        ])
        pairs[(workload, name)] = {
            "ok": report.ok,
            "sound": report.sound,
            "predicted": list(report.predicted),
            "dynamic": list(report.dynamic),
            "dynamic_only": list(report.dynamic_only),
            "violations": len(report.violations),
        }
    series["pairs"] = pairs
    series["failing"] = failing
    series["all_ok"] = failing == 0
    return ExperimentResult("Verify matrix", headers, rows, series=series)


# --------------------------------------------------------------------------
# Spectre — the transient-execution threat model, end to end
# --------------------------------------------------------------------------

def spectre_cells(defenses: tuple[str, ...] | None = None
                  ) -> list[SweepCell]:
    """The spectre victim's full adversarial row: mistraining attack
    (all three engines) plus the verify differential, per defense."""
    defenses = tuple(defenses) if defenses else tuple(defense_names())
    attack = AttackSpec("spectre", "mistrain-reload",
                        trials=ATTACK_TRIALS)
    config = fast_functional()
    cells: list[SweepCell] = []
    for mode in defenses:
        for engine in ATTACK_ENGINES:
            cells.append(SweepCell("attack", attack, mode, None, engine))
        cells.append(SweepCell("verify", VerifySpec("spectre"),
                               mode, config))
    return cells


def spectre_matrix(defenses: tuple[str, ...] | None = None
                   ) -> ExperimentResult:
    """Transient-execution verdicts for the spectre victim, per defense.

    Three columns tell the whole story: what the wrong path leaks
    (dynamic noninterference), what the mistraining adversary recovers
    (the attack engine, engines cross-checked), and whether the static
    speculative-taint prediction stayed sound.  The verify cell gives
    both the leak and the soundness column.  The expected shape — the
    bounds-check-bypass gadget leaks under every architectural scheme
    and dies only under the fence — is asserted via
    ``series["all_expected"]``, the CI gate the spectre smoke lane
    checks.
    """
    defenses = tuple(defenses) if defenses else tuple(defense_names())
    config = fast_functional()
    ensure_cells("spectre", spectre_cells(defenses))
    attack = AttackSpec("spectre", "mistrain-reload",
                        trials=ATTACK_TRIALS)
    verify = VerifySpec("spectre")
    headers = ["defense", "transient leak", "attack verdict",
               "engines", "verify"]
    rows: list[list[object]] = []
    series: dict[str, object] = {}
    per_defense: dict[str, dict[str, object]] = {}
    all_expected = True
    for mode in defenses:
        reports = {engine: SweepCell("attack", attack, mode, None,
                                     engine).run().report
                   for engine in ATTACK_ENGINES}
        verdicts = {engine: r.verdict for engine, r in reports.items()}
        agree = len(set(verdicts.values())) == 1
        verdict = verdicts[ATTACK_ENGINES[0]]
        vreport = SweepCell("verify", verify, mode, config).run().report
        leaks = "transient-memory" in vreport.dynamic
        expected = expected_verdict("mistrain-reload", mode)
        ok = (agree and vreport.ok
              and (expected is None or verdict == expected)
              and leaks == (verdict != "chance"))
        all_expected = all_expected and ok
        flag = "" if expected is None or verdict == expected else " !"
        rows.append([mode,
                     "LEAKS" if leaks else "closed",
                     verdict + flag,
                     "agree" if agree else "DIVERGE",
                     "ok" if vreport.ok else "FAIL"])
        per_defense[mode] = {
            "transient_leaks": leaks,
            "attack_verdict": verdict,
            "engines_agree": agree,
            "verify_ok": vreport.ok,
            "expected": expected,
            "ok": ok,
        }
    series["defenses"] = per_defense
    series["all_expected"] = all_expected
    return ExperimentResult("Spectre (transient execution)", headers,
                            rows, series=series)


# --------------------------------------------------------------------------
# Defense matrix — per-scheme overhead across the victim registry
# --------------------------------------------------------------------------

def defensematrix_cells() -> list[SweepCell]:
    """Every victim (default parameters) × every registered defense."""
    cells: list[SweepCell] = []
    for spec in iter_workloads():
        run_spec = WorkloadRunSpec(spec.name, spec.resolve())
        for name in defense_names():
            cells.append(SweepCell("workload", run_spec, name))
    return cells


def defensematrix() -> ExperimentResult:
    """Execution-time cost of every scheme on every victim.

    The cost side of the defense story (the leak/attack matrices are
    the benefit side): cycles per victim under each registered scheme,
    normalized to the unprotected baseline.
    """
    ensure_cells("defensematrix", defensematrix_cells())
    headers = ["victim", *defense_names()]
    rows: list[list[object]] = []
    series: dict[str, dict[str, float]] = {}
    for spec in iter_workloads():
        run_spec = WorkloadRunSpec(spec.name, spec.resolve())
        base = SweepCell("workload", run_spec, "plain").run()
        row: list[object] = [spec.name]
        overheads: dict[str, float] = {}
        for name in defense_names():
            result = SweepCell("workload", run_spec, name).run()
            overhead = result.cycles / base.cycles
            overheads[name] = overhead
            row.append(f"{overhead:.2f}x")
        rows.append(row)
        series[spec.name] = overheads
    return ExperimentResult("Defense matrix", headers, rows, series=series)


# --------------------------------------------------------------------------
# Registry used by the CLI sweep command
# --------------------------------------------------------------------------

# The sizing keywords a caller may pass; each experiment takes a subset.
_SIZING = ("w", "w_sweep", "sizes", "workloads", "formats")

# name -> (cells builder, renderer, the sizing keywords both take).  The
# CLI enumerates a grid and renders its table from one row; add a new
# experiment here and nowhere else.
_REGISTRY = {
    "table1": (table1_cells, table1_comparison, ("w", "workloads")),
    "table2": (table2_cells, table2_config, ()),
    "fig8": (fig8_cells, fig8_djpeg_overhead, ("sizes", "formats")),
    "fig9": (fig8_cells, fig9_cache_missrates, ("sizes", "formats")),
    "fig10a": (fig10a_cells, fig10a_microbench, ("w_sweep", "workloads")),
    "fig10b": (fig10b_cells, fig10b_normalized_to_ideal,
               ("w_sweep", "workloads")),
    "victims": (victims_cells, victims_overhead, ()),
    "leakmatrix": (leakmatrix_cells, leakmatrix, ()),
    "attacks": (attacks_cells, attack_matrix, ()),
    "defensematrix": (defensematrix_cells, defensematrix, ()),
    "verify": (verify_cells, verifymatrix, ()),
    "spectre": (spectre_cells, spectre_matrix, ()),
}

EXPERIMENTS = tuple(_REGISTRY)


def _check_sizing(sizing: dict) -> None:
    """Reject out-of-range sizing, whether or not the experiment takes it
    (``repro sweep fig8 --workloads bogus`` is an error too)."""
    if sizing.get("w", 1) < 1:
        raise ValueError(f"--w must be >= 1, got {sizing['w']}")
    if "w_sweep" in sizing and min(sizing["w_sweep"], default=0) < 1:
        raise ValueError("w_sweep must be nesting depths >= 1, "
                         f"got {sizing['w_sweep']!r}")
    if "sizes" in sizing and min(sizing["sizes"], default=0) <= 0:
        raise ValueError("--sizes must be positive pixel counts, "
                         f"got {sizing['sizes']!r}")
    if "workloads" in sizing:
        if not sizing["workloads"]:
            raise ValueError("--workloads must name at least one "
                             "microbenchmark")
        bad = [name for name in sizing["workloads"]
               if name not in WORKLOADS]
        if bad:
            raise ValueError(f"unknown workloads {bad}; "
                             f"choose from {list(WORKLOADS)}")


def _lookup(name: str, sizing: dict):
    """*name*'s (cells builder, renderer) and the sizing it takes."""
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ValueError(f"unknown experiment {name!r}; "
                         f"choose from {sorted(_REGISTRY)}")
    unknown = sorted(set(sizing) - set(_SIZING))
    if unknown:
        raise TypeError(f"unknown sizing keywords {unknown}; "
                        f"choose from {list(_SIZING)}")
    _check_sizing(sizing)
    cells, render, keywords = entry
    return cells, render, {key: sizing[key] for key in keywords
                           if key in sizing}


def experiment_cells(name: str, **sizing) -> list[SweepCell]:
    """The sweep grid of one named experiment (for ``repro sweep``).

    *sizing* is any of ``w``, ``w_sweep``, ``sizes``, ``workloads`` and
    ``formats``; an experiment ignores the keywords it does not take.
    """
    cells, _, taken = _lookup(name, sizing)
    return cells(**taken)


def render_experiment(name: str, **sizing) -> ExperimentResult:
    """Regenerate one named experiment with the same sizing keywords."""
    _, render, taken = _lookup(name, sizing)
    return render(**taken)
