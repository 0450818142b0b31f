"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile``  — compile a mini-C file and print the assembly listing;
* ``run``      — compile and simulate, printing cycles/IPC/miss rates;
  ``--workload NAME`` runs a registered victim instead of a file;
* ``check``    — noninterference report for a named secret across
  values; ``--workload NAME`` audits a registered victim using its
  declared secret and representative values;
* ``disasm``   — encode a compiled program and show the SeMPE vs legacy
  decode of the same bytes (the backward-compatibility story);
* ``workloads`` — list the victim-workload registry, or show one
  victim's generated source;
* ``defenses`` — list the protection-scheme registry, or show one
  scheme's transform, machine hooks, and config overrides;
* ``attack``   — run a noisy multi-trial statistical attack against a
  registered victim (``attack run --workload W --attacker A``), or
  list the attacker registry (``attack list``);
* ``sweep``    — regenerate paper tables/figures by name (all of them
  by default, each at paper scale unless ``--w``, ``--sizes`` or
  ``--workloads`` narrows it) as one batch: fan cells out across
  ``--jobs`` worker processes and persist results in an on-disk store
  (``--store DIR``, or ``--no-store``), so a repeated invocation
  re-renders every table from disk instead of re-simulating; each
  table is followed by its paper claims' verdicts.

Input rules live in the spec objects (``AttackSpec``,
``ExecutionPolicy``, the experiment sizing, ``run_sweep``'s ``jobs``);
this module only parses strings.  Any ``ValueError`` a command raises
is a usage error: :func:`main` prints it and exits 2.  Commands build
every spec before they open a result store, so rejected input leaves
no store directory behind.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.engine import ENGINES, simulate
from repro.defenses import get_defense
from repro.isa.encoding import encode_program
from repro.isa.disassembler import disassemble_binary
from repro.lang.compiler import compile_source


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _print_cache_stats() -> None:
    """Run-cache, timing-pass, campaign-memo and store counters (the
    ``--cache-stats`` flag), pool workers' counts included."""
    from repro.harness import cache_info, get_store
    from repro.security.leakage import campaign_info
    from repro.uarch.batch_pipeline import memo_info

    info = cache_info()
    print(f"run cache: hits={info['hits']} misses={info['misses']} "
          f"entries={info['entries']}")
    passes = memo_info()
    print(f"timing passes: passes={passes['misses']} "
          f"shared={passes['shared']}")
    campaigns = campaign_info()
    print(f"campaign memo: hits={campaigns['hits']} "
          f"misses={campaigns['misses']} entries={campaigns['entries']}")
    store = get_store()
    if store is None:
        print("store: (none)")
        return
    stats = store.stats
    line = (f"store [{store.root}]: hits={stats.hits} "
            f"misses={stats.misses} stores={stats.stores} "
            f"invalidations={stats.invalidations} entries={len(store)}")
    quarantined = store.failure_count()
    if quarantined:
        line += f" quarantined={quarantined}"
    print(line)


def cmd_compile(args: argparse.Namespace) -> int:
    mode = get_defense(args.defense).compile_mode
    compiled = compile_source(_read_source(args.file), mode=mode,
                              collapse_ifs=args.collapse_ifs)
    print(f"; mode={mode}  instructions={len(compiled.program)}  "
          f"sJMPs={compiled.program.count_secure_branches()}")
    print(compiled.program.listing())
    return 0


def _parse_params(text: str) -> dict:
    """Parse ``key=value,key=value`` workload parameter overrides."""
    params: dict = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ValueError(f"expected key=value, got {token!r}")
        key, _, raw = token.partition("=")
        if raw.lower() in ("true", "false"):
            value: object = raw.lower() == "true"
        else:
            try:
                value = int(raw, 0)
            except ValueError:
                value = raw
        params[key.strip()] = value
    return params


def _workload_program(args: argparse.Namespace, compile_mode: str):
    """Compile either the file or the ``--workload`` registry victim."""
    from repro.workloads.registry import get_workload

    if getattr(args, "workload", None):
        if args.file:
            raise ValueError("give either a source file or --workload, "
                             "not both")
        spec = get_workload(args.workload)
        overrides = _parse_params(getattr(args, "params", "") or "")
        return spec.compile(
            compile_mode,
            collapse_ifs=getattr(args, "collapse_ifs", False),
            **overrides)
    if not args.file:
        raise ValueError("a source file (or --workload NAME) is required")
    if getattr(args, "params", ""):
        raise ValueError("--params only applies to --workload runs")
    return compile_source(_read_source(args.file), mode=compile_mode,
                          collapse_ifs=getattr(args, "collapse_ifs", False))


def cmd_run(args: argparse.Namespace) -> int:
    defense = get_defense(args.defense)
    compiled = _workload_program(args, defense.compile_mode)
    # --legacy runs the binary on the unprotected machine regardless of
    # how it was compiled (the backward-compatibility story).
    machine_defense = "plain" if args.legacy else defense.name
    if args.profile_pipeline:
        from repro.uarch.profile import profiled_pipeline

        with profiled_pipeline():
            report = simulate(compiled.program, defense=machine_defense,
                              engine=args.engine)
    else:
        report = simulate(compiled.program, defense=machine_defense,
                          engine=args.engine)
    machine = "SeMPE" if report.sempe else "baseline"
    print(f"defense:       {machine_defense} "
          f"(compiled as {defense.compile_mode})")
    print(f"machine:       {machine}")
    print(f"instructions:  {report.instructions}")
    print(f"cycles:        {report.cycles}")
    print(f"IPC:           {report.ipc:.3f}")
    print(f"secure regions:{report.functional.secure_regions:6d}  "
          f"drains: {report.functional.drains}")
    for level, rate in report.miss_rates.items():
        print(f"{level} miss rate: {rate * 100:6.2f}%")
    if args.globals:
        from repro.arch.executor import Executor

        executor = Executor(compiled.program, sempe=report.sempe)
        executor.run_to_completion()
        for name in args.globals.split(","):
            name = name.strip()
            address = compiled.program.symbols.get(name)
            if address is None:
                print(f"{name}: <no such global>")
            else:
                value = executor.state.memory.load_signed(address)
                print(f"{name} = {value}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.security.leakage import noninterference_report, victim_report

    # --values default is None so an explicit request is distinguishable
    # from "use the defaults" (workloads have their own representative
    # values; files fall back to 0,1,2).
    values = None
    if args.values is not None:
        try:
            values = [int(token, 0) for token in args.values.split(",")]
        except ValueError as error:
            raise ValueError(f"invalid --values {args.values!r}: "
                             "expected comma-separated integers"
                             ) from error
    defense = get_defense(args.defense)
    if args.workload:
        if args.file:
            raise ValueError("give either a source file or --workload, "
                             "not both")
        if args.secret:
            raise ValueError("--secret conflicts with --workload (the "
                             "registered spec declares its own secret); "
                             "drop one of them")
        overrides = _parse_params(args.params or "")
        report = victim_report(args.workload, defense.name,
                               engine=args.engine, secret_values=values,
                               **overrides)
    else:
        if not args.file:
            raise ValueError("a source file (or --workload NAME) is "
                             "required")
        if args.params:
            raise ValueError("--params only applies to --workload audits")
        if not args.secret:
            raise ValueError("--secret is required when checking a "
                             "source file")
        compiled = compile_source(_read_source(args.file),
                                  mode=defense.compile_mode)
        report = noninterference_report(compiled.program, args.secret,
                                        values if values is not None
                                        else [0, 1, 2],
                                        defense=defense.name,
                                        engine=args.engine)
    print(report.summary())
    print()
    print("verdict:", "SECURE (all channels closed)" if report.secure
          else f"LEAKS via {', '.join(report.leaking_channels())}")
    return 0 if report.secure else 1


def cmd_disasm(args: argparse.Namespace) -> int:
    compiled = compile_source(_read_source(args.file),
                              mode=get_defense(args.defense).compile_mode)
    blob = encode_program(compiled.program)
    print(f"; binary size: {len(blob)} bytes")
    print(disassemble_binary(blob, legacy=False))
    print()
    print(disassemble_binary(blob, legacy=True))
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    from repro.harness.report import format_table
    from repro.workloads.registry import get_workload, iter_workloads

    if args.action == "show":
        if not args.name:
            raise ValueError("workloads show requires a workload name")
        spec = get_workload(args.name)
        overrides = _parse_params(args.params or "")
        source = spec.source(**overrides)
        print(f"// workload {spec.name}: {spec.title}")
        print(f"// secret: {spec.secret}")
        print(f"// declared channels: {', '.join(spec.channels)}")
        # The static analyzer's view of the same victim (unprotected
        # compile at leak parameters) — printed next to the declaration
        # so a drifting channel list is visible straight from the CLI.
        from repro.analysis import analyze_workload

        derived = analyze_workload(
            spec, "plain", **overrides).predicted_channels()
        print(f"// derived channels:  {', '.join(derived) or 'none'}"
              "  (static, plain compile)")
        undeclared = [c for c in derived if c not in spec.channels]
        if undeclared:
            print("// NOTE: statically derived but not declared: "
                  f"{', '.join(undeclared)}")
        print(source.strip())
        return 0

    if args.name or args.params:
        raise ValueError(
            f"workloads {args.action} takes no further arguments "
            f"(did you mean `workloads show {args.name}`?)")
    headers = ["name", "secret", "modes", "grid",
               "expected baseline leak channels", "description"]
    rows = []
    for spec in iter_workloads():
        row = spec.describe()
        rows.append([
            row["name"],
            row["secret"],
            ",".join(row["modes"]),
            row["grid"],
            ", ".join(row["channels"]),
            row["title"],
        ])
    print(format_table(headers, rows, title="Victim workload registry"))
    print(f"{len(rows)} workloads registered")
    return 0


def cmd_defenses(args: argparse.Namespace) -> int:
    from repro.defenses import iter_defenses
    from repro.harness.report import format_table

    if args.action == "show":
        if not args.name:
            raise ValueError("defenses show requires a defense name")
        spec = get_defense(args.name)
        print(f"defense {spec.name}: {spec.title}")
        print(f"  description:      {spec.description}")
        print(f"  compile mode:     {spec.compile_mode}")
        print("  machine:          "
              f"{'SeMPE (dual-path)' if spec.sempe_machine else 'baseline'}")
        hooks = [name for name, on in (
            ("fence-at-secret-branches", spec.fence_branches),
            ("flush-on-exit", spec.flush_on_exit)) if on]
        print(f"  machine hooks:    {', '.join(hooks) or 'none'}")
        print(f"  protects:         {', '.join(spec.protects) or 'nothing'}")
        if spec.config_overrides:
            print("  config overrides:")
            for path in sorted(spec.config_overrides):
                print(f"    {path} = {spec.config_overrides[path]}")
        else:
            print("  config overrides: none")
        print(f"  fingerprint:      {spec.fingerprint()}")
        return 0

    if args.name:
        raise ValueError(
            f"defenses {args.action} takes no further arguments "
            f"(did you mean `defenses show {args.name}`?)")
    headers = ["name", "compile", "machine", "hooks",
               "protected channels", "description"]
    rows = []
    for spec in iter_defenses():
        hooks = [tag for tag, on in (("fence", spec.fence_branches),
                                     ("flush", spec.flush_on_exit)) if on]
        if spec.config_overrides:
            hooks.append(f"{len(spec.config_overrides)} cfg")
        rows.append([
            spec.name,
            spec.compile_mode,
            "sempe" if spec.sempe_machine else "baseline",
            ",".join(hooks) or "-",
            ", ".join(spec.protects) or "-",
            spec.title,
        ])
    print(format_table(headers, rows, title="Protection-scheme registry"))
    print(f"{len(rows)} defenses registered")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    from repro.harness import format_table
    from repro.security.attackers import get_attacker, iter_attackers
    from repro.workloads.registry import get_workload, workload_names

    if args.action == "list":
        if args.workload or args.attacker:
            raise ValueError("attack list takes no --workload/--attacker "
                             "(it lists the whole registry)")
        headers = ["name", "channel", "style", "applicable victims",
                   "description"]
        rows = []
        for attacker in iter_attackers():
            victims = [name for name in workload_names()
                       if attacker.applies_to(get_workload(name))]
            rows.append([
                attacker.name,
                attacker.channel,
                "scalar" if attacker.scalar else "categorical",
                ", ".join(victims),
                attacker.description,
            ])
        print(format_table(headers, rows, title="Attacker registry"))
        print(f"{len(rows)} attackers registered")
        return 0

    from repro.defenses import sempe_machine
    from repro.harness import ResultStore, SweepCell, render_cells, set_store
    from repro.security.attackers import AttackSpec

    if not args.workload or not args.attacker:
        raise ValueError("attack run requires --workload and --attacker "
                         "(see `repro attack list`)")
    spec = AttackSpec(args.workload, args.attacker,
                      trials=args.trials, seed=args.seed,
                      jitter=args.jitter, flip=args.flip,
                      params=_parse_params(args.params or ""))
    attacker = get_attacker(spec.attacker)
    # Attack the baseline and the chosen scheme, like the classic
    # plain-vs-sempe pair.
    protected = get_defense(args.defense).name
    modes = ("plain",) if protected == "plain" else ("plain", protected)
    config = None
    if getattr(args, "speculation", False):
        from repro.security.attackers import attack_config

        config = attack_config()
        config.speculation.enabled = True
    cells = [SweepCell("attack", spec, mode, config, args.engine)
             for mode in modes]
    if args.store:
        set_store(ResultStore(args.store))
    for cell in cells:
        # cell.run() raises a builder's ValueError as itself (exit 2).
        report = cell.run().report
        machine = ("baseline" if cell.mode == "plain"
                   else "SeMPE" if sempe_machine(cell.mode)
                   else f"{cell.mode}-protected")
        print(f"{machine} machine:")
        print(f"  channel:       {report.channel} "
              f"(profiled I={report.profiled_mi:.2f} bits, "
              f"{report.candidates} candidate secrets)")
        print(f"  class pair:    {report.pair[0]} vs {report.pair[1]}")
        print(f"  distinguisher: {report.stat_kind} "
              f"statistic={report.statistic:.3g} "
              f"p={report.p_value:.2e}")
        print(f"  key recovery:  {report.bits_recovered}/"
              f"{report.bits_total} bits "
              f"({report.success_rate:.0%}; {report.reps} probe(s)/bit)")
        print(f"  verdict:       {report.verdict}")
    # Every cell is resident: rendering pulls straight from the cache.
    result = render_cells("attacks", cells)
    failed = _print_claims(result)
    if len(modes) == 2:
        shield = "SeMPE" if modes[1] == "sempe" else modes[1]
        (row,) = result.series.values()
        shielded = row["defenses"][modes[1]]
        # "defeated" only when the protected machine actually held; a
        # scheme that makes no claim for this channel must not be
        # credited with stopping an attack that still succeeded.
        if failed:
            outcome = "UNEXPECTED (see the claims above)"
        elif shielded == "chance":
            outcome = f"key recovered on baseline, defeated by {shield}"
        else:
            outcome = (f"key recovered on baseline; {shield} makes no "
                       f"claim for the {attacker.channel!r} channel "
                       f"(verdict: {shielded})")
        print("attack outcome:", outcome)
    return failed


def cmd_verify(args: argparse.Namespace) -> int:
    """The static-vs-dynamic differential (``repro verify``).

    Runs every selected workload × defense pair through the static
    analyzer, the defense-transform verifier, and the dynamic
    noninterference experiment; exits nonzero when the verify claim
    fails: some pair is unsound (a dynamically observed channel the
    static analysis missed) or violates its defense's structural
    invariants.
    """
    from repro.harness import (
        ResultStore, SweepFailed, check_jobs, format_table, render_cells,
        set_store, sweep_results, verify_cells,
    )
    from repro.workloads.registry import get_workload

    workloads = ((get_workload(args.workload).name,) if args.workload
                 else None)
    defenses = ((get_defense(args.defense).name,) if args.defense
                else None)
    check_jobs(args.jobs)
    cells = verify_cells(defenses, workloads, args.speculation)
    if args.store:
        set_store(ResultStore(args.store))
    try:
        pairs = sweep_results("verify", cells, jobs=args.jobs)
    except SweepFailed as failed:
        _print_failure_summary(failed.stats)
        print(failed.stats.summary())
        return 1

    for cell, result in pairs:
        report = result.report
        pair = f"{cell.spec.workload} [{cell.mode}]"
        if args.sites:
            print(f"-- {pair}: {report.static.summary()}")
            for site in report.static.sites:
                print(f"     [{site.kind}] {site.op} pc={site.pc:#x} "
                      f"line={site.line} {site.detail}")
        for violation in report.violations:
            print(f"!! {pair} {violation.invariant}: {violation.message}")
        for channel in report.dynamic_only:
            print(f"!! {pair} UNSOUND: channel {channel!r} observed "
                  "dynamically but not statically predicted")
    # Every cell is resident: rendering pulls straight from the cache.
    result = render_cells("verify", cells)
    print(format_table(result.headers, result.rows,
                       title="Static-vs-dynamic differential"))
    failed = _print_claims(result)
    return failed


def _print_claims(result) -> int:
    """Print *result*'s claim verdicts; the exit code: 1 if one FAILs."""
    for verdict in result.claims:
        print(verdict)
    return int(any(verdict.status == "FAIL" for verdict in result.claims))


def _parse_int_csv(text: str) -> tuple[int, ...]:
    return tuple(int(token) for token in text.split(",") if token.strip())


class _SweepProgress:
    """Live cell progress on stderr, with a failed-cell counter."""

    def __init__(self) -> None:
        self.failed = 0

    def __call__(self, done: int, total: int, name: str,
                 ok: bool) -> None:
        if not ok:
            self.failed += 1
        tally = f"{done}/{total}"
        if self.failed:
            tally += f", {self.failed} failed"
        end = "\n" if done == total else ""
        print(f"\r[{tally}] {name:<44}", end=end,
              file=sys.stderr, flush=True)


def _print_failure_summary(stats) -> None:
    """One row per failed cell, plus the quarantine lifecycle hints."""
    from repro.harness import format_table

    rows = []
    for failure in stats.failures:
        resolution = "quarantined" if failure.quarantined else "recorded"
        rows.append([
            failure.name,
            failure.mode,
            failure.failure,
            failure.error_type or "-",
            str(failure.attempts),
            resolution,
        ])
    print(format_table(
        ["cell", "mode", "failure", "error", "attempts", "resolution"],
        rows, title=f"Failed cells ({len(rows)})"))
    if any(failure.quarantined for failure in stats.failures):
        print("quarantined cells are skipped on resume; re-run with "
              "--retry-quarantined to clear them")


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness import (
        EXPERIMENTS, ResultStore, SweepSpec, check_jobs, experiment_cells,
        format_table, render_cells, run_sweep, set_store,
    )
    from repro.harness.failures import ExecutionPolicy, SweepInterrupted

    names = args.experiments or list(EXPERIMENTS)
    # Only the flags given reach the builders, whose defaults are the
    # paper scale.
    sizing: dict[str, object] = {}
    if args.w is not None:
        sizing["w"] = args.w
        sizing["w_sweep"] = tuple(range(1, args.w + 1))
    if args.sizes is not None:
        try:
            sizing["sizes"] = _parse_int_csv(args.sizes)
        except ValueError as error:
            raise ValueError(f"invalid --sizes {args.sizes!r}: expected "
                             "comma-separated integers") from error
    if args.workloads is not None:
        sizing["workloads"] = tuple(token.strip()
                                    for token in args.workloads.split(",")
                                    if token.strip())
    check_jobs(args.jobs)
    grids = {name: experiment_cells(name, **sizing) for name in names}
    spec = SweepSpec("+".join(names),
                     [cell for grid in grids.values() for cell in grid])

    fault_plan = None
    if args.chaos is not None:
        from repro.testing.faults import FaultPlan

        fault_plan = FaultPlan.seeded(
            [cell.fingerprint() for cell in spec.cells],
            seed=args.chaos, rate=args.chaos_rate)
    policy = ExecutionPolicy(
        timeout=args.timeout,
        retries=args.retries,
        max_failures=args.max_failures,
        max_instructions=args.max_instructions,
        retry_quarantined=args.retry_quarantined,
        fault_plan=fault_plan,
    )
    if fault_plan is not None:
        print(f"chaos: injecting {len(fault_plan)} faults across "
              f"{len(spec.cells)} cells (seed {args.chaos})",
              file=sys.stderr)
    # --no-store must actually disable persistence, including a store
    # installed earlier in this process.
    set_store(None if args.no_store else ResultStore(args.store))
    try:
        stats = run_sweep(
            spec, jobs=args.jobs, policy=policy,
            progress=_SweepProgress() if args.progress else None)
    except SweepInterrupted as stop:
        stats = stop.stats
        print(file=sys.stderr)
        print("interrupted — partial results are installed; re-run to "
              "resume from the store", file=sys.stderr)
        if stats is not None:
            if stats.failures:
                _print_failure_summary(stats)
            print(stats.summary())
        return 130

    if stats.ok:
        # All cells are warm: rendering pulls straight from the cache.
        for name, grid in grids.items():
            result = render_cells(name, grid)
            print(format_table(result.headers, result.rows,
                               title=result.experiment))
            _print_claims(result)
            print()
    else:
        _print_failure_summary(stats)
        print(f"{stats.failed} cells failed; tables not rendered "
              "(healthy cells are installed in the store)")
    print(stats.summary())
    if stats.aborted:
        return 3
    return 0 if stats.ok else 1


class _SweepHelpFormatter(argparse.HelpFormatter):
    """Names the registered experiments under ``repro sweep --help``,
    importing the experiment registry only when that help is printed:
    at parser build time it would add about 0.1 s to every command."""

    def _get_help_string(self, action):
        if action.dest != "experiments":
            return action.help
        from repro.harness.experiments import EXPERIMENTS

        return f"{action.help}: {', '.join(EXPERIMENTS)}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SeMPE reproduction toolchain",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # --cache-stats is declared once; main() prints it after the command.
    cache_stats = argparse.ArgumentParser(add_help=False)
    cache_stats.add_argument("--cache-stats", action="store_true",
                             help="print the run-cache, timing-pass, "
                                  "campaign-memo and store counters")

    def add_common(sub, defense_help, file_optional=False):
        if file_optional:
            sub.add_argument("file", nargs="?", default=None,
                             help="mini-C source file ('-' for stdin); "
                                  "omit when using --workload")
        else:
            sub.add_argument("file", help="mini-C source file ('-' for stdin)")
        sub.add_argument("--defense", default="sempe",
                         help=f"{defense_help} (see `repro defenses "
                              "list`; default sempe)")

    compile_parser = subparsers.add_parser(
        "compile", help="compile and print the assembly listing")
    add_common(compile_parser, "compile with this protection scheme's "
                               "transform")
    compile_parser.add_argument("--collapse-ifs", action="store_true",
                                help="apply the nesting-reduction pass")
    compile_parser.set_defaults(func=cmd_compile)

    run_parser = subparsers.add_parser("run", parents=[cache_stats],
                                       help="compile and simulate")
    add_common(run_parser, "protection scheme to compile for and run "
                           "under", file_optional=True)
    run_parser.add_argument("--workload", default=None,
                            help="run a registered victim workload "
                                 "(see `repro workloads list`)")
    run_parser.add_argument("--params", default="",
                            help="workload parameter overrides "
                                 "(key=value[,key=value...])")
    run_parser.add_argument("--legacy", action="store_true",
                            help="run the binary on the non-SeMPE machine")
    run_parser.add_argument("--engine", choices=ENGINES, default="fast",
                            help="simulation engine (all are bit-identical;"
                                 " default: fast)")
    run_parser.add_argument("--collapse-ifs", action="store_true")
    run_parser.add_argument("--globals", default="",
                            help="comma-separated globals to print")
    run_parser.add_argument("--profile-pipeline", action="store_true",
                            help="cProfile the run and print a per-phase "
                                 "time breakdown (fetch/memory/schedule)")
    run_parser.set_defaults(func=cmd_run)

    check_parser = subparsers.add_parser(
        "check", help="noninterference report across secret values")
    add_common(check_parser, "protection scheme to audit under",
               file_optional=True)
    check_parser.add_argument("--workload", default=None,
                              help="audit a registered victim workload "
                                   "with its declared secret and values")
    check_parser.add_argument("--params", default="",
                              help="workload parameter overrides "
                                   "(key=value[,key=value...])")
    check_parser.add_argument("--secret", default=None,
                              help="name of the secret global to vary "
                                   "(required for source files)")
    check_parser.add_argument("--values", default=None,
                              help="comma-separated secret values, at "
                                   "least two distinct (default: 0,1,2 "
                                   "for files, the declared "
                                   "representative values for "
                                   "--workload)")
    check_parser.add_argument("--engine", choices=ENGINES, default="fast",
                              help="functional engine for the observations")
    check_parser.set_defaults(func=cmd_check)

    workloads_parser = subparsers.add_parser(
        "workloads", help="victim-workload registry")
    workloads_parser.add_argument(
        "action", nargs="?", default="list", choices=("list", "show"),
        help="list the registry, or show one victim's generated source")
    workloads_parser.add_argument("name", nargs="?", default=None,
                                  help="workload name (for `show`)")
    workloads_parser.add_argument("--params", default="",
                                  help="parameter overrides for `show`")
    workloads_parser.set_defaults(func=cmd_workloads)

    defenses_parser = subparsers.add_parser(
        "defenses", help="protection-scheme registry")
    defenses_parser.add_argument(
        "action", nargs="?", default="list", choices=("list", "show"),
        help="list the registry, or show one scheme's hooks/overrides")
    defenses_parser.add_argument("name", nargs="?", default=None,
                                 help="defense name (for `show`)")
    defenses_parser.set_defaults(func=cmd_defenses)

    disasm_parser = subparsers.add_parser(
        "disasm", help="show SeMPE vs legacy decode of the same bytes")
    add_common(disasm_parser, "compile with this protection scheme's "
                              "transform")
    disasm_parser.set_defaults(func=cmd_disasm)

    attack_parser = subparsers.add_parser(
        "attack", parents=[cache_stats],
        help="run a statistical attack, or list the attacker registry")
    attack_parser.add_argument(
        "action", nargs="?", default="run", choices=("run", "list"),
        help="run one attack (default), or list registered attackers")
    attack_parser.add_argument("--workload", default=None,
                               help="victim workload (see `repro "
                                    "workloads list`)")
    attack_parser.add_argument("--attacker", default=None,
                               help="adversary (see `repro attack list`)")
    attack_parser.add_argument("--defense", default="sempe",
                               help="attack the baseline and this "
                                    "protection scheme (see `repro "
                                    "defenses list`; default sempe; "
                                    "plain attacks the baseline only)")
    attack_parser.add_argument("--trials", type=int, default=32,
                               help="noisy measurements per campaign "
                                    "(default 32)")
    attack_parser.add_argument("--seed", type=int, default=0,
                               help="attack RNG seed (runs are "
                                    "reproducible per seed)")
    attack_parser.add_argument("--jitter", type=float, default=4.0,
                               help="stddev of timing measurement noise "
                                    "in cycles (default 4.0)")
    attack_parser.add_argument("--flip", type=float, default=0.02,
                               help="categorical probe corruption rate "
                                    "(default 0.02)")
    attack_parser.add_argument("--params", default="",
                               help="workload parameter overrides "
                                    "(key=value[,key=value...])")
    attack_parser.add_argument("--engine", choices=ENGINES, default="fast",
                               help="functional engine for the victim runs")
    attack_parser.add_argument("--speculation", action="store_true",
                               help="give the victim machine an in-flight "
                                    "speculation window (transient "
                                    "attackers enable it automatically)")
    attack_parser.add_argument("--store", default=None,
                               help="cache attack reports in this result "
                                    "store directory")
    attack_parser.set_defaults(func=cmd_attack)

    verify_parser = subparsers.add_parser(
        "verify", parents=[cache_stats],
        help="static-vs-dynamic differential over workload × defense")
    verify_parser.add_argument("--workload", default=None,
                               help="verify one victim (default: all "
                                    "registered workloads)")
    verify_parser.add_argument("--defense", default=None,
                               help="verify one scheme (default: all "
                                    "registered defenses)")
    verify_parser.add_argument("--jobs", type=int, default=1,
                               help="worker processes for the dynamic "
                                    "side (results are bit-identical "
                                    "for any value)")
    verify_parser.add_argument("--store", default=None,
                               help="cache verify reports in this "
                                    "result-store directory")
    verify_parser.add_argument("--sites", action="store_true",
                               help="print every classified leak site "
                                    "(pc, source line, kind)")
    verify_parser.add_argument("--speculation", action="store_true",
                               help="verify against a machine with an "
                                    "in-flight speculation window (the "
                                    "static side models wrong-path "
                                    "leakage too)")
    verify_parser.set_defaults(func=cmd_verify)

    sweep_parser = subparsers.add_parser(
        "sweep", parents=[cache_stats],
        help="regenerate paper tables/figures as one parallel, "
             "store-backed batch",
        formatter_class=_SweepHelpFormatter)
    sweep_parser.add_argument(
        "experiments", nargs="*",
        help="experiments to sweep (default: all)")
    sweep_parser.add_argument("--jobs", type=int, default=1,
                              help="worker processes (results are "
                                   "bit-identical for any value)")
    sweep_parser.add_argument("--store", default=".repro-store",
                              help="result-store directory "
                                   "(default: .repro-store)")
    sweep_parser.add_argument("--no-store", action="store_true",
                              help="disable the on-disk store")
    sweep_parser.add_argument("--progress", action="store_true",
                              help="live cell progress on stderr")
    sweep_parser.add_argument("--w", type=int, default=None,
                              help="max nesting depth: depths 1..W for "
                                   "fig10a/fig10b, W for table1 "
                                   "(default: the paper's)")
    sweep_parser.add_argument("--sizes", default=None,
                              help="comma-separated djpeg pixel counts "
                                   "(default: the paper's)")
    sweep_parser.add_argument("--workloads", default=None,
                              help="comma-separated microbenchmarks "
                                   "(default: all)")
    sweep_parser.add_argument("--timeout", type=float, default=None,
                              metavar="SECS",
                              help="per-cell wall-clock deadline; a cell "
                                   "past it is killed and counted as a "
                                   "timeout failure (default: none)")
    sweep_parser.add_argument("--retries", type=int, default=0,
                              help="extra attempts for a failed cell "
                                   "before it is quarantined (default 0; "
                                   "fuel exhaustion never retries)")
    sweep_parser.add_argument("--max-failures", type=int, default=None,
                              metavar="N",
                              help="abort the sweep once more than N "
                                   "cells have permanently failed "
                                   "(default: keep going; exit code 3 "
                                   "on abort)")
    sweep_parser.add_argument("--retry-quarantined", action="store_true",
                              help="clear persisted failure records and "
                                   "re-run the quarantined cells")
    sweep_parser.add_argument("--max-instructions", type=int, default=None,
                              metavar="N",
                              help="per-cell dynamic-instruction fuel "
                                   "budget; exhaustion is a "
                                   "deterministic, non-retryable cell "
                                   "failure (default: engine backstop "
                                   "of 50M)")
    sweep_parser.add_argument("--chaos", type=int, default=None,
                              metavar="SEED",
                              help="(testing) inject a seeded "
                                   "deterministic fault plan — raising, "
                                   "hanging, and worker-killing cells — "
                                   "to exercise the failure paths; a plan "
                                   "that can hang requires --timeout")
    sweep_parser.add_argument("--chaos-rate", type=float, default=0.25,
                              help="(testing) fraction of cells the "
                                   "--chaos plan faults (default 0.25)")
    sweep_parser.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
    except ValueError as error:
        # Misuse: every spec validates its own input (see the module
        # docstring), so any ValueError is a usage error.
        print(str(error), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # A Ctrl-C a command didn't handle itself (sweeps print their
        # own partial summary): exit quietly, nonzero, no traceback.
        print("interrupted", file=sys.stderr)
        return 130
    if getattr(args, "cache_stats", False):
        _print_cache_stats()
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
