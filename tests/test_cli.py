"""Command-line interface."""

import io
import re

import pytest

from repro.cli import main
from repro.harness import (
    ExecutionPolicy,
    SweepCell,
    SweepSpec,
    experiment_cells,
    render_experiment,
    run_sweep,
    sweep_results,
)
from repro.analysis.differential import VerifySpec
from repro.lang.compiler import compile_source
from repro.security.attackers import AttackSpec
from repro.security.leakage import noninterference_report, victim_report
from repro.testing.faults import FaultPlan
from repro.workloads.djpeg import DjpegSpec
from repro.workloads.microbench import MicrobenchSpec
from repro.workloads.registry import WorkloadRunSpec

SOURCE = """
secret int key = 1;
int result = 0;

void main() {
  int acc = 0;
  if (key) { acc = acc + 7; } else { acc = acc - 3; }
  result = acc;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "victim.mc"
    path.write_text(SOURCE)
    return str(path)


def test_compile_command(source_file, capsys):
    assert main(["compile", source_file, "--defense", "sempe"]) == 0
    out = capsys.readouterr().out
    assert "sJMPs=1" in out
    assert "sbeq" in out or "sbne" in out or "eosjmp" in out


def test_compile_with_collapse(source_file, capsys):
    assert main(["compile", source_file, "--collapse-ifs"]) == 0


def test_run_command(source_file, capsys):
    assert main(["run", source_file, "--defense", "sempe",
                 "--globals", "result"]) == 0
    out = capsys.readouterr().out
    assert "machine:       SeMPE" in out
    assert "result = 7" in out
    assert "secure regions" in out


def test_run_legacy_machine(source_file, capsys):
    assert main(["run", source_file, "--defense", "sempe", "--legacy",
                 "--globals", "result"]) == 0
    out = capsys.readouterr().out
    assert "machine:       baseline" in out
    assert "result = 7" in out


def test_run_engine_flag_bit_identical(source_file, capsys):
    assert main(["run", source_file, "--engine", "fast"]) == 0
    fast_out = capsys.readouterr().out
    assert main(["run", source_file, "--engine", "reference"]) == 0
    reference_out = capsys.readouterr().out
    assert fast_out == reference_out
    assert "cycles:" in fast_out


def test_run_unknown_global(source_file, capsys):
    assert main(["run", source_file, "--globals", "nope"]) == 0
    assert "<no such global>" in capsys.readouterr().out


def test_check_secure(source_file, capsys):
    code = main(["check", source_file, "--defense", "sempe",
                 "--secret", "key", "--values", "0,1,5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "SECURE" in out


def test_check_leaky(source_file, capsys):
    code = main(["check", source_file, "--defense", "plain",
                 "--secret", "key", "--values", "0,1,5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "LEAKS" in out


def test_disasm_shows_both_decodes(source_file, capsys):
    assert main(["disasm", source_file]) == 0
    out = capsys.readouterr().out
    assert "; SeMPE decode" in out
    assert "; legacy decode (SecPrefix ignored)" in out
    assert "eosJMP (join point; NOP on legacy)" in out


def test_workloads_list(capsys):
    from repro.workloads.registry import workload_names

    assert main(["workloads", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("modexp", "djpeg", "memcmp", "table_lookup", "bsearch",
                 "gcd"):
        assert name in out
    count = len(workload_names())
    assert count >= 6                        # the acceptance floor
    assert f"{count} workloads registered" in out
    # default action is list
    assert main(["workloads"]) == 0
    assert "Victim workload registry" in capsys.readouterr().out


def test_workloads_show(capsys):
    assert main(["workloads", "show", "memcmp", "--params", "n=4"]) == 0
    out = capsys.readouterr().out
    assert "secret int pw[4];" in out
    assert "declared channels:" in out
    assert "derived channels:" in out


def test_workloads_show_flags_undeclared_derived_channels(capsys):
    """modexp declares no memory-address channel, but the static view of
    a secret branch charges it — the mismatch note must be visible."""
    assert main(["workloads", "show", "modexp"]) == 0
    out = capsys.readouterr().out
    assert "statically derived but not declared" in out


def test_workloads_show_requires_name(capsys):
    assert main(["workloads", "show"]) == 2
    assert "requires a workload name" in capsys.readouterr().err


def test_workloads_list_rejects_trailing_name(capsys):
    assert main(["workloads", "list", "gcd"]) == 2
    assert "workloads show gcd" in capsys.readouterr().err


def test_run_workload(capsys):
    assert main(["run", "--workload", "gcd", "--globals", "out"]) == 0
    out = capsys.readouterr().out
    assert "machine:       SeMPE" in out
    assert "out = 40902" in out      # gcd(0, 40902) with the default secret


def test_run_workload_param_override(capsys):
    assert main(["run", "--workload", "gcd", "--params", "other=35",
                 "--globals", "out"]) == 0
    assert "out = 35" in capsys.readouterr().out


def test_run_rejects_file_plus_workload(source_file, capsys):
    assert main(["run", source_file, "--workload", "gcd"]) == 2
    assert "not both" in capsys.readouterr().err


def test_run_unknown_workload_is_usage_error(capsys):
    assert main(["run", "--workload", "nope"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_run_bad_params_are_usage_errors(capsys):
    assert main(["run", "--workload", "gcd", "--params", "nope=1"]) == 2
    assert "no parameter" in capsys.readouterr().err
    assert main(["run", "--workload", "gcd", "--params", "bogus"]) == 2
    assert "key=value" in capsys.readouterr().err
    # Builder-level validation surfaces the same way.
    assert main(["run", "--workload", "bsearch",
                 "--params", "entries=10"]) == 2
    assert "power of two" in capsys.readouterr().err


def test_run_workload_collapse_ifs_threads_through(capsys, monkeypatch):
    """--collapse-ifs must reach the workload compiler, not be silently
    dropped on the --workload path."""
    from repro.workloads.registry import get_workload

    spec = get_workload("memcmp")
    seen = {}
    original = spec.compile

    def spying_compile(mode, collapse_ifs=False, **overrides):
        seen["collapse_ifs"] = collapse_ifs
        return original(mode, collapse_ifs=collapse_ifs, **overrides)

    monkeypatch.setattr(type(spec), "compile",
                        lambda self, mode, collapse_ifs=False, **kw:
                        spying_compile(mode, collapse_ifs, **kw))
    assert main(["run", "--workload", "memcmp", "--collapse-ifs"]) == 0
    assert seen["collapse_ifs"] is True
    assert main(["run", "--workload", "memcmp"]) == 0
    assert seen["collapse_ifs"] is False


def test_check_workload_accepts_params(capsys):
    code = main(["check", "--workload", "gcd", "--defense", "sempe",
                 "--params", "bits=8"])
    assert code == 0
    assert "SECURE" in capsys.readouterr().out


def test_check_workload_honours_explicit_values(capsys):
    """--values overrides the spec's representative secrets (a single
    value is a BAD_INPUTS row: it has nothing to be told apart from)."""
    assert main(["check", "--workload", "gcd", "--defense", "plain",
                 "--values", "7,40902"]) == 1
    assert "LEAKS" in capsys.readouterr().out


def test_run_requires_file_or_workload(capsys):
    assert main(["run"]) == 2
    assert "required" in capsys.readouterr().err


def test_check_workload_plain_leaks(capsys):
    code = main(["check", "--workload", "gcd", "--defense", "plain"])
    out = capsys.readouterr().out
    assert code == 1
    assert "LEAKS" in out


def test_check_workload_sempe_secure(capsys):
    code = main(["check", "--workload", "gcd", "--defense", "sempe"])
    out = capsys.readouterr().out
    assert code == 0
    assert "SECURE" in out


def test_check_file_requires_secret(source_file, capsys):
    assert main(["check", source_file]) == 2
    assert "--secret is required" in capsys.readouterr().err


def test_check_rejects_contradictory_flags(source_file, capsys):
    assert main(["check", "--workload", "gcd", "--secret", "ekey"]) == 2
    assert "conflicts with --workload" in capsys.readouterr().err
    assert main(["check", source_file, "--secret", "key",
                 "--params", "n=4"]) == 2
    assert "--params only applies" in capsys.readouterr().err
    assert main(["check", "--workload", "gcd", "--values", "7,abc"]) == 2
    assert "invalid --values" in capsys.readouterr().err


def test_run_rejects_params_with_file(source_file, capsys):
    assert main(["run", source_file, "--params", "n=4"]) == 2
    assert "--params only applies" in capsys.readouterr().err


def test_sweep_table2_no_store(capsys):
    assert main(["sweep", "table2", "--no-store"]) == 0
    assert "2.0 GHz" in capsys.readouterr().out


def test_sweep_unknown_no_store(capsys):
    assert main(["sweep", "nope", "--no-store"]) == 2
    assert "unknown experiment 'nope'" in capsys.readouterr().err


def test_experiments_command_is_gone(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["experiments", "table2"])
    assert stop.value.code == 2
    assert "invalid choice: 'experiments'" in capsys.readouterr().err


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(SOURCE))
    assert main(["compile", "-"]) == 0
    assert "sJMPs=1" in capsys.readouterr().out


# --------------------------------------------------------------------------
# attack command
# --------------------------------------------------------------------------

ATTACK_ARGS = ["attack", "run", "--workload", "memcmp",
               "--attacker", "prime-probe", "--trials", "16",
               "--engine", "fast"]


@pytest.mark.attack
def test_attack_list(capsys):
    assert main(["attack", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("timing", "prime-probe", "flush-reload",
                 "predictor-probe", "branch-trace", "mistrain-reload"):
        assert name in out
    assert "6 attackers registered" in out


@pytest.mark.attack
@pytest.mark.slow
def test_attack_run_both_machines(capsys):
    assert main(ATTACK_ARGS) == 0
    out = capsys.readouterr().out
    assert "baseline machine:" in out and "SeMPE machine:" in out
    assert "verdict:       recovered" in out
    assert "verdict:       chance" in out
    assert "key recovered on baseline, defeated by SeMPE" in out


@pytest.mark.attack
@pytest.mark.slow
def test_attack_run_single_mode_and_store(tmp_path, capsys):
    from repro.harness import clear_cache, set_store

    clear_cache()
    previous = set_store(None)
    try:
        store_dir = str(tmp_path / "attacks")
        args = ATTACK_ARGS + ["--defense", "plain", "--store", store_dir,
                              "--cache-stats"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "SeMPE machine:" not in out
        assert f"store [{store_dir}]" in out and "stores=1" in out
        # Second invocation is served from the on-disk store.
        clear_cache()
        assert main(args) == 0
        assert "hits=1" in capsys.readouterr().out
    finally:
        set_store(previous)
        clear_cache()


@pytest.mark.attack
def test_attack_run_requires_workload_and_attacker(capsys):
    assert main(["attack", "run"]) == 2
    assert "requires --workload and --attacker" in capsys.readouterr().err


@pytest.mark.attack
def test_attack_unknown_attacker(capsys):
    assert main(["attack", "run", "--workload", "memcmp",
                 "--attacker", "psychic"]) == 2
    assert "unknown attacker" in capsys.readouterr().err


@pytest.mark.attack
def test_attack_inapplicable_pair(capsys):
    assert main(["attack", "run", "--workload", "modexp",
                 "--attacker", "flush-reload"]) == 2
    err = capsys.readouterr().err
    assert "does not declare" in err and "applicable" in err


@pytest.mark.attack
def test_attack_run_param_the_builder_rejects(clean_harness, tmp_path,
                                              capsys):
    """A value AttackSpec accepts but the victim's builder rejects is a
    usage error (exit 2) on every run: nothing is quarantined."""
    args = ["attack", "run", "--workload", "bsearch", "--attacker",
            "timing", "--params", "entries=10", "--store", str(tmp_path)]
    for _ in range(2):
        assert main(args) == 2
        assert "entries must be a power of two" in capsys.readouterr().err


@pytest.mark.attack
def test_attack_list_rejects_run_flags(capsys):
    assert main(["attack", "list", "--workload", "memcmp"]) == 2


# --------------------------------------------------------------------------
# sweep command + cache/store statistics
# --------------------------------------------------------------------------

@pytest.fixture
def clean_harness():
    from repro.harness import clear_cache, set_store

    clear_cache()
    previous = set_store(None)
    yield
    set_store(previous)
    clear_cache()


SWEEP_ARGS = ["sweep", "fig10a", "--w", "1", "--workloads", "fibonacci",
              "--jobs", "1", "--cache-stats"]


def test_sweep_smoke(clean_harness, tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    assert main(SWEEP_ARGS + ["--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "Fig. 10a" in out
    assert "3 cells" in out and "3 computed" in out
    assert "run cache:" in out
    assert f"store [{store_dir}]" in out and "stores=3" in out


def test_sweep_second_invocation_served_from_store(clean_harness, tmp_path,
                                                   capsys):
    from repro.harness import clear_cache

    store_dir = str(tmp_path / "store")
    assert main(SWEEP_ARGS + ["--store", store_dir]) == 0
    first = capsys.readouterr().out
    clear_cache()                       # simulate a fresh process
    assert main(SWEEP_ARGS + ["--store", store_dir]) == 0
    second = capsys.readouterr().out
    assert "3 from store" in second and "0 computed" in second
    # the rendered table is identical either way
    assert first.split("run cache:")[0].split("sweep fig10a:")[0] == \
        second.split("run cache:")[0].split("sweep fig10a:")[0]


def test_sweep_no_store(clean_harness, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(SWEEP_ARGS + ["--no-store"]) == 0
    out = capsys.readouterr().out
    assert "store: (none)" in out
    assert not (tmp_path / ".repro-store").exists()


def test_sweep_progress_goes_to_stderr(clean_harness, tmp_path, capsys):
    """`repro sweep --progress | jq`-style piping: the live progress is
    stderr-only and stdout stays byte-identical to a silent sweep."""
    assert main(SWEEP_ARGS + ["--progress", "--no-store"]) == 0
    captured = capsys.readouterr()
    assert "[3/3]" in captured.err            # live cell progress
    assert "\r[" not in captured.out          # no progress in the tables
    assert "[1/3]" not in captured.out
    assert "Fig. 10a" in captured.out

    from repro.harness import clear_cache

    clear_cache()                             # force a recomputation
    assert main(SWEEP_ARGS + ["--no-store"]) == 0
    silent = capsys.readouterr()
    assert silent.err == ""                   # no --progress, no stderr
    assert silent.out == captured.out         # machine-parseable either way


def test_plain_sweep_builds_each_experiments_own_grid(clean_harness,
                                                      monkeypatch):
    """Without --w, --sizes or --workloads a sweep builds every
    experiment's default grid, the paper scale `make bench-full` runs;
    the sweep is stopped before any cell is simulated."""
    import repro.harness

    class Captured(Exception):
        pass

    def capture(spec, **kwargs):
        raise Captured(spec)

    monkeypatch.setattr(repro.harness, "run_sweep", capture)
    names = ["fig10a", "table1", "fig8"]
    with pytest.raises(Captured) as caught:
        main(["sweep", *names, "--no-store"])
    expected = SweepSpec("+".join(names), [
        cell for name in names for cell in experiment_cells(name)])
    assert caught.value.args[0] == expected


def test_run_cache_stats_flag(clean_harness, source_file, capsys):
    assert main(["run", source_file, "--cache-stats"]) == 0
    out = capsys.readouterr().out
    assert "run cache: hits=" in out
    assert "store: (none)" in out


def test_run_profile_pipeline_prints_phase_table(source_file, capsys):
    """``--profile-pipeline`` prints one row per model phase and a
    total ahead of the report, and leaves the report as a plain run
    prints it."""
    from repro.uarch.profile import PHASES

    args = ["run", source_file, "--globals", "result"]
    assert main(args) == 0
    plain = capsys.readouterr().out.splitlines()
    assert main(args + ["--profile-pipeline"]) == 0
    lines = capsys.readouterr().out.splitlines()
    head = lines.index("pipeline profile (tottime by model phase):")
    table = lines[head + 1:head + 2 + len(PHASES)]
    assert [row.split()[0] for row in table] == [*PHASES, "total"]
    shares = [re.fullmatch(r"  \S+ +\d+\.\d{3}s  +(\d+\.\d)%", row)
              for row in table[:-1]]
    assert all(shares), table
    assert abs(sum(float(m.group(1)) for m in shares) - 100.0) < 0.5
    assert re.fullmatch(r"  total +\d+\.\d{3}s", table[-1])
    assert lines[:head] + lines[head + 2 + len(PHASES):] == plain


@pytest.mark.parametrize("jobs, entries", [("1", 1), ("2", 0)])
def test_verify_cache_stats_prints_campaign_memo(clean_harness, capsys,
                                                 jobs, entries):
    """One verify cell profiles one campaign: a SeMPE campaign's lanes
    share one timing pass, and its counters print under the passes'.
    A pooled run counts its worker's pass and campaign the same way;
    the memo's ``entries`` are the parent's own, which workers do not
    fill."""
    assert main(["verify", "--workload", "gcd", "--defense", "sempe",
                 "--jobs", jobs, "--cache-stats"]) == 0
    lines = capsys.readouterr().out.splitlines()
    passes = next(i for i, line in enumerate(lines)
                  if line.startswith("timing passes:"))
    assert lines[passes] == "timing passes: passes=1 shared=4"
    assert lines[passes + 1] == (
        f"campaign memo: hits=0 misses=1 entries={entries}")


def test_sweep_no_store_cache_stats_flag(clean_harness, capsys):
    assert main(["sweep", "table2", "--no-store", "--cache-stats"]) == 0
    out = capsys.readouterr().out
    assert "run cache: hits=" in out


def test_sweep_invalid_workloads_and_sizes(clean_harness, tmp_path, capsys):
    assert main(["sweep", "fig10a", "--workloads", "bogus",
                 "--store", str(tmp_path / "s1")]) == 2
    assert "unknown workloads" in capsys.readouterr().err
    assert not (tmp_path / "s1").exists()     # rejected before store I/O
    assert main(["sweep", "fig8", "--sizes", "12x",
                 "--store", str(tmp_path / "s2")]) == 2
    assert "invalid --sizes" in capsys.readouterr().err
    assert not (tmp_path / "s2").exists()


def _hanging_chaos_policy():
    """The policy ``sweep fig10a --w 1 --workloads fibonacci --chaos 3
    --chaos-rate 1`` builds: seed 3's plan hangs, and there is no
    --timeout to kill it."""
    cells = experiment_cells("fig10a", w_sweep=(1,),
                             workloads=("fibonacci",))
    plan = FaultPlan.seeded(
        [cell.fingerprint() for cell in SweepSpec("fig10a", cells).cells],
        seed=3, rate=1.0)
    assert plan.has_hangs()
    return ExecutionPolicy(fault_plan=plan)


_STORE = ["--store", "store"]

# One row per input rule: (CLI argv, the same value through the API,
# the message both print).  argv None marks a rule the CLI cannot reach
# (it derives w_sweep from --w; DjpegSpec sees --sizes only through
# the sizes rule or the multiple-of-64 rule).
BAD_INPUTS = {
    "sweep-w0": (["sweep", "fig10a", "--w", "0"] + _STORE,
                 lambda: render_experiment("fig10a", w=0),
                 r"--w must be >= 1, got 0"),
    "w-sweep-empty": (None,
                      lambda: render_experiment("fig10a", w_sweep=()),
                      r"w_sweep must be nesting depths >= 1"),
    "sweep-unknown": (["sweep", "fig99"] + _STORE,
                      lambda: render_experiment("fig99"),
                      r"unknown experiment 'fig99'"),
    "sweep-workloads-bogus": (
        ["sweep", "fig8", "--workloads", "bogus"] + _STORE,
        lambda: render_experiment("fig8", workloads=("bogus",)),
        r"unknown workloads \['bogus'\]"),
    "sweep-sizes0": (["sweep", "fig8", "--sizes", "0"] + _STORE,
                     lambda: experiment_cells("fig8", sizes=(0,)),
                     r"--sizes must be positive pixel counts"),
    "sweep-sizes-neg": (["sweep", "fig8", "--sizes", "-64"] + _STORE,
                        lambda: render_experiment("fig8", sizes=(-64,)),
                        r"--sizes must be positive pixel counts"),
    "djpeg-npixels-neg": (None, lambda: DjpegSpec("ppm", -64),
                          r"npixels must be positive, got -64"),
    "sweep-sizes100": (["sweep", "fig8", "--sizes", "100"] + _STORE,
                       lambda: render_experiment("fig8", sizes=(100,)),
                       r"npixels must be a multiple of 64"),
    "sweep-jobs0": (["sweep", "fig10a", "--jobs", "0"] + _STORE,
                    lambda: run_sweep(SweepSpec("none", []), jobs=0),
                    r"--jobs must be >= 1, got 0"),
    "sweep-jobs-neg": (["sweep", "fig10a", "--jobs", "-3"] + _STORE,
                       lambda: run_sweep(SweepSpec("none", []), jobs=-3),
                       r"--jobs must be >= 1, got -3"),
    "verify-jobs0": (["verify", "--workload", "gcd", "--jobs", "0"]
                     + _STORE,
                     lambda: sweep_results("none", [], jobs=0),
                     r"--jobs must be >= 1, got 0"),
    "sweep-timeout0": (["sweep", "fig10a", "--timeout", "0"] + _STORE,
                       lambda: ExecutionPolicy(timeout=0.0),
                       r"--timeout must be positive, got 0\.0"),
    "sweep-retries-neg": (["sweep", "fig10a", "--retries", "-1"] + _STORE,
                          lambda: ExecutionPolicy(retries=-1),
                          r"--retries must be >= 0, got -1"),
    "sweep-max-failures-neg": (
        ["sweep", "fig10a", "--max-failures", "-1"] + _STORE,
        lambda: ExecutionPolicy(max_failures=-1),
        r"--max-failures must be >= 0, got -1"),
    "sweep-max-instructions0": (
        ["sweep", "fig10a", "--max-instructions", "0"] + _STORE,
        lambda: ExecutionPolicy(max_instructions=0),
        r"--max-instructions must be positive, got 0"),
    "sweep-chaos-rate2": (
        ["sweep", "fig10a", "--chaos", "1", "--timeout", "5",
         "--chaos-rate", "2"] + _STORE,
        lambda: FaultPlan.seeded([], seed=1, rate=2.0),
        r"--chaos-rate must be in \[0, 1\], got 2\.0"),
    "sweep-chaos-hangs-no-timeout": (
        ["sweep", "fig10a", "--w", "1", "--workloads", "fibonacci",
         "--chaos", "3", "--chaos-rate", "1"] + _STORE,
        _hanging_chaos_policy,
        r"--chaos can inject hangs; give --timeout"),
    "attack-trials8": (ATTACK_ARGS + ["--trials", "8"] + _STORE,
                       lambda: AttackSpec("memcmp", "prime-probe",
                                          trials=8),
                       r"--trials 8 is below the statistical floor"),
    "attack-flip2": (ATTACK_ARGS + ["--flip", "2"] + _STORE,
                     lambda: AttackSpec("memcmp", "prime-probe", flip=2.0),
                     r"--flip must be in \[0, 1\], got 2\.0"),
    "attack-flip-neg": (ATTACK_ARGS + ["--flip", "-0.5"] + _STORE,
                        lambda: AttackSpec("memcmp", "prime-probe",
                                           flip=-0.5),
                        r"--flip must be in \[0, 1\], got -0\.5"),
    "attack-jitter": (ATTACK_ARGS + ["--jitter", "-1"] + _STORE,
                      lambda: AttackSpec("memcmp", "prime-probe",
                                         jitter=-1.0),
                      r"--jitter must be >= 0, got -1\.0"),
    "attack-inapplicable": (
        ["attack", "run", "--workload", "gcd", "--attacker",
         "mistrain-reload"] + _STORE,
        lambda: AttackSpec("gcd", "mistrain-reload"),
        r"'transient-memory' channel, which workload 'gcd' does not "
        r"declare; applicable: branch-trace"),
    "attack-unknown-workload": (
        ["attack", "run", "--workload", "nope", "--attacker", "timing"]
        + _STORE,
        lambda: AttackSpec("nope", "timing"),
        r"unknown workload 'nope'"),
    "attack-unknown-attacker": (
        ["attack", "run", "--workload", "gcd", "--attacker", "psychic"]
        + _STORE,
        lambda: AttackSpec("gcd", "psychic"),
        r"unknown attacker 'psychic'"),
    "attack-unknown-param": (
        ATTACK_ARGS + ["--params", "bogus=1"] + _STORE,
        lambda: AttackSpec("memcmp", "prime-probe", params={"bogus": 1}),
        r"workload 'memcmp' has no parameter 'bogus'"),
    "verify-unknown-workload": (
        ["verify", "--workload", "nope"] + _STORE,
        lambda: VerifySpec("nope"),
        r"unknown workload 'nope'"),
    "verify-unknown-param": (
        None, lambda: VerifySpec("gcd", {"bogus": 1}),
        r"workload 'gcd' has no parameter 'bogus'"),
    "workload-cell-unknown-param": (
        ["run", "--workload", "gcd", "--params", "bogus=1"],
        lambda: WorkloadRunSpec("gcd", {"bogus": 1}),
        r"workload 'gcd' has no parameter 'bogus'"),
    "workload-cell-unknown-workload": (
        ["run", "--workload", "nope"],
        lambda: WorkloadRunSpec("nope"),
        r"unknown workload 'nope'"),
    "check-one-value": (
        ["check", "--workload", "gcd", "--defense", "plain",
         "--values", "7"],
        lambda: victim_report("gcd", "plain", secret_values=[7]),
        r"needs at least two distinct secret values, got \[7\]"),
    "check-file-repeated-value": (
        ["check", "-", "--secret", "key", "--values", "5,5"],
        lambda: noninterference_report(compile_source(SOURCE).program,
                                       "key", [5, 5]),
        r"needs at least two distinct secret values, got \[5\]"),
    "cell-engine-none": (
        None,
        lambda: SweepCell("micro", MicrobenchSpec("ones", w=1), "plain",
                          engine=None),
        r"unknown engine None"),
}


@pytest.mark.parametrize("argv, api_call, message", BAD_INPUTS.values(),
                         ids=BAD_INPUTS.keys())
def test_bad_numeric_inputs_are_usage_errors(argv, api_call, message,
                                             clean_harness, tmp_path,
                                             monkeypatch, capsys):
    """Each input rule lives in the spec that owns the value: the API
    raises ValueError, and the CLI exits 2 with the same message before
    any store directory (the named --store, or a sweep's default) is
    created.  A ``check -`` row reads :data:`SOURCE` from stdin."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(SOURCE))
    with pytest.raises(ValueError, match=message):
        api_call()
    if argv is not None:
        assert main(argv) == 2
        assert re.search(message, capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["sweep", "fig10a", "--engine", "fast"],
    ["verify", "--engine", "fast"],
    ["sweep", "fig10a", "--fallback-reference"],
], ids=["sweep-engine", "verify-engine", "sweep-fallback"])
def test_sweep_and_verify_take_no_engine_choice(argv, tmp_path,
                                                monkeypatch, capsys):
    """A sweep cell names its own engine: ``sweep`` and ``verify`` have
    no flag that picks one, so each is an argparse usage error before
    any store is created."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_no_store_clears_installed_store(clean_harness, tmp_path,
                                               capsys):
    from repro.harness import get_store

    store_dir = str(tmp_path / "store")
    assert main(SWEEP_ARGS + ["--store", store_dir]) == 0
    capsys.readouterr()
    assert get_store() is not None
    assert main(SWEEP_ARGS + ["--no-store"]) == 0
    assert get_store() is None
    assert "store: (none)" in capsys.readouterr().out


# --------------------------------------------------------------------------
# Defense registry commands and the --defense flag
# --------------------------------------------------------------------------


def test_defenses_list(capsys):
    assert main(["defenses", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("plain", "sempe", "cte", "fence", "cache-partition",
                 "cache-randomize", "flush-local"):
        assert name in out
    assert "defenses registered" in out


def test_defenses_show(capsys):
    assert main(["defenses", "show", "cache-partition"]) == 0
    out = capsys.readouterr().out
    assert "protected_ways" in out
    assert "fingerprint:" in out
    assert "cache-state" in out


def test_defenses_show_requires_name(capsys):
    assert main(["defenses", "show"]) == 2
    assert "requires a defense name" in capsys.readouterr().err


def test_defenses_unknown_name(capsys):
    assert main(["defenses", "show", "rot13"]) == 2
    assert "unknown defense" in capsys.readouterr().err


def test_defenses_list_rejects_extra_argument(capsys):
    assert main(["defenses", "list", "fence"]) == 2
    assert "defenses show fence" in capsys.readouterr().err


def test_run_with_defense_flag(capsys):
    assert main(["run", "--workload", "gcd", "--defense", "fence"]) == 0
    out = capsys.readouterr().out
    assert "defense:       fence" in out
    assert "machine:       baseline" in out


def test_mode_flag_is_a_usage_error(source_file, capsys):
    """--defense is the only way to name the machine."""
    with pytest.raises(SystemExit) as exit_info:
        main(["run", source_file, "--mode", "plain"])
    assert exit_info.value.code == 2
    assert "--mode" in capsys.readouterr().err


def test_run_unknown_defense(source_file, capsys):
    assert main(["run", source_file, "--defense", "rot13"]) == 2
    assert "unknown defense" in capsys.readouterr().err


def test_check_with_defense_flag(capsys):
    # fence closes the predictor channel on table_lookup but leaves
    # timing open, so the audit exits 1 (leaks remain) with verdict text.
    code = main(["check", "--workload", "table_lookup",
                 "--defense", "fence"])
    out = capsys.readouterr().out
    assert code == 1
    assert "LEAKS via" in out
    assert "branch-predictor" not in out.splitlines()[-1]


def test_attack_run_with_defense(capsys):
    assert main(["attack", "run", "--workload", "memcmp",
                 "--attacker", "prime-probe", "--trials", "16",
                 "--defense", "cache-partition", "--engine",
                 "fast"]) == 0
    out = capsys.readouterr().out
    assert "cache-partition-protected machine:" in out
    assert "defeated by cache-partition" in out


def test_experiments_defensematrix_listed(capsys):
    from repro.harness import EXPERIMENTS

    assert "defensematrix" in EXPERIMENTS


def test_sweep_help_lists_every_experiment(capsys):
    from repro.harness import EXPERIMENTS

    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    names = re.split(r"[\s,]+", capsys.readouterr().out)
    assert set(EXPERIMENTS) <= set(names)


# --------------------------------------------------------------------------
# verify command: the static-vs-dynamic differential gate
# --------------------------------------------------------------------------

VERIFY_PASS = "[pass] every pair is sound"


def test_verify_single_pair(clean_harness, capsys):
    assert main(["verify", "--workload", "gcd",
                 "--defense", "sempe"]) == 0
    out = capsys.readouterr().out
    assert "Static-vs-dynamic differential" in out
    assert VERIFY_PASS in out


def test_verify_one_workload_all_defenses(clean_harness, capsys):
    from repro.defenses import defense_names

    assert main(["verify", "--workload", "gcd"]) == 0
    out = capsys.readouterr().out
    assert len(re.findall(r"^gcd .* ok +$", out, re.M)) == len(defense_names())
    assert VERIFY_PASS in out
    # The explained gap is reported, never flagged.
    assert "UNSOUND" not in out


def test_verify_sites_flag_prints_provenance(clean_harness, capsys):
    assert main(["verify", "--workload", "gcd", "--defense", "plain",
                 "--sites"]) == 0
    out = capsys.readouterr().out
    assert "[branch]" in out
    assert "pc=0x" in out and "line=" in out


def test_verify_store_round_trip(clean_harness, tmp_path, capsys):
    from repro.harness import clear_cache

    store_dir = str(tmp_path / "store")
    args = ["verify", "--workload", "gcd", "--defense", "sempe",
            "--store", store_dir, "--cache-stats"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "stores=1" in first
    clear_cache()
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "hits=1" in second.split("store [")[1]
    assert first.split("run cache:")[0] == second.split("run cache:")[0]


def test_verify_rejects_unknown_names(clean_harness, capsys):
    assert main(["verify", "--workload", "nope"]) == 2
    assert main(["verify", "--defense", "nope"]) == 2


def test_verify_exits_1_when_its_claim_fails(clean_harness, monkeypatch,
                                             capsys):
    """A doctored pair FAILs the verify claim, which names it: exit 1."""
    from repro.analysis.differential import VerifyReport

    monkeypatch.setattr(VerifyReport, "ok", property(lambda self: False))
    assert main(["verify", "--workload", "gcd", "--defense", "sempe"]) == 1
    assert ("[FAIL] every pair is sound and has no transform violation: "
            "unexpected gcd [sempe]") in capsys.readouterr().out


@pytest.mark.attack
def test_attack_run_exits_1_when_a_claim_fails(clean_harness, monkeypatch,
                                               capsys):
    """A baseline doctored to expect chance FAILs the attacks claim,
    which names the cell and makes the outcome unexpected: exit 1."""
    from repro.harness import experiments

    monkeypatch.setattr(experiments, "expected_verdict",
                        lambda attacker, mode: "chance")
    assert main(ATTACK_ARGS) == 1
    out = capsys.readouterr().out
    assert re.search(r"\[FAIL\] recovered on the baseline.*: unexpected "
                     r"memcmp prime-probe \[plain\]$", out, re.M)
    assert "attack outcome: UNEXPECTED" in out


SPECTRE = ["--workload", "spectre", "--defense", "fence"]


@pytest.mark.parametrize("command", [
    ["attack", "run", *SPECTRE, "--attacker", "mistrain-reload",
     "--trials", "16", "--engine", engine] for engine in ("fast", "batch")
] + [["verify", *SPECTRE, "--speculation"]], ids=("fast", "batch", "verify"))
def test_spectre_smoke_commands_pass_their_claims(clean_harness, command,
                                                  capsys):
    """The commands of `make spectre-smoke` exit 0 on passing claims."""
    assert main(command) == 0
    assert "[FAIL]" not in capsys.readouterr().out


# --------------------------------------------------------------------------
# fault tolerance: policy flags, failure summaries, exit codes
# --------------------------------------------------------------------------

FT_ARGS = ["sweep", "fig10a", "--w", "1", "--workloads", "ones",
           "--jobs", "1"]


def test_sweep_chaos_without_hangs_needs_no_timeout(clean_harness, capsys):
    """Only a plan that can hang needs --timeout (the rejection is a
    BAD_INPUTS row); seed 7 raises and kills, so it runs without one."""
    assert main(FT_ARGS + ["--no-store", "--chaos", "7",
                           "--chaos-rate", "1"]) == 1
    captured = capsys.readouterr()
    assert "chaos: injecting 3 faults across 3 cells" in captured.err
    assert "3 cells failed" in captured.out


def test_sweep_failure_lifecycle_exit_codes(clean_harness, tmp_path,
                                            capsys):
    """fuel-fail -> quarantine skip on resume -> --retry-quarantined
    recovers; exit codes 1 / 1 / 0 along the way."""
    from repro.harness import clear_cache

    store_dir = str(tmp_path / "store")
    # every cell exhausts an absurdly small fuel budget: exit 1
    assert main(FT_ARGS + ["--store", store_dir,
                           "--max-instructions", "10"]) == 1
    out = capsys.readouterr().out
    assert "Failed cells (3)" in out
    assert "fuel-exhausted" in out and "quarantined" in out
    assert "tables not rendered" in out
    assert "3 failed" in out

    # resume skips the quarantined cells instead of re-running them
    clear_cache()
    assert main(FT_ARGS + ["--store", store_dir]) == 1
    out = capsys.readouterr().out
    assert "3 quarantined" in out
    assert "--retry-quarantined" in out

    # clearing the quarantine (without the tiny budget) recovers fully
    clear_cache()
    assert main(FT_ARGS + ["--store", store_dir,
                           "--retry-quarantined"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 10a" in out and "3 computed" in out


def test_sweep_abort_exit_code(clean_harness, capsys):
    assert main(FT_ARGS + ["--no-store", "--max-instructions", "10",
                           "--max-failures", "0"]) == 3
    out = capsys.readouterr().out
    assert "ABORTED" in out


def test_sweep_progress_reports_failures(clean_harness, capsys):
    assert main(FT_ARGS + ["--no-store", "--progress",
                           "--max-instructions", "10"]) == 1
    err = capsys.readouterr().err
    assert "[3/3, 3 failed]" in err


def test_sweep_interrupt_exit_code(clean_harness, monkeypatch, capsys):
    from repro.harness import parallel
    from repro.harness.failures import RunOutcome, SweepInterrupted

    def interrupted(cells, jobs=1, progress=None, policy=None):
        raise SweepInterrupted(RunOutcome(total=3, computed=1))

    monkeypatch.setattr(parallel, "run_cells", interrupted)
    assert main(FT_ARGS + ["--no-store", "--cache-stats"]) == 130
    captured = capsys.readouterr()
    assert "interrupted" in captured.err
    assert "INTERRUPTED" in captured.out
    assert "run cache: hits=" in captured.out   # stats on this exit too


@pytest.mark.slow
def test_sweep_chaos_smoke(clean_harness, tmp_path, capsys):
    """The chaos harness end to end: seeded faults over a real sweep,
    nonzero exit, failure table, deterministic across reruns."""
    store_a = str(tmp_path / "a")
    args = FT_ARGS + ["--timeout", "2", "--chaos", "1",
                      "--chaos-rate", "1.0"]
    assert main(args + ["--store", store_a]) == 1
    captured = capsys.readouterr()
    assert "chaos: injecting 3 faults across 3 cells" in captured.err
    assert "Failed cells (3)" in captured.out

    from repro.harness import clear_cache

    clear_cache()
    store_b = str(tmp_path / "b")
    assert main(args + ["--store", store_b]) == 1
    assert "Failed cells (3)" in capsys.readouterr().out

    def tree(root):
        import os

        snapshot = {}
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in filenames:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as handle:
                    snapshot[os.path.relpath(path, root)] = handle.read()
        return snapshot

    assert tree(store_a) == tree(store_b)
