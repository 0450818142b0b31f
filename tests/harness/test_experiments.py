"""Experiment regeneration: shapes of every table/figure.

These are the integration tests of the whole reproduction: small
parameterisations of each experiment must reproduce the paper's
qualitative shapes.  The full-size versions live in ``benchmarks/``.
"""

from functools import partial

import pytest

from repro.harness.experiments import (
    EXPERIMENTS, experiment_cells, fig8_cells, fig8_djpeg_overhead,
    fig9_cache_missrates, fig10a_microbench, fig10b_normalized_to_ideal,
    leakmatrix, leakmatrix_cells, render_experiment, spectre_cells,
    spectre_matrix, table1_cells, table1_comparison, table2_config,
    victims_overhead,
)
from repro.harness.report import format_table
from repro.harness.sweep import ensure_cells

SMALL_W = (1, 3)
SMALL_SIZES = (256, 512)
SMALL_WORKLOADS = ("fibonacci", "ones")


def test_table2_echoes_paper_parameters():
    result = table2_config()
    text = format_table(result.headers, result.rows)
    assert "2.0 GHz" in text
    assert "192 uops" in text
    assert "32KB, 2-way assoc." in text
    assert "64 B/cycle R/W" in text


@pytest.mark.slow
def test_table1_shape():
    result = table1_comparison(w=3, workloads=SMALL_WORKLOADS)
    series = result.series
    # CTE slower than SeMPE; prior HW/SW schemes slower still.
    assert max(series["CTE"]) > max(series["SeMPE"])
    assert max(series["Raccoon"]) > max(series["SeMPE"])
    assert max(series["GhostRider"]) > max(series["Raccoon"])


def test_fig8_shape():
    result = fig8_djpeg_overhead(sizes=SMALL_SIZES)
    series = result.series
    for fmt in ("ppm", "gif", "bmp"):
        for overhead in series[fmt]:
            # Well under 2x (the paper: 31%..87%).
            assert 0.05 < overhead < 1.5
    # Ordering: PPM > GIF > BMP at every size.
    for index in range(len(SMALL_SIZES)):
        assert series["ppm"][index] > series["gif"][index] > \
            series["bmp"][index]


def test_fig8_flat_across_sizes():
    result = fig8_djpeg_overhead(sizes=(256, 1024))
    for fmt, overheads in result.series.items():
        spread = max(overheads) - min(overheads)
        assert spread < 0.25, (fmt, overheads)


def test_fig9_small_missrate_deltas():
    result = fig9_cache_missrates(sizes=SMALL_SIZES)
    for level in ("IL1", "DL1", "L2"):
        for base_rate, sempe_rate in zip(result.series[level]["base"],
                                         result.series[level]["sempe"]):
            assert abs(sempe_rate - base_rate) < 0.2


def test_fig10a_shape():
    result = fig10a_microbench(w_sweep=SMALL_W, workloads=SMALL_WORKLOADS)
    for workload in SMALL_WORKLOADS:
        sempe = result.series[(workload, "sempe")]
        cte = result.series[(workload, "cte")]
        # Slowdowns grow with W for both schemes.
        assert sempe[-1] > sempe[0]
        assert cte[-1] > cte[0]
        # CTE is slower than SeMPE at the deepest point.
        assert cte[-1] > sempe[-1]
        # SeMPE tracks the number of paths (W+1) loosely.
        assert 0.5 * (SMALL_W[-1] + 1) < sempe[-1] < 1.5 * (SMALL_W[-1] + 1)


def test_fig10b_shape():
    result = fig10b_normalized_to_ideal(w_sweep=SMALL_W,
                                        workloads=SMALL_WORKLOADS)
    for value in result.series["sempe"]:
        # SeMPE is near the ideal (sum of all paths).
        assert 0.6 < value < 1.6
    # CTE normalized cost exceeds SeMPE's and grows with W.
    assert result.series["cte"][-1] > result.series["sempe"][-1]
    assert result.series["cte"][-1] > result.series["cte"][0] * 0.9


def test_experiment_tables_render():
    result = fig8_djpeg_overhead(sizes=(256,))
    text = format_table(result.headers, result.rows, title=result.experiment)
    assert "PPM" in text and "%" in text


def test_formats_is_not_a_sizing_keyword():
    """Fig. 8 and Fig. 9 always cover every output format; a formats=
    keyword is rejected, never rendered as an empty table."""
    with pytest.raises(TypeError, match=r"unknown sizing keywords "
                                        r"\['formats'\]"):
        render_experiment("fig8", sizes=(64,), formats=())
    with pytest.raises(TypeError, match="formats"):
        experiment_cells("fig9", formats=("ppm",))


def test_registry_experiments_enumerated():
    assert "victims" in EXPERIMENTS
    assert "leakmatrix" in EXPERIMENTS
    assert "attacks" in EXPERIMENTS
    assert "spectre" in EXPERIMENTS


def test_spectre_experiment_cells_shape():
    from repro.harness.experiments import ATTACK_ENGINES, spectre_cells
    from repro.security.attackers import AttackSpec

    cells = spectre_cells(("plain", "fence"))
    attacks = [c for c in cells if c.kind == "attack"]
    verifies = [c for c in cells if c.kind == "verify"]
    assert len(attacks) == 2 * len(ATTACK_ENGINES)
    assert len(verifies) == 2
    assert all(isinstance(c.spec, AttackSpec)
               and c.spec.workload == "spectre"
               and c.spec.attacker == "mistrain-reload"
               for c in attacks)


@pytest.mark.slow
def test_spectre_matrix_expected_shape():
    """The transient acceptance matrix on its two hard-gated corners:
    the baseline leaks and the attacker recovers; the fence closes the
    channel and the attacker lands at chance — engines agreeing and
    the verify differential sound on both.  ``all_expected`` is the
    bit the spectre smoke lane gates CI on."""
    from repro.harness.experiments import spectre_matrix

    result = spectre_matrix(("plain", "fence"))
    per_defense = result.series["defenses"]
    assert per_defense["plain"]["transient_leaks"] is True
    assert per_defense["plain"]["attack_verdict"] == "recovered"
    assert per_defense["fence"]["transient_leaks"] is False
    assert per_defense["fence"]["attack_verdict"] == "chance"
    for mode in ("plain", "fence"):
        assert per_defense[mode]["engines_agree"], mode
        assert per_defense[mode]["verify_ok"], mode
        assert per_defense[mode]["ok"], mode
    assert result.series["all_expected"] is True
    text = format_table(result.headers, result.rows)
    assert "LEAKS" in text and "closed" in text


def test_victims_and_verify_cells_shape():
    """The victims grid has two cells per grid point, and the verify
    sweep shares the leak matrix's cells."""
    from repro.workloads.registry import iter_workloads

    cells = experiment_cells("victims")
    expected = sum(2 * len(spec.grid) for spec in iter_workloads())
    assert len(cells) == expected
    assert all(cell.kind == "workload" for cell in cells)
    assert [cell.fingerprint() for cell in experiment_cells("leakmatrix")] \
        == [cell.fingerprint() for cell in experiment_cells("verify")]


def test_attacks_experiment_cells_shape():
    from repro.harness.experiments import (
        ATTACK_ENGINES,
        DEFAULT_ATTACK_DEFENSES,
    )
    from repro.security.attackers import applicable_attackers
    from repro.workloads.registry import iter_workloads

    cells = experiment_cells("attacks")
    per_pair = len(ATTACK_ENGINES) * len(DEFAULT_ATTACK_DEFENSES)
    expected = sum(per_pair * len(applicable_attackers(spec))
                   for spec in iter_workloads())
    assert len(cells) == expected
    assert all(cell.kind == "attack" for cell in cells)
    assert {cell.engine for cell in cells} == set(ATTACK_ENGINES)
    # The acceptance criterion: the sweep grid covers >= 5 defenses.
    assert len(DEFAULT_ATTACK_DEFENSES) >= 5
    assert {cell.mode for cell in cells} == set(DEFAULT_ATTACK_DEFENSES)


@pytest.mark.slow
def test_victim_matrix_shape():
    """Every registered victim slows down under SeMPE but stays within
    an order of magnitude (the paper's low-overhead claim)."""
    result = victims_overhead()
    from repro.workloads.registry import workload_names

    assert set(result.series) == set(workload_names())
    for name, overheads in result.series.items():
        for overhead in overheads:
            # spectre's committed path is secret-independent by design
            # (no secret branch, nothing for SeMPE to dual-path), so
            # its overhead is exactly 1.0; every architectural victim
            # pays a real but bounded cost.
            if name == "spectre":
                assert overhead == 1.0, (name, overhead)
            else:
                assert 1.0 < overhead < 10.0, (name, overhead)


@pytest.mark.slow
def test_leakmatrix_verdicts():
    """The three-axis leak matrix: every victim leaks its declared
    channels on the baseline, is closed under SeMPE, and every other
    scheme's declared-protected channels hold empirically."""
    result = leakmatrix()
    for name, verdict in result.series.items():
        assert verdict["sempe_secure"] is True, name
        assert verdict["baseline_leaks"], name
        for defense, outcome in verdict["defenses"].items():
            assert outcome["ok"], (name, defense, outcome)
    text = format_table(result.headers, result.rows)
    assert "closed" in text and "LEAKS" in text
    assert "CLAIM BROKEN" not in text and "UNDECLARED-TIGHT" not in text
    # The verify cells' dynamic verdicts equal a live report's.
    from repro.security.leakage import victim_report
    from repro.uarch.config import fast_functional

    for name in ("gcd", "memcmp", "spectre"):
        for defense in ("plain", "sempe", "fence"):
            live = victim_report(name, defense, config=fast_functional())
            rendered = result.series[name]["defenses"][defense]["leaking"]
            assert rendered == live.leaking_channels(), (name, defense)


SPECTRE_DEFENSES = ("plain", "fence")


@pytest.mark.parametrize("cells, render", [
    pytest.param(leakmatrix_cells, leakmatrix, id="leakmatrix",
                 marks=pytest.mark.slow),
    pytest.param(partial(spectre_cells, SPECTRE_DEFENSES),
                 partial(spectre_matrix, SPECTRE_DEFENSES), id="spectre",
                 marks=pytest.mark.slow),
    pytest.param(partial(fig8_cells, (128,)),
                 partial(fig8_djpeg_overhead, (128,)), id="fig8"),
    pytest.param(partial(table1_cells, 1),
                 partial(table1_comparison, 1), id="table1"),
])
def test_render_reads_only_its_cells(cells, render, monkeypatch):
    """Once an experiment's cells are swept, rendering it computes
    nothing: no cell and no live noninterference report."""
    ensure_cells("render-test", cells())

    def forbidden(*args, **kwargs):
        raise AssertionError("rendering computed a result")

    monkeypatch.setattr("repro.harness.runner.compute_cell", forbidden)
    monkeypatch.setattr("repro.security.leakage.noninterference_report",
                        forbidden)
    result = render()
    assert result.rows
