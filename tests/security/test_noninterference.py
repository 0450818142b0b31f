"""The core security claim: SeMPE closes the SDBCB channels.

These tests exercise the paper's §IV-A argument end-to-end: the
baseline machine leaks the secret through timing, control flow, memory
addresses and predictor state; the SeMPE machine (and the CTE baseline)
produce identical observations for every secret value.
"""

import pytest

from repro.analysis.differential import VerifySpec, execute_verify
from repro.harness import clear_cache
from repro.isa.encoding import encode_program
from repro.lang.compiler import compile_source
from repro.security import (
    collect_observation, distinguishing_channels, leakage,
    noninterference_report, victim_report,
)
from repro.security.attackers import (
    MIN_TRIALS, AttackSpec, applicable_attackers, attack_config,
    execute_attack,
)
from repro.uarch import batch_pipeline
from repro.workloads.registry import workload_names

UNBALANCED = """
secret int key = 1;
int result = 0;

void main() {
  int acc = 0;
  if (key) {
    int w = 0;
    for (int i = 0; i < 25; i = i + 1) { w = w + i * i; }
    acc = acc + w;
  } else {
    acc = acc - 3;
  }
  result = acc;
}
"""

SECRETS = [0, 1, 7]


def report_for(mode, defense, source=UNBALANCED, secrets=SECRETS,
               config=None):
    compiled = compile_source(source, mode=mode)
    return noninterference_report(
        compiled.program, "key", secrets, defense=defense, config=config,
    )


def test_baseline_leaks_timing_and_control_flow(fast_config):
    report = report_for("plain", defense="plain", config=fast_config)
    assert not report.secure
    leaking = set(report.leaking_channels())
    assert "timing" in leaking
    assert "control-flow" in leaking
    assert "instruction-count" in leaking


def test_baseline_leaks_branch_predictor(fast_config):
    report = report_for("plain", defense="plain", config=fast_config)
    assert "branch-predictor" in report.leaking_channels()


def test_sempe_closes_all_channels(fast_config):
    report = report_for("sempe", defense="sempe", config=fast_config)
    assert report.secure, report.leaking_channels()


def test_cte_closes_all_channels(fast_config):
    report = report_for("cte", defense="plain", config=fast_config)
    assert report.secure, report.leaking_channels()


def test_sempe_binary_on_legacy_machine_leaks(fast_config):
    """Backward compatibility has a price: the SeMPE binary run on a
    non-SeMPE processor is functional but unprotected (§I)."""
    compiled = compile_source(UNBALANCED, mode="sempe")
    report = noninterference_report(
        compiled.program, "key", SECRETS, defense="plain", config=fast_config,
    )
    assert not report.secure


def test_necessity_skipping_a_path_is_observable(fast_config):
    """§IV-A necessity direction: executing only one path (the baseline)
    is distinguishable from executing both (SeMPE)."""
    compiled = compile_source(UNBALANCED, mode="sempe")
    both = collect_observation(compiled.program, defense="sempe",
                               secret_values={"key": 1}, config=fast_config)
    one = collect_observation(compiled.program, defense="plain",
                              secret_values={"key": 1}, config=fast_config)
    assert distinguishing_channels(both, one)


def test_mutual_information_quantifies_leak(fast_config):
    leaky = report_for("plain", defense="plain", config=fast_config)
    timing = leaky.channels["timing"]
    assert timing.mutual_information > 0.5
    closed = report_for("sempe", defense="sempe", config=fast_config)
    assert closed.channels["timing"].mutual_information == 0.0


def test_nested_secrets_closed(fast_config):
    source = """
    secret int key = 0;
    int result = 0;
    void main() {
      int acc = 0;
      int bit0 = key & 1;
      int bit1 = (key >> 1) & 1;
      if (bit0) {
        acc = acc + 5;
        if (bit1) { acc = acc * 3; }
      } else {
        acc = acc - 1;
      }
      result = acc;
    }
    """
    compiled = compile_source(source, mode="sempe")
    report = noninterference_report(
        compiled.program, "key", [0, 1, 2, 3], defense="sempe",
        config=fast_config,
    )
    assert report.secure, report.leaking_channels()


def test_summary_renders(fast_config):
    report = report_for("sempe", defense="sempe", config=fast_config)
    text = report.summary()
    assert "timing" in text and "closed" in text


def _attack_verify_check(name, mode, monkeypatch):
    """Attack, verify and check *name* under *mode* on the attack
    machine; one ``(program name, encoding, data, secret sets, machine,
    traces)`` entry per profiling run."""
    profiled = []
    collect = leakage.collect_observations_batch

    def recording(program, secret_sets, **kwargs):
        traces = collect(program, secret_sets, **kwargs)
        profiled.append((program.name, encode_program(program),
                         program.data, secret_sets, kwargs["config"],
                         traces))
        return traces

    monkeypatch.setattr(leakage, "collect_observations_batch", recording)
    config = attack_config()
    attacker = applicable_attackers(name)[0]
    execute_attack(AttackSpec(name, attacker, trials=MIN_TRIALS), mode,
                   config=config, engine="fast")
    execute_verify(VerifySpec(name), mode, config=config, engine="fast")
    victim_report(name, mode, config=config, engine="fast")
    return profiled


@pytest.mark.parametrize("mode", ["plain", "sempe"])
@pytest.mark.parametrize("name", workload_names())
def test_attack_verify_and_check_profile_one_campaign(name, mode,
                                                      monkeypatch):
    """The attack, verify and check paths are callers of one victim
    campaign: each profiles the same compiled program over the same
    candidate secrets, on the same machine (with the memo off, so each
    of them runs it)."""
    previous = batch_pipeline.set_memo_enabled(False)
    try:
        profiled = _attack_verify_check(name, mode, monkeypatch)
    finally:
        batch_pipeline.set_memo_enabled(previous)
    assert len(profiled) == 3
    assert profiled[0] == profiled[1] == profiled[2]
    assert len(profiled[0][3]) >= 2


@pytest.mark.parametrize("mode", ["plain", "sempe"])
@pytest.mark.parametrize("name", workload_names())
def test_one_memoized_campaign_serves_attack_verify_and_check(
        name, mode, monkeypatch):
    """From a cold memo, the attack profiles the victim once and verify
    and check are served that campaign's traces."""
    clear_cache()
    profiled = _attack_verify_check(name, mode, monkeypatch)
    assert len(profiled) == 1
    assert leakage.campaign_info() == {"hits": 2, "misses": 1,
                                       "entries": 1}
    served = leakage.victim_campaign(name, mode, config=attack_config(),
                                     engine="fast").traces
    assert served == profiled[0][-1]
    clear_cache()
