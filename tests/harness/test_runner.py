"""Run caching."""

from dataclasses import asdict

from repro.harness.runner import cache_info, clear_cache
from repro.harness.sweep import SweepCell, SweepSpec
from repro.security.attackers import AttackSpec, attack_config
from repro.uarch.config import MachineConfig, fingerprint
from repro.workloads.djpeg import DjpegSpec
from repro.workloads.microbench import MicrobenchSpec


def setup_function(_function):
    clear_cache()


def test_microbench_run_cached():
    spec = MicrobenchSpec("fibonacci", w=1, iters=1)
    first = SweepCell("micro", spec, "plain").run()
    second = SweepCell("micro", spec, "plain").run()
    assert first is second


def test_different_modes_not_conflated():
    spec = MicrobenchSpec("fibonacci", w=1, iters=1)
    base = SweepCell("micro", spec, "plain").run()
    sempe = SweepCell("micro", spec, "sempe").run()
    assert base is not sempe
    assert sempe.instructions > base.instructions


def test_djpeg_run_cached():
    spec = DjpegSpec("bmp", 128)
    first = SweepCell("djpeg", spec, "plain").run()
    second = SweepCell("djpeg", spec, "plain").run()
    assert first is second
    assert first.cycles > 0


def test_result_surface():
    spec = MicrobenchSpec("ones", w=1, iters=1)
    result = SweepCell("micro", spec, "sempe").run()
    assert result.mode == "sempe"
    assert result.cycles == result.report.cycles
    assert set(result.miss_rates) == {"IL1", "DL1", "L2"}


def test_equal_configs_share_cache_entry():
    """The key is structural, not object identity: two equal configs
    built independently must hit the same entry."""
    spec = MicrobenchSpec("fibonacci", w=1, iters=1)
    first = SweepCell("micro", spec, "plain", config=MachineConfig()).run()
    second = SweepCell("micro", spec, "plain", config=MachineConfig()).run()
    assert first is second


def test_different_configs_not_conflated():
    spec = MicrobenchSpec("fibonacci", w=1, iters=1)
    small = MachineConfig()
    small.rob_entries = 32
    default = SweepCell("micro", spec, "plain", config=MachineConfig()).run()
    shrunk = SweepCell("micro", spec, "plain", config=small).run()
    assert default is not shrunk
    assert fingerprint(asdict(small)) != fingerprint(asdict(MachineConfig()))


def test_default_config_shares_the_none_cell():
    """Spelling out the machine a kind runs on by default addresses the
    same cell as ``config=None``; any other machine stays distinct."""
    spec = DjpegSpec("gif", 512)
    implicit = SweepCell("djpeg", spec, "plain")
    explicit = SweepCell("djpeg", spec, "plain", MachineConfig())
    assert explicit.fingerprint() == implicit.fingerprint()
    assert explicit.descriptor()["config"] is None
    assert SweepSpec("default", [implicit, explicit]).cells == [implicit]
    small = MachineConfig()
    small.rob_entries = 32
    assert SweepCell("djpeg", spec, "plain", small).fingerprint() \
        != implicit.fingerprint()

    attack = AttackSpec("gcd", "timing")
    none_attack = SweepCell("attack", attack, "plain")
    assert SweepCell("attack", attack, "plain",
                     attack_config()).fingerprint() \
        == none_attack.fingerprint()
    # An attack cell's default is the attack machine, not Table II's.
    assert SweepCell("attack", attack, "plain",
                     MachineConfig()).fingerprint() \
        != none_attack.fingerprint()


def test_engines_cached_separately_but_identical():
    spec = MicrobenchSpec("fibonacci", w=1, iters=1)
    fast = SweepCell("micro", spec, "sempe", engine="fast").run()
    reference = SweepCell("micro", spec, "sempe", engine="reference").run()
    assert fast is not reference
    assert fast.cycles == reference.cycles
    assert fast.report.final_regs == reference.report.final_regs


def test_cache_info_counts():
    spec = MicrobenchSpec("fibonacci", w=1, iters=1)
    assert cache_info() == {"hits": 0, "misses": 0, "entries": 0}
    SweepCell("micro", spec, "plain").run()
    SweepCell("micro", spec, "plain").run()
    SweepCell("micro", spec, "sempe").run()
    info = cache_info()
    assert info["hits"] == 1
    assert info["misses"] == 2
    assert info["entries"] == 2
