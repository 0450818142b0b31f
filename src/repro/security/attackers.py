"""The statistical attack engine: noisy multi-trial adversaries.

PR 3 grew the victim side of the §III threat model to a registry of
workloads; this module grows the adversary to match.  The attackers
play the game the side-channel literature actually plays:

1. **Profile.**  The adversary knows the victim's code (§III) and can
   run it with secrets of its own choosing.  It collects one hermetic
   observation per representative secret value (the workload's declared
   leak values) and keeps the channel observable of each as a template.
   This step is the one victim campaign
   (:func:`repro.security.leakage.victim_campaign`), the same one
   ``repro check`` and verify cells run.
2. **Choose a pair.**  From the profiled candidates it picks the two
   most distinguishable secrets — the fixed-vs-fixed classes of a
   TVLA-style test.  Each class encodes one key-bit value.
3. **Attack.**  A random ``key_bits``-wide key is drawn; for every key
   bit the victim runs with the corresponding class secret and the
   adversary takes ``reps`` *noisy* measurements — Gaussian timing
   jitter on scalar channels, probe corruption on categorical ones —
   classifies each against the templates, and majority-votes the bit.
4. **Decide.**  Welch's t-test (scalar) or a label-permutation test on
   the mutual-information statistic (categorical) from
   :mod:`repro.security.stats` says whether the channel distinguishes
   the classes at all; the recovered-bit fraction says how much of the
   key leaked.

On the baseline machine every applicable attacker recovers its
workload's key (success rate 1.0, vanishing p-value); under SeMPE the
observables are identical across secrets, classification degenerates to
coin flips, and the p-value sits inside the null — the paper's security
argument, measured end to end.

The victim simulations are deterministic and hermetic (see
:func:`repro.security.observer.collect_observation`), so one
observation per class is simulated and the trial noise — which models
the *adversary's measurement*, not the victim — is resampled per trial
from the attack's seed.  Attack runs are pure functions of their
:class:`AttackSpec`, which is what lets the harness cache
:class:`AttackReport` records in the result store and fan attack cells
out across the sweep pool.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass, field

from repro.defenses.registry import DefenseSpec, get_defense
from repro.security.leakage import (
    mutual_information_bits,
    observation_key,
    victim_campaign,
)
from repro.security.observer import ObservationTrace
from repro.security.stats import (
    majority_vote,
    permutation_test,
    welch_t_test,
)
from repro.uarch.config import MachineConfig, fast_functional
from repro.workloads.registry import WorkloadSpec, get_workload

# Decision threshold shared by every distinguisher: reject the
# "channel is closed" null below it, report "chance" at or above it.
ALPHA = 0.01

# TVLA detection threshold for the Welch test: a scalar channel only
# counts as distinguishing when |t| clears this bar *and* p < ALPHA.
# The side-channel literature uses 4.5 precisely because a leakage
# assessment runs many tests — a bare p < 0.01 fires falsely about
# once per hundred closed channels, |t| >= 4.5 about once per ten
# thousand.  (Permutation tests on categorical channels need no such
# guard: under the SeMPE null every shuffle ties the observed
# statistic and the p-value is exactly 1.0.)
TVLA_THRESHOLD = 4.5

# Fraction of the key the attacker must recover to claim success.
RECOVERY_THRESHOLD = 0.9

# Smallest statistically meaningful campaign.  Below this the balanced
# distinguisher cannot reach ALPHA even on a fully leaking channel
# (with trials=8 the permutation null ties with probability
# 2/C(8,4) ~ 0.03 > ALPHA; Welch has the same small-n floor), so a
# too-small request fails loudly instead of reporting a false "chance".
MIN_TRIALS = 12


def attack_config() -> MachineConfig:
    """The machine attack runs use when none is given.

    The compact :func:`~repro.uarch.config.fast_functional` machine:
    leak verdicts are size-independent (the baseline leak and the SeMPE
    closure hold on any geometry) and the small structures keep a
    hundreds-of-trials matrix tractable.
    """
    return fast_functional()


@dataclass
class AttackSpec:
    """One attack configuration (a sweep-cell spec, like
    :class:`~repro.workloads.registry.WorkloadRunSpec`).

    ``dataclasses.asdict`` must stay JSON-safe: the spec is part of the
    cell descriptor that fingerprints cached :class:`AttackReport`
    records in the result store.  Building one checks every field, so
    an attack cell that cannot run is never built.
    """

    workload: str
    attacker: str
    trials: int = 32
    seed: int = 0
    jitter: float = 4.0          # stddev of scalar measurement noise
    flip: float = 0.02           # per-trial categorical corruption rate
    params: dict = field(default_factory=dict)   # workload overrides

    def __post_init__(self) -> None:
        workload = get_workload(self.workload)
        attacker = get_attacker(self.attacker)
        if not attacker.applies_to(workload):
            raise ValueError(
                f"attacker {attacker.name!r} exploits the "
                f"{attacker.channel!r} channel, which workload "
                f"{workload.name!r} does not declare; applicable: "
                f"{', '.join(applicable_attackers(workload)) or 'none'}")
        workload.resolve(self.params)   # unknown keys fail here
        if self.trials < MIN_TRIALS:
            raise ValueError(
                f"--trials {self.trials} is below the statistical floor "
                f"({MIN_TRIALS}); the distinguisher could not reach "
                "significance even on a fully leaking channel")
        if self.jitter < 0:
            raise ValueError(f"--jitter must be >= 0, got {self.jitter}")
        if not 0 <= self.flip <= 1:
            raise ValueError(f"--flip must be in [0, 1], got {self.flip}")

    @property
    def name(self) -> str:
        tags = "-".join(f"{key}{self.params[key]}"
                        for key in sorted(self.params))
        base = f"{self.workload}+{self.attacker}-t{self.trials}-s{self.seed}"
        return f"{base}-{tags}" if tags else base


@dataclass
class AttackReport:
    """What one attack run learned (JSON-safe, store-cacheable)."""

    workload: str
    attacker: str
    channel: str
    mode: str                    # the defense the victim ran under
    engine: str
    trials: int
    seed: int
    key_bits: int
    reps: int
    candidates: int              # profiled secret values
    pair: list[str]              # reprs of the chosen class secrets
    success_rate: float          # recovered key bits / key_bits
    bits_total: int
    bits_recovered: int
    p_value: float
    statistic: float             # Welch t (scalar) or plug-in MI (categ.)
    stat_kind: str               # "welch-t" | "perm-mi"
    profiled_mi: float           # MI across all profiled candidates
    verdict: str                 # "recovered" | "chance" | "partial"

    @property
    def recovered(self) -> bool:
        return self.verdict == "recovered"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AttackReport":
        return cls(**data)

    def summary(self) -> str:
        return (
            f"{self.workload} vs {self.attacker} [{self.mode}/{self.engine}]"
            f": {self.bits_recovered}/{self.bits_total} key bits "
            f"({self.success_rate:.0%}), p={self.p_value:.2e} "
            f"({self.stat_kind}) -> {self.verdict}"
        )


class Attacker:
    """Base class: one microarchitectural adversary.

    Subclasses set ``name``, ``channel`` (which declared leak channel
    they exploit — an attacker applies to a workload iff the workload
    declares that channel), ``scalar`` (whether the observable is a
    real number measured with jitter, or a categorical value probed
    with a corruption rate), and implement :meth:`observable`.

    A categorical observable should be a digest, not a raw stream: the
    campaign compares and hashes it on every trial, so its size sets
    the cost of the statistics.  Two runs' digests are equal iff their
    streams are, so verdicts do not change.
    """

    name: str = ""
    channel: str = ""
    scalar: bool = False
    description: str = ""

    def observable(self, trace: ObservationTrace) -> object:
        raise NotImplementedError

    @classmethod
    def applies_to(cls, spec: WorkloadSpec) -> bool:
        return cls.channel in spec.channels

    # -- trial machinery -------------------------------------------------

    def _measure(self, true_value: object, rng: random.Random,
                 spec: AttackSpec) -> object:
        """One noisy measurement of the channel observable."""
        if self.scalar:
            return float(true_value) + rng.gauss(0.0, spec.jitter)
        if spec.flip > 0.0 and rng.random() < spec.flip:
            # A corrupted probe round: the observation matches nothing.
            return ("corrupted", rng.getrandbits(64))
        return true_value

    def _classify(self, measured: object, templates: tuple[object, object],
                  rng: random.Random,
                  keys: tuple[object, object] | None = None,
                  measured_key: object | None = None) -> int:
        """Which class (0/1) a measurement belongs to; ties are guessed.

        *keys* are the templates' precomputed observation keys and
        *measured_key* the measurement's (categorical attackers only) —
        callers running many trials against the same pair pass them in
        instead of re-canonicalizing a potentially long observable per
        trial.
        """
        if self.scalar:
            d0 = abs(measured - float(templates[0]))
            d1 = abs(measured - float(templates[1]))
            if d0 == d1:
                return rng.randrange(2)
            return 0 if d0 < d1 else 1
        if keys is None:
            keys = (observation_key(templates[0]),
                    observation_key(templates[1]))
        k = (observation_key(measured) if measured_key is None
             else measured_key)
        match0 = k == keys[0]
        match1 = k == keys[1]
        if match0 == match1:      # both (identical templates) or neither
            return rng.randrange(2)
        return 0 if match0 else 1

    def _measured_key(self, measured: object,
                      templates: tuple[object, object],
                      keys: tuple[object, object]) -> object:
        """Observation key of a measurement, reusing a template's
        precomputed key when the probe was clean (the uncorrupted
        measurement *is* the template object)."""
        if measured is templates[0]:
            return keys[0]
        if measured is templates[1]:
            return keys[1]
        return observation_key(measured)

    def trial(self, true_value: object, templates: tuple[object, object],
              rng: random.Random, spec: AttackSpec, retries: int = 2,
              keys: tuple[object, object] | None = None
              ) -> tuple[object, int]:
        """One measurement plus classification, with probe rejection.

        A categorical measurement that matches *neither* template is a
        detectably corrupted probe round (a real attacker sees its
        probe got preempted) and is re-measured up to *retries* times.
        An ambiguous round — the measurement matches *both* templates,
        which is what every round looks like under SeMPE — is not
        corruption and is never retried; it stays a coin flip.
        """
        measured = self._measure(true_value, rng, spec)
        if self.scalar:
            return measured, self._classify(measured, templates, rng)
        if keys is None:
            keys = (observation_key(templates[0]),
                    observation_key(templates[1]))
        k = self._measured_key(measured, templates, keys)
        for _ in range(retries):
            if (k == keys[0], k == keys[1]) != (False, False):
                break
            measured = self._measure(true_value, rng, spec)
            k = self._measured_key(measured, templates, keys)
        return measured, self._classify(measured, templates, rng, keys,
                                        measured_key=k)


def _trial_rng(spec: AttackSpec, mode: str, engine: str) -> random.Random:
    """Deterministic per-cell RNG, stable across processes and sweeps."""
    tag = f"{spec.seed}:{spec.workload}:{spec.attacker}:{mode}:{engine}"
    digest = hashlib.sha256(tag.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def execute_attack(spec: AttackSpec, mode: str,
                   config: MachineConfig | None = None,
                   engine: str = "fast") -> AttackReport:
    """Run one attack cell and report.

    *mode* names the registered defense the victim runs under
    (``plain`` = unprotected baseline, ``sempe`` = the paper's machine,
    or any other scheme from ``repro defenses list``); *engine* the
    functional engine.  The run is a pure function of ``(spec, mode,
    config, engine)``.
    """
    from repro.core.engine import _resolve_engine

    attacker = get_attacker(spec.attacker)
    engine = _resolve_engine(engine)
    # The batch engine produces byte-identical observations to the fast
    # engine, so it draws from the fast RNG stream too: a batch attack
    # cell is the same experiment as a fast one, only cheaper.
    rng = _trial_rng(spec, mode, "fast" if engine == "batch" else engine)

    # 1. Profile: one hermetic observation per candidate secret, with
    # the victim compiled and run under the attacked defense.
    campaign = victim_campaign(spec.workload, mode,
                               config=config or attack_config(),
                               engine=engine, params=spec.params)
    observables = [attacker.observable(trace) for trace in campaign.traces]

    # 2. Choose the most distinguishable pair of class secrets.
    pair_idx = _choose_pair(attacker, observables)
    templates = (observables[pair_idx[0]], observables[pair_idx[1]])

    # 3. Distinguish: a balanced fixed-vs-fixed (TVLA-style) campaign
    # over the chosen class pair.  The attacker controls which secret
    # runs when, so it measures each class the same number of times —
    # the statistically optimal design.
    per_class = max(2, spec.trials // 2)
    class_samples: tuple[list, list] = ([], [])
    labelled_pairs: list[tuple[int, object]] = []
    template_keys = (None if attacker.scalar else
                     (observation_key(templates[0]),
                      observation_key(templates[1])))
    for label in (0, 1):
        for _ in range(per_class):
            measured, _ = attacker.trial(templates[label], templates,
                                         rng, spec, keys=template_keys)
            if attacker.scalar:
                class_samples[label].append(measured)
            else:
                labelled_pairs.append((label, observation_key(measured)))
    if attacker.scalar:
        ttest = welch_t_test(class_samples[0], class_samples[1])
        statistic, p_value, stat_kind = (
            ttest.statistic, ttest.p_value, "welch-t")
    else:
        statistic, p_value = permutation_test(labelled_pairs, rng)
        stat_kind = "perm-mi"

    # 4. Recover a random key, one majority-voted class decision per bit.
    key_bits = max(1, min(16, spec.trials))
    reps = max(1, spec.trials // key_bits)
    key = [rng.randrange(2) for _ in range(key_bits)]
    recovered_key: list[int] = []
    for bit in key:
        votes = [attacker.trial(templates[bit], templates, rng, spec,
                                keys=template_keys)[1]
                 for _ in range(reps)]
        recovered_key.append(majority_vote(votes, rng))
    bits_recovered = sum(1 for got, want in zip(recovered_key, key)
                         if got == want)
    success_rate = bits_recovered / key_bits

    significant = p_value < ALPHA
    if attacker.scalar:
        significant = significant and abs(statistic) >= TVLA_THRESHOLD
    if significant and success_rate >= RECOVERY_THRESHOLD:
        verdict = "recovered"
    elif not significant:
        verdict = "chance"
    else:
        verdict = "partial"

    return AttackReport(
        workload=spec.workload,
        attacker=attacker.name,
        channel=attacker.channel,
        mode=mode,
        engine=engine,
        trials=spec.trials,
        seed=spec.seed,
        key_bits=key_bits,
        reps=reps,
        candidates=len(campaign.candidates),
        pair=[repr(campaign.candidates[index]) for index in pair_idx],
        success_rate=success_rate,
        bits_total=key_bits,
        bits_recovered=bits_recovered,
        p_value=p_value,
        statistic=float(statistic),
        stat_kind=stat_kind,
        profiled_mi=mutual_information_bits(observables),
        verdict=verdict,
    )


def _choose_pair(attacker: Attacker, observables: list) -> tuple[int, int]:
    """Indices of the two most distinguishable profiled secrets.

    Scalar channels maximize the template separation; categorical
    channels take the first differing pair.  When nothing differs (the
    SeMPE machine) the first two candidates stand in — the attack
    proceeds and honestly degenerates to guessing.
    """
    n = len(observables)
    if attacker.scalar:
        best, best_gap = (0, 1), -1.0
        for i in range(n):
            for j in range(i + 1, n):
                gap = abs(float(observables[i]) - float(observables[j]))
                if gap > best_gap:
                    best, best_gap = (i, j), gap
        return best
    keys = [observation_key(observable) for observable in observables]
    for i in range(n):
        for j in range(i + 1, n):
            if keys[i] != keys[j]:
                return (i, j)
    return (0, 1)


# --------------------------------------------------------------------------
# Concrete adversaries
# --------------------------------------------------------------------------


class TimingAttacker(Attacker):
    """End-to-end execution time with Gaussian measurement jitter —
    the classic remote-timing adversary (Fig. 1's attack, made noisy)."""

    name = "timing"
    channel = "timing"
    scalar = True
    description = "end-to-end cycles, Gaussian jitter, Welch t-test"

    def observable(self, trace: ObservationTrace) -> object:
        return trace.cycles


class BranchTraceAttacker(Attacker):
    """Committed control-flow reconstruction (shared fetch engine /
    port-contention probe): the observable is the victim's PC stream."""

    name = "branch-trace"
    channel = "control-flow"
    scalar = False
    description = "committed PC-stream digest distinguisher"

    def observable(self, trace: ObservationTrace) -> object:
        return trace.pc_digest


class PrimeProbeAttacker(Attacker):
    """Prime-and-probe cache residue: the attacker primes every set,
    runs the victim, and probes how many of its primed ways each set
    evicted — exactly the per-set occupancy vector, a strictly weaker
    view than the full tag state the noninterference channel compares
    (the attacker cannot read the victim's tags, only count its own
    missing lines)."""

    name = "prime-probe"
    channel = "cache-state"
    scalar = False
    description = "post-run per-set cache occupancy (evicted primed ways)"

    def observable(self, trace: ObservationTrace) -> object:
        return trace.cache_occupancy


class FlushReloadAttacker(Attacker):
    """Flush-and-reload on the shared data lines: the attacker observes
    the victim's line-granular access stream."""

    name = "flush-reload"
    channel = "memory-address"
    scalar = False
    description = "line-granular data-access stream probe"

    def observable(self, trace: ObservationTrace) -> object:
        return trace.mem_digest


class PredictorProbeAttacker(Attacker):
    """Branch-predictor residue: the attacker measures its own branches
    after the victim ran, reading the trained predictor state."""

    name = "predictor-probe"
    channel = "branch-predictor"
    scalar = False
    description = "post-run branch-predictor state distinguisher"

    def observable(self, trace: ObservationTrace) -> object:
        return trace.predictor_digest


class MistrainReloadAttacker(Attacker):
    """Mistraining plus flush-reload on the wrong path: the adversary
    biases the predictor toward a bounds check's in-bounds direction
    (the spectre victim compiles the training schedule in), then
    flush-reloads the shared lines the *squashed* path touched.  The
    observable is the transient-access digest — the line-granular
    record of wrong-path loads and stores, which the squash does not
    undo.  Only defined on machines with a speculation window (the
    victim campaign enables one for every workload that declares the
    channel)."""

    name = "mistrain-reload"
    channel = "transient-memory"
    scalar = False
    description = "predictor mistraining + wrong-path flush-reload probe"

    def observable(self, trace: ObservationTrace) -> object:
        return trace.transient_digest


ATTACKERS: dict[str, Attacker] = {
    attacker.name: attacker
    for attacker in (
        TimingAttacker(),
        BranchTraceAttacker(),
        PrimeProbeAttacker(),
        FlushReloadAttacker(),
        PredictorProbeAttacker(),
        MistrainReloadAttacker(),
    )
}


def attacker_names() -> list[str]:
    return sorted(ATTACKERS)


def get_attacker(name: str) -> Attacker:
    attacker = ATTACKERS.get(name)
    if attacker is None:
        raise ValueError(
            f"unknown attacker {name!r}; choose from {sorted(ATTACKERS)}")
    return attacker


def iter_attackers() -> list[Attacker]:
    return [ATTACKERS[name] for name in sorted(ATTACKERS)]


def applicable_attackers(spec: WorkloadSpec | str) -> list[str]:
    """Attacker names whose channel the workload declares."""
    if isinstance(spec, str):
        spec = get_workload(spec)
    return [attacker.name for attacker in iter_attackers()
            if attacker.applies_to(spec)]


def expected_verdict(attacker: "Attacker | str",
                     defense: DefenseSpec | str) -> str | None:
    """What the attack matrix expects from one (attacker, defense) cell.

    ``"recovered"`` on the unprotected baseline, ``"chance"`` when the
    defense declares the attacker's channel protected, and ``None``
    when the scheme makes no claim about that channel (the cell is
    informative, not a pass/fail gate).
    """
    if isinstance(attacker, str):
        attacker = get_attacker(attacker)
    if isinstance(defense, str):
        defense = get_defense(defense)
    if defense.name == "plain":
        return "recovered"
    if defense.protects_channel(attacker.channel):
        return "chance"
    return None
