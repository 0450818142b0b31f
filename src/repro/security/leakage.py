"""Leakage detection: noninterference checks and quantification.

The paper's security argument (§IV-A) is that executing all of both
paths makes the execution independent of the secret.  We test it
operationally: run the victim under a set of secret values and compare
the attacker-visible channels.  A channel *leaks* if any two secret
values produce different observations.

:func:`victim_campaign` is that experiment for a registered victim, and
the only copy of it: ``repro check`` (:func:`victim_report`), attack
cells and verify cells all profile a victim through it, so they compile
the same program, choose the same candidate secrets and run the same
machine.  Fewer than two distinct candidates is an error
(:func:`candidate_secrets`), never an empty "secure" verdict.

Like the §III adversary, the process profiles each campaign once: a
bounded, process-wide memo keyed by the content of everything a
campaign reads (workload name, builder source at the resolved leak
parameters, secret symbol, defense and machine fingerprints,
candidates, instruction budget, engine) serves later calls fresh copies
of the stored traces, so the attackers of one victim and defense, its
verify cell and its ``repro check`` share one functional run.  It is
the only memo that outlives a call (a campaign shares timing passes
among its own lanes, and keeps nothing): the ``reference`` engine
never reads or fills it, :func:`set_memo_enabled` switches it off,
and ``harness.clear_cache()`` empties it.  Its hits and misses are
counted in :data:`repro.obs.COUNTS` (``campaign.*``), which
``clear_cache()`` zeroes and which includes pool workers' campaigns;
:func:`campaign_info` reports them.

:func:`mutual_information_bits` additionally quantifies a leak: treating
the secret as uniform over the tested values, it computes I(secret;
observation) in bits — 0 for a closed channel, log2(n) for a channel
that uniquely identifies each of n secret values.
"""

from __future__ import annotations

import copy
import dataclasses
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.defenses.registry import DefenseSpec, get_defense
from repro.isa.program import Program
from repro.obs import COUNTS
from repro.security.observer import (
    ObservationTrace,
    collect_observations_batch,
)
from repro.security.stats import _entropy
from repro.uarch.config import MachineConfig, fingerprint

if TYPE_CHECKING:
    from repro.lang.compiler import CompiledProgram
    from repro.workloads.registry import WorkloadSpec

CHANNELS = (
    "timing",
    "instruction-count",
    "control-flow",
    "memory-address",
    "cache-state",
    "branch-predictor",
)

# The transient channel only exists on machines with a speculation
# window (``MachineConfig.speculation.enabled``); reports include it only
# then, so machines without the window keep their exact channel set (and
# SeMPE's architectural guarantee — ``protects=CHANNELS`` — is not
# claimed to cover wrong-path effects it never sees).
ALL_CHANNELS = CHANNELS + ("transient-memory",)


def active_channels(config: MachineConfig | None) -> tuple[str, ...]:
    """The channel set the given machine actually exposes."""
    if config is not None and config.speculation.enabled:
        return ALL_CHANNELS
    return CHANNELS


def observation_key(value: object) -> object:
    """A stable, hashable dedupe key for one channel observation.

    Observations are compared *by value*: two runs that produced equal
    observations must map to the same key, and unequal observations must
    (for every type the channels actually produce) map to different
    keys.  Hashing the value directly would raise on lists; the old
    ``repr`` fallback was worse — two equal objects whose ``repr``
    includes identity (the ``object`` default) looked distinct, and two
    distinct objects with a lossy ``repr`` collided.  Containers are
    therefore canonicalized recursively, and every key is tagged with
    the value's type so ``1``, ``1.0`` and ``True`` — equal but
    differently-typed observations — never alias.
    """
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,
                tuple(observation_key(item) for item in value))
    if isinstance(value, (set, frozenset)):
        # Sort *by* repr for a deterministic order, but keep the
        # canonical keys themselves as the components — deduping by
        # repr would reintroduce the collision this function fixes.
        return (type(value).__name__,
                tuple(sorted((observation_key(item) for item in value),
                             key=repr)))
    if isinstance(value, dict):
        return ("dict", tuple(sorted(
            ((observation_key(k), observation_key(v))
             for k, v in value.items()), key=repr)))
    try:
        hash(value)
    except TypeError:
        return (type(value).__name__, repr(value))
    return (type(value).__name__, value)


@dataclass
class ChannelReport:
    """One channel's behaviour across the tested secrets."""

    channel: str
    observations: dict[int, object] = field(default_factory=dict)

    @property
    def leaks(self) -> bool:
        keys = set(map(observation_key, self.observations.values()))
        return len(keys) > 1

    @property
    def mutual_information(self) -> float:
        return mutual_information_bits(list(self.observations.values()))


@dataclass
class NoninterferenceReport:
    """All channels for one program/machine combination."""

    program_name: str
    sempe: bool
    secret_name: str
    channels: dict[str, ChannelReport] = field(default_factory=dict)

    @property
    def secure(self) -> bool:
        """True iff no channel distinguishes any pair of secrets."""
        return not any(report.leaks for report in self.channels.values())

    def leaking_channels(self) -> list[str]:
        return [name for name, report in self.channels.items() if report.leaks]

    def summary(self) -> str:
        lines = [
            f"program={self.program_name} sempe={self.sempe} "
            f"secret={self.secret_name}"
        ]
        for name, report in self.channels.items():
            verdict = "LEAKS" if report.leaks else "closed"
            lines.append(
                f"  {name:18s} {verdict:7s} "
                f"I={report.mutual_information:.2f} bits"
            )
        return "\n".join(lines)


def candidate_secrets(values) -> list:
    """*values* as candidate secrets: lists become tuples (they key the
    observation table) and repeats drop.  One distinct secret has
    nothing to be told apart from, so its verdict would be empty, not
    secure: fewer than two raise ``ValueError``."""
    candidates = list(dict.fromkeys(
        tuple(v) if isinstance(v, list) else v for v in values))
    if len(candidates) < 2:
        raise ValueError(
            "a leak check needs at least two distinct secret values, "
            f"got {candidates}")
    return candidates


def _channel_report(program_name: str, defense: DefenseSpec,
                    secret_name: str, candidates: list,
                    traces: list[ObservationTrace],
                    config: MachineConfig | None) -> NoninterferenceReport:
    """The per-channel table of one campaign's observations."""
    report = NoninterferenceReport(
        program_name=program_name, sempe=defense.sempe_machine,
        secret_name=secret_name)
    observed = [trace.channels() for trace in traces]
    for channel in active_channels(config):
        report.channels[channel] = ChannelReport(channel, {
            value: channels[channel]
            for value, channels in zip(candidates, observed)})
    return report


def noninterference_report(
    program: Program,
    secret_name: str,
    secret_values: list[int],
    *,
    defense: str | DefenseSpec = "sempe",
    symbols: dict[str, int] | None = None,
    config: MachineConfig | None = None,
    max_instructions: int = 50_000_000,
    engine: str = "fast",
) -> NoninterferenceReport:
    """Run *program* once per secret value and compare all channels.

    ``defense`` (a registered name or a :class:`DefenseSpec`, default
    the SeMPE machine) selects the machine-side protection scheme the
    victim runs under; the values pass :func:`candidate_secrets`.
    """
    spec = get_defense(defense)
    candidates = candidate_secrets(secret_values)
    traces = collect_observations_batch(
        program, [{secret_name: value} for value in candidates],
        defense=spec, symbols=symbols, config=config,
        max_instructions=max_instructions, engine=engine)
    return _channel_report(program.name, spec, secret_name, candidates,
                           traces, config)


@dataclass
class VictimCampaign:
    """One profiling campaign against a registered victim."""

    workload: WorkloadSpec
    defense: DefenseSpec
    params: dict                      # the resolved leak parameters
    config: MachineConfig             # the machine it ran on
    candidates: list                  # the adversary's chosen secrets
    traces: list[ObservationTrace]    # one per candidate

    @cached_property
    def compiled(self) -> CompiledProgram:
        """The one program every run profiles, compiled on first read:
        a campaign the memo serves runs nothing, so a caller that reads
        only its traces (an attack) never compiles."""
        return compile_victim(self.workload, self.defense, self.params)[1]

    def report(self) -> NoninterferenceReport:
        """The campaign's per-channel noninterference table."""
        return _channel_report(self.compiled.program.name, self.defense,
                               self.workload.secret, self.candidates,
                               self.traces, self.config)


def compile_victim(workload: WorkloadSpec, defense: DefenseSpec,
                   params: dict | None = None
                   ) -> tuple[dict, CompiledProgram]:
    """*workload* at its leak parameters (*params* override them),
    compiled with *defense*'s transform, and those parameters."""
    params = workload.leak_resolve(params)
    return params, workload.compile(defense.compile_mode, **params)


# --------------------------------------------------------------------------
# The campaign memo
# --------------------------------------------------------------------------

# An entry is one trace per candidate with its occupancy packed
# (:func:`pack_occupancy`): about 1 KB a
# trace on the attack machine and 3 KB on the default one, so a
# five-candidate campaign stays under 16 KB.  256 entries hold the
# verify grid's 49 campaigns and the attack matrix's 15 several times.
CAMPAIGN_CAPACITY = 256

_CAMPAIGNS: OrderedDict[tuple, list[ObservationTrace]] = OrderedDict()
_memo_enabled = True


def set_memo_enabled(enabled: bool) -> bool:
    """Toggle the campaign memo (the parity suites' transparency
    switch).  Returns the previous setting."""
    global _memo_enabled
    previous = _memo_enabled
    _memo_enabled = enabled
    return previous


def pack_occupancy(occupancy: tuple) -> tuple:
    """Per-level occupancy counts as one bytes object per level (an
    eighth of a tuple of ints), for a memo entry to keep.  The counts
    fit a byte unless a set has 256+ ways; then they stay as given."""
    try:
        return tuple(bytes(level) for level in occupancy)
    except ValueError:
        return occupancy


def unpack_occupancy(packed: tuple) -> tuple:
    """The tuple-of-int-tuples form of :func:`pack_occupancy`'s
    result, which every fresh observation carries."""
    return tuple(tuple(level) for level in packed)


def clear_campaigns() -> None:
    """Drop every memoized campaign."""
    _CAMPAIGNS.clear()


def campaign_info() -> dict[str, int]:
    """Hit/miss counters for the campaign memo (``--cache-stats``).

    ``hits`` are campaigns served without running the victim, ``misses``
    campaigns profiled and stored; ``reference`` campaigns and campaigns
    run with the memo off count as neither.
    """
    return {"hits": COUNTS["campaign.hits"],
            "misses": COUNTS["campaign.misses"],
            "entries": len(_CAMPAIGNS)}


def _campaign_key(workload: WorkloadSpec, params: dict,
                  defense: DefenseSpec, config: MachineConfig,
                  candidates: list, max_instructions: int,
                  engine: str) -> tuple | None:
    """The content address of one campaign: every input
    :func:`victim_campaign` profiles with, or ``None`` where the memo
    does not apply (the ``reference`` oracle, or the memo switched off
    by :func:`set_memo_enabled`)."""
    if engine == "reference" or not _memo_enabled:
        return None
    return (workload.name, workload.builder(**params), workload.secret,
            defense.fingerprint(), fingerprint(dataclasses.asdict(config)),
            observation_key(candidates), max_instructions, engine)


def _campaign_get(key: tuple | None) -> list[ObservationTrace] | None:
    """Fresh copies of the traces memoized under *key*, if any."""
    stored = _CAMPAIGNS.get(key) if key is not None else None
    if stored is None:
        return None
    COUNTS["campaign.hits"] += 1
    _CAMPAIGNS.move_to_end(key)
    return [dataclasses.replace(
                trace, cache_occupancy=unpack_occupancy(
                    trace.cache_occupancy))
            for trace in stored]


def _campaign_put(key: tuple | None,
                  traces: list[ObservationTrace]) -> None:
    if key is None:
        return
    COUNTS["campaign.misses"] += 1
    _CAMPAIGNS[key] = [dataclasses.replace(
                           trace, cache_occupancy=pack_occupancy(
                               trace.cache_occupancy))
                       for trace in traces]
    while len(_CAMPAIGNS) > CAMPAIGN_CAPACITY:
        _CAMPAIGNS.popitem(last=False)


def victim_campaign(
    workload: WorkloadSpec | str,
    mode: str | DefenseSpec,
    *,
    config: MachineConfig | None = None,
    engine: str = "fast",
    params: dict | None = None,
    secret_values: list | None = None,
    max_instructions: int = 50_000_000,
) -> VictimCampaign:
    """Profile one registered victim under defense *mode*: the §III
    adversary runs it once per candidate secret of its choosing (the
    workload's leak values, or *secret_values*), compiled once, through
    :func:`~repro.security.observer.collect_observations_batch`.

    A workload that declares the ``transient-memory`` channel only
    leaks on a machine with a speculation window, so the window is
    enabled for it, on a copy; everything else runs the exact machine
    it was given, keeping the default-off invariance.

    The traces come from the campaign memo when an earlier call
    profiled the same content (:func:`_campaign_key`); every input read
    here joins that key.  The victim is compiled only to run it on a
    miss, or when a caller reads :attr:`VictimCampaign.compiled`.
    """
    if isinstance(workload, str):
        from repro.workloads.registry import get_workload

        workload = get_workload(workload)
    defense = get_defense(mode)
    params = workload.leak_resolve(params)
    config = config or MachineConfig()
    if "transient-memory" in workload.channels \
            and not config.speculation.enabled:
        config = copy.deepcopy(config)
        config.speculation.enabled = True
    candidates = candidate_secrets(workload.leak_values(params)
                                   if secret_values is None
                                   else secret_values)
    key = _campaign_key(workload, params, defense, config, candidates,
                        max_instructions, engine)
    campaign = VictimCampaign(workload, defense, params, config,
                              candidates, _campaign_get(key))
    if campaign.traces is None:
        campaign.traces = collect_observations_batch(
            campaign.compiled.program,
            [{workload.secret: value} for value in candidates],
            defense=defense, config=config,
            max_instructions=max_instructions, engine=engine)
        _campaign_put(key, campaign.traces)
    return campaign


def victim_report(
    spec,
    mode: str,
    config: MachineConfig | None = None,
    engine: str = "fast",
    secret_values: list | None = None,
    max_instructions: int = 50_000_000,
    **param_overrides,
) -> NoninterferenceReport:
    """The per-channel table of :func:`victim_campaign` for workload
    *spec* (a spec or its name) under defense *mode*, with
    *param_overrides* over its leak parameters."""
    return victim_campaign(
        spec, mode, config=config, engine=engine, params=param_overrides,
        secret_values=secret_values,
        max_instructions=max_instructions).report()


def distinguishing_channels(
    trace_a: ObservationTrace, trace_b: ObservationTrace
) -> list[str]:
    """Channels on which two observations differ."""
    channels_a = trace_a.channels()
    channels_b = trace_b.channels()
    return [name for name in ALL_CHANNELS
            if channels_a[name] != channels_b[name]]


def mutual_information_bits(observations: list[object],
                            keys: list[object] | None = None) -> float:
    """I(secret; observation) for a uniform secret over the runs.

    Each element of *observations* is the channel value for one secret.
    The conditional distribution is deterministic (one observation per
    secret), so I = H(observation).  Degenerate channels — no
    observations, or a single one — carry no information and return
    0.0; observations are deduplicated by :func:`observation_key`, so
    unhashable values are compared canonically rather than through
    ``repr`` collisions (a caller that already holds those *keys*
    passes them).  The result is always bounded by
    ``log2(len(observations))``, the entropy of the uniform secret.
    """
    if len(observations) < 2:
        return 0.0
    counts = Counter(keys if keys is not None
                     else map(observation_key, observations))
    return _entropy(counts.values(), len(observations))
