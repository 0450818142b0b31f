"""Leakage detection: noninterference checks and quantification.

The paper's security argument (§IV-A) is that executing all of both
paths makes the execution independent of the secret.  We test it
operationally: run the victim under a set of secret values and compare
the attacker-visible channels.  A channel *leaks* if any two secret
values produce different observations.

:func:`mutual_information_bits` additionally quantifies a leak: treating
the secret as uniform over the tested values, it computes I(secret;
observation) in bits — 0 for a closed channel, log2(n) for a channel
that uniquely identifies each of n secret values.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from repro.defenses.registry import DefenseSpec, get_defense
from repro.isa.program import Program
from repro.security.observer import ObservationTrace, collect_observation
from repro.uarch.config import MachineConfig

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


def noninterference_report(
    program: Program,
    secret_name: str,
    secret_values: list[int],
    *,
    defense: str | DefenseSpec = "sempe",
    symbols: dict[str, int] | None = None,
    config: MachineConfig | None = None,
    max_instructions: int = 50_000_000,
    engine: str | None = None,
) -> NoninterferenceReport:
    """Run *program* once per secret value and compare all channels.

    ``defense`` (a registered name or a :class:`DefenseSpec`, default
    the SeMPE machine) selects the machine-side protection scheme the
    victim runs under.  Array-valued secrets must be passed as tuples
    (they key the per-secret observation table).
    """
    spec = get_defense(defense)
    report = NoninterferenceReport(
        program_name=program.name, sempe=spec.sempe_machine,
        secret_name=secret_name
    )
    traces: dict[int, ObservationTrace] = {}
    for value in secret_values:
        traces[value] = collect_observation(
            program,
            defense=spec,
            secret_values={secret_name: value},
            symbols=symbols,
            config=config,
            max_instructions=max_instructions,
            engine=engine,
        )
    for channel in active_channels(config):
        channel_report = ChannelReport(channel=channel)
        for value, trace in traces.items():
            channel_report.observations[value] = trace.channels()[channel]
        report.channels[channel] = channel_report
    return report


def victim_report(
    spec,
    mode: str,
    config: MachineConfig | None = None,
    engine: str | None = None,
    secret_values: list | None = None,
    max_instructions: int = 50_000_000,
    **param_overrides,
) -> NoninterferenceReport:
    """Noninterference report for one registered workload.

    *spec* is a :class:`~repro.workloads.registry.WorkloadSpec` (or its
    name).  *mode* names a registered defense: the victim is compiled
    with that defense's compiler transform (with the spec's leak
    parameters applied) and observed under its machine hooks, its
    declared secret swept over the spec's representative values (or
    *secret_values*) — the generic form of the per-victim leak
    experiments, now covering the whole defense axis.

    A workload that declares the ``transient-memory`` channel only
    leaks on a machine with a speculation window, so the window is
    enabled automatically for those (on a copy — the caller's config is
    never mutated).  Everything else runs the exact machine it was
    given, keeping the default-off invariance.
    """
    import copy

    if isinstance(spec, str):
        from repro.workloads.registry import get_workload

        spec = get_workload(spec)
    if "transient-memory" in spec.channels and (
            config is None or not config.speculation.enabled):
        config = copy.deepcopy(config) if config is not None \
            else MachineConfig()
        config.speculation.enabled = True
    defense = get_defense(mode)
    params = spec.leak_resolve(param_overrides)
    compiled = spec.compile(defense.compile_mode, **params)
    values = (spec.leak_values(params) if secret_values is None
              else secret_values)
    values = [tuple(v) if isinstance(v, list) else v for v in values]
    return noninterference_report(
        compiled.program,
        spec.secret,
        values,
        defense=defense.name,
        config=config,
        max_instructions=max_instructions,
        engine=engine,
    )


def distinguishing_channels(
    trace_a: ObservationTrace, trace_b: ObservationTrace
) -> list[str]:
    """Channels on which two observations differ."""
    channels_a = trace_a.channels()
    channels_b = trace_b.channels()
    return [name for name in ALL_CHANNELS
            if channels_a[name] != channels_b[name]]


def mutual_information_bits(observations: list[object]) -> float:
    """I(secret; observation) for a uniform secret over the runs.

    Each element of *observations* is the channel value for one secret.
    The conditional distribution is deterministic (one observation per
    secret), so I = H(observation).  Degenerate channels — no
    observations, or a single one — carry no information and return
    0.0; observations are deduplicated by :func:`observation_key`, so
    unhashable values are compared canonically rather than through
    ``repr`` collisions.  The result is always bounded by
    ``log2(len(observations))``, the entropy of the uniform secret.
    """
    if len(observations) < 2:
        return 0.0
    counts = Counter(map(observation_key, observations))
    total = len(observations)
    entropy = 0.0
    for count in counts.values():
        probability = count / total
        entropy -= probability * math.log2(probability)
    return entropy
