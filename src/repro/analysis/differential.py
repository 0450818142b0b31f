"""The static-vs-dynamic differential: one verify cell per pair.

A static prediction and a dynamic measurement can disagree in two
directions, and they mean very different things:

* **static-only** channels (predicted but not observed) are the
  attacker/observer gap: the analyzer charges a site with every
  channel divergent control flow *could* drive, while the dynamic
  observer reports what the tested secret values actually
  distinguished at its granularity.  Expected, reported, not an error.
* **dynamic-only** channels (observed but not predicted) mean the
  dynamic experiment caught a secret dependence the static analyzer
  missed — an unsoundness bug in the analyzer or a transform doing
  something it does not model.  This fails the gate.

:func:`execute_verify` runs one workload × defense pair through both
sides — the *same* compiled program, from the one victim campaign
(:func:`repro.security.leakage.victim_campaign`) — plus the
defense-transform verifier (:mod:`repro.analysis.verifier`), and folds
everything into a JSON-round-trippable :class:`VerifyReport` so the
harness caches verify cells like any other cell kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.dataflow import TaintDataflow
from repro.analysis.report import StaticLeakReport, build_report
from repro.analysis.verifier import (
    TransformViolation,
    verify_defense_transform,
)
from repro.security.leakage import ALL_CHANNELS, victim_campaign
from repro.uarch.config import MachineConfig
from repro.workloads.registry import get_workload


@dataclass
class VerifySpec:
    """One static-vs-dynamic verification cell (a sweep-cell spec).

    Shaped like :class:`~repro.workloads.registry.WorkloadRunSpec` so
    the run cache, the on-disk store, and the parallel sweep layer
    treat verify cells exactly like the other kinds.
    """

    workload: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:   # validates, never coerces
        get_workload(self.workload).resolve(self.params)

    @property
    def name(self) -> str:
        tags = "-".join(f"{key}{self.params[key]}"
                        for key in sorted(self.params))
        stem = f"verify-{self.workload}"
        return f"{stem}-{tags}" if tags else stem


@dataclass(frozen=True)
class VerifyReport:
    """Static prediction vs. dynamic observation for one pair."""

    program: str
    workload: str
    defense: str
    static: StaticLeakReport
    predicted: tuple[str, ...]        # static, after projection
    dynamic: tuple[str, ...]          # empirically leaking channels
    static_only: tuple[str, ...]      # explained observer gap
    dynamic_only: tuple[str, ...]     # unsoundness — fails the gate
    violations: tuple[TransformViolation, ...]

    @property
    def sound(self) -> bool:
        """Static prediction covers everything dynamically observed."""
        return not self.dynamic_only

    @property
    def ok(self) -> bool:
        """Sound and no transform-invariant violations."""
        return self.sound and not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "program": self.program,
            "workload": self.workload,
            "defense": self.defense,
            "static": self.static.to_dict(),
            "predicted": list(self.predicted),
            "dynamic": list(self.dynamic),
            "static_only": list(self.static_only),
            "dynamic_only": list(self.dynamic_only),
            "violations": [v.to_dict() for v in self.violations],
            "ok": self.ok,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "VerifyReport":
        return cls(
            program=str(data["program"]),
            workload=str(data["workload"]),
            defense=str(data["defense"]),
            static=StaticLeakReport.from_dict(data["static"]),
            predicted=tuple(data["predicted"]),
            dynamic=tuple(data["dynamic"]),
            static_only=tuple(data["static_only"]),
            dynamic_only=tuple(data["dynamic_only"]),
            violations=tuple(TransformViolation.from_dict(v)
                             for v in data["violations"]),
        )

    def summary(self) -> str:
        verdict = "ok" if self.ok else (
            "UNSOUND" if not self.sound else "TRANSFORM-VIOLATION")
        parts = [f"{self.workload} [{self.defense}]: {verdict}"]
        parts.append(f"predicted={','.join(self.predicted) or 'none'}")
        parts.append(f"dynamic={','.join(self.dynamic) or 'none'}")
        if self.static_only:
            parts.append(f"static-only={','.join(self.static_only)}")
        if self.dynamic_only:
            parts.append(f"dynamic-only={','.join(self.dynamic_only)}")
        if self.violations:
            parts.append(f"violations={len(self.violations)}")
        return " ".join(parts)


def execute_verify(
    spec: VerifySpec,
    mode: str,
    config: MachineConfig | None = None,
    engine: str | None = None,
    max_instructions: int = 50_000_000,
) -> VerifyReport:
    """Run one workload × defense pair through both sides.

    *mode* names a registered defense.  Both sides read one
    :func:`~repro.security.leakage.victim_campaign`: the static side
    analyzes the program it compiled — same leak parameters, same
    compiler transform — on the machine it ran, so a disagreement is
    about the analysis, never about compiling two different programs.
    """
    campaign = victim_campaign(spec.workload, mode, config=config,
                               engine=engine, params=spec.params,
                               max_instructions=max_instructions)
    compiled, defense = campaign.compiled, campaign.defense
    flow = TaintDataflow(compiled.program, compiled.secrets)
    static = build_report(compiled.program, compiled.secrets,
                          defense=defense, flow=flow,
                          speculation=campaign.config.speculation.enabled)
    violations = verify_defense_transform(defense, static)

    leaking = set(campaign.report().leaking_channels())
    dynamic = tuple(c for c in ALL_CHANNELS if c in leaking)

    predicted = static.predicted_channels()
    static_only = tuple(c for c in predicted if c not in dynamic)
    dynamic_only = tuple(c for c in dynamic if c not in predicted)

    return VerifyReport(
        program=compiled.program.name,
        workload=spec.workload,
        defense=defense.name,
        static=static,
        predicted=predicted,
        dynamic=dynamic,
        static_only=static_only,
        dynamic_only=dynamic_only,
        violations=tuple(violations),
    )
