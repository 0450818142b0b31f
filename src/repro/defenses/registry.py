"""Declarative protection-scheme (defense) registry.

PR 3 made victims first-class, PR 4 made attackers first-class; this
module does the same for the third axis of the threat model: the
*defense* the victim runs under.  A :class:`DefenseSpec` bundles
everything the toolchain needs to know about one mitigation —

* the **compiler transform** (one of :data:`repro.lang.compiler.MODES`)
  that lowers the victim's source for this scheme,
* whether the binary runs on the **SeMPE machine** (dual-path secure
  regions, drains) or the baseline core,
* **machine hooks**: serialize-at-secret-branches (``fence_branches``),
  flush-transient-state-at-exit (``flush_on_exit``),
* **MachineConfig overrides** (dotted paths, e.g.
  ``hierarchy.dl1.protected_ways``) applied to a deep copy of the
  caller's config — shared defaults are never mutated,
* the **declared-protected channels** the scheme claims to close (the
  attack matrix checks each claim empirically), and
* a **JSON-safe fingerprint** so the harness can key cached results on
  the defense's full structural identity.

Registering a defense (via the :func:`defense` decorator on its
config-overrides builder) enrolls it in ``repro defenses list/show``,
the ``--defense`` CLI flag, the ``leakmatrix``/``defensematrix``/
``attacks`` experiments, and the sweep grids.  The three legacy
compiler modes (``plain``/``sempe``/``cte``) are themselves registered
defenses, which is what lets every ``mode`` string in the harness
become a defense name with unchanged behavior.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

# Modules that register defenses on import (the same lazy-load pattern
# as the workload registry: load_all() imports them all, and this
# module stays importable by anything without cycles).
_DEFENSE_MODULES = ("repro.defenses.builtin",)

_REGISTRY: dict[str, "DefenseSpec"] = {}
_loaded = False

class DefenseError(ValueError):
    """Raised on invalid registration or lookup."""


@dataclass(frozen=True)
class DefenseSpec:
    """Everything the toolchain knows about one protection scheme."""

    name: str
    title: str
    compile_mode: str                  # lang transform (MODES member)
    sempe_machine: bool = False        # dual-path SeMPE hardware
    fence_branches: bool = False       # serialize at SecPrefix branches
    flush_on_exit: bool = False        # flush caches+predictors at exit
    config_overrides: dict = field(default_factory=dict)
    protects: tuple[str, ...] = ()     # declared-protected channels
    description: str = ""

    # -- claims ----------------------------------------------------------

    def protects_channel(self, channel: str) -> bool:
        return channel in self.protects

    # -- machine configuration -------------------------------------------

    def apply_config(self, config):
        """*config* with this defense's overrides applied.

        Returns *config* itself when there is nothing to override (the
        legacy modes), else a **deep copy** with each dotted-path
        override set — the input, and any defaults it shares structure
        with, are never mutated.  Unknown paths are rejected so a typo
        in an override fails the run instead of silently configuring
        nothing.
        """
        if not self.config_overrides:
            return config
        import copy

        derived = copy.deepcopy(config)
        for path, value in self.config_overrides.items():
            target = derived
            head, _, rest = path.partition(".")
            while rest:
                if not hasattr(target, head):
                    raise DefenseError(
                        f"defense {self.name!r} overrides unknown config "
                        f"path {path!r}")
                target = getattr(target, head)
                head, _, rest = rest.partition(".")
            if not hasattr(target, head):
                raise DefenseError(
                    f"defense {self.name!r} overrides unknown config "
                    f"path {path!r}")
            setattr(target, head, value)
        return derived

    # -- identity --------------------------------------------------------

    def describe(self) -> dict:
        """JSON-safe structural identity plus the display metadata."""
        return {
            "name": self.name,
            "title": self.title,
            "compile_mode": self.compile_mode,
            "sempe_machine": self.sempe_machine,
            "fence_branches": self.fence_branches,
            "flush_on_exit": self.flush_on_exit,
            "config_overrides": dict(self.config_overrides),
            "protects": list(self.protects),
        }

    def fingerprint(self) -> str:
        """SHA-256 content address of the scheme's structural identity.

        The same canonical-JSON notion the result store uses
        (:func:`repro.harness.store.fingerprint`), computed here so the
        timing memo can key on it without importing the harness; the
        harness mixes this into every cell descriptor so a change to a
        defense's semantics re-addresses its cached results.
        """
        payload = json.dumps(self.describe(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


# --------------------------------------------------------------------------
# Registration
# --------------------------------------------------------------------------


def register(spec: DefenseSpec) -> DefenseSpec:
    """Add *spec* to the registry (duplicate names are rejected)."""
    if spec.name in _REGISTRY:
        raise DefenseError(
            f"defense {spec.name!r} is already registered; "
            "names must be unique")
    from repro.lang.compiler import MODES

    if spec.compile_mode not in MODES:
        raise DefenseError(
            f"defense {spec.name!r} declares unknown compile mode "
            f"{spec.compile_mode!r}; choose from {MODES}")
    from repro.security.leakage import ALL_CHANNELS

    unknown = [c for c in spec.protects if c not in ALL_CHANNELS]
    if unknown:
        raise DefenseError(
            f"defense {spec.name!r} claims to protect unknown channels "
            f"{unknown}; choose from {ALL_CHANNELS}")
    _REGISTRY[spec.name] = spec
    return spec


def defense(*, name: str, title: str, compile_mode: str,
            sempe_machine: bool = False,
            fence_branches: bool = False,
            flush_on_exit: bool = False,
            protects: tuple[str, ...] = ()):
    """Decorator: register the decorated config-overrides builder.

    The builder is called once at registration and must return the
    defense's ``MachineConfig`` override dict (dotted paths; empty for
    schemes that change no machine parameter).  Its docstring becomes
    the defense's description.
    """
    def wrap(builder: Callable[[], dict]) -> Callable[[], dict]:
        register(DefenseSpec(
            name=name, title=title, compile_mode=compile_mode,
            sempe_machine=sempe_machine, fence_branches=fence_branches,
            flush_on_exit=flush_on_exit,
            config_overrides=dict(builder() or {}),
            protects=tuple(protects),
            description=(builder.__doc__ or "").strip().split("\n")[0],
        ))
        return builder
    return wrap


# --------------------------------------------------------------------------
# Lookup
# --------------------------------------------------------------------------


def load_all() -> None:
    """Import every defense module (idempotent; see workload registry)."""
    global _loaded
    if _loaded:
        return
    _loaded = True
    import importlib

    try:
        for module in _DEFENSE_MODULES:
            importlib.import_module(module)
    except BaseException:
        _loaded = False
        raise


def defense_names() -> list[str]:
    load_all()
    return sorted(_REGISTRY)


def iter_defenses() -> list[DefenseSpec]:
    load_all()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_defense(name: "str | DefenseSpec") -> DefenseSpec:
    """The registered defense called *name*; a spec is returned as is."""
    if isinstance(name, DefenseSpec):
        return name
    load_all()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise DefenseError(
            f"unknown defense {name!r}; choose from {sorted(_REGISTRY)}")
    return spec


def sempe_machine(name: str) -> bool:
    """Whether defense *name* runs on the SeMPE machine.

    The registry-backed replacement for the old ``mode == "sempe"``
    string comparisons, for callers that hold only a defense *name*;
    code that already resolved a :class:`DefenseSpec` reads its
    ``sempe_machine`` attribute directly.
    """
    return get_defense(name).sempe_machine
