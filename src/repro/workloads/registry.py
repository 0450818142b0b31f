"""Declarative victim-workload registry.

The paper's security claim is only as strong as the set of victims it
is tested against.  This module makes victims first-class: a
:class:`WorkloadSpec` bundles everything the harness, the security
tooling, and the CLI need to know about one victim —

* a **source builder** (mini-C text parameterized by keyword
  arguments),
* the **secret** symbol the adversary is after, plus representative
  secret values for leak experiments,
* the **expected leak channels** on the unprotected baseline (the
  channels the SeMPE transform must close),
* a **parameter grid** for sweeps, and an optional Python **reference**
  for functional correctness checks.

Registering a workload (via the :func:`workload` decorator on its
source builder) automatically enrolls it in:

* ``repro workloads list`` / ``repro run --workload NAME`` /
  ``repro check --workload NAME`` (the CLI),
* the ``victims`` overhead experiment and the ``leakmatrix``
  noninterference experiment (``repro sweep``),
* the registry test suite, which proves the baseline leaks the declared
  channels and that SeMPE closes all of them on both engines.

A new victim is therefore a one-file drop-in: write the builder, add
the decorator, list the module in :data:`_WORKLOAD_MODULES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.lang.compiler import MODES, CompiledProgram, compile_source

# Modules that register workloads on import.  load_all() (called from
# the package __init__ and from every registry lookup) imports them all,
# so the full matrix is visible wherever any workload is; keeping the
# list here, rather than hard imports at the top, is what lets this
# module be imported *by* the victim modules for the decorator without
# a cycle.
_WORKLOAD_MODULES = (
    "repro.workloads.crypto",
    "repro.workloads.djpeg",
    "repro.workloads.memcmp",
    "repro.workloads.table_lookup",
    "repro.workloads.bsearch",
    "repro.workloads.gcd",
    "repro.workloads.spectre",
)

_REGISTRY: dict[str, "WorkloadSpec"] = {}
_loaded = False


class WorkloadError(ValueError):
    """Raised on invalid registration or lookup."""


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything the harness knows about one victim workload."""

    name: str
    title: str
    builder: Callable[..., str]
    secret: str                          # secret symbol the leak varies
    params: dict                         # default builder parameters
    leak_values: Callable[[dict], list]  # params -> secret values to test
    channels: tuple[str, ...]            # expected baseline leak channels
    leak_params: dict = field(default_factory=dict)
    modes: tuple[str, ...] = ("plain", "sempe", "cte", "fence")
    grid: tuple[dict, ...] = ({},)       # per-cell parameter overrides
    result: str | None = None            # output global the reference checks
    reference: Callable[[dict, object], int] | None = None

    # -- parameters ------------------------------------------------------

    def resolve(self, overrides: dict | None = None) -> dict:
        """Defaults merged with *overrides*; unknown keys are rejected."""
        merged = dict(self.params)
        for key, value in (overrides or {}).items():
            if key not in merged:
                raise WorkloadError(
                    f"workload {self.name!r} has no parameter {key!r}; "
                    f"known: {sorted(merged)}")
            merged[key] = value
        return merged

    def leak_resolve(self, overrides: dict | None = None) -> dict:
        """Like :meth:`resolve` but with the leak defaults applied
        (e.g. djpeg's ``fill=False`` so poked secrets survive).

        Explicit *overrides* win over the leak defaults: a user who
        asks for a specific parameterization gets exactly it, never a
        silently different one.
        """
        return self.resolve({**self.leak_params, **(overrides or {})})

    def grid_points(self) -> list[dict]:
        """Fully-merged parameter dicts, one per grid entry."""
        return [self.resolve(overrides) for overrides in self.grid]

    # -- building --------------------------------------------------------

    def source(self, **overrides) -> str:
        return self.builder(**self.resolve(overrides))

    def compile(self, mode: str, collapse_ifs: bool = False,
                **overrides) -> CompiledProgram:
        if mode not in self.modes:
            raise WorkloadError(
                f"workload {self.name!r} does not support mode {mode!r}; "
                f"supported: {self.modes}")
        params = self.resolve(overrides)
        return compile_source(self.builder(**params), mode=mode,
                              name=f"{self.name}-{mode}",
                              collapse_ifs=collapse_ifs)

    # -- leak experiments ------------------------------------------------

    def secret_values(self, params: dict | None = None) -> list:
        """Representative secret values (ints, or tuples for arrays)."""
        return list(self.leak_values(self.leak_resolve(params)))

    def describe(self) -> dict:
        """One JSON-safe summary row (the CLI listing)."""
        return {
            "name": self.name,
            "title": self.title,
            "secret": self.secret,
            "channels": list(self.channels),
            "modes": list(self.modes),
            "grid": len(self.grid),
        }


@dataclass
class WorkloadRunSpec:
    """One registry workload at fixed parameters (a sweep-cell spec).

    Shaped like :class:`~repro.workloads.microbench.MicrobenchSpec` /
    :class:`~repro.workloads.djpeg.DjpegSpec` so the run cache, the
    on-disk store, and the parallel sweep layer handle registry cells
    exactly like the built-in kinds: ``dataclasses.asdict`` must be
    JSON-safe, and ``name`` labels progress output.
    """

    workload: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:   # validates, never coerces
        get_workload(self.workload).resolve(self.params)

    @property
    def name(self) -> str:
        tags = "-".join(f"{key}{self.params[key]}"
                        for key in sorted(self.params))
        return f"{self.workload}-{tags}" if tags else self.workload


# --------------------------------------------------------------------------
# Registration
# --------------------------------------------------------------------------


def register(spec: WorkloadSpec) -> WorkloadSpec:
    """Add *spec* to the registry (duplicate names are rejected)."""
    if spec.name in _REGISTRY:
        raise WorkloadError(
            f"workload {spec.name!r} is already registered; "
            "names must be unique")
    for mode in spec.modes:
        if mode not in MODES:
            raise WorkloadError(
                f"workload {spec.name!r} declares unknown mode {mode!r}; "
                f"choose from {MODES}")
    from repro.security.leakage import ALL_CHANNELS

    unknown = [c for c in spec.channels if c not in ALL_CHANNELS]
    if unknown:
        raise WorkloadError(
            f"workload {spec.name!r} declares unknown channels {unknown}; "
            f"choose from {ALL_CHANNELS}")
    for overrides in spec.grid:
        spec.resolve(overrides)   # unknown grid keys fail registration
    spec.leak_resolve()   # unknown leak-default keys fail registration
    _REGISTRY[spec.name] = spec
    return spec


def workload(*, name: str, title: str, secret: str,
             channels: tuple[str, ...],
             params: dict | None = None,
             leak_params: dict | None = None,
             leak_values: Callable[[dict], list],
             modes: tuple[str, ...] = ("plain", "sempe", "cte", "fence"),
             grid: tuple[dict, ...] = ({},),
             result: str | None = None,
             reference: Callable[[dict, object], int] | None = None):
    """Decorator: register the decorated source builder as a workload.

    The builder keeps working as a plain function; registration only
    records it in the registry.
    """
    def wrap(builder: Callable[..., str]) -> Callable[..., str]:
        register(WorkloadSpec(
            name=name, title=title, builder=builder, secret=secret,
            params=dict(params or {}),
            leak_params=dict(leak_params or {}),
            leak_values=leak_values, channels=tuple(channels),
            modes=tuple(modes), grid=tuple(dict(g) for g in grid),
            result=result, reference=reference,
        ))
        return builder
    return wrap


# --------------------------------------------------------------------------
# Lookup
# --------------------------------------------------------------------------


def load_all() -> None:
    """Import every workload module (idempotent).

    The flag is set before importing so re-entrant calls (the package
    ``__init__`` calls ``load_all`` while these imports are importing
    the package) return immediately — but a failed import resets it, so
    the registry is never silently left partial: the next call retries
    the broken module (already-imported ones are no-ops via
    ``sys.modules``) and surfaces the same error at the call site.
    """
    global _loaded
    if _loaded:
        return
    _loaded = True
    import importlib

    try:
        for module in _WORKLOAD_MODULES:
            importlib.import_module(module)
    except BaseException:
        _loaded = False
        raise


def workload_names() -> list[str]:
    load_all()
    return sorted(_REGISTRY)


def iter_workloads() -> list[WorkloadSpec]:
    load_all()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_workload(name: str) -> WorkloadSpec:
    load_all()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise WorkloadError(
            f"unknown workload {name!r}; choose from {sorted(_REGISTRY)}")
    return spec


def compile_workload(spec: WorkloadRunSpec, mode: str) -> CompiledProgram:
    """Compile one registry cell spec (the sweep layer's hook)."""
    return get_workload(spec.workload).compile(mode, **spec.params)
