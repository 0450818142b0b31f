"""Protection-scheme registry: defenses as first-class, sweepable specs.

See :mod:`repro.defenses.registry` for the model and
:mod:`repro.defenses.builtin` for the built-in schemes.
"""

from repro.defenses.registry import (
    DefenseError,
    DefenseSpec,
    defense,
    defense_names,
    get_defense,
    iter_defenses,
    load_all,
    register,
    sempe_machine,
)

__all__ = [
    "DefenseError",
    "DefenseSpec",
    "defense",
    "defense_names",
    "get_defense",
    "iter_defenses",
    "load_all",
    "register",
    "sempe_machine",
]
