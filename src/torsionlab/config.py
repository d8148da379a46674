"""Tolerance profiles.

The engine consults one threshold at run time: the degenerate-triad floor of
its one rule (``_local.rule_lines``: det g > floor^2 + margin * prod g_ii, and
finite; else a point query raises, a path truncates).  The environment variable
``TORSIONLAB_TOLERANCES`` selects the profile, at every public call, so it
acts on charts that already exist.  The test suites pin their own
tolerances.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class ToleranceProfile:
    name: str = "default"
    # det g at or below this squared (plus ``_local.DEGENERATE_MARGIN`` prod g_ii): unusable.
    degenerate_triad_floor: float = 1e-12


_PROFILES = {
    "default": ToleranceProfile(),
    "strict": ToleranceProfile(name="strict", degenerate_triad_floor=1e-10),
}

ENV_VAR = "TORSIONLAB_TOLERANCES"


def active_profile() -> ToleranceProfile:
    """Profile selected by the environment, falling back to ``default``."""
    name = os.environ.get(ENV_VAR, "default").strip().lower()
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValidationError(
            f"unknown tolerance profile {name!r}; choose from {sorted(_PROFILES)}"
        ) from None
