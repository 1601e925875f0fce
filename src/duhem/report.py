"""Uniform result record for grid checks and trajectory verifications."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

__all__ = ["VerificationReport", "worst_point"]


def worst_point(violation) -> tuple[tuple[int, ...], float]:
    """Index and value of a check's worst point: the first largest entry of
    its violation array in C order, where a NaN counts as larger than any
    number, so a NaN anywhere fails the check."""
    v = np.asarray(violation, dtype=float)
    # argmax returns the first maximum, and the first NaN if there is one
    index = np.unravel_index(int(np.argmax(v)), v.shape)
    return tuple(int(i) for i in index), float(v[index])


def _check_tol(tol: float) -> None:
    """ValueError unless a check's tolerance is positive and finite."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification pass.

    `worst_violation` is the signed worst-case amount by which the checked
    inequality was broken (negative means the check held with margin), and
    the check passed when it is at most `tolerance` (a NaN fails).
    `worst_location` pins the grid point or sample where the worst case
    occurred, and `details` carries check-specific extras (flags, margins,
    sample counts per category).
    """

    name: str
    worst_violation: float
    worst_location: tuple[float, ...]
    tolerance: float
    samples_checked: int
    details: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        # Python floats and ints whatever the builder passed (numpy scalars
        # too), so that to_dict is plain JSON
        for name, kind in (
            ("worst_violation", float), ("tolerance", float), ("samples_checked", int)
        ):
            object.__setattr__(self, name, kind(getattr(self, name)))
        object.__setattr__(
            self, "worst_location", tuple(float(x) for x in self.worst_location)
        )
        object.__setattr__(self, "details", dict(self.details))
        if self.samples_checked < 0:
            raise ValueError("samples_checked must be nonnegative")

    @property
    def passed(self) -> bool:
        return bool(self.worst_violation <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst_violation": self.worst_violation,
            "worst_location": list(self.worst_location),
            "tolerance": self.tolerance,
            "samples_checked": self.samples_checked,
            "details": dict(self.details),
        }
