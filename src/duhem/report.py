"""Uniform result record for grid checks and trajectory verifications."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["VerificationReport"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification pass.

    `worst_violation` is the signed worst-case amount by which the checked
    inequality was broken (negative means the check held with margin), and
    `passed` is always equivalent to worst_violation <= tolerance, enforced
    at construction.  `worst_location` pins the grid point or sample where
    the worst case occurred, and `details` carries check-specific extras
    (flags, margins, sample counts per category).
    """

    name: str
    passed: bool
    worst_violation: float
    worst_location: tuple[float, ...]
    tolerance: float
    samples_checked: int
    details: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.samples_checked < 0:
            raise ValueError("samples_checked must be nonnegative")
        expected = self.worst_violation <= self.tolerance
        if bool(self.passed) != expected:
            raise ValueError(
                f"inconsistent report: passed={self.passed} but "
                f"worst_violation={self.worst_violation} vs tolerance={self.tolerance}"
            )

    @classmethod
    def from_violation(
        cls,
        name: str,
        worst_violation: float,
        worst_location: tuple[float, ...],
        tolerance: float,
        samples_checked: int,
        details: Mapping[str, Any] | None = None,
    ) -> "VerificationReport":
        return cls(
            name=name,
            passed=worst_violation <= tolerance,
            worst_violation=float(worst_violation),
            worst_location=tuple(float(x) for x in worst_location),
            tolerance=float(tolerance),
            samples_checked=int(samples_checked),
            details=dict(details or {}),
        )

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
