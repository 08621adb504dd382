"""Precision context for the eigenvalue-bound pipelines.

Every matrix the bound pipelines use is assembled in float64 (the
Rayleigh-Ritz matrix from a Gram form in which nothing cancels), so neither
the mode nor the digit count of a context changes any computed number.  The
context stays as the configuration surface of ``--precision-mode``,
``--digits`` and the ``CAUCHYSPEC_DIGITS`` environment variable, which are
still validated.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

__all__ = ["PrecisionContext", "default_digits"]

_ENV_VAR = "CAUCHYSPEC_DIGITS"


def default_digits() -> int:
    """Default significant digits; overridable via the CAUCHYSPEC_DIGITS
    environment variable."""
    raw = os.environ.get(_ENV_VAR, "")
    try:
        val = int(raw)
    except ValueError:
        return 50
    return max(val, 15)


@dataclass(frozen=True)
class PrecisionContext:
    """Arithmetic context: ``machine`` or ``extended`` mode with at least
    ``significant_digits`` digits requested.  All arithmetic is float64
    whatever the settings."""

    significant_digits: int = 50
    mode: str = "extended"

    def __post_init__(self):
        if self.significant_digits < 15:
            raise ValueError("significant_digits must be >= 15")
        if self.mode not in ("machine", "extended"):
            raise ValueError(f"unknown precision mode {self.mode!r}")

    @classmethod
    def from_env(cls, mode: str = "extended") -> "PrecisionContext":
        return cls(default_digits(), mode)

    @property
    def extended(self) -> bool:
        return self.mode == "extended"

    def pi(self) -> float:
        return math.pi
