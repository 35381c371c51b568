"""Smoothness gauges phi on (0, 1] and their accumulated brackets.

A gauge is a positive, nondecreasing phi(t), vectorized over t, in one of
two families: log-power C (log(e/t))^(-gamma) and power-law C t^beta.  The
accumulated gauge bracket(s) = (int_s^1 phi(t)^2 / t dt)^(1/2) has a closed
form for each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SmoothnessProfile", "LogPower", "PowerLaw"]


class SmoothnessProfile:
    """Base gauge.  Subclasses implement phi(t), vectorized over t, and
    the accumulated gauge bracket(s) in closed form."""

    def phi(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class LogPower(SmoothnessProfile):
    """phi(t) = C (log(e/t))^(-gamma)."""

    C: float
    gamma: float

    def __post_init__(self):
        if self.C <= 0 or self.gamma <= 0:
            raise ValueError("C and gamma must be positive")

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        return self.C * np.log(np.e / t) ** -self.gamma

    def bracket(self, s: float) -> float:
        if not 0.0 < s < 1.0:
            raise ValueError(f"s must be in (0, 1), got {s}")
        v = math.log(math.e / s)
        if abs(self.gamma - 0.5) < 1e-14:
            return self.C * math.sqrt(math.log(v))
        e = 1.0 - 2.0 * self.gamma
        return self.C * math.sqrt((v**e - 1.0) / e)


@dataclass(frozen=True)
class PowerLaw(SmoothnessProfile):
    """phi(t) = C t^beta, 0 < beta < 1."""

    C: float
    beta: float

    def __post_init__(self):
        if self.C <= 0 or not 0.0 < self.beta < 1.0:
            raise ValueError("need C > 0 and 0 < beta < 1")

    def phi(self, t):
        return self.C * np.asarray(t, dtype=float) ** self.beta

    def bracket(self, s: float) -> float:
        if not 0.0 < s < 1.0:
            raise ValueError(f"s must be in (0, 1), got {s}")
        return self.C * math.sqrt((1.0 - s ** (2 * self.beta)) / (2 * self.beta))
