"""Smoothness gauges phi on (0, 1] and the gauge integrals of the theorems.

A gauge is positive and nondecreasing, with a declared exponent beta0 such
that phi(t)/t^beta0 is almost decreasing; ``regularity_report`` witnesses
all three on one fixed grid of t.  The accumulated gauge
bracket(s) = (int_s^1 phi(t)^2 / t dt)^(1/2) has a closed form for each
of the two families, log-power and power-law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SmoothnessProfile", "LogPower", "PowerLaw"]

# the grid on which a gauge's regularity is witnessed
_REGULARITY_GRID = np.geomspace(1e-10, 1.0, 400)


class SmoothnessProfile:
    """Base gauge.  Subclasses implement phi(t), vectorized over t, and
    the accumulated gauge bracket(s) in closed form."""

    beta0: float

    def phi(self, t):
        raise NotImplementedError

    def almost_decreasing_constant(self) -> float:
        """Least c with phi(s)/s^beta0 >= c phi(t)/t^beta0 for s < t on the grid."""
        g = np.asarray(self.phi(_REGULARITY_GRID)) / _REGULARITY_GRID**self.beta0
        running_max_right = np.maximum.accumulate(g[::-1])[::-1]
        return float(np.min(g / running_max_right))

    def regularity_report(self) -> dict:
        """Positivity, monotonicity and the almost-decreasing witness on a grid."""
        vals = np.asarray(self.phi(_REGULARITY_GRID))
        return {
            "positive": bool((vals > 0).all()),
            "nondecreasing": bool((np.diff(vals) >= -1e-15).all()),
            "beta0": self.beta0,
            "almost_decreasing_constant": self.almost_decreasing_constant(),
        }


@dataclass(frozen=True)
class LogPower(SmoothnessProfile):
    """phi(t) = C (log(e/t))^(-gamma)."""

    C: float
    gamma: float

    def __post_init__(self):
        if self.C <= 0 or self.gamma <= 0:
            raise ValueError("C and gamma must be positive")

    @property
    def beta0(self) -> float:
        # phi(t)/t^b is decreasing iff b > gamma/log(e/t); b > gamma
        # works for all t, clamped into (0, 1).
        return min(0.95, self.gamma + 0.25)

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

    @property
    def beta0(self) -> float:
        return self.beta

    def phi(self, t):
        return self.C * np.asarray(t, dtype=float) ** self.beta

    def bracket(self, s: float) -> float:
        if not 0.0 < s < 1.0:
            raise ValueError(f"s must be in (0, 1), got {s}")
        return self.C * math.sqrt((1.0 - s ** (2 * self.beta)) / (2 * self.beta))
