"""Smoothness gauges phi on (0, 1] and the gauge integrals of the theorems.

A gauge is positive and nondecreasing, with a declared exponent beta0 such
that phi(t)/t^beta0 is almost decreasing; ``regularity_report`` witnesses
all three on one fixed grid of t.  The accumulated gauge
bracket(s) = (int_s^1 phi(t)^2 / t dt)^(1/2) has a closed form for each
of the two families, log-power and power-law.  ``integrability_tests``
decides whether int phi^p/t dt and its bracket-weighted variant converge
from their first 45 octaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SmoothnessProfile", "LogPower", "PowerLaw", "IntegrabilityReport",
    "integrability_tests",
]

# the grid on which a gauge's regularity is witnessed
_REGULARITY_GRID = np.geomspace(1e-10, 1.0, 400)
# octaves 2^-k, k = 1..45, of the integrability truncations
_OCTAVES = 45


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
    beta0: float = field(default=0.0)

    def __post_init__(self):
        if self.C <= 0 or self.gamma <= 0:
            raise ValueError("C and gamma must be positive")
        if self.beta0 == 0.0:
            # phi(t)/t^b is decreasing iff b > gamma/log(e/t); b > gamma
            # works for all t, clamped into (0, 1).
            object.__setattr__(self, "beta0", min(0.95, self.gamma + 0.25))

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


# -- integrability diagnostics -------------------------------------------


@dataclass
class IntegrabilityReport:
    """Truncated-integral table for int phi^p/t dt and its weighted variant.

    ``truncations`` holds (k, I1(2^-k), I2(2^-k)).  A tail is classified
    convergent when its per-octave increments decay faster than 1/k (fitted
    log-log slope below -1.15); the 1/k borderline itself diverges.
    """

    truncations: list
    slope1: float
    slope2: float
    verdict1: str
    verdict2: str

    SLOPE_CUTOFF = -1.15


def _block_slope(blocks, k_min=8):
    ks = np.arange(1, len(blocks) + 1)
    vals = np.asarray(blocks)
    mask = (ks >= k_min) & (vals > 0)
    if mask.sum() < 4:
        return -math.inf  # everything underflowed: decays faster than any power
    return float(np.polyfit(np.log(ks[mask]), np.log(vals[mask]), 1)[0])


def integrability_tests(phi: SmoothnessProfile, p: float,
                        epsilon: float) -> IntegrabilityReport:
    """Truncations of int_delta^1 phi^p/t dt and of the bracket-weighted variant.

    Both integrals are accumulated octave by octave, delta = 2^-k, in the
    variable v = log(e/t) where the integrands are smooth.  The fitted
    power-law slope of the octave increments decides the verdict.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    from scipy.integrate import quad

    def g1(v):
        return float(phi.phi(math.exp(1.0 - v))) ** p

    def g2(v):
        t = math.exp(1.0 - v)
        br = phi.bracket(t)
        w = br * math.exp(epsilon * br**2)
        return g1(v) * w

    blocks1, blocks2, truncations = [], [], []
    total1 = total2 = 0.0
    for k in range(1, _OCTAVES + 1):
        v_lo = 1.0 + (k - 1) * math.log(2.0)
        v_hi = 1.0 + k * math.log(2.0)
        b1, _ = quad(g1, v_lo, v_hi, epsrel=1e-10, limit=100)
        b2, _ = quad(g2, v_lo, v_hi, epsrel=1e-10, limit=100)
        total1 += b1
        total2 += b2
        blocks1.append(b1)
        blocks2.append(b2)
        truncations.append((k, total1, total2))

    slope1 = _block_slope(blocks1)
    slope2 = _block_slope(blocks2)
    cut = IntegrabilityReport.SLOPE_CUTOFF
    return IntegrabilityReport(
        truncations=truncations, slope1=slope1, slope2=slope2,
        verdict1="convergent" if slope1 < cut else "divergent",
        verdict2="convergent" if slope2 < cut else "divergent",
    )
