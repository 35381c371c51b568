"""Norms on the disc and on coefficient sequences.

Disc integrals int (1-|z|)^{p-1} |f'|^p dA are computed ring by ring: the
radial direction uses composite Gauss-Legendre panels in the boundary
variable u = -log2(1 - r) (where the integrands of interest are smooth and
decaying), the angular direction uniform sampling with per-ring counts
growing like 1/(1-r).  Refinement doubles both panel count and angular
resolution, and the seminorm reports the resulting Richardson difference
as its error estimate together with a heuristic bound for the omitted
boundary annulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import CoefficientVector, FunctionModel

__all__ = [
    "QuadratureGrid", "lp_a_norm", "weighted_l2alpha",
    "besov_seminorm",
]


def _radial_rule(edges, nodes_per_panel: int, m_min: int, m_max: int):
    """Gauss-Legendre panels in u = -log2(1-r) between consecutive edges.

    Returns the nodes u, the radii r = 1 - 2^-u, the weights of the rule
    for int . dr, and per ring the smallest power of two at or above
    m_min * 2^u, capped at m_max, as its angular count.
    """
    x, gw = np.polynomial.legendre.leggauss(nodes_per_panel)
    us, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        us.append(lo + half * (x + 1.0))
        ws.append(gw * half)
    u = np.concatenate(us)
    r = 1.0 - np.exp2(-u)
    # dr = ln 2 * 2^-u du
    w = np.concatenate(ws) * math.log(2.0) * np.exp2(-u)
    m = np.minimum(m_max, np.maximum(
        m_min, np.exp2(np.ceil(u + math.log2(m_min))).astype(np.int64)))
    return u, r, w, m.astype(int)


@dataclass(frozen=True)
class QuadratureGrid:
    """Radial nodes/weights for int_0^1 . dr plus per-ring angular counts.

    ``r`` is strictly increasing in [0, 1); ``w`` are the weights of the
    radial rule; ``m`` are power-of-two angular sample counts.
    """

    r: np.ndarray
    w: np.ndarray
    m: np.ndarray
    u_max: float
    panels: int
    nodes_per_panel: int
    m_min: int
    m_max: int

    @classmethod
    def build(cls, u_max: float = 16.6, panels: int = 12,
              nodes_per_panel: int = 8, m_min: int = 64,
              m_max: int = 1 << 16) -> "QuadratureGrid":
        """Composite Gauss-Legendre rule in u = -log2(1-r) on [0, u_max].

        The last node sits at 1 - r = 2^-u_max; the angular count on each
        ring is the smallest admissible power of two above 64 * 2^u.
        """
        _, r, w, m = _radial_rule(np.linspace(0.0, u_max, panels + 1),
                                  nodes_per_panel, m_min, m_max)
        return cls(r=r, w=w, m=m, u_max=u_max, panels=panels,
                   nodes_per_panel=nodes_per_panel, m_min=m_min, m_max=m_max)

    def refine(self) -> "QuadratureGrid":
        g = QuadratureGrid.build(self.u_max, 2 * self.panels,
                                 self.nodes_per_panel, min(2 * self.m_min, self.m_max),
                                 self.m_max)
        return g

    def __len__(self):
        return len(self.r)


_DEFAULT_GRID = None


def default_grid() -> QuadratureGrid:
    global _DEFAULT_GRID
    if _DEFAULT_GRID is None:
        _DEFAULT_GRID = QuadratureGrid.build()
    return _DEFAULT_GRID


# -- coefficient norms -----------------------------------------------------


def _coeff_array(c):
    if isinstance(c, CoefficientVector):
        return np.asarray(c.coeffs)
    return np.asarray(c)


def lp_a_norm(c, p: float) -> float:
    """(sum_k |hat f(k)|^p)^(1/p) over the stored truncation."""
    if p <= 0:
        raise ValueError("p must be positive")
    a = np.abs(_coeff_array(c))
    return float((a**p).sum() ** (1.0 / p))


def weighted_l2alpha(c, alpha: float) -> float:
    """(sum_k |hat f(k)|^2 (1+k)^alpha)^(1/2)."""
    a = np.abs(_coeff_array(c))
    k = np.arange(a.size)
    return float(math.sqrt(((a**2) * (1.0 + k) ** alpha).sum()))


# -- disc integrals --------------------------------------------------------


def _besov_integral(f: FunctionModel, p: float,
                    grid: QuadratureGrid) -> tuple[float, float]:
    """The radial rule's sum, and the mean of |f'|^p on the last ring.

    The rings are evaluated from the outside in, so the first one asks for
    the most coefficients and the rest read the cache it sized; the means
    are summed from the inside out.  The first ring whose mean is not
    finite ends the pass with (inf, inf)."""
    means = [0.0] * len(grid)
    for i in reversed(range(len(grid))):
        means[i] = float(np.mean(np.abs(f.dring(float(grid.r[i]), int(grid.m[i]))) ** p))
        if not math.isfinite(means[i]):
            return math.inf, math.inf
    total = 0.0
    for r, w, mean in zip(grid.r, grid.w, means):
        total += w * (1.0 - r) ** (p - 1.0) * r * 2.0 * math.pi * mean
    return total, mean


def besov_seminorm(f: FunctionModel, p: float,
                   grid: QuadratureGrid | None = None) -> tuple[float, float]:
    """(int_D (1-|z|)^{p-1} |f'|^p dA)^(1/p) with an error estimate.

    The estimate is the Richardson difference against one grid doubling
    plus a heuristic bound on the omitted annulus (last-ring integrand
    times the remaining radial weight).  When the fine grid's integral is
    not finite, both read inf and the coarse grid is not evaluated.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if grid is None:
        grid = default_grid()
    fine = grid.refine()
    fine_i, last_mean = _besov_integral(f, p, fine)   # the outermost ring first
    if not math.isfinite(fine_i):
        return math.inf, math.inf
    coarse_i, _ = _besov_integral(f, p, grid)
    r_last = float(fine.r[-1])
    tail = last_mean * (1.0 - r_last) ** (p - 1.0) * 2.0 * math.pi * (1.0 - r_last)
    value = fine_i ** (1.0 / p)
    err = abs(value - coarse_i ** (1.0 / p)) + tail ** (1.0 / p)
    return value, err

