"""Norms on the disc and on coefficient sequences.

Disc integrals int (1-|z|)^{p-1} |f'|^p dA are computed ring by ring: the
radial direction uses composite Gauss-Kronrod panels in the boundary
variable u = -log2(1 - r) (where the integrands of interest are smooth and
decaying), the angular direction uniform sampling with per-ring counts
growing like 1/(1-r).  Each panel's 2n+1 Kronrod nodes contain its n Gauss
nodes, so one pass gives both sums: the seminorm reports the Kronrod value,
and as its error estimate the difference against the embedded Gauss value
together with a heuristic bound for the omitted boundary annulus.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .models import CoefficientVector, FunctionModel

__all__ = [
    "QuadratureGrid", "lp_a_norm", "weighted_l2alpha",
    "besov_seminorm",
]


def _kronrod(n: int):
    """The (2n+1)-point Gauss-Kronrod rule on [-1, 1] extending leggauss(n).

    Returns the nodes in increasing order, the Kronrod weights, and the
    Gauss weights on the same nodes (zero on the n+1 Kronrod-only ones).
    The Kronrod extension is Laurie's algorithm (Math. Comp. 66, 1997) on
    the Legendre recurrence: the Jacobi-Kronrod matrix, then its
    eigenvalues and the squared first components of its eigenvectors.
    The embedded nodes and weights are leggauss(n)'s own, so the Gauss sum
    is exactly the Gauss rule.
    """
    a = np.zeros(2 * n + 1)
    i = np.arange(1, 2 * n + 1)
    b = np.concatenate([[2.0], i**2 / (4.0 * i**2 - 1.0)])
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        l = m - k
        s[k + 1] = np.cumsum((a[k + n + 1] - a[l]) * t[k + 1]
                             + b[k + n + 1] * s[k] - b[l] * s[k + 1])
        s, t = t, s
    s[1:n // 2 + 2] = s[:n // 2 + 1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        l = m - k
        j = n - l - 1
        s[j + 1] = np.cumsum(-(a[k + n + 1] - a[l]) * t[j + 1]
                             - b[k + n + 1] * s[j + 1] + b[l] * s[j + 2])
        j, k = j[-1], (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    x, v = np.linalg.eigh(np.diag(a) + np.diag(np.sqrt(b[1:]), -1))
    wk = b[0] * v[0] ** 2
    x, wk = 0.5 * (x - x[::-1]), 0.5 * (wk + wk[::-1])   # the rule is even
    wg = np.zeros_like(wk)
    x[1::2], wg[1::2] = np.polynomial.legendre.leggauss(n)
    return x, wk, wg


def _panel_map(edges, x, weights):
    """A rule on [-1, 1] copied onto each panel between consecutive edges:
    the nodes, and each weight vector turned into weights for int . du."""
    edges = np.asarray(edges, dtype=float)
    lo, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    return (lo + half * (x + 1.0)).ravel(), [(w * half).ravel() for w in weights]


def _on_panels(edges, x, weights):
    """``_panel_map`` in u = -log2(1 - r): the nodes u, the radii
    r = 1 - 2^-u, and the weights for int . dr = ln 2 * 2^-u du."""
    u, weights = _panel_map(edges, x, weights)
    return u, 1.0 - np.exp2(-u), [
        w * math.log(2.0) * np.exp2(-u) for w in weights]


def _angular_counts(u, m_min: int, m_max: int):
    """Per ring the smallest power of two at or above m_min * 2^u, capped
    at m_max."""
    m = np.minimum(m_max, np.maximum(
        m_min, np.exp2(np.ceil(u + math.log2(m_min))).astype(np.int64)))
    return m.astype(int)


def _radial_rule(edges, nodes_per_panel: int, m_min: int, m_max: int):
    """Gauss-Legendre panels in u = -log2(1-r) between consecutive edges.

    Returns the nodes u, the radii r = 1 - 2^-u, the weights of the rule
    for int . dr, and the angular counts of ``_angular_counts``.
    """
    x, gw = np.polynomial.legendre.leggauss(nodes_per_panel)
    u, r, (w,) = _on_panels(edges, x, [gw])
    return u, r, w, _angular_counts(u, m_min, m_max)


@dataclass(frozen=True)
class QuadratureGrid:
    """Radial nodes/weights for int_0^1 . dr plus per-ring angular counts.

    ``r`` is strictly increasing in [0, 1); ``w`` and ``wg`` are the
    weights of the composite Kronrod rule and of its embedded Gauss rule
    (zero on the Kronrod-only nodes); ``m`` are power-of-two angular
    sample counts.
    """

    r: np.ndarray
    w: np.ndarray
    wg: np.ndarray
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
        """Composite Gauss-Kronrod rule in u = -log2(1-r) on [0, u_max].

        Each of the ``panels`` equal panels holds the 2n+1 Kronrod nodes
        of its n = ``nodes_per_panel`` Gauss nodes.  The outermost node
        sits just inside 1 - r = 2^-u_max; the angular count on each ring
        is the smallest power of two at or above 2 m_min * 2^u, capped at
        m_max (the Gauss-Legendre rules of ``multiplier`` take m_min
        itself).
        """
        if not 0.0 < u_max < math.inf:
            raise ValueError(f"u_max must be > 0 and finite, got {u_max}")
        for name, n in (("panels", panels), ("nodes_per_panel", nodes_per_panel)):
            if not (isinstance(n, (int, np.integer)) and n >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {n}")
        for name, m in (("m_min", m_min), ("m_max", m_max)):
            if not (isinstance(m, (int, np.integer)) and m >= 1
                    and m & (m - 1) == 0):
                raise ValueError(f"{name} must be a power of two, got {m}")
        if m_min > m_max:
            raise ValueError(f"m_min must be <= m_max, got {m_min} > {m_max}")
        x, wk, wg = _kronrod(nodes_per_panel)
        u, r, (w, wg) = _on_panels(np.linspace(0.0, u_max, panels + 1),
                                   x, [wk, wg])
        return cls(r=r, w=w, wg=wg,
                   m=_angular_counts(u, min(2 * m_min, m_max), m_max),
                   u_max=u_max, panels=panels,
                   nodes_per_panel=nodes_per_panel, m_min=m_min, m_max=m_max)

    def refine(self) -> "QuadratureGrid":
        """The grid with twice the panels and twice the angular counts."""
        return QuadratureGrid.build(self.u_max, 2 * self.panels,
                                    self.nodes_per_panel,
                                    min(2 * self.m_min, self.m_max), self.m_max)

    def __len__(self):
        return len(self.r)


def default_grid() -> QuadratureGrid:
    return QuadratureGrid.build()


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


def besov_seminorm(f: FunctionModel, p: float,
                   grid: QuadratureGrid | None = None) -> tuple[float, float]:
    """(int_D (1-|z|)^{p-1} |f'|^p dA)^(1/p) with an error estimate.

    One pass over the grid's rings gives the Kronrod sum K and its
    embedded Gauss sum G.  The value is K^(1/p); the estimate is
    |K^(1/p) - G^(1/p)| plus a heuristic bound on the omitted annulus (the
    outermost ring's integrand times the remaining radial weight).  The
    outermost ring is evaluated first and alone: it asks for the most
    coefficients, and builds every cache the others read (the coefficient
    cache, a leaf measure's table, the pieces of a measure with atoms).
    Two workers, the calling thread and one more, then take the other
    rings from the outside in, alternately, each passing its last ring's
    array back to the next (FunctionModel.log_abs_dring) and under the
    caller's numpy error state (a thread does not inherit np.errstate).
    The ring kernel makes no BLAS call on a leaf measure
    (CircleMeasure._leaf_folds), so the two run side by side.  The sums
    run from the inside out, in a fixed order, so the result has the bits
    of a sequential pass.  |f'|^p is read as exp(p log |f'|) from the
    model's log_abs_dring, in place in the worker's array.  A ring whose
    mean of |f'|^p is not finite, or which raises, ends its worker's share
    (the worker's first failure is its outermost); once both workers have
    stopped, the outermost failing ring ends the pass as it would a
    sequential one: both numbers read inf, or its exception propagates.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if grid is None:
        grid = default_grid()
    n = len(grid)
    means = [0.0] * n
    ended = {}          # ring index -> the exception it raised, or None
    state = dict(np.geterr(), call=np.geterrcall())

    def sweep(rings):
        dens = None
        with np.errstate(**state):
            for i in rings:
                try:
                    dens = f.log_abs_dring(float(grid.r[i]), int(grid.m[i]),
                                           out=dens)
                    means[i] = float(np.mean(np.exp(
                        np.multiply(dens, p, out=dens), out=dens)))
                    if math.isfinite(means[i]):
                        continue
                    exc = None
                except Exception as err:
                    exc = err
                ended[i] = exc
                return

    sweep([n - 1])
    if not ended:
        worker = threading.Thread(target=sweep, args=(range(n - 3, -1, -2),))
        worker.start()
        try:
            sweep(range(n - 2, -1, -2))
        finally:
            worker.join()
    if ended:
        exc = ended[max(ended)]
        if exc is not None:
            raise exc
        return math.inf, math.inf
    kronrod = gauss = 0.0
    for r, wk, wg, mean in zip(grid.r, grid.w, grid.wg, means):
        term = (1.0 - r) ** (p - 1.0) * r * 2.0 * math.pi * mean
        kronrod += wk * term
        gauss += wg * term
    r_last = float(grid.r[-1])
    tail = means[-1] * (1.0 - r_last) ** (p - 1.0) * 2.0 * math.pi * (1.0 - r_last)
    value = kronrod ** (1.0 / p)
    return value, abs(value - gauss ** (1.0 / p)) + tail ** (1.0 / p)
