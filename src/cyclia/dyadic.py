"""Finite-depth dyadic martingales on the circle and the laws they obey.

The circle is parametrized by x in [0, 1).  A martingale is stored densely
as one array per generation: ``levels[n][j]`` is its value on the dyadic
cell [j 2^-n, (j+1) 2^-n).  Every law the smooth measures rest on (the
mean value, the smoothness bound beta_n, the square function and its
sub-Gaussian tail and exponential moment, after Chang, Wilson and Wolff,
Comment. Math. Helv. 60, 1985) is checked by an exact finite enumeration
of these arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MAX_DEPTH", "DyadicMartingale", "martingale_from_measure", "max_square",
    "SmoothnessReport", "smoothness_check", "tail_distribution", "logsumexp",
    "ExpMomentReport", "exp_moment",
]

MAX_DEPTH = 22
MEAN_VALUE_TOL = 1e-12


class DyadicMartingale:
    """Values M_I on all dyadic cells up to a depth, parent = mean of children.

    ``levels[n]`` is the length-2^n array of generation-n values.  The
    mean-value property is validated at construction to MEAN_VALUE_TOL.
    """

    def __init__(self, levels: list[np.ndarray]):
        if not levels:
            raise ValueError("need at least the root level")
        if len(levels) - 1 > MAX_DEPTH:
            raise ValueError(f"depth {len(levels) - 1} exceeds MAX_DEPTH={MAX_DEPTH}")
        self.levels = [np.asarray(lv, dtype=float).reshape(2**n) for n, lv in enumerate(levels)]
        self._check_mean_value()

    def _check_mean_value(self):
        for n in range(self.depth):
            parent = self.levels[n]
            child_mean = self.levels[n + 1].reshape(-1, 2).mean(axis=1)
            tol = MEAN_VALUE_TOL * (1.0 + np.abs(parent))
            bad = np.abs(parent - child_mean) > tol
            if bad.any():
                j = int(np.argmax(bad))
                raise ValueError(
                    f"mean-value property violated at generation {n}, index {j}: "
                    f"{parent[j]} vs child mean {child_mean[j]}"
                )

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def root_value(self) -> float:
        return float(self.levels[0][0])

    @classmethod
    def from_leaves(cls, leaves: np.ndarray) -> "DyadicMartingale":
        """Build upward by exact averaging from generation-N cell values."""
        leaves = np.asarray(leaves, dtype=float)
        depth = int(round(math.log2(leaves.size)))
        if 2**depth != leaves.size:
            raise ValueError("leaf count must be a power of two")
        levels = [leaves]
        while levels[0].size > 1:
            levels.insert(0, levels[0].reshape(-1, 2).mean(axis=1))
        return cls(levels)

    # -- derived per-cell tables ------------------------------------------

    def increments(self, n: int) -> np.ndarray:
        """M_n - M_{n-1} as a generation-n cell array."""
        if not 1 <= n <= self.depth:
            raise ValueError(f"generation {n} out of range 1..{self.depth}")
        return self.levels[n] - np.repeat(self.levels[n - 1], 2)

    def square_function_cells(self, n: int) -> np.ndarray:
        """<M>_n as a generation-n cell array (it is constant per cell)."""
        if n > self.depth:
            raise ValueError(f"generation {n} exceeds depth {self.depth}")
        acc = np.zeros(1)
        for j in range(1, n + 1):
            acc = np.repeat(acc, 2) + self.increments(j) ** 2
        return np.sqrt(acc)


def martingale_from_measure(mu, depth: int) -> DyadicMartingale:
    """M_I = mu(I) / |I| on every dyadic cell up to the given depth.

    Exact by construction: leaf masses are computed from the measure and
    averaged upward, so re-integrating any node's leaves returns mu(I).
    """
    if depth < 0 or depth > MAX_DEPTH:
        raise ValueError(f"depth must be in 0..{MAX_DEPTH}")
    edges = np.arange(2**depth + 1) / 2**depth
    masses = mu.interval_mass_many(edges[:-1], edges[1:])
    return DyadicMartingale.from_leaves(masses * 2**depth)


def max_square(m: DyadicMartingale, n: int) -> float:
    """A_n = sup_x <M>_n(x), exact over the generation-n cells."""
    return float(m.square_function_cells(n).max())


@dataclass
class SmoothnessReport:
    passed: bool
    worst_adjacent_ratio: float
    worst_increment_ratio: float
    violations: list = field(default_factory=list)


def smoothness_check(m: DyadicMartingale, beta) -> SmoothnessReport:
    """Verify |M_I - M_J| <= beta_n on adjacent pairs and |M_n - M_{n-1}| <= beta_n/2.

    ``beta`` holds beta_1, ..., beta_depth, each positive.  Adjacency wraps
    around the seam (last cell, first cell).  The report carries the worst
    ratios and the violating cells; only a malformed ``beta`` raises.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (m.depth,):
        raise ValueError(f"need beta_1..beta_{m.depth}, got shape {beta.shape}")
    if not (beta > 0).all():
        raise ValueError(f"every beta_n must be positive, got {beta.tolist()}")
    worst_adj = 0.0
    worst_inc = 0.0
    violations = []
    tol = 1.0 + 1e-9
    for n, b in enumerate(beta.tolist(), start=1):
        vals = m.levels[n]
        gaps = np.abs(vals - np.roll(vals, -1))
        ratios = gaps / b
        r = float(ratios.max())
        if r > worst_adj:
            worst_adj = r
        if r > tol:
            for j in np.flatnonzero(ratios > tol)[:8]:
                violations.append(("adjacent", n, int(j), float(gaps[j])))
        inc_ratios = np.abs(m.increments(n)) / (b / 2.0)
        r = float(inc_ratios.max())
        if r > worst_inc:
            worst_inc = r
        if r > tol:
            for j in np.flatnonzero(inc_ratios > tol)[:8]:
                violations.append(("increment", n, int(j), float(m.increments(n)[j])))
    passed = worst_adj <= tol and worst_inc <= tol
    return SmoothnessReport(passed, worst_adj, worst_inc, violations)


def tail_distribution(m: DyadicMartingale, n: int, s: float) -> float:
    """Lebesgue measure of {x : |M_n(x) - M_0(x)| >= s}, exact over cells."""
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    devs = np.abs(m.levels[n] - m.root_value)
    return float(np.count_nonzero(devs >= s)) / 2**n


def logsumexp(a) -> float:
    """log(sum(exp(a))) over a real array, without overflow.

    The form of ``scipy.special.logsumexp`` (Blanchard, Higham and Higham,
    IMA J. Numer. Anal. 41(4), 2021): the maximal terms are taken out of
    the sum, so log1p(s) + log(ties) + max stays accurate when they
    dominate.  A non-finite result (an inf or nan entry, or every entry
    -inf) is recomputed directly, as scipy does.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max()
        ties = a == top
        count = ties.sum()
        s = np.exp(np.where(ties, -np.inf, a) - top).sum() / count
        out = np.log1p(s) + np.log(count) + top
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return float(out)


@dataclass
class ExpMomentReport:
    value: float            # may be inf when the sum overflows
    log_value: float        # always finite
    ratio: float            # value / (A_n exp(alpha^2 A_n^2 / 2)) in log space


def exp_moment(m: DyadicMartingale, n: int, alpha: float) -> ExpMomentReport:
    """Exact integral of e^{alpha |M_n|} over the circle as a finite cell sum.

    Computed in log space whenever alpha * max|M_n| > 700, so the report's
    log_value stays finite even when the value itself overflows.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if n > m.depth:
        raise ValueError(f"generation {n} exceeds depth {m.depth}")
    a = alpha * np.abs(m.levels[n])
    if a.max() > 700.0:
        log_value = float(logsumexp(a) - n * math.log(2.0))
        value = math.inf if log_value > 700.0 else math.exp(log_value)
    else:
        value = float(np.exp(a).mean())
        log_value = math.log(value)
    an = max_square(m, n)
    log_bound = math.log(an) + alpha**2 * an**2 / 2.0 if an > 0 else -math.inf
    log_ratio = log_value - log_bound
    ratio = math.exp(log_ratio) if abs(log_ratio) < 700.0 else math.inf
    return ExpMomentReport(value, log_value, ratio)
