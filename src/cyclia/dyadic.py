"""Dyadic intervals on the circle and finite-depth dyadic martingales.

The circle is parametrized by x in [0, 1); the dyadic interval of
generation n and index j is [j 2^-n, (j+1) 2^-n).  A martingale is stored
densely as one value per dyadic cell up to a fixed depth, so every check
(square functions, smoothness, tail bounds) is an exact finite enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_DEPTH = 22
MEAN_VALUE_TOL = 1e-12


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """Generation-n dyadic cell [j 2^-n, (j+1) 2^-n) on the circle."""

    n: int
    j: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"generation must be nonnegative, got {self.n}")
        if not 0 <= self.j < 2**self.n:
            raise ValueError(f"index {self.j} out of range for generation {self.n}")

    @property
    def length(self) -> float:
        return 2.0**-self.n

    @property
    def left(self) -> float:
        return self.j * 2.0**-self.n

    @property
    def right(self) -> float:
        return (self.j + 1) * 2.0**-self.n

    def children(self) -> tuple["DyadicInterval", "DyadicInterval"]:
        return (
            DyadicInterval(self.n + 1, 2 * self.j),
            DyadicInterval(self.n + 1, 2 * self.j + 1),
        )

    def parent(self) -> "DyadicInterval":
        if self.n == 0:
            raise ValueError("root interval has no parent")
        return DyadicInterval(self.n - 1, self.j // 2)

    def contains(self, x: float) -> bool:
        return self.left <= x % 1.0 < self.right


def common_ancestor(a: DyadicInterval, b: DyadicInterval) -> DyadicInterval:
    """Smallest dyadic interval containing both same-generation cells.

    Adjacent cells across the seam at x = 0 only share the root, which is
    what the climb produces.
    """
    if a.n != b.n:
        raise ValueError(f"generation mismatch: {a.n} != {b.n}")
    ja, jb, n = a.j, b.j, a.n
    while ja != jb:
        ja //= 2
        jb //= 2
        n -= 1
    return DyadicInterval(n, ja)


class SmoothnessSequence:
    """Positive bound beta_n per generation, from a rule or a sequence."""

    def __init__(self, rule):
        if callable(rule):
            self._rule = rule
        else:
            seq = [float(v) for v in rule]
            self._rule = lambda n: seq[n - 1]
        # spot-check positivity on the first few generations
        for n in range(1, 4):
            try:
                v = self._rule(n)
            except IndexError:
                break
            if v <= 0:
                raise ValueError(f"beta_{n} = {v} must be positive")

    def __call__(self, n: int) -> float:
        v = float(self._rule(n))
        if v <= 0:
            raise ValueError(f"beta_{n} = {v} must be positive")
        return v

    @classmethod
    def from_profile(cls, phi) -> "SmoothnessSequence":
        """beta_n = phi(2^-n) for a smoothness gauge phi."""
        return cls(lambda n: float(phi.phi(2.0**-n)))


class DyadicMartingale:
    """Values M_I on all dyadic cells up to a depth, parent = mean of children.

    ``levels[n]`` is the length-2^n array of generation-n values.  The
    mean-value property is validated at construction to MEAN_VALUE_TOL.
    """

    def __init__(self, levels: list[np.ndarray], validate: bool = True):
        if not levels:
            raise ValueError("need at least the root level")
        if len(levels) - 1 > MAX_DEPTH:
            raise ValueError(f"depth {len(levels) - 1} exceeds MAX_DEPTH={MAX_DEPTH}")
        self.levels = [np.asarray(lv, dtype=float).reshape(2**n) for n, lv in enumerate(levels)]
        if validate:
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

    def value(self, interval: DyadicInterval) -> float:
        if interval.n > self.depth:
            raise ValueError(f"generation {interval.n} exceeds depth {self.depth}")
        return float(self.levels[interval.n][interval.j])

    def value_at(self, n: int, x: float) -> float:
        """M_n(x): the value on the generation-n cell containing x."""
        if n > self.depth:
            raise ValueError(f"generation {n} exceeds depth {self.depth}")
        j = min(int((x % 1.0) * 2**n), 2**n - 1)
        return float(self.levels[n][j])

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
        return cls(levels, validate=False)

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


def square_function(m: DyadicMartingale, n: int, x: float) -> float:
    """<M>_n(x) = (sum_{j<=n} |M_j(x) - M_{j-1}(x)|^2)^(1/2)."""
    cells = m.square_function_cells(n)
    j = min(int((x % 1.0) * 2**n), 2**n - 1)
    return float(cells[j])


def max_square(m: DyadicMartingale, n: int) -> float:
    """A_n = sup_x <M>_n(x), exact over the generation-n cells."""
    return float(m.square_function_cells(n).max())


@dataclass
class SmoothnessReport:
    passed: bool
    worst_adjacent_ratio: float
    worst_increment_ratio: float
    violations: list = field(default_factory=list)

    @property
    def worst_ratio(self) -> float:
        return max(self.worst_adjacent_ratio, self.worst_increment_ratio)


def smoothness_check(m: DyadicMartingale, beta) -> SmoothnessReport:
    """Verify |M_I - M_J| <= beta_n on adjacent pairs and |M_n - M_{n-1}| <= beta_n/2.

    Adjacency wraps around the seam (last cell, first cell).  The report
    carries the worst ratios and the violating cells; nothing raises.
    """
    if not isinstance(beta, SmoothnessSequence):
        beta = SmoothnessSequence(beta)
    worst_adj = 0.0
    worst_inc = 0.0
    violations = []
    tol = 1.0 + 1e-9
    for n in range(1, m.depth + 1):
        b = beta(n)
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
    alpha: float
    max_square: float
    bound: float            # A_n * exp(alpha^2 A_n^2 / 2), inf when it overflows
    ratio: float            # value / bound in log space, for constant fitting


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
    bound = math.inf if log_bound > 700.0 else math.exp(log_bound)
    log_ratio = log_value - log_bound
    ratio = math.exp(log_ratio) if abs(log_ratio) < 700.0 else math.inf
    return ExpMomentReport(value, log_value, alpha, an, bound, ratio)
