"""Reference values for the benchmark's output checks, computed without cyclia.

Every function here restates a construction or a closed form from the
measure specs in plain numpy (or exact rational arithmetic), so a check
that compares a CLI artifact against it shares no code with the program
it checks.  ``test_oracles.py`` tests each one against mpmath on small
cases.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# -- Salem: self-similar product formula -----------------------------------


def salem_geometry(alpha: float, generations: int, seed: int, d: int = 2):
    """(xi, nu, xi_j) of the Salem spec.

    xi = d^(-1/alpha) matches Hausdorff dimension alpha; nu = (xi + 1/d)/2
    is the spacing of consecutive children; xi_j is drawn uniformly from
    [(1 - 1/(j+1)^2) xi, xi] by numpy's default generator seeded with the
    spec's seed, one ``random()`` per generation.
    """
    xi = d ** (-1.0 / alpha)
    nu = (xi + 1.0 / d) / 2.0
    rng = np.random.default_rng(seed)
    js = np.arange(1, generations + 1)
    lo = (1.0 - 1.0 / (js + 1) ** 2) * xi
    return xi, nu, lo + rng.random(generations) * (xi - lo)


def salem_fourier(ns, alpha: float, generations: int, seed: int,
                  d: int = 2) -> np.ndarray:
    """hat mu(n) of the generation-J Salem measure (Salem, Ark. Mat. 1, 1951).

    The leaves sit at sum_j k_j nu l_{j-1}, k_j < d, with l_j the interval
    length after generation j, and carry mass d^-J uniformly, so
    hat mu(n) = prod_j (1/d) sum_k e^{-2 pi i n k nu l_{j-1}}
                * e^{-i pi n l_J} sinc(n l_J).
    """
    _, nu, xis = salem_geometry(alpha, generations, seed, d)
    ns = np.asarray(ns, dtype=float)
    out = np.ones(ns.shape, dtype=complex)
    ks = np.arange(d)
    length = 1.0
    for xi_j in xis:
        phases = np.exp(-2j * np.pi * np.multiply.outer(ns, ks * nu * length))
        out *= phases.mean(axis=-1)
        length *= xi_j
    return out * np.exp(-1j * np.pi * ns * length) * np.sinc(ns * length)


def salem_gap_entropy(alpha: float, generations: int, seed: int,
                      d: int = 2) -> float:
    """sum |I| log(1/|I|) over the gaps discarded by the construction.

    Each of the d^(j-1) parents of generation j (length l) leaves d - 1
    inner gaps of length (nu - xi_j) l and one trailing gap of length
    (1 - (d-1) nu - xi_j) l.
    """
    _, nu, xis = salem_geometry(alpha, generations, seed, d)
    total = 0.0
    length = 1.0
    for j, xi_j in enumerate(xis, start=1):
        inner = (nu - xi_j) * length
        trail = (1.0 - (d - 1) * nu - xi_j) * length
        total += d ** (j - 1) * ((d - 1) * inner * math.log(1.0 / inner)
                                 + trail * math.log(1.0 / trail))
        length *= xi_j
    return total


def octave_envelope(mags: np.ndarray) -> list:
    """(octave, n, max |hat mu(n)|) over 2^k <= n < 2^(k+1), mags[n-1]."""
    rows = []
    k = 0
    while 2**k <= mags.size:
        lo, hi = 2**k, min(2 ** (k + 1) - 1, mags.size)
        block = mags[lo - 1:hi]
        j = int(np.argmax(block))
        rows.append((k, lo + j, float(block[j])))
        k += 1
    return rows


# -- the unit atom at 1: S(z) = exp(-(1+z)/(1-z)) ---------------------------


def atom_log_abs_deriv(z) -> np.ndarray:
    """log |S'(z)| = log 2 - 2 log|1 - z| - Re (1+z)/(1-z)."""
    z = np.asarray(z, dtype=complex)
    return (math.log(2.0) - 2.0 * np.log(np.abs(1.0 - z))
            - ((1.0 + z) / (1.0 - z)).real)


def atom_deriv_sup(r: float) -> float:
    """sup_{|z|=r} |S'(z)| = 2 / (e (1 - r^2)), attained where |1-z|^2 = 1-r^2."""
    return 2.0 / (math.e * (1.0 - r * r))


def atom_sampled_deriv_sup(r: float, m: int) -> float:
    """max |S'| over the m points r e^{2 pi i k/m}, k = 0..m-1."""
    z = r * np.exp(2j * np.pi * np.arange(m) / m)
    return float(np.exp(atom_log_abs_deriv(z).max()))


def atom_maclaurin(k_max: int) -> np.ndarray:
    """hat S(0..k_max) by composing exp with g(z) = -(1+z)/(1-z).

    f = exp(g) solves f' = g' f with g' = -2/(1-z)^2, i.e.
    (1-z)^2 f' = -2 f, whose coefficients obey
    (n+1) f_{n+1} = (2n - 2) f_n - (n - 1) f_{n-1},  f_0 = 1, f_1 = -2.
    The recurrence runs in exact rationals; S = e^{-1} f.
    """
    f = [Fraction(1), Fraction(-2)]
    for n in range(1, k_max):
        f.append(((2 * n - 2) * f[n] - (n - 1) * f[n - 1]) / (n + 1))
    return math.exp(-1.0) * np.array([float(v) for v in f[:k_max + 1]])


def annihilator_pairing(coeffs: np.ndarray, m: int, K: int, r: float) -> complex:
    """2 pi sum_{k=m}^{K} c_{k-m} conj(c_{k+1}) r^(2k+1)."""
    ks = np.arange(m, K + 1)
    c = np.asarray(coeffs, dtype=complex)
    return complex(2.0 * math.pi * np.sum(c[ks - m] * np.conj(c[ks + 1])
                                          * float(r) ** (2 * ks + 1)))


# -- Kahane: leaf densities and exact window masses -------------------------


def log_power_phi(C: float, gamma: float, t):
    """phi(t) = C log(e/t)^(-gamma)."""
    return C * np.log(np.e / np.asarray(t, dtype=float)) ** -gamma


def kahane_leaves(C: float, gamma: float, depth: int, seed: int) -> np.ndarray:
    """Leaf densities of the random-sign martingale measure.

    From density 1, each node of value m splits into m +/- min(phi(2^-n)/2, m)
    with one sign per node drawn as ``integers(0, 2) * 2 - 1`` from numpy's
    default generator seeded with the spec's seed, left child first.
    """
    rng = np.random.default_rng(seed)
    level = np.ones(1)
    for n in range(1, depth + 1):
        half = float(log_power_phi(C, gamma, 2.0**-n)) / 2.0
        delta = np.minimum(half, level)
        signs = rng.integers(0, 2, size=level.size) * 2 - 1
        child = np.empty(2 * level.size)
        child[0::2] = level + signs * delta
        child[1::2] = level - signs * delta
        level = child
    return level


def _periodic_cumsum(leaves: np.ndarray, periods: int) -> np.ndarray:
    """F at the leaf edges of ``periods`` turns of the circle, F(0) = 0."""
    w = np.tile(leaves / leaves.size, periods)
    return np.concatenate([[0.0], np.cumsum(w)])


def window_sup(leaves: np.ndarray, t: float) -> float:
    """delta(t) = sup_x mu([x, x+t)) for t a multiple of the leaf width.

    The window mass is piecewise linear in x with knots at leaf edges, so
    the supremum is a maximum over windows starting at leaf edges.
    """
    p = leaves.size
    span = t * p
    if span < 1 or span != int(span):
        raise ValueError("t must be a positive multiple of the leaf width")
    F = _periodic_cumsum(leaves, 2)
    i = np.arange(p)
    return float((F[i + int(span)] - F[i]).max())


def smoothness_lower_bound(leaves: np.ndarray, t: float) -> float:
    """A lower bound on omega(t) from adjacent windows at leaf edges.

    Takes every dyadic half-width h <= t that is a multiple of the leaf
    width, plus h = half a leaf, and the best split point among leaf edges.
    """
    p = leaves.size
    F = _periodic_cumsum(leaves, 3)
    i = np.arange(p, 2 * p)
    best = 0.5 / p * float(np.abs(np.diff(np.append(leaves, leaves[0]))).max())
    span = 1
    while span <= t * p:
        best = max(best, float(np.abs(2 * F[i] - F[i - span]
                                      - F[i + span]).max()))
        span *= 2
    return best


# -- Herglotz integral of a piecewise-constant density ----------------------


def herglotz_pieces(a, b, dens, z) -> np.ndarray:
    """H(z) = int (w+z)/(w-z) dmu for densities on arcs [a_j, b_j) of [0, 1).

    With s = 2 pi x - arg z and D(s) = 1 - 2 r cos s + r^2, the real part
    integrates (1 - r^2)/D, whose antiderivative is
    s + 2 atan2(r sin s, 1 - r cos s), and the imaginary part integrates
    -d/ds log D.  Vectorized over the points z.
    """
    a, b, dens = (np.asarray(v, dtype=float)[None, :] for v in (a, b, dens))
    z = np.atleast_1d(np.asarray(z, dtype=complex))[:, None]
    r, th = np.abs(z), np.angle(z)
    sa, sb = 2 * np.pi * a - th, 2 * np.pi * b - th

    def prim(s):
        return s + 2.0 * np.arctan2(r * np.sin(s), 1.0 - r * np.cos(s))

    def logd(s):
        return np.log1p(r * r - 2.0 * r * np.cos(s))

    re = (dens * (prim(sb) - prim(sa))).sum(axis=1)
    im = -(dens * (logd(sb) - logd(sa))).sum(axis=1)
    return (re + 1j * im) / (2.0 * np.pi)


def dyadic_herglotz(leaves: np.ndarray, z) -> np.ndarray:
    """herglotz_pieces for densities on the uniform leaves of [0, 1)."""
    edges = np.arange(leaves.size + 1) / leaves.size
    return herglotz_pieces(edges[:-1], edges[1:], leaves, z)


def log_mean_exp_poisson(leaves: np.ndarray, r: float, p: float,
                         m: int = 256) -> float:
    """log int_0^{2 pi} exp(p P(r e^{i theta})) d theta by the m-point
    trapezoid rule, whose error decays like r^m for this integrand."""
    z = r * np.exp(2j * np.pi * np.arange(m) / m)
    vals = p * dyadic_herglotz(leaves, z).real
    top = vals.max()
    return float(math.log(2.0 * math.pi) + top
                 + math.log(np.exp(vals - top).mean()))


def log_power_bracket(C: float, gamma: float, s: float) -> float:
    """(int_s^1 phi(t)^2/t dt)^(1/2) for phi(t) = C log(e/t)^(-gamma)."""
    v = math.log(math.e / s)
    if gamma == 0.5:
        return C * math.sqrt(math.log(v))
    e = 1.0 - 2.0 * gamma
    return C * math.sqrt((v**e - 1.0) / e)
