"""Closed-form evaluation of singular inner functions and friends on the disc.

* The ring kernel: H(z) = mu(T) + 2 sum_{n>=1} hat mu(n) z^n and H'(z)
  come together on M equispaced points of a radius-r circle.  The
  truncated coefficients, read from the measure's own cache, viewed as
  rows of length M, are folded by a rank-one damping (a row factor times a
  column factor) in one matrix product; one inverse FFT finishes both.
* The scalar reference: the Herglotz integral of an atoms-plus-pieces
  measure has an exact antiderivative per arc; the logarithm's branch is
  kept honest by bisecting any arc whose endpoint ratio leaves the right
  half plane.  The tests check the ring kernel against it, and it gives
  the kernel's value at r = 0.

Function models (inner powers, polynomials, and the dilation quotient
S/S_t, taken in log space) are immutable and evaluated only as the jet
(f, f') on rings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import CircleMeasure

__all__ = [
    "herglotz", "herglotz_derivative", "poisson", "herglotz_jet",
    "herglotz_ring",
    "FunctionModel", "SingularInnerPower",
    "Polynomial", "DilationQuotient",
    "CoefficientVector", "maclaurin",
    "EvaluationError", "AliasBoundError",
]

_TWO_PI_I = 2j * np.pi


class EvaluationError(ValueError):
    """A scalar Herglotz integral's arc bisection did not converge."""


class AliasBoundError(ValueError):
    """Requested coefficients are not resolvable at the given (r, M)."""

    def __init__(self, bound, tolerance):
        super().__init__(f"alias bound {bound:.3e} exceeds tolerance {tolerance:.3e}")
        self.bound = bound
        self.tolerance = tolerance


# -- scalar Herglotz integrals --------------------------------------------


def _require_interior(z):
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("evaluation point must satisfy |z| < 1")


def _arc_log_sum(a, b, dens, z):
    """sum_j dens_j * Log((w(b_j) - z)/(w(a_j) - z)) with branch tracking.

    Arcs are first cut to at most a quarter turn, for which the continuous
    argument change at any interior z lies in (-5 pi/4, 5 pi/4); the
    principal branch is then provably correct whenever the ratio lands in
    the right half plane, and arcs are bisected until it does.
    """
    total = 0.0 + 0.0j
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    dens = np.asarray(dens, float)
    parts = np.maximum(np.ceil((b - a) / 0.25).astype(int), 1)
    if (parts > 1).any():
        aa, bb, dd = [], [], []
        for lo, hi, d, k in zip(a, b, dens, parts):
            edges = np.linspace(lo, hi, k + 1)
            aa.append(edges[:-1])
            bb.append(edges[1:])
            dd.append(np.full(k, d))
        a, b, dens = np.concatenate(aa), np.concatenate(bb), np.concatenate(dd)
    stack = [(a, b, dens)]
    depth = 0
    while stack:
        a, b, d = stack.pop()
        # ratio = 1 + s with s = (w_b - w_a)/(w_a - z), and w_b - w_a taken
        # from sin(pi (b - a)), so a short arc keeps its relative accuracy
        wa = np.exp(_TWO_PI_I * a)
        s = _chord(a, b) / (wa - z)
        ok = (1.0 + s.real > 0) | (b - a < 1e-15)
        total += np.sum(d[ok] * _log1p(s[ok]))
        if not ok.all():
            depth += 1
            if depth > 200:
                raise EvaluationError("arc bisection failed to converge")
            a, b, d = a[~ok], b[~ok], d[~ok]
            mid = 0.5 * (a + b)
            stack.append((a, mid, d))
            stack.append((mid, b, d))
    return total


def _chord(a, b):
    """w(b) - w(a) = 2i sin(pi (b - a)) e^{pi i (a + b)}, w(x) = e^{2 pi i x}."""
    return 2j * np.sin(np.pi * (b - a)) * np.exp(1j * np.pi * (a + b))


def _log1p(s):
    """Principal Log(1 + s): for |s| < 1/2 the modulus comes from a real
    log1p (numpy's complex log1p is log(1 + s), inexact for small s)."""
    re, im = s.real, s.imag
    mod = np.log(np.abs(1.0 + s))
    small = np.abs(s) < 0.5
    mod[small] = 0.5 * np.log1p(re[small] * (2.0 + re[small]) + im[small] ** 2)
    return mod + 1j * np.arctan2(im, 1.0 + re)


def herglotz(mu: CircleMeasure, z: complex) -> complex:
    """H(z) = int (w + z)/(w - z) dmu, w = e^{2 pi i x}, |z| < 1.

    Atoms contribute mass (w+z)/(w-z); each constant-density arc has the
    exact antiderivative dens * [Log(w-z)/(pi i) - length] per sub-arc.
    """
    z = complex(z)
    _require_interior(z)
    out = 0.0 + 0.0j
    if mu.atom_x.size:
        w = np.exp(_TWO_PI_I * mu.atom_x)
        out += np.sum(mu.atom_m * (w + z) / (w - z))
    if mu.piece_a.size:
        out += _arc_log_sum(mu.piece_a, mu.piece_b, mu.piece_d, z) / (1j * np.pi)
        out -= np.sum(mu.piece_d * (mu.piece_b - mu.piece_a))
    return complex(out)


def herglotz_derivative(mu: CircleMeasure, z: complex) -> complex:
    """H'(z) = int 2w/(w - z)^2 dmu, exact per atom and per arc."""
    z = complex(z)
    _require_interior(z)
    out = 0.0 + 0.0j
    if mu.atom_x.size:
        w = np.exp(_TWO_PI_I * mu.atom_x)
        out += np.sum(mu.atom_m * 2.0 * w / (w - z) ** 2)
    if mu.piece_a.size:
        # 1/(w_a - z) - 1/(w_b - z) = (w_b - w_a)/((w_a - z)(w_b - z))
        wa = np.exp(_TWO_PI_I * mu.piece_a)
        wb = np.exp(_TWO_PI_I * mu.piece_b)
        out += np.sum(mu.piece_d * _chord(mu.piece_a, mu.piece_b)
                      / ((wa - z) * (wb - z))) / (1j * np.pi)
    return complex(out)


def poisson(mu: CircleMeasure, z: complex) -> float:
    """Poisson integral P_mu(z) = Re H(z); P_mu(0) = mu(T)."""
    return herglotz(mu, z).real


# -- spectral ring evaluation ---------------------------------------------


def _truncation_order(r: float, mass: float, tol: float = 1e-14) -> int:
    """Smallest N with 2 mass (N + 1/(1-r)) r^N / (1-r) below tol."""
    if r <= 0.0:
        return 1
    scale = max(2.0 * abs(mass), 1.0)
    log_r = math.log(r)
    n = max(8, int(-36.0 / log_r))
    while scale * math.exp(n * log_r) * (n + 1.0 / (1 - r)) / (1 - r) > tol:
        n = int(n * 1.3) + 8
    return n


def _spectrum(mu: CircleMeasure, r: float, m: int, offset: float):
    """The (2, M) bins whose inverse FFT (norm "forward") is (H - mu(T), H')
    at the points of herglotz_jet, 0 < r < 1.

    With n = q + 1 + jM the damping r^n e^{2 pi i n offset/M} splits into a
    column factor (q) and a row factor w_j = r^{jM} e^{2 pi i j offset}, so
    the coefficients viewed as rows of length M fold by one (2, rows) @
    (rows, M) product: the value fold weights row j by w_j, the derivative
    fold by n w_j.  Only the first min(N, M) bins hold coefficients, and
    only they take the column factor; H' is summed as n c_n z^(n-1), so
    nothing divides by z, which underflows for tiny r.
    """
    n_max = _truncation_order(r, mu.total_mass)
    c = mu.coefficients(n_max)
    rows, rem = divmod(n_max, m)
    log_r = math.log(r)
    j = np.arange(rows + 1)
    w = 2.0 * np.exp(j * (m * log_r) + _TWO_PI_I * j * offset)
    weights = np.stack([w, (j * m) * w])
    folds = weights[:, :rows] @ c[:rows * m].reshape(rows, m)
    folds[:, :rem] += weights[:, rows:] * c[rows * m:]
    k = min(n_max, m)
    q = np.arange(k + 1)
    col = np.exp(q * log_r + _TWO_PI_I * q * offset / m)
    value, deriv = folds[:, :k]
    deriv += q[1:] * value
    deriv *= col[:-1]                                 # n z^(n-1): bin q
    value[:] = value * col[1:]    # not *=: numpy rounds a 1-bin *= differently
    folds[0, :k + 1] = np.roll(folds[0, :k + 1], 1)   # z^n: bin (q + 1) mod M
    return folds


def herglotz_jet(mu: CircleMeasure, r: float, m: int,
                 offset: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(H, H') at the M points z_k = r e^{2 pi i (k + offset)/M}, k = 0..M-1,
    from one inverse FFT of _spectrum; at r = 0, from the scalar integrals.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("ring radius must be in [0, 1)")
    if r == 0.0:
        return (np.full(m, herglotz(mu, 0.0), dtype=complex),
                np.full(m, herglotz_derivative(mu, 0.0), dtype=complex))
    h, h1 = np.fft.ifft(_spectrum(mu, r, m, offset), axis=1, norm="forward")
    return h + mu.total_mass, h1


def herglotz_ring(mu: CircleMeasure, r: float, m: int, offset: float = 0.0,
                  deriv: bool = False) -> np.ndarray:
    """H (or H') at the M ring points of herglotz_jet."""
    return herglotz_jet(mu, r, m, offset)[1 if deriv else 0]


def poisson_ring(mu: CircleMeasure, r: float, m: int, offset: float = 0.0) -> np.ndarray:
    return herglotz_ring(mu, r, m, offset).real


# -- function models -------------------------------------------------------


def _ring_points(r, m, offset):
    return r * np.exp(_TWO_PI_I * (np.arange(m) + offset) / m)


class FunctionModel:
    """Analytic function on the disc, evaluated as the jet (f, f') on full
    equispaced rings."""

    def jet(self, r: float, m: int, offset: float = 0.0):
        """(f, f') at the M points r e^{2 pi i (k + offset)/M}."""
        raise NotImplementedError

    def ring(self, r: float, m: int, offset: float = 0.0) -> np.ndarray:
        return self.jet(r, m, offset)[0]

    def dring(self, r: float, m: int, offset: float = 0.0) -> np.ndarray:
        return self.jet(r, m, offset)[1]


@dataclass(frozen=True)
class SingularInnerPower(FunctionModel):
    """exp(-alpha H_mu(z)): the alpha-th power of the inner function of mu.

    Non-integer powers are single valued because the exponent itself, not a
    root, is scaled.  |value| <= 1 holds for positive mu and alpha > 0.
    """

    mu: CircleMeasure
    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("power must be positive")

    def jet(self, r, m, offset=0.0):
        h, h1 = herglotz_jet(self.mu, r, m, offset)
        f = np.exp(-self.alpha * h)
        return f, -self.alpha * h1 * f

    def log_abs_dring(self, r, m, offset=0.0):
        """log |f'| on a ring without underflow in the inner factor."""
        h, h1 = herglotz_jet(self.mu, r, m, offset)
        with np.errstate(divide="ignore"):
            return math.log(self.alpha) + np.log(np.abs(h1)) - self.alpha * h.real


class Polynomial(FunctionModel):
    """Finite Maclaurin polynomial sum c_k z^k."""

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=complex)

    def jet(self, r, m, offset=0.0):
        z = _ring_points(r, m, offset)
        dc = self.coeffs[1:] * np.arange(1, self.coeffs.size)
        df = np.polynomial.polynomial.polyval(z, dc) if dc.size else np.zeros_like(z)
        return np.polynomial.polynomial.polyval(z, self.coeffs), df


@dataclass(frozen=True)
class DilationQuotient(FunctionModel):
    """S/S_t = exp(-alpha D), S = inner, S_t(z) = S(t z), 0 < t < 1, with
    D = H(z) - H(t z) and D' = H'(z) - t H'(t z) from the difference of two
    spectra and one inverse FFT: nothing divides.  Rings have 0 < r < 1."""

    inner: SingularInnerPower
    t: float

    def __post_init__(self):
        if not 0.0 < self.t < 1.0:
            raise ValueError("dilation parameter must be in (0, 1)")

    def jet(self, r, m, offset=0.0):
        if not 0.0 < r < 1.0:
            raise ValueError("ring radius must be in (0, 1)")
        mu, alpha = self.inner.mu, self.inner.alpha
        spec = _spectrum(mu, r, m, offset)
        dilated = _spectrum(mu, self.t * r, m, offset)
        dilated[1] *= self.t
        d, d1 = np.fft.ifft(spec - dilated, axis=1, norm="forward")
        f = np.exp(-alpha * d)
        return f, -alpha * d1 * f


# -- Maclaurin coefficients ------------------------------------------------


@dataclass
class CoefficientVector:
    """Maclaurin coefficients hat f(0..K) with extraction metadata."""

    coeffs: np.ndarray
    radius: float
    samples: int
    alias_bounds: np.ndarray

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, k):
        return self.coeffs[k]


def _next_pow2(n: int) -> int:
    return 1 << max(n - 1, 1).bit_length()


def maclaurin(f: FunctionModel, k_max: int, r: float | None = None,
              m: int | None = None, tolerance: float | None = None) -> CoefficientVector:
    """hat f(0..k_max) by the Cauchy integral on a radius-r circle with M
    equispaced samples (one FFT).

    Defaults: M = 4 * next power of two above k_max, and r chosen so the
    alias factor r^(M - k_max) is 1e-14.  The recorded per-coefficient
    alias bound is sup|f| r^(M-k) / (1 - r^M) with sup|f| estimated from
    the samples; if a tolerance is given and the worst bound exceeds it,
    AliasBoundError is raised.
    """
    if m is None:
        m = 4 * _next_pow2(k_max + 1)
    if k_max >= m:
        raise ValueError("need k_max < M")
    if m & (m - 1):
        raise ValueError("M must be a power of two")
    if r is None:
        r = math.exp(math.log(1e-14) / (m - k_max))
    if not 0.0 < r < 1.0:
        raise ValueError("radius must be in (0, 1)")
    samples = f.ring(r, m)
    fft = np.fft.fft(samples)
    ks = np.arange(k_max + 1)
    coeffs = fft[: k_max + 1] * np.exp(-ks * math.log(r)) / m
    sup = float(np.abs(samples).max())
    alias = sup * np.exp((m - ks) * math.log(r)) / (1.0 - r**m)
    if tolerance is not None and alias.max() > tolerance:
        raise AliasBoundError(float(alias.max()), tolerance)
    return CoefficientVector(coeffs, r, m, alias)

