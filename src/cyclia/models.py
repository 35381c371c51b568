"""Closed-form evaluation of singular inner functions and friends on the disc.

* The ring kernel: H(z) = int (w + z)/(w - z) dmu and H'(z) come together
  on M equispaced points of a radius-r circle, with mu split into its
  atoms and its pieces, each taken in its exact form.
  - The atoms are summed directly: an atom of mass c at x gives
    c (1 + zeta)/(1 - zeta) and 2 c e^{-2 pi i x}/(1 - zeta)^2, with
    zeta = r e^{2 pi i phi}, phi the exact offset of the ring point from
    x and 1 - zeta formed from sines, free of cancellation.  The sums run
    in blocks of at most _ATOM_BLOCK (atom, point) pairs, and an atomic
    measure fills no coefficient cache.
  - The pieces give H = mu(T) + 2 sum_{n>=1} hat mu(n) z^n: their
    truncated coefficients, read from the cache of the pieces alone (a
    measure without atoms is its own pieces), viewed as rows of length M,
    are folded by a rank-one damping (a row factor times a real column
    factor, and a phase for an offset ring) in one matrix product.  Only
    the min(N + 1, M) bins that hold coefficients are formed; one
    zero-padded inverse FFT finishes both.
  At r = 0 the series gives H = mu(T) and H' = 2 hat mu(1) exactly.
* The scalar reference: the Herglotz integral of an atoms-plus-pieces
  measure has an exact antiderivative per arc; the logarithm's branch is
  kept honest by bisecting any arc whose endpoint ratio leaves the right
  half plane.  The tests check the ring kernel against it.

Function models (inner powers, polynomials, and the dilation quotient
S/S_t, taken in log space with the same split of mu) are immutable and
evaluated as the jet (f, f') on rings.  The norms read log |f'| on the
same rings: an inner power and the dilation quotient take it from their
exponent, without forming f.
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
    "EvaluationError",
]

_TWO_PI_I = 2j * np.pi
# (atom, point) pairs per block of the direct atom sums: their real
# temporaries (64 KiB) stay below glibc's 128 KiB mmap threshold
_ATOM_BLOCK = 1 << 13


class EvaluationError(ValueError):
    """A scalar Herglotz integral's arc bisection did not converge."""


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


def _truncation_order(r: float, mass: float) -> int:
    """Least N >= 8 with 2 mass (N + 1/(1-r)) r^N / (1-r) below 1e-14,
    0 < r < 1.

    The bound falls in N, so a geometric bracket from -36/log r, then a
    bisection between the last N that failed and the first that passed,
    finds it exactly; N is nondecreasing in r."""
    scale = max(2.0 * abs(mass), 1.0)
    log_r = math.log(r)

    def fails(n):
        return scale * math.exp(n * log_r) * (n + 1.0 / (1 - r)) / (1 - r) > 1e-14

    lo, hi = 7, max(8, int(-36.0 / log_r))
    while fails(hi):
        lo, hi = hi, int(hi * 1.3) + 8
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fails(mid) else (lo, mid)
    return hi


def _spectrum(mu: CircleMeasure, r: float, m: int, offset: float):
    """The (2, M) spectrum whose inverse FFT (norm "forward") is
    (H - mu(T), H') at the points of herglotz_jet, 0 < r < 1; its first
    min(N + 1, M) bins are filled, the rest are zero.  The kernel calls it
    on the pieces of a measure only (_piece_measure).

    With n = q + 1 + jM the damping r^n e^{2 pi i n offset/M} splits into a
    column factor (q) and a row factor w_j = r^{jM} e^{2 pi i j offset}, so
    the coefficients viewed as rows of length M fold by one (2, rows) @
    (rows, M) product: the value fold weights row j by w_j, the derivative
    fold by n w_j.  Only the first min(N, M) bins hold coefficients, and
    only they take the column factor, a real exponential times a phase
    when the offset is not zero; H' is summed as n c_n z^(n-1), so nothing
    divides by z, which underflows for tiny r.
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
    col = np.exp(q * log_r)
    if offset:
        col = col * np.exp(_TWO_PI_I * q * offset / m)
    value, deriv = folds[:, :k]
    deriv += q[1:] * value
    deriv *= col[:-1]                                 # n z^(n-1): bin q
    value[:] = value * col[1:]    # not *=: numpy rounds a 1-bin *= differently
    folds[0, :k + 1] = np.roll(folds[0, :k + 1], 1)   # z^n: bin (q + 1) mod M
    return folds


def _atom_blocks(mu: CircleMeasure, m: int, offset: float):
    """The atoms against the M ring points in blocks of at most _ATOM_BLOCK
    (atom, point) pairs: (points, s, c, masses, e^{-2 pi i x}), the points
    a slice of k, s = sin(pi phi) and c = cos(pi phi) (atoms, points)
    arrays, phi = (k + offset)/M - x reduced to [-1/2, 1/2].

    phi is accurate to a few ulps relatively, so a ring point close to an
    atom keeps its distance to it: (k + offset)/M is carried as hi + lo
    (k + offset is split exactly, and M is a power of two), both turns and
    atoms are taken in [-1/2, 1/2), so hi - x is exact where they are
    close with one sign and adds magnitudes across 0, and lo joins after
    the reduction.  c is taken as sin(pi (1/2 - |phi|)), whose argument is
    exact where c is small, so s and c are both accurate to an ulp
    relatively."""
    x, mass = mu.atom_x, mu.atom_m
    x = x - (x >= 0.5)
    per = max(1, min(x.size, _ATOM_BLOCK // m))      # atoms per block
    span = min(m, max(1, _ATOM_BLOCK // per))        # points per block
    k_all = np.arange(m, dtype=float)
    hi = k_all + offset
    lo = (offset - (hi - k_all)) / m                  # k + offset - hi
    hi /= m
    hi -= hi >= 0.5
    lo = lo if lo.any() else None
    for i in range(0, x.size, per):
        xs = x[i:i + per, None]
        conj_w = np.exp(-_TWO_PI_I * xs[:, 0])
        for k in range(0, m, span):
            phi = hi[k:k + span] - xs
            phi -= np.round(phi)
            if lo is not None:
                phi += lo[k:k + span]
            s = np.sin(np.pi * phi)
            phi = np.abs(phi, out=phi)
            c = np.sin(np.pi * (0.5 - phi))
            yield slice(k, k + span), s, c, mass[i:i + per], conj_w


def _cplx(re, im):
    """re + i im without complex temporaries."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _atom_sum(w, terms):
    """w @ terms, the sum over the atoms (rows); one atom is a scaling (a
    one-row product takes BLAS's slow path)."""
    return w[0] * terms[0] if w.size == 1 else w @ terms


def _atom_jet(mu: CircleMeasure, r: float, m: int, offset: float):
    """The atoms' (H, H') on the ring, summed directly.  With zeta =
    r e^{2 pi i phi}, 1 - zeta = a - i b, a = (1 - r) + 2 r s^2 and
    b = 2 r s c, free of cancellation near the atom; an atom of mass c_x
    gives c_x (1 + zeta)/(1 - zeta) = c_x ((1 - r^2) + 2 i b)/(a^2 + b^2)
    and 2 c_x e^{-2 pi i x}/(1 - zeta)^2 = 2 c_x e^{-2 pi i x} v^2,
    v = (a + i b)/(a^2 + b^2), each to a few ulps at every point."""
    h = np.zeros(m, dtype=complex)
    h1 = np.zeros(m, dtype=complex)
    one_minus_r2 = (1.0 - r) * (1.0 + r)
    for k, s, c, mass, conj_w in _atom_blocks(mu, m, offset):
        a = (1.0 - r) + (2.0 * r) * (s * s)
        b = (2.0 * r) * (s * c)
        q = 1.0 / (a * a + b * b)
        h[k] += _atom_sum(mass, _cplx(one_minus_r2 * q, 2.0 * b * q))
        v = _cplx(a * q, b * q)
        h1[k] += _atom_sum(2.0 * mass * conj_w, v * v)
    return h, h1


def _atom_dilation_jet(mu: CircleMeasure, r: float, t: float, m: int,
                       offset: float):
    """The atoms' (D, D') = (A(z) - A(t z), A'(z) - t A'(t z)), A their
    Herglotz integral, summed directly: an atom of mass c_x gives
    2 c_x (1 - t) zeta/((1 - zeta)(1 - t zeta)) and 2 c_x e^{-2 pi i x}
    (1 - t)(1 - t zeta^2)/((1 - zeta)(1 - t zeta))^2, which do not cancel
    as t -> 1.  As in _atom_jet, 1 - zeta, 1 - t zeta and 1 - t zeta^2
    are formed from sines and positive sums."""
    d = np.zeros(m, dtype=complex)
    d1 = np.zeros(m, dtype=complex)
    tr, tr2 = t * r, t * r * r
    one_minus_tr = (1.0 - t) + t * (1.0 - r)
    one_minus_tr2 = (1.0 - t) + t * ((1.0 - r) * (1.0 + r))
    for k, s, c, mass, conj_w in _atom_blocks(mu, m, offset):
        ss = s * s
        sin2 = 2.0 * (s * c)                          # of 2 pi phi
        cos2 = 1.0 - 2.0 * ss
        v = 1.0 / (_cplx((1.0 - r) + (2.0 * r) * ss, -r * sin2)
                   * _cplx(one_minus_tr + (2.0 * tr) * ss, -tr * sin2))
        w = 2.0 * (1.0 - t) * mass
        d[k] += _atom_sum(w, _cplx(r * cos2, r * sin2) * v)
        v *= v
        v *= _cplx(one_minus_tr2 + (2.0 * tr2) * (sin2 * sin2),
                   (-2.0 * tr2) * (sin2 * cos2))
        d1[k] += _atom_sum(w * conj_w, v)
    return d, d1


def _piece_jet(pieces: CircleMeasure, r: float, m: int, offset: float):
    """The pieces' (H, H') from one inverse FFT of their spectrum."""
    h, h1 = np.fft.ifft(_spectrum(pieces, r, m, offset), axis=1, norm="forward")
    return h + pieces.total_mass, h1


def _atoms_plus_pieces(mu: CircleMeasure, atom_jet, piece_jet):
    """atom_jet() + piece_jet(pieces of mu): a measure without atoms is its
    own pieces (piece_jet(mu) alone, its own cache), one without pieces
    needs no spectrum, and a measure with both folds the cache of its
    pieces alone (CircleMeasure._piece_measure)."""
    if not mu.atom_x.size:
        return piece_jet(mu)
    h, h1 = atom_jet()
    if mu.piece_a.size:
        hp, hp1 = piece_jet(mu._piece_measure())
        h, h1 = hp + h, hp1 + h1
    return h, h1


def herglotz_jet(mu: CircleMeasure, r: float, m: int,
                 offset: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(H, H') at the M points z_k = r e^{2 pi i (k + offset)/M}, k = 0..M-1.

    mu splits into its atoms and its pieces, each taken in its exact form:
    the atoms summed directly on the ring (_atom_jet), so an atomic measure
    fills no coefficient cache, and the pieces from one inverse FFT of
    _spectrum over their coefficients (_atoms_plus_pieces).  At r = 0,
    H = mu(T) and H' = 2 hat mu(1).
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("ring radius must be in [0, 1)")
    if r == 0.0:
        return (np.full(m, mu.total_mass, dtype=complex),
                np.full(m, 2.0 * mu.coefficients(1)[0], dtype=complex))
    return _atoms_plus_pieces(mu, lambda: _atom_jet(mu, r, m, offset),
                              lambda pieces: _piece_jet(pieces, r, m, offset))


def herglotz_ring(mu: CircleMeasure, r: float, m: int, offset: float = 0.0,
                  deriv: bool = False) -> np.ndarray:
    """H (or H') at the M ring points of herglotz_jet."""
    return herglotz_jet(mu, r, m, offset)[1 if deriv else 0]


# -- function models -------------------------------------------------------


def _ring_points(r, m, offset):
    return r * np.exp(_TWO_PI_I * (np.arange(m) + offset) / m)


class FunctionModel:
    """Analytic function on the disc, evaluated as the jet (f, f') on full
    equispaced rings; the norms read log |f'|, which a model may compute
    without forming f."""

    def jet(self, r: float, m: int, offset: float = 0.0):
        """(f, f') at the M points r e^{2 pi i (k + offset)/M}."""
        raise NotImplementedError

    def ring(self, r: float, m: int, offset: float = 0.0) -> np.ndarray:
        return self.jet(r, m, offset)[0]

    def dring(self, r: float, m: int, offset: float = 0.0) -> np.ndarray:
        return self.jet(r, m, offset)[1]

    def log_abs_dring(self, r: float, m: int, offset: float = 0.0) -> np.ndarray:
        """log |f'| at the ring points of jet; -inf where f' is 0."""
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.dring(r, m, offset)))


def _log_abs_dexp(alpha, d, d1):
    """log |f'| for f = exp(-alpha d): log alpha + log |d'| - alpha Re d,
    with no overflow or underflow in exp(-alpha d); -inf where d' is 0."""
    with np.errstate(divide="ignore"):
        return math.log(alpha) + np.log(np.abs(d1)) - alpha * d.real


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
        return _log_abs_dexp(self.alpha, *herglotz_jet(self.mu, r, m, offset))


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
    D = H(z) - H(t z) and D' = H'(z) - t H'(t z): the atoms' part in closed
    form, the pieces' part from the difference of two spectra and one
    inverse FFT; no quotient is formed.  Rings have 0 < r < 1."""

    inner: SingularInnerPower
    t: float

    def __post_init__(self):
        if not 0.0 < self.t < 1.0:
            raise ValueError("dilation parameter must be in (0, 1)")

    def _exponent_jet(self, r, m, offset):
        """(D, D') on the ring: the atoms' part in closed form
        (_atom_dilation_jet), the pieces' part from one inverse FFT of the
        difference of their spectra at r and t r."""
        if not 0.0 < r < 1.0:
            raise ValueError("ring radius must be in (0, 1)")
        t, mu = self.t, self.inner.mu

        def piece_jet(pieces):
            spec = _spectrum(pieces, r, m, offset)
            dilated = _spectrum(pieces, t * r, m, offset)
            dilated[1] *= t
            spec -= dilated
            return np.fft.ifft(spec, axis=1, norm="forward")

        return _atoms_plus_pieces(
            mu, lambda: _atom_dilation_jet(mu, r, t, m, offset), piece_jet)

    def jet(self, r, m, offset=0.0):
        alpha = self.inner.alpha
        d, d1 = self._exponent_jet(r, m, offset)
        f = np.exp(-alpha * d)
        return f, -alpha * d1 * f

    def log_abs_dring(self, r, m, offset=0.0):
        return _log_abs_dexp(self.inner.alpha, *self._exponent_jet(r, m, offset))


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


def maclaurin(f: FunctionModel, k_max: int) -> CoefficientVector:
    """hat f(0..k_max) by the Cauchy integral on a radius-r circle with M
    equispaced samples (one FFT): M = 4 * next power of two above k_max,
    and r chosen so the alias factor r^(M - k_max) is 1e-14.  The recorded
    per-coefficient alias bound is sup|f| r^(M-k) / (1 - r^M), with sup|f|
    estimated from the samples.
    """
    m = 4 * _next_pow2(k_max + 1)
    r = math.exp(math.log(1e-14) / (m - k_max))
    samples = f.ring(r, m)
    fft = np.fft.fft(samples)
    ks = np.arange(k_max + 1)
    coeffs = fft[: k_max + 1] * np.exp(-ks * math.log(r)) / m
    sup = float(np.abs(samples).max())
    alias = sup * np.exp((m - ks) * math.log(r)) / (1.0 - r**m)
    return CoefficientVector(coeffs, r, m, alias)
