"""Closed-form evaluation of singular inner functions and friends on the disc.

* The ring kernel: H(z) = int (w + z)/(w - z) dmu and H'(z) come together
  on M equispaced points of a radius-r circle, with mu split into its
  atoms and its pieces, each taken in its exact form.
  - The atoms are summed directly: an atom of mass c at x gives
    c (1 + zeta)/(1 - zeta) and 2 c e^{-2 pi i x}/(1 - zeta)^2, with
    zeta = r e^{2 pi i phi}, phi the exact offset of the ring point from
    x and 1 - zeta formed from sines, free of cancellation.  The sums run
    in blocks of at most _ATOM_BLOCK (atom, point) pairs, one point slice
    at a time: a slice's sums reach the consumer (the jet herglotz_jet
    returns, or the log |f'| of log_abs_dring) before the next slice is
    formed, and an atomic measure fills no coefficient cache.
  - The pieces give H = mu(T) + 2 sum_{n>=1} hat mu(n) z^n: their
    truncated coefficients, viewed as rows of length M, are folded by a
    rank-one damping (a row factor times a real column factor, and a
    phase for an offset ring).  The measure of the pieces alone (a
    measure without atoms is its own pieces) folds the rows
    (CircleMeasure.ring_folds): 2^N uniform leaves fold their p-periodic
    table n hat mu(n) = T[n mod p]/(2 pi i) against the reciprocals 1/n,
    formed ring by ring and contracted without BLAS, and fill no
    coefficient cache; other pieces fold their cached coefficients in one
    matrix product.  Only the min(N + 1, M) bins that hold coefficients
    are formed; one zero-padded inverse FFT finishes both.
  At r = 0 the series gives H = mu(T) and H' = 2 hat mu(1) exactly.
* The scalar reference: the Herglotz integral of an atoms-plus-pieces
  measure has an exact antiderivative per arc; the logarithm's branch is
  kept honest by bisecting any arc whose endpoint ratio leaves the right
  half plane.  The tests check the ring kernel against it.

Function models (inner powers, polynomials, and the dilation quotient
S/S_t, taken in log space with the same split of mu) are immutable and
evaluated as the jet (f, f') on rings.  The inner power and the quotient
share one exp(-alpha E) body, E = H or H(z) - H(t z): the norms read
log |f'| on the same rings from the exponent, without forming f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import CircleMeasure, _check_budget

__all__ = [
    "herglotz", "herglotz_derivative", "herglotz_jet", "herglotz_ring",
    "FunctionModel", "SingularInnerPower", "Polynomial", "DilationQuotient",
    "maclaurin",
]

_TWO_PI_I = 2j * np.pi
# (atom, point) pairs per block of the direct atom sums, which reach their
# consumer one point slice at a time (_atom_slices).  A slice spans at most
# _ATOM_BLOCK/2 points, so with one atom per block its temporaries take 32
# and 64 KiB, below glibc's 128 KiB mmap threshold: glibc returned the
# working set of 2^13-point slices and faulted it back on every slice (8
# times the minor faults of the multiplier check on the unit atom)
_ATOM_BLOCK = 1 << 13


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
                raise ValueError("arc bisection failed to converge")
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
    """The spectrum whose inverse FFT (norm "forward", zero-padded to M
    bins) is (H - mu(T), H') at the points of herglotz_jet, 0 < r < 1: a
    (2, min(N + 1, M)) array of the bins that hold coefficients.  The
    kernel calls it on the pieces of a measure only (_piece_measure).

    With n = q + 1 + jM the damping r^n e^{2 pi i n offset/M} splits into a
    column factor (q) and a row factor w_j = r^{jM} e^{2 pi i j offset}:
    the measure folds the rows (CircleMeasure.ring_folds) into the bins
    sum_j w_j hat mu(n) of the value and sum_j w_j n hat mu(n) of the
    derivative.  Only the first min(N, M) bins hold coefficients, and only
    they take the column factor, a real exponential times a phase when the
    offset is not zero; H' is summed as n c_n z^(n-1), so nothing divides
    by z, which underflows for tiny r.
    """
    n_max = _truncation_order(r, mu.total_mass)
    _check_budget(n_max)                  # before the weights are allocated
    log_r = math.log(r)
    j = np.arange(n_max // m + 1)
    folds = mu.ring_folds(
        n_max, m, 2.0 * np.exp(j * (m * log_r) + _TWO_PI_I * j * offset))
    k = min(n_max, m)
    q = np.arange(k + 1)
    col = np.exp(q * log_r)
    if offset:
        col = col * np.exp(_TWO_PI_I * q * offset / m)
    value, deriv = folds[:, :k]
    deriv *= col[:-1]                                 # n z^(n-1): bin q
    value = value * col[1:]       # not *=: numpy rounds a 1-bin *= differently
    width = folds.shape[1]                            # z^n: bin (q + 1) mod M
    folds[0, 1:] = value[:width - 1]
    folds[0, 0] = value[-1] if width == k else 0.0
    return folds


def _atom_slices(mu: CircleMeasure, m: int, offset: float, add):
    """The atoms' sums at the M ring points r e^{2 pi i (k + offset)/M},
    one point slice at a time: (slice of k, sums), sums a (2, n) complex
    array for the slice's n points.  The atoms against the slice form
    blocks of at most _ATOM_BLOCK (atom, point) pairs, and each block's
    add(sums, s, c, masses, e^{-2 pi i x}) adds its terms into sums, from
    zero, in atom order; s = sin(pi phi) and c = cos(pi phi) are (atoms,
    points) arrays, phi = (k + offset)/M - x reduced to [-1/2, 1/2].

    phi is accurate to a few ulps relatively, so a ring point close to an
    atom keeps its distance to it: (k + offset)/M is carried as hi + lo,
    hi in [-1/2, 1/2) and lo its rounding error (k + offset is split
    exactly, and M is a power of two), both turns and atoms are taken in
    [-1/2, 1/2), so hi - x is exact where they are close with one sign
    and adds magnitudes across 0, and lo joins after the reduction.  A
    slice skips lo (phi is never -0.0) when k + offset is exact at its
    last k, 0 <= offset < 1, and so at every smaller k.  c is taken as
    sin(pi (1/2 - |phi|)), whose argument is exact where c is small, so s
    and c are both accurate to an ulp relatively."""
    x = mu.atom_x - (mu.atom_x >= 0.5)
    mass, conj_w = mu.atom_m, np.exp(-_TWO_PI_I * x)
    per = max(1, min(x.size, _ATOM_BLOCK // m))      # atoms per block
    span = min(m, _ATOM_BLOCK // max(per, 2))        # points per slice
    for k in range(0, m, span):
        ks = np.arange(k, min(k + span, m), dtype=float)
        hi = ks + offset
        last = ks[-1]                 # (last + offset) - last is exact
        lo = (None if 0.0 <= offset < 1.0 and (last + offset) - last == offset
              else (offset - (hi - ks)) / m)          # k + offset - hi
        hi /= m
        if hi[-1] >= 0.5:                             # hi is nondecreasing
            hi -= hi >= 0.5
        sums = np.zeros((2, ks.size), dtype=complex)
        for i in range(0, x.size, per):
            phi = hi - x[i:i + per, None]
            phi -= np.round(phi)
            if lo is not None:
                phi += lo
            s = np.sin(np.pi * phi)
            phi = np.abs(phi, out=phi)
            c = np.sin(np.pi * (0.5 - phi))
            add(sums, s, c, mass[i:i + per], conj_w[i:i + per])
        yield slice(k, k + ks.size), sums


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
    """The atoms' (H, H') on the ring, summed directly slice by slice
    (_atom_slices).  With zeta = r e^{2 pi i phi}, 1 - zeta = a - i b,
    a = (1 - r) + 2 r s^2 and b = 2 r s c, free of cancellation near the
    atom; an atom of mass c_x gives c_x (1 + zeta)/(1 - zeta) =
    c_x ((1 - r^2) + 2 i b)/(a^2 + b^2) and 2 c_x e^{-2 pi i x}/(1 - zeta)^2
    = 2 c_x e^{-2 pi i x} v^2, v = (a + i b)/(a^2 + b^2), each to a few
    ulps at every point."""
    one_minus_r2 = (1.0 - r) * (1.0 + r)

    def add(sums, s, c, mass, conj_w):
        a = (1.0 - r) + (2.0 * r) * (s * s)
        b = (2.0 * r) * (s * c)
        q = 1.0 / (a * a + b * b)
        sums[0] += _atom_sum(mass, _cplx(one_minus_r2 * q, 2.0 * b * q))
        v = _cplx(a * q, b * q)
        sums[1] += _atom_sum(2.0 * mass * conj_w, v * v)
    return _atom_slices(mu, m, offset, add)


def _atom_dilation_jet(mu: CircleMeasure, r: float, t: float, m: int,
                       offset: float):
    """The atoms' (D, D') = (A(z) - A(t z), A'(z) - t A'(t z)), A their
    Herglotz integral, summed directly slice by slice (_atom_slices): an
    atom of mass c_x gives 2 c_x (1 - t) zeta/((1 - zeta)(1 - t zeta)) and
    2 c_x e^{-2 pi i x} (1 - t)(1 - t zeta^2)/((1 - zeta)(1 - t zeta))^2,
    which do not cancel as t -> 1.  As in _atom_jet, 1 - zeta, 1 - t zeta
    and 1 - t zeta^2 are formed from sines and positive sums."""
    tr, tr2 = t * r, t * r * r
    one_minus_tr = (1.0 - t) + t * (1.0 - r)
    one_minus_tr2 = (1.0 - t) + t * ((1.0 - r) * (1.0 + r))

    def add(sums, s, c, mass, conj_w):
        ss = s * s
        sin2 = 2.0 * (s * c)                          # of 2 pi phi
        cos2 = 1.0 - 2.0 * ss
        v = 1.0 / (_cplx((1.0 - r) + (2.0 * r) * ss, -r * sin2)
                   * _cplx(one_minus_tr + (2.0 * tr) * ss, -tr * sin2))
        w = 2.0 * (1.0 - t) * mass
        sums[0] += _atom_sum(w, _cplx(r * cos2, r * sin2) * v)
        v *= v
        v *= _cplx(one_minus_tr2 + (2.0 * tr2) * (sin2 * sin2),
                   (-2.0 * tr2) * (sin2 * cos2))
        sums[1] += _atom_sum(w * conj_w, v)
    return _atom_slices(mu, m, offset, add)


def _piece_jet(pieces: CircleMeasure, r: float, m: int, offset: float):
    """The pieces' (H, H') as a (2, M) array from one inverse FFT of their
    spectrum."""
    jet = np.fft.ifft(_spectrum(pieces, r, m, offset), n=m, axis=1,
                      norm="forward")
    jet[0] += pieces.total_mass
    return jet


def _piece_dilation_jet(pieces: CircleMeasure, r: float, t: float, m: int,
                        offset: float):
    """The pieces' (D, D'), a (2, M) array: one inverse FFT of their
    spectrum at r minus the (no wider) one at t r."""
    spec = _spectrum(pieces, r, m, offset)
    dilated = _spectrum(pieces, t * r, m, offset)
    dilated[1] *= t
    spec[:, :dilated.shape[1]] -= dilated
    return np.fft.ifft(spec, n=m, axis=1, norm="forward")


def _ring_slices(mu: CircleMeasure, atoms, pieces, *args):
    """An exponent jet of mu on a ring, slice by slice: (slice of k, (2, n)
    array).  Without atoms it is the pieces' jet pieces(mu, *args) in one
    slice; with atoms it is the slices of atoms(mu, *args), to each of
    which, after the atoms' sums, the same slice of the (2, M) jet of the
    pieces (_piece_measure) is added."""
    if not mu.atom_x.size:
        yield slice(None), pieces(mu, *args)
        return
    rest = pieces(mu._piece_measure(), *args) if mu.piece_a.size else None
    for k, sums in atoms(mu, *args):
        if rest is not None:
            sums += rest[:, k]
        yield k, sums


def _gathered(slices, m: int) -> np.ndarray:
    """The (2, M) jet of a ring's slices: the first slice itself when it
    spans the ring."""
    jet = None
    for k, part in slices:
        if part.shape[1] == m:
            return part
        if jet is None:
            jet = np.empty((2, m), dtype=complex)
        jet[:, k] = part
    return jet


def _herglotz_slices(mu: CircleMeasure, r: float, m: int, offset: float):
    """(H, H') on the ring of herglotz_jet, slice by slice (_ring_slices)."""
    if not 0.0 <= r < 1.0:
        raise ValueError("ring radius must be in [0, 1)")
    if r == 0.0:
        return [(slice(None), np.array(
            [[mu.total_mass], [2.0 * mu.coefficients(1)[0]]]).repeat(m, 1))]
    return _ring_slices(mu, _atom_jet, _piece_jet, r, m, offset)


def herglotz_jet(mu: CircleMeasure, r: float, m: int, offset: float = 0.0
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(H, H') at the M points z_k = r e^{2 pi i (k + offset)/M}, k = 0..M-1.

    mu splits into its atoms and its pieces, each taken in its exact form:
    the atoms summed directly on the ring (_atom_jet), so an atomic measure
    fills no coefficient cache, and the pieces from one inverse FFT of
    _spectrum over their own coefficients (_piece_measure).  At r = 0,
    H = mu(T) and H' = 2 hat mu(1).
    """
    return tuple(_gathered(_herglotz_slices(mu, r, m, offset), m))


def herglotz_ring(mu: CircleMeasure, r: float, m: int, offset: float = 0.0,
                  deriv: bool = False) -> np.ndarray:
    """H (or H') at the M ring points of herglotz_jet."""
    return herglotz_jet(mu, r, m, offset)[1 if deriv else 0]


# -- function models -------------------------------------------------------


class FunctionModel:
    """Analytic function on the disc, evaluated as the jet (f, f') on full
    equispaced rings; the norms read log |f'|, which a model may compute
    without forming f, into the array that a sweep passes back ring after
    ring."""

    def jet(self, r: float, m: int, offset: float = 0.0):
        """(f, f') at the M points r e^{2 pi i (k + offset)/M}."""
        raise NotImplementedError

    def ring(self, r: float, m: int, offset: float = 0.0) -> np.ndarray:
        return self.jet(r, m, offset)[0]

    def dring(self, r: float, m: int, offset: float = 0.0) -> np.ndarray:
        return self.jet(r, m, offset)[1]

    def log_abs_dring(self, r: float, m: int, offset: float = 0.0,
                      out: np.ndarray | None = None) -> np.ndarray:
        """log |f'| at the ring points of jet; -inf where f' is 0.  It is
        written into ``out`` when that holds M points, else into a new
        array, and the array written is returned.  A sweep passes each
        ring's result back to the next ring, so it allocates once per M: a
        new array per ring raised the peak RSS of every sweep measured
        (brown-shields on Kahane depth 12 from 66 to 72 MiB)."""
        if out is None or out.shape != (m,):
            out = np.empty(m)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.dring(r, m, offset), out=out), out=out)


class _ExponentialModel(FunctionModel):
    """exp(-alpha E), E's ring jet (E, E') slice by slice from
    _exponent_slices: the one body of the inner power and of the dilation
    quotient."""

    def jet(self, r, m, offset=0.0):
        e, e1 = _gathered(self._exponent_slices(r, m, offset), m)
        f = np.exp(-self.alpha * e)
        return f, -self.alpha * e1 * f

    def log_abs_dring(self, r, m, offset=0.0, out=None):
        """log |E'| + log alpha - alpha Re E, in that order, so exp(-alpha E)
        never overflows or underflows; each slice of E is reduced into the
        result (``out`` as in FunctionModel.log_abs_dring) as it is summed,
        and Re E is scaled in place."""
        if out is None or out.shape != (m,):
            out = np.empty(m)
        for k, (e, e1) in self._exponent_slices(r, m, offset):
            part = out[k]
            with np.errstate(divide="ignore"):
                np.log(np.abs(e1, out=part), out=part)
            part += math.log(self.alpha)
            part -= np.multiply(e.real, self.alpha, out=e.real)
        return out


@dataclass(frozen=True)
class SingularInnerPower(_ExponentialModel):
    """exp(-alpha H_mu(z)): the alpha-th power of the inner function of mu.

    Non-integer powers are single valued because the exponent itself, not a
    root, is scaled.  |value| <= 1 holds for positive mu and alpha > 0.
    """

    mu: CircleMeasure
    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("power must be positive")

    def _exponent_slices(self, r, m, offset):
        return _herglotz_slices(self.mu, r, m, offset)


class Polynomial(FunctionModel):
    """Finite Maclaurin polynomial sum c_k z^k."""

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=complex)

    def jet(self, r, m, offset=0.0):
        z = r * np.exp(_TWO_PI_I * (np.arange(m) + offset) / m)
        dc = self.coeffs[1:] * np.arange(1, self.coeffs.size)
        df = np.polynomial.polynomial.polyval(z, dc) if dc.size else np.zeros_like(z)
        return np.polynomial.polynomial.polyval(z, self.coeffs), df


@dataclass(frozen=True)
class DilationQuotient(_ExponentialModel):
    """S/S_t = exp(-alpha D), S = inner, S_t(z) = S(t z), 0 < t < 1, with
    D = H(z) - H(t z) and D' = H'(z) - t H'(t z): the atoms' part in closed
    form, the pieces' part from the difference of two spectra and one
    inverse FFT; no quotient is formed.  Rings have 0 < r < 1."""

    inner: SingularInnerPower
    t: float

    def __post_init__(self):
        if not 0.0 < self.t < 1.0:
            raise ValueError("dilation parameter must be in (0, 1)")

    @property
    def alpha(self):
        return self.inner.alpha

    def _exponent_slices(self, r, m, offset):
        """(D, D') on the ring slice by slice (_ring_slices)."""
        if not 0.0 < r < 1.0:
            raise ValueError("ring radius must be in (0, 1)")
        return _ring_slices(self.inner.mu, _atom_dilation_jet,
                            _piece_dilation_jet, r, self.t, m, offset)


# -- Maclaurin coefficients ------------------------------------------------


def _next_pow2(n: int) -> int:
    return 1 << max(n - 1, 1).bit_length()


def maclaurin(f: FunctionModel, k_max: int) -> np.ndarray:
    """hat f(0..k_max) by the Cauchy integral on a radius-r circle with M
    equispaced samples (one FFT): M = 4 * next power of two above k_max,
    and r chosen so the alias factor r^(M - k_max) is 1e-14.
    """
    m = 4 * _next_pow2(k_max + 1)
    r = math.exp(math.log(1e-14) / (m - k_max))
    fft = np.fft.fft(f.ring(r, m))
    ks = np.arange(k_max + 1)
    return fft[: k_max + 1] * np.exp(-ks * math.log(r)) / m
