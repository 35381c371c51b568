import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclia import measures, models
from cyclia.measures import (CircleMeasure, SalemSpec, atomic,
                             choose_salem_parameters, kahane_smooth, lebesgue,
                             salem_measure)
from cyclia.models import (DilationQuotient, Polynomial, SingularInnerPower,
                           herglotz, herglotz_derivative, herglotz_jet,
                           herglotz_ring, maclaurin)
from cyclia.norms import QuadratureGrid, besov_seminorm
from cyclia.profiles import LogPower


ATOM = atomic([(0.0, 1.0)])
LEB = lebesgue()


class TestHerglotz:
    def test_atom_closed_form(self):
        # H(z) = (1 + z)/(1 - z) for the unit atom at x = 0
        for z in [0.0, 0.5, -0.7, 0.3 + 0.4j]:
            target = (1 + z) / (1 - z)
            assert herglotz(ATOM, z) == pytest.approx(target, abs=1e-12)

    def test_lebesgue_constant(self):
        for z in [0.0, 0.9, -0.9, 0.6j, -0.3 - 0.5j]:
            assert herglotz(LEB, z) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_lebesgue(self):
        mu = lebesgue(2.5)
        assert herglotz(mu, 0.4 + 0.2j) == pytest.approx(2.5, abs=1e-12)

    def test_poisson_atom_on_negative_axis(self):
        for r in [0.1, 0.5, 0.9, 0.99]:
            assert herglotz(ATOM, -r).real == pytest.approx(
                (1 - r) / (1 + r), abs=1e-12)

    def test_derivative_atom(self):
        # H'(z) = 2/(1 - z)^2
        for z in [0.0, 0.5j, -0.6]:
            assert herglotz_derivative(ATOM, z) == pytest.approx(
                2.0 / (1 - z) ** 2, abs=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            herglotz(ATOM, 1.0 + 0j)

    def test_short_arc_matches_mpmath(self):
        # Log of a ratio 1 + O(1e-5): the scalar sum keeps its relative
        # accuracy through log1p and the chord
        mu = CircleMeasure(pieces=[(0.0, 1e-5, 1.0)])
        r, m = 0.5, 8
        want, want1 = _mp_herglotz_jet(mu, r, m, 0.0)
        pts = _ring(r, m)
        mass = mu.total_mass
        _assert_close(np.array([herglotz(mu, z) for z in pts]), want,
                      1e-13 * mass * (1.0 + 2.0 / (1.0 - r)))
        _assert_close(np.array([herglotz_derivative(mu, z) for z in pts]), want1,
                      1e-13 * mass * 2.0 / (1.0 - r) ** 2)

    @pytest.mark.parametrize("k", range(3, 10))
    def test_near_boundary_matches_mpmath(self, k):
        # at z = r e^{2 pi i x} with r = 1 - 10^-k, x at the piece's
        # endpoint, inside it and at the atom.  The scalar path rounds the
        # phases 2 pi x, which moves w - z by about eps against |w - z| of
        # about 1 - r: so H and H' are accurate to about eps/(1 - r)
        # relatively (1.2 eps/(1 - r) at k = 9), and no better
        mu = CircleMeasure(atoms=[(0.7, 0.5)], pieces=[(0.2, 0.3, 2.0)])
        r = 1.0 - 10.0**-k
        zs = [complex(r * np.exp(2j * np.pi * x)) for x in (0.2, 0.25, 0.7)]
        # the oracle takes each point as its exact double value
        want, want1 = _mp_herglotz_at(
            mu, [mpmath.mpc(z.real, z.imag) for z in zs])
        tol = 16 * np.finfo(float).eps / (1.0 - r)
        got = np.array([herglotz(mu, z) for z in zs])
        got1 = np.array([herglotz_derivative(mu, z) for z in zs])
        assert (np.abs(got - want) / np.abs(want)).max() <= tol
        assert (np.abs(got1 - want1) / np.abs(want1)).max() <= tol

    def test_additivity_in_measure(self):
        mu2 = atomic([(0.25, 0.5), (0.75, 0.5)])
        z = 0.3 - 0.2j
        parts = (0.5 * herglotz(atomic([(0.25, 1.0)]), z)
                 + 0.5 * herglotz(atomic([(0.75, 1.0)]), z))
        assert herglotz(mu2, z) == pytest.approx(parts, abs=1e-12)


class TestRings:
    @pytest.mark.parametrize("r", [0.5, 0.99, 0.999])
    def test_ring_matches_scalar_kahane(self, r):
        from cyclia.profiles import LogPower
        mu = kahane_smooth(LogPower(1.0, 0.5), 8, seed=2)
        m = 64
        ring = herglotz_ring(mu, r, m)
        pts = r * np.exp(2j * np.pi * np.arange(m) / m)
        scal = np.array([herglotz(mu, z) for z in pts])
        assert np.abs(ring - scal).max() < 1e-10

    def test_ring_matches_scalar_salem(self):
        d, xi = choose_salem_parameters(0.8, 0.05)
        mu, _ = salem_measure(SalemSpec(alpha=0.8, epsilon=0.05, d=d, xi=xi,
                                        generations=6, seed=1))
        r, m = 0.95, 32
        ring = herglotz_ring(mu, r, m)
        pts = r * np.exp(2j * np.pi * np.arange(m) / m)
        scal = np.array([herglotz(mu, z) for z in pts])
        assert np.abs(ring - scal).max() < 1e-10

    def test_offset_ring(self):
        r, m, off = 0.8, 16, 0.5
        ring = herglotz_ring(ATOM, r, m, offset=off)
        pts = r * np.exp(2j * np.pi * (np.arange(m) + off) / m)
        target = (1 + pts) / (1 - pts)
        assert np.abs(ring - target).max() < 1e-10

    def test_derivative_ring(self):
        r, m = 0.7, 32
        dring = herglotz_ring(ATOM, r, m, deriv=True)
        pts = r * np.exp(2j * np.pi * np.arange(m) / m)
        assert np.abs(dring - 2.0 / (1 - pts) ** 2).max() < 1e-10

    def test_poisson_ring_mean_is_mass(self):
        # the mean of P over a circle is mu(T)
        from cyclia.profiles import LogPower
        mu = kahane_smooth(LogPower(1.0, 0.5), 10, seed=5)
        vals = herglotz_ring(mu, 0.99, 4096).real
        assert vals.mean() == pytest.approx(mu.total_mass, abs=1e-10)


def _ring(r, m, offset=0.0):
    return r * np.exp(2j * np.pi * (np.arange(m) + offset) / m)


def _atom_jet(mu, r, m, offset):
    """The atoms' (H, H') on the ring as a (2, M) array, gathered from
    their slices."""
    return models._gathered(models._atom_jet(mu, r, m, offset), m)


def _exponent_jet(f, r, m, offset):
    """An exponential model's (E, E') on the ring as a (2, M) array."""
    return models._gathered(f._exponent_slices(r, m, offset), m)


def _assert_close(got, want, atol=None):
    if atol is None:
        atol = 1e-10 * max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() <= atol


def _mp_herglotz_jet(mu, r, m, offset):
    """(H, H') to 40 digits at the exact ring points r e^{2 pi i (k + offset)/M}.

    The scalar float oracle is not used: the roundings of its ring points
    and of e^{2 pi i x} are amplified by |H''| ~ mu(T)/(1-r)^3 past the
    tolerance near r = 0.999.
    """
    with mpmath.workdps(40):
        return _mp_herglotz_at(mu, [
            mpmath.mpf(r) * mpmath.expjpi(2 * (k + mpmath.mpf(offset)) / m)
            for k in range(m)])


def _mp_herglotz_at(mu, points):
    """(H, H') to 40 digits at each of the given mpmath points.

    An atom of mass c at w gives c (w + z)/(w - z) and 2 c w/(w - z)^2.  An
    arc [a, b] of density d, cut in halves when longer than 1/2, gives
    d (Log(1 + s)/(pi i) - (b - a)) and d s / (pi i (w_b - z)), where
    s = (w_b - w_a)/(w_a - z) and the chord w_b - w_a = 2i sin(pi (b - a))
    e^{pi i (a + b)} keeps a short arc's relative accuracy.  Along the arc
    arg(w - z) grows (its x-derivative is 2 pi Re(w/(w - z)) > 0) by the
    angle the arc subtends at z, which lies in [0, 2 pi) for b - a <= 1/2;
    so the argument of 1 + s is its principal value taken in [0, 2 pi).
    """
    mp = mpmath
    with mp.workdps(40):
        atoms = [(mp.expjpi(2 * mp.mpf(x)), mp.mpf(c))
                 for x, c in zip(mu.atom_x, mu.atom_m)]
        arcs = []
        for a, b, d in zip(mu.piece_a, mu.piece_b, mu.piece_d):
            a, b, d = mp.mpf(a), mp.mpf(b), mp.mpf(d)
            cuts = [a, (a + b) / 2, b] if b - a > 0.5 else [a, b]
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                chord = 2j * mp.sin(mp.pi * (hi - lo)) * mp.expjpi(lo + hi)
                arcs.append((mp.expjpi(2 * lo), chord, hi - lo, d))
        pi_i = mp.mpc(0, mp.pi)
        h, h1 = [], []
        for z in points:
            val = mp.fsum(c * (w + z) / (w - z) for w, c in atoms)
            der = mp.fsum(2 * c * w / (w - z) ** 2 for w, c in atoms)
            for wa, chord, length, d in arcs:
                s = chord / (wa - z)
                log = mp.log1p(s)
                if log.imag < 0:
                    log += 2 * pi_i
                val += d * (log / pi_i - length)
                der += d * s / (pi_i * (wa + chord - z))
            h.append(complex(val))
            h1.append(complex(der))
    return np.array(h), np.array(h1)


def _assert_jet_matches_mpmath(mu, r, m, offset):
    """Rounding in the Taylor sums scales with the sum of the moduli of
    their terms, bounded through |hat mu(n)| <= mu(T) by mu(T) (1 + 2/(1-r))
    for H and 2 mu(T)/(1-r)^2 for H'; far from the support the values are
    much smaller than that."""
    h, h1 = herglotz_jet(mu, r, m, offset)
    want, want1 = _mp_herglotz_jet(mu, r, m, offset)
    mass = mu.total_mass
    _assert_close(h, want, 1e-13 * mass * (1.0 + 2.0 / (1.0 - r)))
    _assert_close(h1, want1, 1e-13 * mass * 2.0 / (1.0 - r) ** 2)


@st.composite
def _measures(draw):
    """Either the uniform dyadic leaves without atoms (the FFT coefficient
    strategy) or atoms plus disjoint pieces at random breakpoints (the
    blocked kernel)."""
    unit = st.floats(0.0, 1.0, exclude_max=True)
    mass = st.floats(0.05, 2.0)
    if draw(st.booleans()):
        p = 1 << draw(st.integers(0, 4))
        dens = draw(st.lists(mass, min_size=p, max_size=p))
        return CircleMeasure(pieces=[(i / p, (i + 1) / p, d)
                                     for i, d in enumerate(dens)])
    atoms = draw(st.lists(st.tuples(unit, mass), max_size=3))
    cuts = sorted(set(draw(st.lists(unit, min_size=2, max_size=7))))
    pieces = [(a, b, draw(mass)) for a, b in zip(cuts[:-1], cuts[1:])
              if draw(st.booleans())]
    if not atoms and not pieces:
        atoms = [(draw(unit), 1.0)]
    return CircleMeasure(atoms=atoms, pieces=pieces)


class TestJetKernel:
    @given(_measures(), st.floats(0.0, 0.999, exclude_min=True),
           st.integers(3, 10), st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=30, deadline=None)
    # a short arc, where Log(1 + s) needs log1p and the chord
    @example(CircleMeasure(pieces=[(0.0, 1e-5, 1.0)]), 0.5, 3, 0.0)
    # a ring point within 1 - r of an atom: the atom coefficients' phases
    # 2 pi n x must be reduced exactly, or H' drifts by n ulps
    @example(CircleMeasure(atoms=[(0.5, 1.0)], pieces=[(0.0, 1.0, 0.25)]),
             0.998046875, 3, 0.0)
    # a ring point just below 1 turn near an atom at 0, on an offset that
    # k + offset does not hold: the distance wraps and needs the low part
    @example(CircleMeasure(atoms=[(0.0, 1.0)]), 0.998046875, 3,
             0.9989999999999999)
    def test_matches_scalar_oracle(self, mu, r, log2_m, offset):
        _assert_jet_matches_mpmath(mu, r, 1 << log2_m, offset)

    def test_fewer_coefficients_than_points(self):
        # N < M: the fold has no full row, only the remainder
        r, m = 0.1, 1024
        assert models._truncation_order(r, ATOM.total_mass) < m
        _assert_jet_matches_mpmath(atomic([(0.2, 1.0)]), r, m, 0.0)

    def test_coefficients_fill_whole_rows(self):
        # N a multiple of M: the fold has no remainder row
        mu = CircleMeasure(atoms=[(0.4, 0.5)], pieces=[(0.1, 0.3, 2.0)])
        m = 16
        r = next(r for r in np.linspace(0.5, 0.95, 400)
                 if models._truncation_order(r, mu.total_mass) % m == 0)
        assert models._truncation_order(r, mu.total_mass) >= m
        _assert_jet_matches_mpmath(mu, r, m, 0.0)

    def test_offset_point_three(self):
        mu = kahane_smooth(LogPower(1.0, 0.5), 6, seed=4)
        _assert_jet_matches_mpmath(mu, 0.97, 64, 0.3)

    def test_radius_zero(self):
        # H(0) = mu(T) and H'(0) = 2 hat mu(1), exactly; the scalar
        # integrals agree to rounding
        mu = atomic([(0.1, 0.7), (0.6, 0.3)])
        h, h1 = herglotz_jet(mu, 0.0, 8)
        c1 = 0.7 * np.exp(-0.2j * np.pi) + 0.3 * np.exp(-1.2j * np.pi)
        assert np.all(h == 1.0)
        assert np.all(h1 == 2.0 * mu.coefficients(1)[0])
        assert abs(h1[0] - 2.0 * c1) < 1e-15
        assert abs(h[0] - herglotz(mu, 0.0)) < 1e-15
        assert abs(h1[0] - herglotz_derivative(mu, 0.0)) < 1e-15

    def test_ring_selects_from_jet(self):
        h, h1 = herglotz_jet(ATOM, 0.9, 32, 0.25)
        assert np.array_equal(herglotz_ring(ATOM, 0.9, 32, 0.25), h)
        assert np.array_equal(herglotz_ring(ATOM, 0.9, 32, 0.25, deriv=True), h1)

    @pytest.mark.parametrize("mu", [
        CircleMeasure(atoms=[(0.4, 0.5)], pieces=[(0.1, 0.3, 2.0)]),
        kahane_smooth(LogPower(1.0, 0.5), 8, seed=7),
    ], ids=["atom-piece", "kahane-leaves"])
    @pytest.mark.parametrize("r, m, fewer", [(0.3, 1024, True),
                                             (0.97, 64, False),
                                             (0.5, 1, False)],
                             ids=["N<M", "N>=M", "M=1"])
    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_bits_of_full_width_kernel(self, mu, r, m, fewer, offset):
        # the kernel works only on the bins that hold coefficients, with
        # the same bits as the fold over all M bins; its real column
        # factor stays within an ulp-sized step of the complex exponential.
        # With atoms, the jet is the pieces' jet (folded from the cache of
        # the pieces alone) plus the atoms' direct sum, bit for bit
        pieces = mu._piece_measure()
        assert (models._truncation_order(r, pieces.total_mass) < m) == fewer
        h, h1 = herglotz_jet(pieces, r, m, offset)
        if mu.atom_x.size:
            ha, ha1 = _atom_jet(mu, r, m, offset)
            got, got1 = herglotz_jet(mu, r, m, offset)
            assert np.array_equal(got, h + ha)
            assert np.array_equal(got1, h1 + ha1)
        else:
            assert pieces is mu
        want, want1 = _full_width_jet(pieces, r, m, offset)
        assert np.array_equal(h, want)
        assert np.array_equal(h1, want1)
        old, old1 = _full_width_jet(pieces, r, m, offset, complex_exp=True)
        assert np.abs(h - old).max() <= 1e-15 * np.abs(old).max()
        assert np.abs(h1 - old1).max() <= 1e-15 * np.abs(old1).max()


def _full_width_jet(mu, r, m, offset, complex_exp=False):
    """The ring kernel as it was before it skipped the zero bins: column
    factor, combine and shift over all M bins, and m * ifft.  The column
    factor is r^q times the phase e^{2 pi i q offset/M}, or with
    ``complex_exp`` one complex exponential of both.  A leaf measure's
    folds are its own (_leaf_folds, which TestLeafFolds compares with the
    cache); any other measure's are the product over its cache."""
    n_max = models._truncation_order(r, mu.total_mass)
    rows, rem = divmod(n_max, m)
    log_r = math.log(r)
    j = np.arange(rows + 1)
    w = 2.0 * np.exp(j * (m * log_r) + 2j * np.pi * j * offset)
    q = np.arange(m + 1)
    if complex_exp:
        col = np.exp(q * log_r + 2j * np.pi * q * offset / m)
    else:
        col = np.exp(q * log_r)
        if offset:
            col = col * np.exp(2j * np.pi * q * offset / m)
    if mu._leaves:
        folds = _padded(mu.ring_folds(n_max, m, w), m)
    else:
        c = mu.coefficients(n_max)
        weights = np.stack([w, (j * m) * w])
        folds = weights[:, :rows] @ c[:rows * m].reshape(rows, m)
        folds[:, :rem] += weights[:, rows:] * c[rows * m:]
        folds[1] += q[1:] * folds[0]
    folds[0] = np.roll(folds[0] * col[1:], 1)
    folds[1] *= col[:-1]
    h, h1 = m * np.fft.ifft(folds, axis=1)
    return h + mu.total_mass, h1


def _tail_fails(n, r, mass, tol=1e-14):
    """The truncation bound 2 mass (N + 1/(1-r)) r^N/(1-r) > tol, in the
    arithmetic of _truncation_order."""
    scale = max(2.0 * abs(mass), 1.0)
    return scale * math.exp(n * math.log(r)) * (n + 1.0 / (1 - r)) / (1 - r) > tol


class TestTruncationOrder:
    # dense enough to land in the narrow windows (a few hundred radii of
    # these) where a stepped search overshoots and a larger r gets fewer
    # terms
    RADII = 1.0 - np.geomspace(0.5, 2.0**-22, 50_000)

    @pytest.mark.parametrize("mass", [0.25, 1.0, 3.0])
    def test_least_order_that_meets_the_bound(self, mass):
        for r in self.RADII:
            n = models._truncation_order(float(r), mass)
            assert n >= 8 and not _tail_fails(n, r, mass)
            assert n == 8 or _tail_fails(n - 1, r, mass)

    @pytest.mark.parametrize("mass", [0.25, 1.0, 3.0])
    def test_nondecreasing_in_r(self, mass):
        # a larger ring never gets fewer terms, so the outermost ring of a
        # sweep sizes the cache
        orders = [models._truncation_order(float(r), mass) for r in self.RADII]
        assert np.all(np.diff(orders) >= 0)

    def test_pinned_at_the_outermost_derivative_sup_ring(self):
        assert models._truncation_order(1 - 10**-5.4, 1.0) == 15_558_450

    @pytest.mark.parametrize("x", [4.2, 5.4])
    def test_atom_jet_against_closed_form(self, x):
        # unit atom at 0: H = (1 + z)/(1 - z), H' = 2/(1 - z)^2, to 1e-12
        # of their sup on the ring
        r, m = 1 - 10**-x, 65536
        h, h1 = herglotz_jet(atomic([(0.0, 1.0)]), r, m)
        z = _ring(r, m)
        assert np.abs(h - (1 + z) / (1 - z)).max() <= 1e-12 * 2 / (1 - r)
        assert np.abs(h1 - 2 / (1 - z) ** 2).max() <= 1e-12 * 2 / (1 - r) ** 2


def _mp_atom_jets(atoms, r, m, offset, t):
    """(H, H', D, D') of an atomic measure to 40 digits at the exact ring
    points z: H = sum c (w + z)/(w - z), H' = sum 2 c w/(w - z)^2,
    D = H(z) - H(t z) and D' = H'(z) - t H'(t z), each taken in mpmath
    before it is rounded."""
    mp = mpmath
    with mp.workdps(40):
        ws = [(mp.expjpi(2 * mp.mpf(x)), mp.mpf(c)) for x, c in atoms]
        t = mp.mpf(t)

        def jet(z):
            return (mp.fsum(c * (w + z) / (w - z) for w, c in ws),
                    mp.fsum(2 * c * w / (w - z) ** 2 for w, c in ws))

        rows = []
        for k in range(m):
            z = mp.mpf(r) * mp.expjpi(2 * (k + mp.mpf(offset)) / m)
            (h, h1), (ht, ht1) = jet(z), jet(t * z)
            rows.append([complex(v) for v in (h, h1, h - ht, h1 - t * ht1)])
    return np.array(rows).T


class TestAtomKernel:
    # the atoms' part of the ring kernel is summed on the ring, with no
    # coefficient cache
    @pytest.mark.parametrize("atoms", [[(0.0, 1.0)], [(0.3, 0.5), (0.71, 0.25)]],
                             ids=["unit", "two"])
    @pytest.mark.parametrize("offset", [0.0, 0.5])
    @pytest.mark.parametrize("k", range(3, 7))
    def test_pointwise_against_mpmath(self, atoms, offset, k):
        # relative error at every ring point of H', D and D' (t = 0.999,
        # the largest dilation of brown-shields), and of H against the sum
        # of its terms' moduli, which the atoms' imaginary parts may cancel
        # down from.  The fold of the atoms' Taylor coefficients was off by
        # up to 4.9e-8 (unit atom) and 5.9e-7 (two atoms) on H' away from
        # the atoms
        r, m, t = 1.0 - 10.0**-k, 64, 0.999
        mu = atomic(atoms)
        h, h1 = herglotz_jet(mu, r, m, offset)
        d, d1 = _exponent_jet(DilationQuotient(SingularInnerPower(mu), t),
                              r, m, offset)
        want, want1, want_d, want_d1 = _mp_atom_jets(atoms, r, m, offset, t)
        z = _ring(r, m, offset)
        moduli = sum(c * np.abs((w + z) / (w - z))
                     for w, c in ((np.exp(2j * np.pi * x), c) for x, c in atoms))
        assert (np.abs(h - want) / moduli).max() <= 1e-14
        assert (np.abs(h1 - want1) / np.abs(want1)).max() <= 1e-14
        assert (np.abs(d - want_d) / np.abs(want_d)).max() <= 1e-13
        assert (np.abs(d1 - want_d1) / np.abs(want_d1)).max() <= 1e-13

    def test_exact_last_turn_means_no_rounding_error(self):
        # a slice skips the turns' rounding error lo = k + offset - hi when
        # k + offset is exact at its last k: then lo is zero at every k of
        # the slice, whatever its first k
        exact = 0
        for offset in [0.0, 0.5, 0.25, 2.0**-30, 0.3, 1 - 2.0**-53, 1e-300]:
            for first, last in [(0, 0), (0, 63), (32, 63), (0, 65535),
                                (2**39, 2**40 - 1), (2**50, 2**51 - 1)]:
                ks = np.unique(np.linspace(first, last, 4097).round())
                if (np.float64(last) + offset) - last == offset:
                    exact += 1
                    assert not (offset - ((ks + offset) - ks)).any()
        assert exact == 25

    def test_many_atoms_in_bounded_blocks(self):
        # 2^14 atoms of mass 2^-14 at x_j = (j + delta)/2^14 on a 2^10-point
        # ring: 2^24 (atom, point) pairs, which one (points, atoms) array
        # would hold as 256 MiB of complex temporaries.  In blocks of
        # _ATOM_BLOCK pairs the peak is a few blocks plus the two outputs,
        # and no coefficient cache is filled.  The closed form of N
        # equispaced atoms: H = (1 + U)/(1 - U), U = z^N e^{-2 pi i delta},
        # which is z^N = r^N on this ring, and H' = 2 N U/(z (1 - U)^2).
        # The float positions are off by up to 1.1e-16, which moves H by
        # up to about 2 pi |H'| 1.1e-16 = 5e-12
        n, m, r, delta = 2**14, 2**10, 0.9999, 1.0 / 3.0
        mu = atomic(np.column_stack([(np.arange(n) + delta) / n,
                                     np.full(n, 1.0 / n)]))
        tracemalloc.start()
        try:
            h, h1 = herglotz_jet(mu, r, m, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert models._ATOM_BLOCK <= measures._WORKSPACE
        assert peak < 32 * 16 * models._ATOM_BLOCK + 4 * 16 * m
        assert mu._coef.size == 0
        z = _ring(r, m, 0.5)
        u = r**n * np.exp(-2j * np.pi * delta)
        assert np.abs(h - (1 + u) / (1 - u)).max() <= 1e-11
        want1 = 2 * n * u / (z * (1 - u) ** 2)
        assert (np.abs(h1 - want1) / np.abs(want1)).max() <= 1e-10

    def test_mixed_measure_folds_the_cache_of_its_pieces(self):
        # the pieces alone are a measure built once and kept; the measure's
        # own cache, which coefficients() reads, still holds hat mu
        mu = CircleMeasure(atoms=[(0.7, 0.5)], pieces=[(0.2, 0.3, 2.0)])
        herglotz_jet(mu, 0.99, 64)
        pieces = mu._piece_measure()
        assert pieces is mu._piece_measure()
        assert pieces.atom_x.size == 0 and pieces.total_mass == pytest.approx(0.2)
        assert mu._ncoef == 0
        assert pieces._ncoef == models._truncation_order(0.99, pieces.total_mass)
        assert np.array_equal(mu.coefficients(100),
                              mu.fourier_many(range(1, 101)))


def _atomic_herglotz(atoms, z):
    """H = sum m (w + z)/(w - z) and H' = sum 2 m w/(w - z)^2 of an atomic
    measure, w = e^{2 pi i x}: the closed form, in numpy alone."""
    z = np.asarray(z, dtype=complex)
    h, h1 = np.zeros_like(z), np.zeros_like(z)
    for x, mass in atoms:
        w = np.exp(2j * np.pi * x)
        h += mass * (w + z) / (w - z)
        h1 += 2.0 * mass * w / (w - z) ** 2
    return h, h1


def _inner_power(atoms, alpha, z):
    """(S, S') of exp(-alpha H) by hand from the closed form of H."""
    h, h1 = _atomic_herglotz(atoms, z)
    s = np.exp(-alpha * h)
    return s, -alpha * h1 * s


def _quotient_oracle(atoms, z):
    n, n1 = _inner_power(atoms, 1.0, z)
    d, d1 = _inner_power(atoms, 1.0, 0.6 * z)
    d1 = 0.6 * d1
    return n / d, (n1 * d - n * d1) / d**2


class TestJetComposition:
    ATOMS = [(0.0, 0.6), (0.35, 0.4)]
    MU = atomic(ATOMS)

    @pytest.mark.parametrize("make, oracle", [
        (lambda mu: DilationQuotient(SingularInnerPower(mu), 0.6),
         _quotient_oracle),
        (lambda mu: SingularInnerPower(mu, 1.3),
         lambda atoms, z: _inner_power(atoms, 1.3, z)),
    ], ids=["quotient", "inner"])
    def test_jet_matches_pointwise(self, make, oracle):
        f = make(self.MU)
        r, m, offset = 0.85, 32, 0.5
        val, dval = f.jet(r, m, offset)
        want, want1 = oracle(self.ATOMS, _ring(r, m, offset))
        _assert_close(val, want)
        _assert_close(dval, want1)

    def _iffts_per_ring(self, mu, monkeypatch):
        calls = []
        ifft = np.fft.ifft

        def counting(*args, **kwargs):
            calls.append(args)
            return ifft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counting)
        grid = QuadratureGrid.build(u_max=4.0, panels=2, nodes_per_panel=4,
                                    m_min=16, m_max=256)
        besov_seminorm(DilationQuotient(SingularInnerPower(mu), 0.5),
                       2.0, grid)
        # one Gauss-Kronrod pass; the tail term reuses its outermost ring
        return len(calls) / (grid.panels * (2 * grid.nodes_per_panel + 1))

    def test_dilation_quotient_one_fft_per_ring(self, monkeypatch):
        # the pieces' part: one inverse FFT of the difference of spectra
        mu = CircleMeasure(atoms=self.ATOMS, pieces=[(0.5, 0.7, 1.5)])
        assert self._iffts_per_ring(mu, monkeypatch) == 1

    def test_atomic_dilation_quotient_takes_no_fft(self, monkeypatch):
        # the atoms' part is summed directly on the ring
        assert self._iffts_per_ring(self.MU, monkeypatch) == 0

    def test_dilation_quotient_validates(self):
        S = SingularInnerPower(self.MU)
        for t in (0.0, 1.0):
            with pytest.raises(ValueError, match="dilation"):
                DilationQuotient(S, t)
        with pytest.raises(ValueError, match="radius"):
            DilationQuotient(S, 0.5).jet(0.0, 8)


def _padded(spectrum, m):
    """A _spectrum's filled bins as the (2, M) array it returned before it
    kept only them: the rest zero."""
    full = np.zeros((2, m), dtype=complex)
    full[:, :spectrum.shape[1]] = spectrum
    return full


# the measures of the ring-buffer tests: atoms only, pieces only, both
BUFFER_MEASURES = {
    "atoms": lambda: atomic([(0.1, 0.6), (0.55, 0.4)]),
    "pieces": lambda: kahane_smooth(LogPower(1.0, 0.5), 8, seed=7),
    "both": lambda: CircleMeasure(atoms=[(0.4, 0.5), (0.9, 0.25)],
                                  pieces=[(0.1, 0.3, 2.0), (0.6, 0.7, 1.0)]),
}


def _forty_atoms(pieces=()):
    rng = np.random.default_rng(5)
    return CircleMeasure(atoms=np.column_stack(
        [rng.random(40), rng.uniform(0.01, 0.1, 40)]), pieces=pieces)


# (measure, M) of the streamed-ring tests: the unit atom, 3 atoms, 40
# atoms in blocks of 32 and 8 (M = 256) and one at a time (M = 2^14), and
# atoms plus pieces, with the 40 atoms' two blocks at M = 256
STREAM_MEASURES = {
    "unit": (lambda: atomic([(0.0, 1.0)]), 1 << 16),
    "three": (lambda: atomic([(0.1, 0.5), (0.4, 0.3), (0.8, 0.2)]), 1 << 14),
    "forty-256": (_forty_atoms, 256),
    "forty-2^14": (_forty_atoms, 1 << 14),
    "both": (BUFFER_MEASURES["both"], 1 << 14),
    "forty-both": (lambda: _forty_atoms([(0.1, 0.3, 2.0), (0.6, 0.7, 1.0)]),
                   256),
}


class TestRingBuffers:
    # a sweep passes each ring's log |f'| back to the next ring as out=
    @pytest.mark.parametrize("kind", list(BUFFER_MEASURES))
    @pytest.mark.parametrize("model", ["inner", "quotient", "polynomial"])
    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_reused_buffers_equal_fresh_rings(self, kind, model, offset):
        # each ring's result passed back to the next, through several rings
        # of one M, one of another M and back: a ring of the same M returns
        # the array it was passed, one of another M a new array, and each
        # ring's log |f'| is the fresh call's, bit for bit (the atoms' sums
        # start from zero, not from the last ring), so a value read from a
        # ring before the next is that ring's
        mu = BUFFER_MEASURES[kind]()
        f = {"inner": SingularInnerPower(mu, 0.7),
             "quotient": DilationQuotient(SingularInnerPower(mu, 0.3), 0.9),
             "polynomial": Polynomial([1.0, -0.5, 0.25, 2.0])}[model]
        rings = [(0.3, 256), (0.9, 256), (0.99, 256), (0.999, 64),
                 (0.5, 256), (0.95, 256)]
        read, out = [], None
        for r, m in rings:
            got = f.log_abs_dring(r, m, offset, out=out)
            assert got.shape == (m,)
            if out is not None:
                assert (got is out) == (out.size == m)
                assert out.size == m or not np.shares_memory(got, out)
            read.append((float(got.max()), got.copy()))
            out = got
        for (r, m), (top, values) in zip(rings, read):
            want = f.log_abs_dring(r, m, offset)
            np.testing.assert_array_equal(values, want)
            assert top == float(want.max())

    def test_one_set_at_a_time(self):
        # out is written only when it holds the ring's M points: an array
        # of another size or shape is left as it was, and the ring gets a
        # new M-point array with the fresh call's bits
        inner = SingularInnerPower(ATOM, 0.7)
        for f in (inner, DilationQuotient(inner, 0.9),
                  Polynomial([1.0, -0.5, 0.25, 2.0])):
            want = f.log_abs_dring(0.9, 64, 0.5)
            for other in (np.full(128, 7.0), np.full(32, 7.0),
                          np.full((2, 32), 7.0), np.full((64, 1), 7.0)):
                got = f.log_abs_dring(0.9, 64, 0.5, out=other)
                assert got.shape == (64,)
                assert not np.shares_memory(got, other)
                assert (other == 7.0).all()
                np.testing.assert_array_equal(got, want)
            mine = np.full(64, 7.0)
            assert f.log_abs_dring(0.9, 64, 0.5, out=mine) is mine
            np.testing.assert_array_equal(mine, want)

    @pytest.mark.parametrize("kind", list(STREAM_MEASURES))
    @pytest.mark.parametrize("model", ["inner", "quotient"])
    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_streamed_rings_equal_full_jet(self, kind, model, offset):
        # the atoms' sums reach log |f'| one point slice at a time, the
        # pieces' slice added after the atoms' sums: the bits of one
        # reduction over the full (2, M) jet, atoms plus pieces (several
        # atoms per block at M = 256, one per block and several slices at
        # M = 2^14 and 2^16)
        make, m = STREAM_MEASURES[kind]
        mu = make()
        inner = SingularInnerPower(mu, 0.7)
        f = inner if model == "inner" else DilationQuotient(inner, 0.9)
        atoms, pieces = ((models._atom_jet, models._piece_jet)
                         if model == "inner" else
                         (models._atom_dilation_jet,
                          models._piece_dilation_jet))
        args = (0.9,) if model == "quotient" else ()
        for r in (0.5, 0.99, 0.99999):
            want = models._gathered(atoms(mu, r, *args, m, offset), m)
            if mu.piece_a.size:
                want += pieces(mu._piece_measure(), r, *args, m, offset)
            if model == "inner":
                h, h1 = herglotz_jet(mu, r, m, offset)
                np.testing.assert_array_equal(h, want[0])
                np.testing.assert_array_equal(h1, want[1])
            e, e1 = want
            with np.errstate(divide="ignore"):
                reduced = np.log(np.abs(e1))
            reduced += math.log(f.alpha)
            reduced -= f.alpha * e.real
            np.testing.assert_array_equal(f.log_abs_dring(r, m, offset),
                                          reduced)

    def test_slices_keep_the_bits_of_one_block(self, monkeypatch):
        # one atom per block: each point's arithmetic is its own, so the
        # slices give the bits of one slice over the whole ring
        mu, m = atomic([(0.3, 1.0)]), 1 << 14
        f = DilationQuotient(SingularInnerPower(mu, 0.7), 0.9)
        sliced = [herglotz_jet(mu, 0.999, m, 0.5), f.log_abs_dring(0.999, m)]
        assert len(list(models._atom_jet(mu, 0.999, m, 0.5))) > 1
        monkeypatch.setattr(models, "_ATOM_BLOCK", 2 * m)
        assert len(list(models._atom_jet(mu, 0.999, m, 0.5))) == 1
        whole = [herglotz_jet(mu, 0.999, m, 0.5), f.log_abs_dring(0.999, m)]
        np.testing.assert_array_equal(sliced[0], whole[0])
        np.testing.assert_array_equal(sliced[1], whole[1])

    @pytest.mark.parametrize("model", ["inner", "quotient"])
    def test_fresh_atom_ring_holds_no_ring_length_jet(self, model):
        # a fresh unit-atom ring at M = 2^16 holds its 0.5 MiB result and
        # one slice's sums and temporaries; a (2, M) jet alone is 2 MiB
        inner = SingularInnerPower(ATOM)
        f = inner if model == "inner" else DilationQuotient(inner, 0.5)
        tracemalloc.start()
        try:
            f.log_abs_dring(0.999, 1 << 16, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak

    @pytest.mark.parametrize("r, t, m", [(0.3, 0.5, 1024), (0.97, 0.5, 64),
                                         (0.97, 0.99, 64), (0.5, 0.9, 1)],
                             ids=["both-N<M", "dilated-N<M", "both-N>=M",
                                  "M=1"])
    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_dilated_spectrum_keeps_its_filled_bins(self, r, t, m, offset):
        # _spectrum returns its min(N + 1, M) filled bins; the quotient
        # subtracts the dilated ones in place and zero-pads the inverse
        # FFT: the bits of the (2, M) subtraction
        mu = kahane_smooth(LogPower(1.0, 0.5), 8, seed=7)
        for radius in (r, t * r):
            n = models._truncation_order(radius, mu.total_mass)
            assert models._spectrum(mu, radius, m, offset).shape == (
                2, min(n + 1, m))
        spec = _padded(models._spectrum(mu, r, m, offset), m)
        dilated = _padded(models._spectrum(mu, t * r, m, offset), m)
        dilated[1] *= t
        want = np.fft.ifft(spec - dilated, axis=1, norm="forward")
        got = _exponent_jet(DilationQuotient(SingularInnerPower(mu), t),
                            r, m, offset)
        np.testing.assert_array_equal(got, want)


def _kahane(depth):
    return kahane_smooth(LogPower(1.0, 0.5), depth, seed=7)


def _row_factors(r, m, offset):
    """The truncation order of _spectrum and its row factors w_j."""
    n_max = models._truncation_order(r, 1.0)
    j = np.arange(n_max // m + 1)
    return n_max, 2.0 * np.exp(j * (m * math.log(r)) + 2j * np.pi * j * offset)


def _cache_folds(mu, count, m, w):
    """The dense reference of ring_folds: the product of the row factors
    with the cached hat mu(n) = T[n mod p]/(2 pi i n) viewed as rows of
    length M (the fold of every non-leaf measure)."""
    c = mu.coefficients(count)
    rows, rem = divmod(count, m)
    k = min(count, m)
    n = np.arange(1, count + 1)
    folds = np.zeros((2, min(count + 1, m)), dtype=complex)
    for row, terms in enumerate([c, n * c]):
        folds[row, :k] = w[:rows] @ terms[:rows * m].reshape(rows, m)[:, :k]
        folds[row, :rem] += w[rows] * terms[rows * m:]
    return folds


def _rel_max(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


# (measure, r, M): no full row; p | M with full rows; M < p, 1 - r =
# 2^-12 with 4 classes of rows; M not a power of two; M = 1
LEAF_RINGS = {
    "rows=0": (lambda: _kahane(8), 0.3, 1024),
    "p|M": (lambda: _kahane(8), 0.99, 256),
    "M<p": (lambda: _kahane(12), 1.0 - 2.0**-12, 1024),
    "M=1000": (lambda: _kahane(8), 0.99, 1000),
    "M=1": (lambda: _kahane(8), 0.5, 1),
}


class TestLeafFolds:
    # a leaf measure folds its table T against the reciprocals 1/n, formed
    # ring by ring, and fills no coefficient cache; its folds and jets stay
    # within 1e-13 of the cache product and of the scalar integrals
    # (relative, max-norm)
    @pytest.mark.parametrize("case", list(LEAF_RINGS))
    @pytest.mark.parametrize("offset", [0.0, 0.5, 0.3])
    def test_folds_match_the_cache_product(self, case, offset):
        # a warm fold peaks at a fixed number of bytes per bin, whatever
        # the count: its block of _FOLD_ROWS rows of 1/n and a few rows of
        # bins, plus einsum's buffers
        make, r, m = LEAF_RINGS[case]
        mu = make()
        assert mu._leaves
        count, w = _row_factors(r, m, offset)
        got = mu.ring_folds(count, m, w)
        tracemalloc.start()
        try:
            again = mu.ring_folds(count, m, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = min(count, m)
        assert peak < (16 * measures._FOLD_ROWS + 256) * k + (1 << 17), peak
        assert np.array_equal(again, got)
        assert mu._ncoef == 0
        want = _cache_folds(make(), count, m, w)
        assert got.shape == want.shape == (2, min(count + 1, m))
        assert _rel_max(got[0], want[0]) <= 1e-13
        assert _rel_max(got[1], want[1]) <= 1e-13
        assert not got[:, min(count, m):].any()

    def test_classes_of_rows(self):
        # 1 - r = 2^-12 at M = 1024 on 4096 leaves: rows j and j + 4 share
        # their table entries, and every class holds full rows
        mu = _kahane(12)
        _, r, m = LEAF_RINGS["M<p"]
        count, _ = _row_factors(r, m, 0.0)
        assert mu.piece_a.size // math.gcd(m, mu.piece_a.size) == 4
        assert count // m >= 4

    @pytest.mark.parametrize("case", ["rows=0", "p|M", "M=1000"])
    @pytest.mark.parametrize("offset", [0.0, 0.5, 0.3])
    def test_jet_matches_scalar_integrals(self, case, offset):
        make, r, m = LEAF_RINGS[case]
        self._assert_scalar(make(), r, m, offset)

    @pytest.mark.parametrize("offset", [0.0, 0.5, 0.3])
    def test_classes_match_scalar_integrals(self, offset):
        # M < p with rows in 4 classes (N = 4576 at M = 1024, p = 4096), at
        # a radius where the float integrals are accurate to 1e-14
        self._assert_scalar(_kahane(12), 0.99, 1024, offset)

    def test_deep_classes_match_mpmath(self):
        # at 1 - r = 2^-12 the float integrals lose 1e-12 to the rounding
        # of z (|H''| ~ 1/(1 - r)^2); 40 digits at the exact ring points
        make, r, m = LEAF_RINGS["M<p"]
        mu = make()
        h, h1 = herglotz_jet(mu, r, m, 0.3)
        ks = [0, 301, 555, 1000]
        with mpmath.workdps(40):
            want, want1 = _mp_herglotz_at(mu, [
                mpmath.mpf(r) * mpmath.expjpi(2 * (k + mpmath.mpf(0.3)) / m)
                for k in ks])
        assert _rel_max(h[ks], want) <= 1e-13
        assert _rel_max(h1[ks], want1) <= 1e-13

    def _assert_scalar(self, mu, r, m, offset):
        h, h1 = herglotz_jet(mu, r, m, offset)
        ks = np.arange(0, m, max(1, m // 40))
        z = _ring(r, m, offset)[ks]
        assert _rel_max(h[ks], [herglotz(mu, x) for x in z]) <= 1e-13
        assert _rel_max(h1[ks], [herglotz_derivative(mu, x) for x in z]) <= 1e-13
        assert mu._ncoef == 0

    @pytest.mark.parametrize("offset", [0.0, 0.5, 0.3])
    def test_lebesgue_folds_to_zero(self, offset):
        # T = 0: H = mu(T) and H' = 0 exactly, on every ring
        mu = lebesgue(1.7)
        for r, m in [(0.3, 64), (0.99, 64), (0.99, 1000)]:
            h, h1 = herglotz_jet(mu, r, m, offset)
            assert np.all(h == 1.7) and not h1.any()
        assert mu._ncoef == 0

    @pytest.mark.parametrize("offset", [0.0, 0.5, 0.3])
    def test_atoms_plus_leaf_pieces(self, offset):
        # the pieces alone are 64 uniform leaves: a leaf measure of their
        # own, folded without a cache, plus the atoms' direct sum
        leaves = _kahane(6)
        mu = CircleMeasure(atoms=[(0.3, 0.5), (0.71, 0.25)], pieces=np.column_stack(
            [leaves.piece_a, leaves.piece_b, leaves.piece_d]))
        pieces = mu._piece_measure()
        assert pieces is not mu and pieces._leaves and not mu._leaves
        r, m = 0.9, 256
        h, h1 = herglotz_jet(mu, r, m, offset)
        hp, hp1 = herglotz_jet(pieces, r, m, offset)
        ha, ha1 = _atom_jet(mu, r, m, offset)
        np.testing.assert_array_equal(h, hp + ha)
        np.testing.assert_array_equal(h1, hp1 + ha1)
        count, w = _row_factors(r, m, offset)
        want = _cache_folds(leaves, count, m, w)
        got = pieces.ring_folds(count, m, w)
        assert _rel_max(got[0], want[0]) <= 1e-13
        assert _rel_max(got[1], want[1]) <= 1e-13
        self._assert_scalar(mu, r, m, offset)
        assert pieces._ncoef == 0

    @pytest.mark.parametrize("u_max", [16.6, 19.0])
    def test_besov_peak_is_bounded_by_the_ring(self, u_max):
        # a Besov pass of the dilation quotient on 1024 leaves: the complex
        # cache holds at most hat mu(1), and the peak is below 600 bytes
        # per point of the largest ring, whatever the terms of the outermost
        # ring (5.2M and 28.4M), and below the 8 bytes per term a table of
        # 1/n would take: two workers, each with two spectra, an inverse FFT
        # and its block of _FOLD_ROWS rows of 1/n
        mu = _kahane(10)
        grid = QuadratureGrid.build(u_max=u_max, panels=1, nodes_per_panel=4)
        n_max = models._truncation_order(float(grid.r[-1]), mu.total_mass)
        f = DilationQuotient(SingularInnerPower(mu, 0.05), 0.5)
        tracemalloc.start()
        try:
            value, _ = besov_seminorm(f, 3.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(value)
        assert mu._ncoef <= 1
        assert n_max > 5_000_000 and grid.m.max() == 1 << 16
        assert peak < 600 * grid.m.max() < 8 * n_max, peak / grid.m.max()

    def test_budget_raises_before_allocating(self):
        # a leaf ring past the budget: the same ValueError as the cache's,
        # before the weights or the leaf table are allocated
        mu = _kahane(6)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^\d+ Fourier coefficients "
                               r"exceed the cache budget of 67108864"):
                herglotz_jet(mu, 1 - 1e-12, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert mu._leaf_table is None and mu._coef.size == 0


class TestLogAbsDring:
    # the norms read log |f'|: its exponential is |f'| from the jet to
    # 1e-13 relative wherever it is finite, and it is -inf exactly where
    # f' is 0 (no inner factor underflows on these rings)
    KAHANE = kahane_smooth(LogPower(1.0, 0.5), 8, seed=7)
    TWO_ATOMS = atomic([(0.1, 0.6), (0.55, 0.4)])

    @pytest.mark.parametrize("f", [
        SingularInnerPower(KAHANE, 0.7),
        SingularInnerPower(TWO_ATOMS),
        DilationQuotient(SingularInnerPower(KAHANE, 0.05), 0.5),
        DilationQuotient(SingularInnerPower(TWO_ATOMS), 0.9),
        SingularInnerPower(LEB),
        Polynomial([1.0, -0.5, 0.25, 2.0]),
        Polynomial([3.0]),
        Polynomial([1.0, 0.0, 0.0]),
    ], ids=["kahane", "two-atom", "kahane-quotient", "two-atom-quotient",
            "lebesgue", "polynomial", "constant", "zero-derivative"])
    @pytest.mark.parametrize("offset", [0.0, 0.5, 0.3])
    def test_exp_is_the_modulus_from_the_jet(self, f, offset):
        for r in (0.3, 0.9, 0.99):
            log_abs = f.log_abs_dring(r, 256, offset)
            want = np.abs(f.jet(r, 256, offset)[1])
            zero = want == 0.0
            assert np.array_equal(np.isneginf(log_abs), zero)
            assert np.isfinite(log_abs[~zero]).all()
            got = np.exp(log_abs[~zero])
            assert np.all(np.abs(got - want[~zero]) <= 1e-13 * want[~zero])


class TestModels:
    def test_singular_inner_at_zero(self):
        S = SingularInnerPower(ATOM, 1.0)
        assert S.ring(0.0, 1)[0] == pytest.approx(math.exp(-1), abs=1e-12)

    def test_power_is_power(self):
        S1 = SingularInnerPower(ATOM, 1.0)
        S2 = SingularInnerPower(ATOM, 0.3)
        r, m, offset = 0.4, 16, 0.3
        want = S1.ring(r, m, offset) ** 0.3
        assert np.abs(S2.ring(r, m, offset) - want).max() < 1e-12

    def test_modulus_below_one(self):
        S = SingularInnerPower(ATOM, 1.0)
        vals = S.ring(0.9, 128)
        assert np.abs(vals).max() < 1.0

    def test_dval_matches_finite_difference(self):
        # along the ray through z = r e^{i theta}: d/dr f = e^{i theta} f'(z)
        S = SingularInnerPower(ATOM, 0.7)
        r, m, offset, h = 0.36, 8, 0.3, 1e-6
        fd = (S.ring(r + h, m, offset) - S.ring(r - h, m, offset)) / (2 * h)
        ray = _ring(1.0, m, offset)
        assert ray * S.dring(r, m, offset) == pytest.approx(fd, rel=1e-8)

    def test_polynomial_jet_matches_power_sums(self):
        c = [1.0, -0.5, 0.25]
        r, m = 0.6, 16
        z = _ring(r, m)
        f = Polynomial(c)
        _assert_close(f.ring(r, m), sum(ck * z**k for k, ck in enumerate(c)))
        _assert_close(f.dring(r, m), sum(k * ck * z ** (k - 1)
                                         for k, ck in enumerate(c) if k))
        # a constant has no derivative coefficients
        assert np.array_equal(Polynomial([3.0]).dring(r, m), np.zeros(m))


class TestMaclaurin:
    def composition_oracle(self, k_max):
        # f = exp(g), g = -(1+z)/(1-z): (k+1) f_{k+1} = sum (j+1) g_{j+1} f_{k-j}
        g = np.full(k_max + 2, -2.0)
        g[0] = -1.0
        f = np.zeros(k_max + 1)
        f[0] = math.exp(-1.0)
        for k in range(k_max):
            acc = sum((j + 1) * g[j + 1] * f[k - j] for j in range(k + 1))
            f[k + 1] = acc / (k + 1)
        return f

    def test_against_composition_oracle(self):
        S = SingularInnerPower(ATOM, 1.0)
        c = maclaurin(S, 50)
        oracle = self.composition_oracle(50)
        assert np.abs(c - oracle).max() < 1e-12

    def test_spot_values(self):
        c = maclaurin(SingularInnerPower(ATOM, 1.0), 3)
        e = math.exp(-1.0)
        assert c[0] == pytest.approx(e, abs=1e-12)
        assert c[1] == pytest.approx(-2 * e, abs=1e-12)
        assert abs(c[2]) < 1e-12
        assert c[3] == pytest.approx(2 * e / 3, abs=1e-12)

    def test_polynomial_coefficients_exact(self):
        f = Polynomial([1.0, 2.0, 0.0, -3.0])
        c = maclaurin(f, 6)
        assert np.allclose(c, [1, 2, 0, -3, 0, 0, 0], atol=1e-13)

    def test_default_circle(self):
        # M = 4 * next power of two above k_max, r^(M - k_max) = 1e-14
        calls = []

        class Spy:
            def ring(self, r, m):
                calls.append((r, m))
                return np.ones(m, dtype=complex)

        c = maclaurin(Spy(), 3)
        [(r, m)] = calls
        assert m == 16
        assert r ** 13 == pytest.approx(1e-14)
        assert np.allclose(c, [1, 0, 0, 0], atol=1e-15)

    def test_log_coefficients(self):
        # log S = -H has the Maclaurin coefficients -mu(T), -2 hat mu(n)
        L = np.concatenate([[-ATOM.total_mass], -2.0 * ATOM.coefficients(4)])
        assert L[0] == pytest.approx(-1.0)
        # hat mu(n) = 1 for the unit atom at 0, so the tail entries are -2
        assert np.allclose(L[1:], -2.0)
        # consistency: exp of the log-series reproduces S coefficients
        f = np.zeros(5)
        f[0] = math.exp(L[0].real)
        for k in range(4):
            f[k + 1] = sum((j + 1) * L[j + 1].real * f[k - j]
                           for j in range(k + 1)) / (k + 1)
        target = maclaurin(SingularInnerPower(ATOM, 1.0), 4)
        assert np.abs(f - target).max() < 1e-12
