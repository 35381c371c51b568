import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclia import measures
from cyclia.diagnostics import anderson_report
from cyclia.measures import (CircleMeasure, IntervalSet, SalemSpec, atomic,
                             bc_entropy, choose_salem_parameters,
                             kahane_smooth, lebesgue, modulus_continuity,
                             modulus_smoothness, salem_measure,
                             smoothness_constant)
from cyclia.profiles import LogPower


class TestCircleMeasure:
    def test_total_mass(self):
        mu = CircleMeasure(atoms=[(0.25, 0.5)], pieces=[(0.0, 0.5, 1.0)])
        assert mu.total_mass == pytest.approx(1.0)

    def test_interval_mass_additivity(self):
        mu = CircleMeasure(atoms=[(0.5, 0.3)], pieces=[(0.2, 0.9, 2.0)])
        total = mu.interval_mass_many([0.0], [1.0])[0]
        parts = mu.interval_mass_many([0.0, 0.4], [0.4, 1.0])
        assert parts.sum() == pytest.approx(total)
        assert total == pytest.approx(mu.total_mass)

    def test_wraparound_interval(self):
        mu = lebesgue()
        m = mu.interval_mass_many([0.9], [1.1])[0]
        assert m == pytest.approx(0.2)

    def test_atom_on_left_endpoint_counted(self):
        mu = atomic([(0.5, 1.0)])
        assert mu.interval_mass_many([0.5], [0.6])[0] == 1.0
        assert mu.interval_mass_many([0.4], [0.5])[0] == 0.0
        assert mu.closed_arc_mass(0.4, 0.5) == 1.0

    def test_closed_arc_degenerate(self):
        mu = atomic([(0.25, 2.0)])
        assert mu.closed_arc_mass(0.25, 0.25) == 2.0
        assert mu.closed_arc_mass(0.3, 0.3) == 0.0

    def test_fourier_lebesgue(self):
        mu = lebesgue()
        c = mu.fourier_many(range(0, 8))
        assert c[0] == pytest.approx(1.0)
        assert np.abs(c[1:]).max() < 1e-15

    def test_fourier_atom_closed_form(self):
        x0, m0 = 0.3, 0.7
        mu = atomic([(x0, m0)])
        for n in (1, 5, 17):
            target = m0 * np.exp(-2j * np.pi * n * x0)
            assert mu.fourier_many(range(n, n + 1))[0] == pytest.approx(target)

    def test_fourier_piece_closed_form(self):
        mu = CircleMeasure(pieces=[(0.1, 0.4, 2.0)])
        n = 3
        target = 2.0 * (np.exp(-2j * np.pi * n * 0.1)
                        - np.exp(-2j * np.pi * n * 0.4)) / (2j * np.pi * n)
        assert mu.fourier_many(range(n, n + 1))[0] == pytest.approx(target)

    def test_closed_arc_ending_at_one_closes_on_zero(self):
        mu = CircleMeasure(atoms=[(0.0, 2.0), (0.5, 1.0)], pieces=[(0.2, 0.6, 1.0)])
        assert mu.closed_arc_mass(0.5, 1.0) == pytest.approx(3.1)
        a, b = np.array([0.0, 0.1, 0.5, 0.5]), np.array([0.0, 0.5, 0.5, 1.0])
        many = mu.closed_arc_mass(a, b)
        assert list(many) == [mu.closed_arc_mass(x, y) for x, y in zip(a, b)]
        assert many[:3] == pytest.approx([2.0, 1.3, 1.0])

    def test_cdf_is_periodic(self):
        mu = CircleMeasure(atoms=[(0.0, 0.5), (0.3, 0.25)], pieces=[(0.1, 0.6, 2.0)])
        assert mu.cdf(0.0) == 0.0
        assert mu.cdf(1.0) == mu.total_mass
        x = np.linspace(-2.0, 2.0, 41) + 0.0123  # off the atoms
        assert np.allclose(mu.cdf(x + 3.0), mu.cdf(x) + 3.0 * mu.total_mass,
                           rtol=0, atol=1e-13)

    def test_cdf_continuous_at_the_seam(self):
        # the period is the table's own last value: for this measure the
        # pairwise total_mass differs from the sequential sums by 2e-14
        d, xi = choose_salem_parameters(0.8, 0.05)
        mu, _ = salem_measure(SalemSpec(alpha=0.8, epsilon=0.05, d=d, xi=xi,
                                        generations=10, seed=3))
        assert mu.cdf(1.0) == mu.cdf(np.nextafter(1.0, 0.0))
        assert mu.cdf(-1e-17) == mu.cdf(0.0)

    @pytest.mark.parametrize("piece, mass", [
        ((-0.1, 0.1, 1.0), 0.2), ((1.2, 1.5, 1.0), 0.3),
        ((-0.125, 0.875, 0.25), 0.25)])
    def test_piece_outside_unit_interval_keeps_its_length(self, piece, mass):
        mu = CircleMeasure(pieces=[piece])
        assert (mu.piece_b > mu.piece_a).all()
        assert mu.total_mass == pytest.approx(mass, abs=1e-15)
        a, b, _ = piece
        assert mu.interval_mass_many([a], [b])[0] == pytest.approx(mass, abs=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_kahane_mass_is_one(self, seed):
        mu = kahane_smooth(LogPower(1.0, 0.5), 8, seed=seed)
        assert mu.total_mass == pytest.approx(1.0, abs=1e-12)


class TestConstructors:
    def test_atomic_merges_duplicates(self):
        mu = atomic([(0.2, 1.0), (0.2, 2.0)])
        assert mu.atom_x.size == 1 and mu.atom_m[0] == 3.0

    def test_atomic_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            atomic([(0.1, 0.0)])

    def test_kahane_densities_nonnegative(self):
        # a large gauge forces clipping; densities must stay >= 0
        mu = kahane_smooth(LogPower(10.0, 0.5), 10, seed=4)
        assert mu.piece_d.min() >= 0.0

    def test_kahane_deterministic_per_seed(self):
        a = kahane_smooth(LogPower(1.0, 0.5), 10, seed=9)
        b = kahane_smooth(LogPower(1.0, 0.5), 10, seed=9)
        assert np.array_equal(a.piece_d, b.piece_d)


class TestConstruction:
    """Array construction keeps the semantics of the element-by-element
    code it replaced."""

    def test_twelve_atoms_at_one_position_sum_left_to_right(self):
        # 1 + 1e-16 rounds to 1 at every step; any other order of the sum
        # (pairwise, reversed, exact) keeps the small masses
        masses = [1.0] + [1e-16] * 11
        assert math.fsum(masses) != 1.0 and float(np.sum(masses)) != 1.0
        assert sum(reversed(masses)) != 1.0
        # interleaved with a second position, each position sums in input
        # order
        mu = CircleMeasure(atoms=np.array([(x, m) for m in masses
                                           for x in (0.9, 0.4)]))
        assert mu.atom_x.tolist() == [0.4, 0.9]
        assert mu.atom_m.tolist() == [1.0, 1.0]
        mu = CircleMeasure(atoms=[(0.4, m) for m in reversed(masses)])
        assert mu.atom_m.tolist() == [sum(reversed(masses))]

    def test_wraparound_piece_splits_at_the_seam(self):
        mu = CircleMeasure(pieces=[(0.9, 1.2, 2.0), (0.3, 0.5, 1.0)])
        assert mu.piece_a.tolist() == [0.0, 0.3, 0.9]
        assert mu.piece_b.tolist() == [0.9 + (1.2 - 0.9) - 1.0, 0.5, 1.0]
        assert mu.piece_d.tolist() == [2.0, 1.0, 2.0]
        assert mu.total_mass == pytest.approx(0.8)
        neg = CircleMeasure(pieces=np.array([[-0.1, 0.2, 1.0]]))
        assert neg.piece_a.tolist() == [0.0, -0.1 % 1.0]
        assert neg.piece_b.tolist() == [-0.1 % 1.0 + 0.30000000000000004 - 1.0, 1.0]

    def test_position_just_below_zero_is_turn_zero(self):
        # -1e-20 % 1.0 rounds up to 1.0, outside [0, 1): the atom and the
        # piece start are stored at 0, so the CDF counts the atom on [0, x)
        mu = CircleMeasure(atoms=[(-1e-20, 1.0)])
        assert mu.atom_x.tolist() == [0.0]
        assert mu.cdf(0.5) == 1.0
        assert mu.cdf(0.0) == 0.0
        assert mu.interval_mass_many([0.9], [1.1]).tolist() == [1.0]
        both = CircleMeasure(atoms=[(0.0, 0.5), (-2.0**-60, 0.25)])
        assert both.atom_x.tolist() == [0.0]
        assert both.atom_m.tolist() == [0.75]
        piece = CircleMeasure(pieces=[(-1e-20, 0.5, 2.0)])
        assert piece.piece_a.tolist() == [0.0]
        assert piece.piece_b.tolist() == [0.5]
        assert piece.cdf(0.5) == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"atoms": [0.5, 1.0]}, {"pieces": [0.0, 0.5, 1.0]},
        {"pieces": np.zeros((2, 4))}, {"atoms": np.zeros((2, 3))}])
    def test_wrong_shape_raises(self, kwargs):
        with pytest.raises(ValueError, match="got shape"):
            CircleMeasure(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"atoms": [(math.nan, 1.0)]}, {"atoms": [(0.5, math.inf)]},
        {"pieces": [(0.0, math.inf, 1.0)]}, {"pieces": [(0.0, 0.5, math.nan)]}])
    def test_non_finite_value_raises(self, kwargs):
        with pytest.raises(ValueError, match="non-finite"):
            CircleMeasure(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"atoms": [(0.0, 1e308), (0.5, 1e308)]},
        {"atoms": [(0.5, 1e308)], "pieces": [(0.0, 1.0, 1e308)]}])
    def test_overflowing_total_mass_raises(self, kwargs):
        # every mass is finite, their sum is not: no CDF, no moduli (pieces
        # alone cannot overflow, as their densities are finite on [0, 1))
        with pytest.raises(ValueError, match="total mass inf is not finite"):
            CircleMeasure(**kwargs)

    def test_salem_support_matches_a_tuple_built_reference(self):
        spec = SalemSpec(alpha=0.8, epsilon=0.05, d=2, xi=2 ** -1.25,
                         generations=8, seed=3)
        mu, E = salem_measure(spec)
        # the construction written with tuples, one gap at a time
        d, nu, xis = spec.d, spec.nu, spec.xi_sequence()
        starts, length, gaps, gens = np.array([0.0]), 1.0, [], []
        for j in range(1, spec.generations + 1):
            child_len = xis[j - 1] * length
            offsets = np.arange(d) * (nu * length)
            for k in range(d):
                hi = starts + offsets[k + 1] if k < d - 1 else starts + length
                gaps.extend(zip(starts + offsets[k] + child_len, hi))
                gens.extend([j] * len(starts))
            starts = (starts[:, None] + offsets[None, :]).ravel()
            length = child_len
        order = np.argsort([g[0] for g in gaps])
        arcs = [(float(a), float(a + length)) for a in np.sort(starts)]
        assert E.arcs.tolist() == [list(a) for a in arcs]
        assert E.gaps.tolist() == [[float(a), float(b)] for a, b in
                                   (gaps[i] for i in order)]
        assert E.gap_generation.tolist() == [gens[i] for i in order]
        assert mu.piece_a.tolist() == [a for a, _ in arcs]
        assert mu.piece_b.tolist() == [b for _, b in arcs]
        # the entropy of the reference, summed as before
        lengths = np.array([b - a for a, b in (gaps[i] for i in order)])
        terms = lengths * np.log(1.0 / lengths)
        g = np.array([gens[i] for i in order])
        rep = bc_entropy(E)
        assert rep.total == float(terms.sum())
        assert rep.generation_subtotals == [
            (j, float(terms[g == j].sum())) for j in range(1, 9)]

    def test_interval_set_holds_arrays(self):
        E = IntervalSet.from_arcs([(0.5, 0.6), (0.1, 0.2), (0.1, 0.1)])
        assert E.arcs.tolist() == [[0.1, 0.1], [0.1, 0.2], [0.5, 0.6]]
        assert E.gaps.tolist() == [[0.2, 0.5], [0.6, 1.1]]
        assert E.gap_generation.tolist() == [0, 0]
        assert IntervalSet.from_arcs([]).gaps.tolist() == [[0.0, 1.0]]
        with pytest.raises(ValueError, match="arcs overlap"):
            IntervalSet.from_arcs([(0.1, 0.3), (0.2, 0.4)])


class TestSalem:
    def spec(self, J=8, seed=3):
        d, xi = choose_salem_parameters(0.8, 0.05)
        return SalemSpec(alpha=0.8, epsilon=0.05, d=d, xi=xi,
                         generations=J, seed=seed)

    def test_leaf_count_and_mass(self):
        spec = self.spec()
        mu, E = salem_measure(spec)
        assert len(E.arcs) == spec.d ** spec.generations
        assert mu.total_mass == pytest.approx(1.0, abs=1e-10)

    def test_support_carries_full_mass(self):
        mu, E = salem_measure(self.spec())
        mass = mu.closed_arc_mass(*np.array(E.arcs).T).sum()
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_spacing_and_ratios(self):
        spec = self.spec(J=3)
        xis = spec.xi_sequence()
        assert np.all(xis <= spec.xi + 1e-15)
        assert np.all(xis >= (1 - 1 / (np.arange(2, 5) ** 2)) * spec.xi)
        mu, E = salem_measure(spec)
        # consecutive left endpoints of sibling arcs sit nu*|parent| apart
        lefts = np.array([a for a, _ in E.arcs])
        gaps01 = np.diff(lefts)[::spec.d]
        parent_len = xis[0] * xis[1]
        assert np.allclose(gaps01, spec.nu * parent_len)

    def test_leaf_count_is_bounded(self):
        # d^J leaves (and as many gaps) are refused before any is built
        for d, xi, J in ((2, 0.3, 64), (2, 0.3, 23), (3, 0.2, 14)):
            with pytest.raises(ValueError, match="leaves exceed 2\\^22"):
                SalemSpec(alpha=0.5, epsilon=0.05, d=d, xi=xi, generations=J)
        SalemSpec(alpha=0.5, epsilon=0.05, d=3, xi=0.2, generations=13)

    def test_ratio_above_reciprocal_branching_rejected(self):
        with pytest.raises(ValueError):
            SalemSpec(alpha=0.5, epsilon=0.05, d=4, xi=0.26, generations=2)

    def test_choose_parameters_dimension(self):
        d, xi = choose_salem_parameters(0.8, 0.05)
        assert math.log(d) / math.log(1 / xi) == pytest.approx(0.8)


class TestUnique:
    @pytest.mark.parametrize("x", [
        [0.25, -0.0, 0.5, 0.0, 0.25, 1.0, -0.0, 0.5],
        [-0.0, 0.0],
        [0.0, -0.0, 3.0],
        [],
        np.array([[0.5, 0.5], [-1.0, 2.0]]),
        np.array([3, 1, 3, -2, 1], dtype=np.int64),
        np.array([7, 7], dtype=np.int32),
    ], ids=["repeats", "-0,0", "0,-0", "empty", "2-d", "int64", "int32"])
    def test_matches_np_unique(self, x):
        # the same values, signs of zero and dtype as np.unique
        want = np.unique(np.asarray(x))
        got = measures._unique(np.asarray(x))
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        if got.dtype.kind == "f":
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestModuli:
    def test_lebesgue_moduli(self):
        mu = lebesgue()
        assert modulus_continuity(mu, [0.1]) == pytest.approx([0.1])
        assert modulus_smoothness(mu, [0.1]) == pytest.approx([0.0], abs=1e-14)

    def test_atom_moduli(self):
        mu = atomic([(0.3, 1.0)])
        assert modulus_continuity(mu, [0.01]) == pytest.approx([1.0])
        # adjacent windows: one holds the atom, the other nothing
        assert modulus_smoothness(mu, [0.01]) == pytest.approx([1.0])

    @pytest.mark.parametrize("pieces", [[], [(0.1, 0.2, 2.0)]],
                             ids=["atom", "atom-and-piece"])
    def test_atom_floor_below_float_resolution(self, pieces):
        # at t = 1e-17 and 1e-320 the window [0.5, 0.5 + t) rounds to empty
        # and the scan's nudge (1e-14) is wider than t: the scan reads 0
        # (or a density times t), but both moduli are at least the atom
        mu = CircleMeasure(atoms=[(0.5, 1.0)], pieces=pieces)
        ts = [1e-320, 1e-17, 1e-13]
        assert modulus_continuity(mu, ts).tolist() == [1.0, 1.0, 1.0]
        assert modulus_smoothness(mu, ts).tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("kind", ["salem", "atoms-plus-pieces"])
    def test_delta_at_one_is_total_mass(self, kind, monkeypatch):
        # a window of length 1 scanned through the CDF rounds above mu(T)
        # on these measures: by 3.8e-14 on the Salem one, 1 ulp on the other
        if kind == "salem":
            d, xi = choose_salem_parameters(0.8, 0.05)
            mu, _ = salem_measure(SalemSpec(alpha=0.8, epsilon=0.05, d=d,
                                            xi=xi, generations=11, seed=3))
        else:
            mu = CircleMeasure(atoms=[(0.1, 1.1), (0.25, 0.9)],
                               pieces=[(0.45, 0.8, 1.3)])
        _, first = _counting_scan(monkeypatch)
        assert modulus_continuity(mu, [0.5, 1.0])[1] == mu.total_mass
        assert first == [((1.0, -1.0), 0.5)]

    def test_single_piece_modulus(self):
        mu = CircleMeasure(pieces=[(0.0, 0.5, 2.0)])
        # window fully inside the dense half vs fully outside
        assert modulus_smoothness(mu, [0.1]) == pytest.approx([0.2])

    def test_smoothness_constant_scales(self):
        phi = LogPower(1.0, 0.5)
        mu = kahane_smooth(phi, 10, seed=7)
        c1 = smoothness_constant(mu, phi, [2.0**-5])
        c2 = smoothness_constant(mu, LogPower(2.0, 0.5), [2.0**-5])
        assert c1 == pytest.approx(2 * c2)

    def test_smoothness_constant_of_zero_gauge(self):
        # phi(2^-12) underflows to 0: omega/0 reads inf, and 0/0 NaN,
        # with no warning
        phi = LogPower(1.0, 400.0)
        assert smoothness_constant(atomic([(0.0, 1.0)]), phi,
                                   [2.0**-12]) == math.inf
        assert math.isnan(smoothness_constant(lebesgue(), phi, [2.0**-12]))

    def test_anderson_lebesgue_passes(self):
        rep = anderson_report(lebesgue(), [2.0**-k for k in range(2, 10)])
        assert rep.passed
        assert max(rep.fits.values()) <= 1.0 and rep.worst_ratio <= 1.0

    def test_anderson_atom_fails_delta(self):
        rep = anderson_report(atomic([(0.0, 1.0)]), [2.0**-8])
        assert rep.fits["worst_delta_margin"] > 1.0
        assert not rep.passed


class TestEntropyAndSets:
    def test_from_arcs_gaps_complement(self):
        E = IntervalSet.from_arcs([(0.1, 0.2), (0.5, 0.6)])
        gap_len = sum(b - a for a, b in E.gaps)
        assert gap_len == pytest.approx(0.8)

    def test_point_set_entropy_zero(self):
        E = IntervalSet.from_arcs([(0.0, 0.0)])
        rep = bc_entropy(E)
        assert rep.total == pytest.approx(0.0)
        assert rep.convergent

    def test_salem_entropy_converges(self):
        d, xi = choose_salem_parameters(0.8, 0.05)
        _, E = salem_measure(SalemSpec(alpha=0.8, epsilon=0.05, d=d, xi=xi,
                                       generations=12, seed=3))
        rep = bc_entropy(E)
        assert rep.verdict == "convergent"
        subs = [s for _, s in rep.generation_subtotals]
        # geometric decay of the per-generation subtotals over the tail
        assert subs[-1] < 0.5 * max(subs)


# -- oracles for the CDF table and the Fourier kernel ------------------------

GRID = st.integers(0, 255).map(lambda k: k / 256)
UNIT = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def _measures(draw, atoms=True, min_cuts=2, max_cuts=12):
    """Pieces between sorted cuts (optionally one across the seam) and
    atoms on the grid k/256, where interval endpoints can hit them exactly."""
    cuts = sorted(set(draw(st.lists(st.one_of(GRID, UNIT), min_size=min_cuts,
                                    max_size=max_cuts))))
    dens = st.floats(0.0, 3.0)
    pieces = [(a, b, draw(dens)) for a, b in zip(cuts[:-1], cuts[1:])
              if draw(st.booleans())]
    if draw(st.booleans()):
        pieces.append((cuts[-1], cuts[0] + 1.0, draw(dens)))
    pts = draw(st.lists(st.tuples(GRID, st.floats(0.05, 2.0)), max_size=4)) \
        if atoms else []
    return CircleMeasure(atoms=pts, pieces=pieces)


def _direct_mass(mu, lo, hi, rows=4096):
    """mu([lo, hi)) for 0 <= lo < 1, lo <= hi <= lo + 1, by intersecting the
    interval with every piece and its translate by 1 and testing each atom
    and its translate (compared as x < hi - 1, which is exact).  Intervals
    are taken ``rows`` at a time, so at most rows x pieces overlaps are held."""
    lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
    out = np.empty(lo.size)
    for s in range(0, lo.size, rows):
        a, b = lo[s:s + rows, None], hi[s:s + rows, None]
        total = 0.0
        for k in (0.0, 1.0):
            overlap = np.minimum(b, mu.piece_b + k) - np.maximum(a, mu.piece_a + k)
            total = total + np.clip(overlap, 0.0, None) @ mu.piece_d
        inside = ((mu.atom_x >= a) & (mu.atom_x < b)) | (mu.atom_x < b - 1.0)
        out[s:s + rows] = total + inside @ mu.atom_m
    return out


class TestIntervalMassOracle:
    @given(_measures(), st.lists(st.tuples(
        st.one_of(st.builds(lambda x, k: x + k, GRID, st.integers(-1, 1)),
                  st.floats(-2.0, 2.0)),
        st.one_of(st.integers(0, 256).map(lambda k: k / 256),
                  st.floats(0.0, 1.0))), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_intersection(self, mu, intervals):
        a = np.array([x for x, _ in intervals])
        b = a + np.array([w for _, w in intervals])
        got = mu.interval_mass_many(a, b)
        length = b - a
        lo = a % 1.0
        want = np.where(length >= 1.0, mu.total_mass,
                        _direct_mass(mu, lo, lo + np.minimum(length, 1.0)))
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, mu.total_mass)

    def test_atoms_on_both_endpoints(self):
        mu = CircleMeasure(atoms=[(0.25, 1.0), (0.75, 2.0)], pieces=[(0.5, 1.0, 1.0)])
        # [0.75, 1.25) holds the atom at 0.75 but not the one at 0.25
        got = mu.interval_mass_many([0.75, -0.75, 0.25], [1.25, 0.25, 0.75])
        assert got == pytest.approx([2.25, 3.5, 1.25])


def _omega_vertex_oracle(mu, t):
    """max |F(x + h) - 2 F(x) + F(x - h)| over 0 < h <= t, for a measure
    without atoms.  The second difference is piecewise linear in (x, h),
    with kinks on the lines x = b_i, x + h = b_j, x - h = b_k (mod 1) and
    h = t, so the supremum is attained at one of their crossings:
    x = b_i with h = (b_j - b_i) mod 1 or (b_i - b_j) mod 1,
    x = b_k + h with h = ((b_j - b_k) mod 1)/2, and h = t with x in
    b, b - t, b + t.  Masses come from _direct_mass, not from the CDF."""
    b = np.unique(np.concatenate([mu.piece_a, mu.piece_b % 1.0, [0.0]]))
    diffs = ((b[None, :] - b[:, None]) % 1.0).ravel()
    xi = np.repeat(b, b.size)
    xs = np.concatenate([xi, xi, xi + diffs / 2, b, b - t, b + t])
    hs = np.concatenate([diffs, (-diffs) % 1.0, diffs / 2, np.full(3 * b.size, t)])
    keep = (hs > 0) & (hs <= t)
    xs, hs = xs[keep] % 1.0, hs[keep]
    right = _direct_mass(mu, xs, xs + hs)
    left_lo = (xs - hs) % 1.0
    left = _direct_mass(mu, left_lo, left_lo + hs)
    return float(np.abs(right - left).max())


class TestContinuityOracle:
    @given(_measures(), st.one_of(GRID.filter(bool),
                                  st.floats(0.0, 1.0, exclude_min=True,
                                            exclude_max=True)))
    @example(CircleMeasure(atoms=[(0.5, 1.0)]), 1e-17)
    @settings(max_examples=60, deadline=None)
    def test_matches_window_vertices(self, mu, t):
        # mu([x, x + t)) is piecewise linear in x, with vertices where an
        # end meets a breakpoint; an atom at the right end is inside just
        # after x = b - t, read 1e-14 after it: beyond rounding, and the
        # pieces' mass it loses, a density times 1e-14, is far below the
        # tolerance.  Masses come from _direct_mass, not from the CDF.  A
        # window of length t > 0 reaches at least the float after x, where
        # x + t rounds to x (t below the float spacing at x).
        b = np.unique(np.concatenate([mu.atom_x, mu.piece_a, mu.piece_b % 1.0,
                                      [0.0]]))
        xs = np.concatenate([b, b - t, b - t + 1e-14]) % 1.0
        want = _direct_mass(mu, xs, np.maximum(xs + t, np.nextafter(xs, 2.0))).max()
        (got,) = modulus_continuity(mu, [t])
        assert abs(got - want) <= 1e-12 * max(1.0, mu.total_mass)


# pieces between 0, 63 irregular cuts and 1: 64 breakpoints, the most for
# which the candidate half-widths include every pairwise span and its half
_CUTS64 = np.concatenate([[0.0], np.sort(np.random.default_rng(10).random(63)), [1.0]])
_MU64 = CircleMeasure(pieces=[
    (a, b, 1.0 + (k % 3)) for k, (a, b) in enumerate(zip(_CUTS64[:-1], _CUTS64[1:]))])


class TestSmoothnessOracle:
    @given(st.one_of(_measures(atoms=False, max_cuts=63),
                     _measures(atoms=False, min_cuts=48, max_cuts=63)),
           st.floats(1e-3, 0.5))
    @example(_MU64, 0.5)
    @example(_MU64, 0.1)
    @settings(max_examples=40, deadline=None)
    def test_matches_vertex_enumeration(self, mu, t):
        # at most 63 cuts plus the point 0: at most 64 breakpoints
        assert mu.breakpoints.size <= 64
        want = _omega_vertex_oracle(mu, t)
        assert modulus_smoothness(mu, [t]) == pytest.approx(
            [want], abs=1e-12 * max(1.0, mu.total_mass))

    @pytest.mark.parametrize("kind", ["kahane", "salem"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_vertex_enumeration_beyond_64_breakpoints(self, kind, seed):
        # 256 breakpoints: the half-widths no longer include every pairwise
        # span, so only the vertex enumeration says the candidate set
        # suffices.  On the Kahane leaves h = t alone attains omega at these
        # t; on the Salem geometry it does not.
        if kind == "kahane":
            mu = kahane_smooth(LogPower(1.0, 0.5), 8, seed=seed)
        else:
            d, xi = choose_salem_parameters(0.8, 0.05)
            mu, _ = salem_measure(SalemSpec(alpha=0.8, epsilon=0.05, d=d,
                                            xi=xi, generations=7, seed=seed))
        assert mu.breakpoints.size == 256
        ts = [2.0**-2, 2.0**-4, 2.0**-6, 2.0**-8]
        got = modulus_smoothness(mu, ts)
        want = [_omega_vertex_oracle(mu, t) for t in ts]
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.xfail(strict=True, reason="the half-width candidates miss "
                       "the supremum at a non-dyadic t above 64 breakpoints")
    def test_matches_vertex_enumeration_at_non_dyadic_t(self):
        # modulus_smoothness gives 0.3637286 here, the vertex enumeration
        # 0.3708708
        mu = kahane_smooth(LogPower(1.0, 0.5), 8, seed=0)
        (got,) = modulus_smoothness(mu, [0.3])
        assert abs(got - _omega_vertex_oracle(mu, 0.3)) <= 1e-12


@st.composite
def _grids(draw):
    """Unsorted grids in (0, 1] with a repeated t and t = 1."""
    ts = draw(st.lists(st.one_of(st.floats(1e-3, 1.0), GRID.filter(bool)),
                       min_size=1, max_size=6))
    return draw(st.permutations(ts + [ts[0], 1.0]))


def _counting_scan(monkeypatch):
    """Record every h at which modulus_smoothness evaluates g(h) (the
    three-weight scans), and the weights and h of every other scan."""
    seen, first, scan = [], [], measures._difference_sup

    def counting(mu, b, h, weights):
        if len(weights) == 3:
            seen.append(float(h))
        else:
            first.append((tuple(weights), float(h)))
        return scan(mu, b, h, weights)

    monkeypatch.setattr(measures, "_difference_sup", counting)
    return seen, first


def _distinct_h(mu, ts):
    cands = measures._smoothness_h_candidates(mu.breakpoints, np.asarray(ts))
    return np.unique(np.concatenate(cands)).tolist(), sum(c.size for c in cands)


class TestSmoothnessGrid:
    @given(_measures(), _grids())
    # g(0.001) = 8.7e-19 here, and 0.0 at every candidate of t = 1: the max
    # runs over each t's own candidates, not over every h of the grid
    @example(lebesgue(), [0.001, 0.001, 1.0])
    @settings(max_examples=40, deadline=None)
    def test_grid_matches_single_calls(self, mu, ts):
        for modulus in (modulus_smoothness, modulus_continuity):
            got = modulus(mu, ts)
            assert isinstance(got, np.ndarray) and got.shape == (len(ts),)
            for t, value in zip(ts, got):
                assert value == modulus(mu, [t])[0]

    def test_scalar_t_raises(self):
        for modulus in (modulus_smoothness, modulus_continuity):
            with pytest.raises(ValueError, match="1-D grid"):
                modulus(lebesgue(), 0.5)

    @pytest.mark.parametrize("ts", [[0.5, 0.0], [0.25, 1.5, 0.5], [-0.1],
                                    [1.0, math.nan], [math.inf]])
    def test_any_t_outside_unit_interval_raises(self, ts):
        mu = CircleMeasure(atoms=[(0.3, 1.0)], pieces=[(0.0, 0.5, 2.0)])
        for modulus in (modulus_smoothness, modulus_continuity):
            with pytest.raises(ValueError, match="t must be in"):
                modulus(mu, ts)

    def test_anderson_scans_each_h_once(self, monkeypatch):
        mu = kahane_smooth(LogPower(1.0, 0.5), 8, seed=7)
        ts = [2.0**-k for k in range(2, 13)]
        seen, first = _counting_scan(monkeypatch)
        anderson_report(mu, ts)
        distinct, per_t = _distinct_h(mu, ts)
        assert seen == distinct
        assert len(seen) < per_t  # the grid's candidate sets overlap
        # delta scans each t < 1 once, by first differences
        assert first == [((1.0, -1.0), t) for t in ts]

    def test_anderson_calls_each_modulus_once(self, monkeypatch):
        from cyclia import diagnostics
        calls = []
        for name in ("modulus_continuity", "modulus_smoothness"):
            def counting(mu, t, fn=getattr(diagnostics, name), name=name):
                calls.append(name)
                return fn(mu, t)
            monkeypatch.setattr(diagnostics, name, counting)
        anderson_report(atomic([(0.3, 1.0)]), [2.0**-k for k in range(2, 13)])
        assert sorted(calls) == ["modulus_continuity", "modulus_smoothness"]

    def test_smoothness_constant_scans_each_h_once(self, monkeypatch):
        mu = CircleMeasure(atoms=[(0.25, 0.5)], pieces=[(0.1, 0.7, 1.0)])
        ts = [2.0**-k for k in range(3, 13)]
        seen, _ = _counting_scan(monkeypatch)
        smoothness_constant(mu, LogPower(1.0, 0.5), ts)
        distinct, per_t = _distinct_h(mu, ts)
        assert seen == distinct
        assert len(seen) < per_t


def _translate_scan(mu, b, h, weights):
    """The difference scan over the d translate sets b - (1 - k) h (modulo
    1, and nudged by +/- 1e-12 where mu has atoms), reading F once per
    weight and point: d^2 |b| reads, or 3 d^2 |b| with atoms, against the
    (2d - 1) |b| reads per nudge of _difference_sup."""
    xs = np.concatenate([(b - (1 - k) * h) % 1.0 for k in range(len(weights))])
    if mu.atom_x.size:
        xs = np.concatenate([xs, (xs + 1e-12) % 1.0, (xs - 1e-12) % 1.0])
    total = sum(w * mu.cdf(xs + (1 - k) * h) for k, w in enumerate(weights))
    return float(np.abs(total).max())


_WEIGHTS = [(1.0, -1.0), (1.0, -2.0, 1.0)]
# random and dyadic half-widths below 1: the moduli scan no h = 1, as
# delta(1) = mu(T) and g(1) = 0
_HALF_WIDTHS = st.one_of(st.floats(1e-6, 1.0, exclude_max=True),
                         st.integers(1, 24).map(lambda k: 2.0**-k))
_T_GRID = [2.0**-k for k in range(2, 13)]


class TestDifferenceScan:
    @given(_measures(atoms=False), _HALF_WIDTHS)
    @settings(max_examples=60, deadline=None)
    def test_matches_translate_scan_without_atoms(self, mu, h):
        b = mu.breakpoints
        for weights in _WEIGHTS:
            got = measures._difference_sup(mu, b, h, weights)
            want = _translate_scan(mu, b, h, weights)
            assert abs(got - want) <= 1e-15 * max(1.0, mu.total_mass)

    @given(_measures().filter(lambda mu: mu.atom_x.size), _HALF_WIDTHS)
    @settings(max_examples=60, deadline=None)
    def test_matches_translate_scan_beside_atoms(self, mu, h):
        # one scan can read a vertex exactly where the other, its points
        # rounded onto an atom's translate, reads it 1e-12 away: at most
        # 1e-12 times the sum's slope, sum |w_k| times the largest density
        # (half of it, and 2.9e-12 * max(1, mu(T)), over 8000 drawn pairs)
        b = mu.breakpoints
        for weights in _WEIGHTS:
            got = measures._difference_sup(mu, b, h, weights)
            want = _translate_scan(mu, b, h, weights)
            slope = sum(map(abs, weights)) * mu.piece_d.max(initial=0.0)
            assert abs(got - want) <= (1e-12 * slope
                                       + 1e-15 * max(1.0, mu.total_mass))

    @pytest.mark.parametrize("seed", [7, 1001])
    def test_salem_moduli_keep_their_bits(self, seed, monkeypatch):
        d, xi = choose_salem_parameters(0.8, 0.05)
        mu, _ = salem_measure(SalemSpec(alpha=0.8, epsilon=0.05, d=d, xi=xi,
                                        generations=11, seed=seed))
        got = [modulus_continuity(mu, _T_GRID), modulus_smoothness(mu, _T_GRID)]
        monkeypatch.setattr(measures, "_difference_sup", _translate_scan)
        want = [modulus_continuity(mu, _T_GRID), modulus_smoothness(mu, _T_GRID)]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_smoothness_peak_per_breakpoint(self):
        # F read at the 5 shifts of the breakpoints and one combination at a
        # time: 88 B per breakpoint; the translate sets held 3 |b| points,
        # their 3 reads and the sum, about 200 B
        mu = kahane_smooth(LogPower(1.0, 0.5), 14, seed=7)
        tracemalloc.start()
        try:
            modulus_smoothness(mu, _T_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * mu.breakpoints.size

    def test_omega_at_one_is_not_scanned(self):
        # the piece's end 1e-20 rounds onto the atom's translate at b - 1,
        # and a scan at h = 1 read 2.0
        mu = CircleMeasure(atoms=[(0.0, 1.0)], pieces=[(0.0, 1e-20, 1.0)])
        assert modulus_smoothness(mu, [0.5, 1.0]).tolist() == [1.0, 1.0]


def _direct_fourier(mu, ns):
    """The direct closed-form sum over atoms and piece endpoints."""
    n = np.asarray(ns, dtype=float)[:, None]
    out = np.exp(-2j * np.pi * n * mu.atom_x) @ mu.atom_m
    nz = np.where(n == 0, 1.0, n)
    pieces = (np.exp(-2j * np.pi * n * mu.piece_a)
              - np.exp(-2j * np.pi * n * mu.piece_b)) / (2j * np.pi * nz)
    pieces[n[:, 0] == 0] = mu.piece_b - mu.piece_a
    return out + pieces @ mu.piece_d


def _mp_fourier(mu, n):
    """hat mu(n) in 40-digit arithmetic from the exact float endpoints."""
    with mpmath.workdps(40):
        total = mpmath.mpc(0)
        for x, m in zip(mu.atom_x, mu.atom_m):
            total += m * mpmath.expj(-2 * mpmath.pi * n * mpmath.mpf(x))
        for a, b, d in zip(mu.piece_a, mu.piece_b, mu.piece_d):
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            if n == 0:
                total += d * (b - a)
            else:
                total += d * (mpmath.expj(-2 * mpmath.pi * n * a)
                              - mpmath.expj(-2 * mpmath.pi * n * b)) \
                    / (2j * mpmath.pi * n)
        return complex(total)


@st.composite
def _short_piece_measures(draw):
    """Disjoint pieces of length 1e-7 .. 0.3 at random positions, plus atoms."""
    starts = sorted(set(draw(st.lists(UNIT, min_size=1, max_size=5))))
    pieces, end = [], 0.0
    for a in starts:
        length = draw(st.one_of(st.floats(1e-7, 1e-3), st.floats(1e-3, 0.3)))
        if a >= end and a + length < 1.0:
            pieces.append((a, a + length, draw(st.floats(0.1, 1e4))))
            end = a + length
    atoms = draw(st.lists(st.tuples(UNIT, st.floats(0.05, 2.0)), max_size=3))
    if not pieces and not atoms:
        atoms = [(draw(UNIT), 1.0)]
    return CircleMeasure(atoms=atoms, pieces=pieces)


FREQS = st.builds(lambda n0, k: range(n0, min(n0 + k, 5001)),
                  st.integers(-5000, 5000), st.integers(1, 300))


class TestFourierKernel:
    @given(_measures(), FREQS)
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_sum(self, mu, ns):
        # the direct sum's phases 2 pi n x lose |n| ulps
        got = mu.fourier_many(ns)
        want = _direct_fourier(mu, ns)
        tol = 1e-13 * max(1.0, mu.total_mass) * (1.0 + np.abs(np.asarray(ns)))
        assert (np.abs(got - want) <= tol).all()

    @given(_short_piece_measures(), st.builds(
        lambda n0, k: range(n0, n0 + k), st.integers(-2**20, 2**20),
        st.sampled_from([1, 70])))
    @settings(max_examples=40, deadline=None)
    def test_matches_mpmath(self, mu, ns):
        got = mu.fourier_many(ns)
        want = np.array([_mp_fourier(mu, int(n)) for n in ns])
        assert np.abs(got - want).max() <= 1e-12 * mu.total_mass

    @pytest.mark.parametrize("a", [0.1234567, 0.7234567891234567])
    def test_short_piece_beats_direct_sum(self, a):
        # unit mass on 1e-7; at 0.72... the float sum a + b rounds, and at
        # n ~ 2^20 that rounding alone would move the midpoint phase by 4e-10
        mu = CircleMeasure(pieces=[(a, a + 1e-7, 1e7)])
        ns = np.array([1, 3, 1000, 2**20 - 1])
        want = np.array([_mp_fourier(mu, int(n)) for n in ns])
        got = np.array([mu.fourier_many(range(n, n + 1))[0] for n in ns])
        assert np.abs(got - want).max() <= 1e-14
        assert np.abs(_direct_fourier(mu, ns) - want).max() > 1e-12

    def test_zero_inside_a_range_and_the_empty_range(self):
        mu = CircleMeasure(atoms=[(0.3, 0.5)], pieces=[(0.1, 0.2, 2.0)])
        got = mu.fourier_many(range(-6, 6))
        assert got.shape == (12,)
        assert got[6] == mu.total_mass       # n = 0
        assert np.allclose(got, _direct_fourier(mu, range(-6, 6)),
                           rtol=0, atol=1e-14)
        assert mu.fourier_many(range(0, 1))[0] == mu.total_mass
        assert mu.fourier_many(range(5, 5)).shape == (0,)
        with pytest.raises(ValueError):
            mu.fourier_many(range(0, 8, 2))

    def test_chunked_products_agree(self, monkeypatch):
        mu = CircleMeasure(atoms=[(0.05 * k, 0.1) for k in range(7)],
                           pieces=[(0.5 + 0.04 * k, 0.52 + 0.04 * k, 1.0 + k)
                                   for k in range(11)])
        ranges = range(-700, 900), range(4090, 4099)
        whole = [mu.fourier_many(ns) for ns in ranges]
        monkeypatch.setattr(measures, "_TERM_CHUNK", 4)
        monkeypatch.setattr(measures, "_WORKSPACE", 200)
        for ns, want in zip(ranges, whole):
            assert np.allclose(mu.fourier_many(ns), want, rtol=0, atol=1e-14)

    def test_piece_rows_hold_one_workspace(self):
        # Salem depth 11 (2048 pieces): a range of 2^16 (1 MiB) is filled
        # in row chunks of _WORKSPACE = 2^20 elements (252 rows); the
        # chunk's factors and product, not the range, set the peak, and
        # the rows keep the bits of a range of one chunk
        d, xi = choose_salem_parameters(0.8, 0.05)
        mu, _ = salem_measure(SalemSpec(alpha=0.8, epsilon=0.05, d=d, xi=xi,
                                        generations=11, seed=3))
        tracemalloc.start()
        try:
            got = mu.fourier_many(range(1, 2**16 + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20
        assert np.array_equal(got[:4096], mu.fourier_many(range(1, 4097)))


def _salem_spec(J, seed, d=None, xi=None):
    if d is None:
        d, xi = choose_salem_parameters(0.8, 0.05)
    return SalemSpec(alpha=0.8, epsilon=0.05, d=d, xi=xi, generations=J,
                     seed=seed)


def _mp_riesz(spec, n):
    """hat mu(n) of the Salem Riesz product in 40-digit arithmetic, over the
    float steps nu L_{j-1} and leaf length L_J of the construction."""
    lengths = [1.0]
    for xi in spec.xi_sequence():
        lengths.append(lengths[-1] * xi)
    with mpmath.workdps(40):
        total = mpmath.mpc(1)
        for length in lengths[:-1]:
            s = mpmath.mpf(spec.nu * length)
            total *= sum(mpmath.expj(-2 * mpmath.pi * k * n * s)
                         for k in range(spec.d)) / spec.d
        x = mpmath.pi * n * mpmath.mpf(lengths[-1])
        return complex(total * mpmath.expj(-x) * mpmath.sin(x) / x)


class TestCoefficientCache:
    KAHANE = kahane_smooth(LogPower(1.0, 0.5), 12, seed=7)

    def test_strategy_from_the_pieces(self):
        salem, _ = salem_measure(_salem_spec(6, 3))
        rebuilt = CircleMeasure(pieces=np.column_stack(
            [salem.piece_a, salem.piece_b, salem.piece_d]))
        with_atom = CircleMeasure(atoms=[(0.5, 1.0)], pieces=[(0.0, 1.0, 0.25)])
        assert self.KAHANE._leaves and lebesgue()._leaves
        assert not (salem._leaves or with_atom._leaves or atomic([(0.0, 1.0)])._leaves)
        # Salem takes the Riesz product; the same pieces alone the kernel
        assert salem._riesz and not rebuilt._leaves and rebuilt._riesz is None
        assert self.KAHANE._riesz is None and with_atom._riesz is None

    @pytest.mark.parametrize("J, d, xi", [(11, None, None), (16, None, None),
                                          (11, 3, 0.2), (11, 2, 0.125)])
    def test_product_matches_mpmath(self, J, d, xi):
        # xi = 1/8 makes the first step 5/16: n s_1 is an integer at n = 64
        # and 40000, where D_d is 1 (0/0 in its quotient form)
        spec = _salem_spec(J, 7, d, xi)
        mu, _ = salem_measure(spec)
        got = np.empty(1, dtype=complex)
        for n in (1, 7, 64, 1000, 40000, 2**22 + 1):
            mu._fill_product(n, got)
            assert abs(got[0] - _mp_riesz(spec, n)) <= 1e-15, n

    def test_product_matches_the_kernel_within_the_pieces_rounding(self):
        # the stored pieces round the product's geometry: with the exact
        # starts a*_k = sum_j k_j s_j, mass m = 2^-J and length L, piece k
        # differs by |m'_k - m| in mass, |c'_k - c*_k| in midpoint and
        # |l'_k - L| in length, which bounds |kernel - product| at n by
        # sum |m'_k - m| + n m sum (2 pi |c'_k - c*_k| + pi |l'_k - L|), plus
        # the kernel's own rounding of terms of size density/(pi n)
        spec = _salem_spec(11, 7)
        mu, _ = salem_measure(spec)
        d, steps, length = mu._riesz
        digits = (np.arange(d**11)[:, None] // d ** np.arange(10, -1, -1)) % d
        s, big_l, m = ([Fraction(x) for x in steps], Fraction(length),
                       Fraction(1, d**11))
        dm = dc = dl = Fraction(0)
        for ks, a, b, rho in zip(digits, mu.piece_a, mu.piece_b, mu.piece_d):
            start = sum(int(k) * x for k, x in zip(ks, s))
            a, b = Fraction(a), Fraction(b)
            dm += abs(Fraction(rho) * (b - a) - m)
            dc += m * abs((a + b) / 2 - start - big_l / 2)
            dl += m * abs(b - a - big_l)
        n = np.arange(1, 2**16 + 1)
        bound = (float(dm) + n * (2 * np.pi * float(dc) + np.pi * float(dl))
                 + 2.0**-53 * mu.piece_d.sum() / (np.pi * n))
        got = np.empty(n.size, dtype=complex)
        mu._fill_product(1, got)
        assert (np.abs(got - mu.fourier_many(range(1, 2**16 + 1))) <= bound).all()

    @pytest.mark.parametrize("kind", ["leaves", "product", "kernel"])
    def test_grown_cache_is_one_block(self, kind, monkeypatch):
        # growing in steps gives the bits of one block of the strategy, and
        # a leaf or Salem measure never reaches the blocked kernel
        if kind == "leaves":
            mu = kahane_smooth(LogPower(1.0, 0.5), 6, seed=1)
            want = np.empty(1000, dtype=complex)
            mu._fill_leaves(1, want)
        elif kind == "product":
            mu, _ = salem_measure(_salem_spec(11, 7))
            want = np.empty(1000, dtype=complex)
            mu._fill_product(1, want)
        else:
            mu = CircleMeasure(atoms=[(0.3, 0.5)], pieces=[(0.1, 0.2, 2.0)])
            want = mu.fourier_many(range(1, 1001))
        sent, kernel = [], CircleMeasure.fourier_many

        def counting(self, ns):
            sent.append(len(ns))
            return kernel(self, ns)

        monkeypatch.setattr(CircleMeasure, "fourier_many", counting)
        for count in (1, 7, 100, 64, 1000):
            got = mu.coefficients(count)
            assert got.shape == (count,)
        assert np.allclose(got, want, rtol=0, atol=1e-15)
        if kind != "kernel":
            assert sent == [] and np.array_equal(got, want)
        else:
            assert sent == [1, 6, 93, 900]

    def test_view_is_read_only(self):
        mu = atomic([(0.25, 1.0)])
        c = mu.coefficients(8)
        with pytest.raises(ValueError):
            c[0] = 0.0
        assert mu.coefficients(4)[3] == pytest.approx(1.0)
        assert mu.coefficients(0).shape == (0,)

    def test_leaf_phases_are_exact(self):
        # the phase of n is read at n mod 2^N; taking e^{-2 pi i n/p} from a
        # float n would drift by n ulps (2.3e-17 here).  The block function
        # is called directly: filling the cache to 10^7 would hold 160 MB.
        ns = range(10**7, 10**7 + 4096)
        got = np.empty(len(ns), dtype=complex)
        self.KAHANE._fill_leaves(ns.start, got)
        assert np.abs(got - self.KAHANE.fourier_many(ns)).max() <= 1e-18

    @pytest.mark.parametrize("start, size", [(1, 3), (5, 11), (13, 16),
                                             (16, 17), (17, 100)])
    def test_leaf_fill_is_the_table_read_cyclically(self, start, size):
        # 16 leaves: ranges inside one period, across its end and over
        # several periods, written into a strided view of a larger array
        mu = kahane_smooth(LogPower(1.0, 0.5), 4, seed=3)
        got = np.zeros(2 * size, dtype=complex)
        mu._fill_leaves(start, got[::2])
        n = np.arange(start, start + size)
        assert np.array_equal(got[::2], mu._leaf_table[n % 16] / (2j * np.pi * n))
        assert not got[1::2].any()

    @pytest.mark.parametrize("kind", ["atom-and-piece", "atoms-and-pieces",
                                      "leaves"])
    def test_block_edges_keep_the_bits(self, kind, monkeypatch):
        # growths ending at n = 1000 (not a multiple of 64), 2100, 4100,
        # 5000 and 5010 (inside one row), in ranges of at most 640
        # coefficients and products of at most 2 rows (a range of 11 rows
        # would leave a lone last row), give the bits of one product
        if kind == "leaves":
            mu = kahane_smooth(LogPower(1.0, 0.5), 8, seed=7)
            want = np.empty(5010, dtype=complex)
            mu._fill_leaves(1, want)
        else:
            k = 1 if kind == "atom-and-piece" else 7
            mu = CircleMeasure(
                atoms=[(0.05 * i, 0.1) for i in range(k)],
                pieces=[(0.5 + 0.04 * i, 0.52 + 0.04 * i, 1.0 + i)
                        for i in range(k)])
            want = mu.fourier_many(range(1, 5011))
            monkeypatch.setattr(measures, "_WORKSPACE", 2 * (3 * k + 64))
        monkeypatch.setattr(measures, "_FILL", 640)
        monkeypatch.setattr(measures, "_RANGE", 640)
        for count in (1000, 2100, 4100, 5000, 5010):
            got = mu.coefficients(count)
        assert np.array_equal(got, want)

    def test_budget_raises_before_allocating(self):
        # Lebesgue measure is one leaf: its ring forms 1/n and fills no
        # cache, under the cache's budget (an atom fills none either)
        from cyclia.models import herglotz_jet
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^\d+ Fourier coefficients "
                               r"exceed the cache budget of 67108864"):
                herglotz_jet(lebesgue(), 1 - 1e-12, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("pieces", [[], [(0.1, 0.2, 2.0)]],
                             ids=["atom", "atom-and-piece"])
    def test_growth_peak_per_coefficient(self, pieces):
        # a cold request of 2^21 holds the cache (1 unit of 16 B per
        # coefficient) and one range of 2^16 from the kernel: its rows, one
        # matrix product and for pieces their sum (1/32 each); growing from
        # 2^20 to 2^21 holds the new buffer (2 units per new coefficient)
        # and the same range: no array the size of the request beside the
        # cache
        peaks = []
        for before, count in ((0, 2**21), (2**20, 2**21)):
            mu = CircleMeasure(atoms=[(0.0, 1.0)], pieces=pieces)
            mu.coefficients(before)
            tracemalloc.start()
            try:
                mu.coefficients(count)
                peaks.append(tracemalloc.get_traced_memory()[1]
                             / (16 * (count - before)))
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.25 and peaks[1] <= 2.5

    def test_fill_transient_is_one_range(self):
        # the unit atom's 2^22 coefficients (a 64 MiB cache) are filled in
        # ranges of 2^16: about 2 MiB beside the cache
        mu = atomic([(0.0, 1.0)])
        tracemalloc.start()
        try:
            mu.coefficients(2**22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**22 + (4 << 20)
