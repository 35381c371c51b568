import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclia.dyadic import (DyadicMartingale, exp_moment, logsumexp,
                           martingale_from_measure, max_square, smoothness_check,
                           tail_distribution)
from cyclia.measures import atomic, kahane_smooth, lebesgue
from cyclia.profiles import LogPower


class TestMartingale:
    def test_mean_value_enforced(self):
        with pytest.raises(ValueError, match="mean-value"):
            DyadicMartingale([np.array([1.0]), np.array([0.0, 3.0])])

    def test_from_leaves_round_trip(self):
        leaves = np.arange(16.0)
        m = DyadicMartingale.from_leaves(leaves)
        assert m.depth == 4
        assert m.root_value == leaves.mean()
        assert m.levels[4][3] == 3.0
        assert m.levels[2][3] == leaves[12:16].mean()

    def test_measure_martingale_values_are_averaged_density(self):
        mu = atomic([(0.3, 2.0)])
        m = martingale_from_measure(mu, 6)
        assert m.levels[6][int(0.3 * 64)] == pytest.approx(2.0 * 64)
        assert m.root_value == pytest.approx(2.0)

    def test_lebesgue_martingale_constant(self):
        m = martingale_from_measure(lebesgue(), 10)
        for lv in m.levels:
            assert np.allclose(lv, 1.0)
        assert max_square(m, 10) == 0.0

    def test_square_function_single_jump(self):
        # one +-h increment at generation 1, constants afterwards
        h = 0.25
        m = DyadicMartingale([np.array([1.0]), np.array([1 - h, 1 + h])])
        assert m.square_function_cells(1).tolist() == pytest.approx([h, h])
        assert max_square(m, 1) == pytest.approx(h)

    def test_square_function_accumulates_in_quadrature(self):
        rng = np.random.default_rng(5)
        leaves = 1.0 + 0.01 * rng.standard_normal(2**8)
        m = DyadicMartingale.from_leaves(leaves)
        j = int(0.37 * 2**8)    # the generation-8 cell holding x = 0.37
        manual = 0.0
        for n in range(1, 9):
            manual += (m.levels[n][j >> (8 - n)] - m.levels[n - 1][j >> (9 - n)]) ** 2
        assert m.square_function_cells(8)[j] == pytest.approx(math.sqrt(manual))

    def test_tail_distribution_counts_cells(self):
        m = DyadicMartingale([np.array([0.0]), np.array([-1.0, 1.0]),
                              np.array([-1.5, -0.5, 0.5, 1.5])])
        assert tail_distribution(m, 2, 1.2) == 0.5
        assert tail_distribution(m, 2, 0.4) == 1.0
        assert tail_distribution(m, 2, 2.0) == 0.0


class TestSmoothness:
    def test_positive_required(self):
        m = DyadicMartingale.from_leaves(np.ones(8))
        for beta in ([1.0, -0.5, 1.0], [1.0, 0.0, 1.0], [1.0, math.nan, 1.0]):
            with pytest.raises(ValueError, match="positive"):
                smoothness_check(m, beta)

    def test_one_beta_per_generation(self):
        m = DyadicMartingale.from_leaves(np.ones(8))
        for beta in ([1.0, 1.0], [1.0] * 4, 1.0):
            with pytest.raises(ValueError, match="beta_1..beta_3"):
                smoothness_check(m, beta)
        assert smoothness_check(m, [1.0, 1.0, 1.0]).passed

    def test_increment_bound_detected(self):
        m = DyadicMartingale([np.array([1.0]), np.array([0.0, 2.0])])
        ok = smoothness_check(m, [4.001])
        assert ok.passed and ok.worst_increment_ratio <= 0.5
        bad = smoothness_check(m, [1.0])
        assert not bad.passed
        assert any(kind == "increment" for kind, *_ in bad.violations)
        # the cells 0 and 2 are adjacent, also across the seam
        assert bad.worst_adjacent_ratio == 2.0
        assert ("adjacent", 1, 1, 2.0) in bad.violations

    def test_kahane_increments_within_half_beta(self):
        phi = LogPower(1.0, 0.5)
        mu = kahane_smooth(phi, 10, seed=1)
        m = martingale_from_measure(mu, 10)
        for n in range(1, 11):
            b = float(phi.phi(2.0**-n))
            assert np.abs(m.increments(n)).max() <= b / 2 + 1e-12


class TestConcentration:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_subgaussian_tail(self, seed):
        # the sub-Gaussian bound is meaningful for s a couple of multiples
        # of A_n; below that the left side can saturate at 1 while the
        # right side is already below 1 (see the shallow-generation test)
        mu = kahane_smooth(LogPower(1.0, 0.5), 12, seed=seed)
        m = martingale_from_measure(mu, 12)
        for n in (4, 8, 12):
            an = max_square(m, n)
            for s in np.geomspace(2 * an, 6 * an, 20):
                assert tail_distribution(m, n, s) <= math.exp(-s**2 / (2 * an**2))

    def test_shallow_generations_saturate_below_threshold(self):
        # at generation 1 every point deviates by exactly A_1, so the
        # distribution function equals 1 up to s = A_1 while the Gaussian
        # bound is e^{-1/2}; the bound only takes hold at larger s
        mu = kahane_smooth(LogPower(1.0, 0.5), 4, seed=0)
        m = martingale_from_measure(mu, 4)
        a1 = max_square(m, 1)
        assert tail_distribution(m, 1, 0.9 * a1) == 1.0
        assert 1.0 > math.exp(-(0.9 * a1) ** 2 / (2 * a1**2))

    def test_exp_moment_bound(self):
        mu = kahane_smooth(LogPower(1.0, 0.5), 12, seed=2)
        m = martingale_from_measure(mu, 12)
        rep = exp_moment(m, 12, alpha=2.0)
        # centered exponential moment against A_n e^{alpha^2 A_n^2/2}; the
        # statement carries an unspecified constant, so require the ratio
        # to be a small number rather than at most one
        centered = DyadicMartingale([lv - 1.0 for lv in m.levels])
        rep_c = exp_moment(centered, 12, alpha=2.0)
        assert math.isfinite(rep_c.ratio) and rep_c.ratio < 20.0
        assert rep.value >= 1.0 and math.isfinite(rep.log_value)

    def test_exp_moment_log_space_survives_overflow(self):
        big = DyadicMartingale([np.array([500.0]), np.array([100.0, 900.0])])
        rep = exp_moment(big, 1, alpha=2.0)
        assert rep.value == math.inf and math.isfinite(rep.log_value)
        assert rep.log_value == pytest.approx(2.0 * 900 - math.log(2), rel=1e-6)


class TestLogSumExp:
    """The numpy logsumexp reproduces scipy.special.logsumexp bit for bit."""

    @staticmethod
    def _same(a):
        from scipy.special import logsumexp as scipy_logsumexp

        a = np.asarray(a, dtype=float)
        want = float(scipy_logsumexp(a))
        got = logsumexp(a)
        assert got == want or (math.isnan(got) and math.isnan(want)), (a, got, want)

    @pytest.mark.parametrize("a", [
        [3.5],                              # a single element
        [-math.inf],
        [2.0, 2.0, 2.0],                    # all tied
        [1.0, 4.0, 4.0, -2.0, 4.0],         # tied maximum among others
        [-math.inf, 0.0, -math.inf, 1.5],   # -inf entries
        [-math.inf, -math.inf],             # every entry -inf
        [710.0, 705.5, 900.0, 900.0],       # above exp's overflow
        [800.0, 1e-3, -800.0],
        [0.0, -40.0],                       # a dominant term: log1p keeps 4e-18
        [-700.0, -735.0, -736.0],
        [math.inf, 1.0],
        [math.nan, 1.0],
    ])
    def test_edge_cases(self, a):
        self._same(a)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300),
           st.sampled_from([1.0, 10.0, 100.0, 800.0]),
           st.sampled_from([0.0, 700.0, -700.0, 1000.0]), st.integers(-1, 2))
    def test_random_arrays(self, seed, size, spread, shift, decimals):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=size) * spread + shift
        if decimals >= 0:
            a = np.round(a, decimals)       # rounded values make ties
        self._same(a)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
def test_from_leaves_always_satisfies_mean_value(seed, depth):
    rng = np.random.default_rng(seed)
    m = DyadicMartingale.from_leaves(rng.random(2**depth))
    # re-validate explicitly
    DyadicMartingale(m.levels)
