import math

import numpy as np
import pytest

from cyclia.measures import CircleMeasure, atomic, kahane_smooth
from cyclia.models import (FunctionModel, Polynomial, SingularInnerPower,
                           _truncation_order, maclaurin)
from cyclia.profiles import LogPower
from cyclia.norms import (QuadratureGrid, besov_seminorm, lp_a_norm,
                          weighted_l2alpha)

Z = Polynomial([0.0, 1.0])
ATOM_S = SingularInnerPower(atomic([(0.0, 1.0)]), 1.0)


class TestSequenceNorms:
    def test_lp_a_closed_form(self):
        c = np.array([3.0, 4.0])
        assert lp_a_norm(c, 2.0) == pytest.approx(5.0)
        assert lp_a_norm(c, 1.0) == pytest.approx(7.0)

    def test_accepts_coefficient_vector(self):
        c = maclaurin(Polynomial([1.0, -2.0]), 3)
        assert lp_a_norm(c, 1.0) == pytest.approx(3.0, abs=1e-12)

    def test_weighted_l2(self):
        c = np.array([1.0, 1.0])
        assert weighted_l2alpha(c, 1.0) == pytest.approx(math.sqrt(3.0))
        assert weighted_l2alpha(c, 0.0) == pytest.approx(math.sqrt(2.0))

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            lp_a_norm([1.0], 0.0)


class TestBesov:
    def test_identity_p2(self):
        val, err = besov_seminorm(Z, 2.0)
        assert val == pytest.approx(math.sqrt(math.pi / 3), abs=1e-6)
        assert err < 1e-3

    def test_identity_p3(self):
        val, err = besov_seminorm(Z, 3.0)
        assert val == pytest.approx((math.pi / 6) ** (1 / 3), abs=1e-6)

    def test_constant_is_zero(self):
        val, err = besov_seminorm(Polynomial([7.0]), 2.0)
        assert val == 0.0

    def test_monomial_closed_form(self):
        # f = z^k: integral = 2 pi k^p int (1-r)^{p-1} r^{p(k-1)+1} dr
        k, p = 3, 2.0
        from scipy.integrate import quad
        ref, _ = quad(lambda r: (1 - r) ** (p - 1) * (k * r ** (k - 1)) ** p * r,
                      0, 1, epsrel=1e-12)
        val, _ = besov_seminorm(Polynomial([0, 0, 0, 1.0]), p)
        assert val == pytest.approx((2 * math.pi * ref) ** (1 / p), abs=1e-6)

    def test_error_estimate_bounds_doubling(self):
        grid = QuadratureGrid.build(panels=6)
        for f in [Z, Polynomial([0, 0, 1.0]), ATOM_S]:
            v1, e1 = besov_seminorm(f, 2.0, grid)
            v2, e2 = besov_seminorm(f, 2.0, grid.refine())
            assert abs(v1 - v2) <= e1 + e2

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            besov_seminorm(Z, 0.5)

    def test_outermost_ring_sizes_the_cache(self):
        # the fine grid's last ring is evaluated first, so the cache is
        # allocated once, at its truncation order, and never grown
        mu = kahane_smooth(LogPower(1.0, 0.5), 8, seed=7)
        grid = QuadratureGrid.build(u_max=10.0, panels=4)
        besov_seminorm(SingularInnerPower(mu, 1.0), 2.0, grid)
        r_last = float(grid.refine().r[-1])
        assert mu._coef.size == _truncation_order(r_last, mu.total_mass)

    @pytest.mark.parametrize("measure", [
        lambda: kahane_smooth(LogPower(1.0, 0.5), 8, seed=7),
        lambda: CircleMeasure(atoms=[(0.05 * k, 0.1) for k in range(7)],
                              pieces=[(0.5 + 0.04 * k, 0.52 + 0.04 * k, 1.0)
                                      for k in range(7)])],
        ids=["kahane", "atoms-and-pieces"])
    def test_matches_an_ascending_reference_sum(self, measure):
        # the rings in ascending order on a measure of its own, whose cache
        # grows ring by ring: the same bits
        p, grid = 2.0, QuadratureGrid.build(u_max=10.0, panels=4)
        f = SingularInnerPower(measure(), 1.0)

        def integral(g):
            total = 0.0
            for r, w, m in zip(g.r, g.w, g.m):
                mean = float(np.mean(np.abs(f.dring(float(r), int(m))) ** p))
                total += w * (1.0 - r) ** (p - 1.0) * r * 2.0 * math.pi * mean
            return total, mean

        coarse, _ = integral(grid)
        fine, last = integral(grid.refine())
        r = float(grid.refine().r[-1])
        tail = last * (1.0 - r) ** (p - 1.0) * 2.0 * math.pi * (1.0 - r)
        value = fine ** (1.0 / p)
        want = (value, abs(value - coarse ** (1.0 / p)) + tail ** (1.0 / p))
        assert besov_seminorm(SingularInnerPower(measure(), 1.0), p, grid) == want


class Reciprocal(FunctionModel):
    """1/f and its derivative -f'/f^2 on the rings of f."""

    def __init__(self, f):
        self.f = f

    def jet(self, r, m, offset=0.0):
        f, df = self.f.jet(r, m, offset)
        return 1.0 / f, -df / f**2


def hp_mean(f, p, r, m=4096):
    """M_p(r, f) = (int |f(r e^{i t})|^p dt / 2 pi)^(1/p) by the angular
    trapezoid on one ring of f."""
    return float(np.mean(np.abs(f.ring(r, m)) ** p)) ** (1.0 / p)


class TestHpMean:
    def test_constant(self):
        assert hp_mean(Polynomial([3.0]), 2.0, 0.5) == pytest.approx(3.0)

    def test_identity_p2(self):
        assert hp_mean(Z, 2.0, 0.5) == pytest.approx(0.5)

    def test_parseval(self):
        r = 0.7
        c = maclaurin(ATOM_S, 60)
        target = math.sqrt(sum(abs(ck) ** 2 * r ** (2 * k)
                               for k, ck in enumerate(c.coeffs)))
        assert hp_mean(ATOM_S, 2.0, r) == pytest.approx(target, abs=1e-10)

    def test_monotone_in_r_for_reciprocal(self):
        # 1/S has increasing means in r (subharmonicity of |f|^p)
        f = Reciprocal(ATOM_S)
        means = [hp_mean(f, 2.0, r) for r in (0.1, 0.4, 0.7, 0.9)]
        assert all(b >= a for a, b in zip(means, means[1:]))


def test_grid_shapes():
    g = QuadratureGrid.build()
    assert len(g.r) == g.panels * g.nodes_per_panel
    assert np.all(np.diff(g.r) > 0)
    assert np.all((g.m & (g.m - 1)) == 0)     # powers of two
    fine = g.refine()
    assert fine.panels == 2 * g.panels
