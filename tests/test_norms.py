import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from cyclia.measures import CircleMeasure, atomic, kahane_smooth
from cyclia.models import (DilationQuotient, FunctionModel, Polynomial,
                           SingularInnerPower, _truncation_order, maclaurin)
from cyclia.profiles import LogPower
from cyclia.norms import (QuadratureGrid, _kronrod, besov_seminorm,
                          lp_a_norm, weighted_l2alpha)

Z = Polynomial([0.0, 1.0])
ATOM_S = SingularInnerPower(atomic([(0.0, 1.0)]), 1.0)


def _ring_by_ring(f, p, grid, rings):
    """besov_seminorm's value and estimate from its rings evaluated one at
    a time in the order ``rings``, on one thread, each into a new array."""
    means = [0.0] * len(grid)
    for i in rings:
        dens = f.log_abs_dring(float(grid.r[i]), int(grid.m[i]))
        means[i] = float(np.mean(np.exp(p * dens)))
    kronrod = gauss = 0.0
    for r, wk, wg, mean in zip(grid.r, grid.w, grid.wg, means):
        term = (1.0 - r) ** (p - 1.0) * r * 2.0 * math.pi * mean
        kronrod += wk * term
        gauss += wg * term
    r = float(grid.r[-1])
    tail = means[-1] * (1.0 - r) ** (p - 1.0) * 2.0 * math.pi * (1.0 - r)
    value = kronrod ** (1.0 / p)
    return value, abs(value - gauss ** (1.0 / p)) + tail ** (1.0 / p)


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
        # the grid's last ring is evaluated first, so the coefficient cache
        # of pieces that are not uniform leaves is allocated once, at its
        # truncation order, and never grown.  Leaves fill no cache and hold
        # nothing of that order: their pass peaks below 320 bytes per point
        # of the largest ring
        grid = QuadratureGrid.build(u_max=10.0, panels=4)
        r_last = float(grid.r[-1])
        arc = CircleMeasure(pieces=[(0.1, 0.6, 2.0)])
        besov_seminorm(SingularInnerPower(arc, 1.0), 2.0, grid)
        assert arc._coef.size == _truncation_order(r_last, arc.total_mass)
        leaves = kahane_smooth(LogPower(1.0, 0.5), 8, seed=7)
        tracemalloc.start()
        try:
            besov_seminorm(SingularInnerPower(leaves, 1.0), 2.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert leaves._coef.size == 0
        assert leaves._leaf_table.size == leaves.piece_a.size
        assert peak < 320 * grid.m.max(), peak / grid.m.max()

    @pytest.mark.parametrize("measure", [
        lambda: kahane_smooth(LogPower(1.0, 0.5), 8, seed=7),
        lambda: CircleMeasure(atoms=[(0.05 * k, 0.1) for k in range(7)],
                              pieces=[(0.5 + 0.04 * k, 0.52 + 0.04 * k, 1.0)
                                      for k in range(7)])],
        ids=["kahane", "atoms-and-pieces"])
    def test_matches_an_ascending_reference_sum(self, measure):
        # the rings in ascending order on a measure of its own, whose cache
        # grows ring by ring, summed by the Kronrod rule and its embedded
        # Gauss rule: the same bits.  |f'|^p is read as exp(p log |f'|),
        # as besov_seminorm reads it (|dring|^p differs in the last bits)
        p, grid = 2.0, QuadratureGrid.build(u_max=10.0, panels=4)
        want = _ring_by_ring(SingularInnerPower(measure(), 1.0), p, grid,
                             range(len(grid)))
        assert besov_seminorm(SingularInnerPower(measure(), 1.0), p, grid) == want

    def test_default_grid_evaluates_204_rings(self):
        # the outermost ring first and alone, on the calling thread; then
        # the calling thread and one more worker, each from the outside in
        calls = []

        class Counting(FunctionModel):
            def jet(self, r, m, offset=0.0):
                calls.append((threading.get_ident(), r))
                return Z.jet(r, m, offset)

        besov_seminorm(Counting(), 2.0)
        radii = [r for _, r in calls]
        assert len(radii) == 204 == 12 * (2 * 8 + 1)
        assert sorted(radii) == QuadratureGrid.build().r.tolist()
        assert calls[0] == (threading.get_ident(), max(radii))
        workers = {thread for thread, _ in calls}
        assert len(workers) == 2
        for worker in workers:
            mine = [r for thread, r in calls if thread == worker]
            assert mine == sorted(mine, reverse=True)

    def test_kahane_row_keeps_the_two_pass_value(self):
        # the brown-shields row of the main benchmark (Kahane depth 12,
        # seed 7, alpha 0.05, p 3, t = 1 - 10^-0.3); the value is the one
        # of the earlier rule, 192 fine Gauss rings checked by 96 coarse
        mu = kahane_smooth(LogPower(1.0, 0.5), 12, seed=7)
        f = DilationQuotient(SingularInnerPower(mu, 0.05), 1 - 10**-0.3)
        value, err = besov_seminorm(f, 3.0)
        assert value == pytest.approx(0.03632651478174793, rel=1e-8)
        assert 0 < err < math.inf

    def test_kahane_row_matches_the_modulus_power(self):
        # the same row read from exp(p log |f'|) and from |f'|^p on the
        # jet of each ring agree to 1e-12 relative, value and error
        p, grid = 3.0, QuadratureGrid.build()
        mu = kahane_smooth(LogPower(1.0, 0.5), 12, seed=7)
        f = DilationQuotient(SingularInnerPower(mu, 0.05), 1 - 10**-0.3)
        value, err = besov_seminorm(f, p, grid)
        means = [float(np.mean(np.abs(f.jet(float(r), int(m))[1]) ** p))
                 for r, m in zip(grid.r, grid.m)]
        terms = (1.0 - grid.r) ** (p - 1.0) * grid.r * 2.0 * math.pi * means
        want = float(grid.w @ terms) ** (1.0 / p)
        r = float(grid.r[-1])
        tail = means[-1] * (1.0 - r) ** p * 2.0 * math.pi
        want_err = (abs(want - float(grid.wg @ terms) ** (1.0 / p))
                    + tail ** (1.0 / p))
        assert value == pytest.approx(want, rel=1e-12)
        assert err == pytest.approx(want_err, rel=1e-12)


QK15_XGK = [0.991455371120812639206854697526329,
            0.949107912342758524526189684047851,
            0.864864423359769072789712788640926,
            0.741531185599394439863864773280788,
            0.586087235467691130294144845693013,
            0.405845151377397166906606412076961,
            0.207784955007898467600689403773245,
            0.000000000000000000000000000000000]
QK15_WGK = [0.022935322010529224963732008058970,
            0.063092092629978553290700663189204,
            0.104790010322250183839876322541518,
            0.140653259715525918745189590510238,
            0.169004726639267902826583426598550,
            0.190350578064785409913256402421014,
            0.204432940075298892414161999234649,
            0.209482141084727828012999174891714]
QK15_WG = [0.129484966168869693270611432679082,
           0.279705391489276667901467771423780,
           0.381830050505118944950369775488975,
           0.417959183673469387755102040816327]



SWEEP_MEASURES = {
    "kahane-leaves": lambda: kahane_smooth(LogPower(1.0, 0.5), 8, seed=7),
    "atoms-and-pieces": lambda: CircleMeasure(
        atoms=[(0.05 * k, 0.1) for k in range(7)],
        pieces=[(0.5 + 0.04 * k, 0.52 + 0.04 * k, 1.0) for k in range(7)]),
    "atoms": lambda: atomic([(0.1, 0.6), (0.55, 0.4)]),
}
SWEEP_MODELS = {
    "inner": lambda mu: SingularInnerPower(mu, 0.7),
    "quotient": lambda mu: DilationQuotient(SingularInnerPower(mu, 0.3), 0.9),
}


class _Spiked(FunctionModel):
    """z, except that log |f'| reads ``spike`` at one point of the rings
    with r <= r_spike (on a worker thread only, with ``worker_only``)."""

    def __init__(self, r_spike, spike, worker_only=False):
        self.r_spike, self.spike, self.worker_only = r_spike, spike, worker_only

    def jet(self, r, m, offset=0.0):
        return Z.jet(r, m, offset)

    def log_abs_dring(self, r, m, offset=0.0, out=None):
        out = super().log_abs_dring(r, m, offset, out)
        if r <= self.r_spike and not (
                self.worker_only
                and threading.current_thread() is threading.main_thread()):
            out[0] = self.spike
        return out


class TestThreadedSweep:
    # besov_seminorm takes the outermost ring alone, then the others on
    # two threads: the result is the sequential pass's, bit for bit, and
    # a ring that ends the pass ends it as in the sequential pass
    GRID = QuadratureGrid.build(u_max=10.0, panels=4)

    @pytest.mark.parametrize("model", list(SWEEP_MODELS))
    @pytest.mark.parametrize("measure", list(SWEEP_MEASURES))
    def test_matches_a_sequential_pass(self, model, measure):
        make, grid = SWEEP_MODELS[model], self.GRID
        want = _ring_by_ring(make(SWEEP_MEASURES[measure]()), 3.0, grid,
                             reversed(range(len(grid))))
        assert besov_seminorm(make(SWEEP_MEASURES[measure]()), 3.0, grid) == want

    @pytest.mark.parametrize("outermost", [1, 2, 3],
                             ids=["alone", "caller", "worker"])
    def test_the_outermost_exception_propagates(self, outermost, monkeypatch):
        # every ring from the outermost-th on raises, on both threads: the
        # exception is the one of the outermost of them (the first ring of
        # the calling thread's share, or of the worker's), and no thread
        # outlives the pass
        grid, original = self.GRID, SingularInnerPower.log_abs_dring
        r_first = float(grid.r[-outermost])

        class Raised(Exception):
            pass

        def failing(self, r, m, offset=0.0, out=None):
            if r <= r_first:
                raise Raised(r)
            return original(self, r, m, offset, out)

        monkeypatch.setattr(SingularInnerPower, "log_abs_dring", failing)
        threads = threading.active_count()
        with pytest.raises(Raised) as raised:
            besov_seminorm(SingularInnerPower(atomic([(0.0, 1.0)])), 2.0, grid)
        assert raised.value.args == (r_first,)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("raising", [4, 2],
                             ids=["caller-inside", "caller-outside"])
    def test_the_two_shares_end_differently(self, raising, monkeypatch):
        # the worker's first ring (the third from outside) is not finite,
        # and one ring of the calling thread's share raises, its second
        # (inside) or its first (outside): the outer of the two ends the
        # pass, as in a sequential one, and no thread outlives the pass
        grid, original = self.GRID, SingularInnerPower.log_abs_dring
        r_spiked, r_raising = float(grid.r[-3]), float(grid.r[-raising])

        class Raised(Exception):
            pass

        def failing(self, r, m, offset=0.0, out=None):
            if r == r_raising:
                raise Raised(r)
            out = original(self, r, m, offset, out)
            if r == r_spiked:
                out[0] = math.inf
            return out

        monkeypatch.setattr(SingularInnerPower, "log_abs_dring", failing)
        f = SingularInnerPower(atomic([(0.0, 1.0)]))
        threads = threading.active_count()
        if r_raising < r_spiked:
            assert besov_seminorm(f, 2.0, grid) == (math.inf, math.inf)
        else:
            with pytest.raises(Raised) as raised:
                besov_seminorm(f, 2.0, grid)
            assert raised.value.args == (r_raising,)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("spike", [math.inf, math.nan])
    @pytest.mark.parametrize("ring", [-1, -2, -3, 0])
    def test_a_non_finite_ring_reads_inf(self, spike, ring):
        f = _Spiked(float(self.GRID.r[ring]), spike)
        assert besov_seminorm(f, 2.0, self.GRID) == (math.inf, math.inf)

    def test_concurrent_passes_under_fast_switching(self):
        # four passes at once, so eight ring workers on the machine's
        # cores, switching threads every microsecond: each pass keeps the
        # sequential result, and the spiked one reads inf
        grid = QuadratureGrid.build(u_max=6.0, panels=2)
        models = [SingularInnerPower(
            kahane_smooth(LogPower(1.0, 0.5), 6, seed=seed), 0.7)
            for seed in range(3)] + [_Spiked(float(grid.r[-3]), math.inf)]
        want = [_ring_by_ring(f, 3.0, grid, range(len(grid)))
                for f in models[:3]] + [(math.inf, math.inf)]
        got = [None] * len(models)

        def run(k):
            got[k] = besov_seminorm(models[k], 3.0, grid)

        passes = [threading.Thread(target=run, args=(k,))
                  for k in range(len(models))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in passes:
                thread.start()
            for thread in passes:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in passes)
        assert got == want

    def test_the_worker_keeps_the_callers_errstate(self):
        # log |f'| = 800 overflows exp(3 log |f'|) on the worker's rings:
        # inside brown_shields_table's errstate the worker warns of
        # nothing and the pass reads inf; without it, its warning is an
        # error that propagates
        f = _Spiked(float(self.GRID.r[-2]), 800.0, worker_only=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                assert besov_seminorm(f, 3.0, self.GRID) == (math.inf, math.inf)
            with pytest.raises(RuntimeWarning, match="overflow"):
                besov_seminorm(f, 3.0, self.GRID)

class TestKronrod:
    def test_matches_quadpack_qk15(self):
        # QUADPACK's 15-point rule lists the nodes x >= 0 from the right
        x, wk, wg = _kronrod(7)
        np.testing.assert_allclose(x[7:], QK15_XGK[::-1], rtol=0, atol=1e-15)
        np.testing.assert_allclose(x[:8], [-v for v in QK15_XGK], rtol=0,
                                   atol=1e-15)
        np.testing.assert_allclose(wk, QK15_WGK + QK15_WGK[-2::-1], rtol=0,
                                   atol=1e-15)
        np.testing.assert_allclose(wg[1::2], QK15_WG + QK15_WG[-2::-1],
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [4, 8])
    def test_extends_the_gauss_rule(self, n):
        x, wk, wg = _kronrod(n)
        gx, gw = np.polynomial.legendre.leggauss(n)
        assert x.size == wk.size == wg.size == 2 * n + 1
        assert np.all(wk > 0)
        assert np.all(np.diff(x) > 0)            # Kronrod nodes interlace
        assert np.array_equal(x[1::2], gx)       # Gauss nodes embedded
        assert np.array_equal(wg[1::2], gw) and np.all(wg[::2] == 0)
        for d in range(3 * n + 2):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert wk @ x**d == pytest.approx(exact, abs=1e-14)
        # the embedded sum is leggauss(n)'s rule, bit for bit
        assert math.fsum(wg * (np.cos(3 * x) + x**5)) == math.fsum(
            gw * (np.cos(3 * gx) + gx**5))
        # and the Kronrod rule is exact where the Gauss rule is not
        assert wg @ x**(2 * n) != pytest.approx(2.0 / (2 * n + 1), abs=1e-14)


class TestGridValidation:
    @pytest.mark.parametrize("kwargs, name", [
        ({"u_max": 0.0}, "u_max"),
        ({"u_max": -1.0}, "u_max"),
        ({"panels": 0}, "panels"),
        ({"nodes_per_panel": 0}, "nodes_per_panel"),
        ({"m_min": 0}, "m_min"),
        ({"m_min": 48}, "m_min"),
        ({"m_max": 1000}, "m_max"),
        ({"m_min": 512, "m_max": 256}, "m_min"),
    ], ids=["u_max-zero", "u_max-negative", "panels-zero", "nodes-zero",
            "m_min-zero", "m_min-not-power-of-two",
            "m_max-not-power-of-two", "m_min-above-m_max"])
    def test_names_the_parameter(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            QuadratureGrid.build(**kwargs)


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
    assert len(g.r) == g.panels * (2 * g.nodes_per_panel + 1)
    assert np.all(np.diff(g.r) > 0)
    assert np.all((g.m & (g.m - 1)) == 0)     # powers of two
    fine = g.refine()
    assert fine.panels == 2 * g.panels
