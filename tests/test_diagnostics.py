import json
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from cyclia import diagnostics
from cyclia.cli import CHECKS, RunConfig, make_grid
from cyclia.diagnostics import (TREND_SLOPE_MAX, CheckReport, _trend_report,
                                annihilator_pairing, annihilator_report,
                                brown_shields_table,
                                derivative_sup_ratio, fourier_decay_fit,
                                fourier_lp_summability, korenblum_necessity,
                                multiplier_log_onebox, pmean_ratio,
                                poisson_martingale_gap)
from cyclia.measures import (CircleMeasure, IntervalSet, SalemSpec, atomic,
                             choose_salem_parameters, kahane_smooth, lebesgue,
                             salem_measure)
from cyclia.models import (DilationQuotient, FunctionModel, Polynomial,
                           SingularInnerPower, herglotz_jet, maclaurin)
from cyclia.norms import (QuadratureGrid, _radial_rule, besov_seminorm,
                          default_grid)
from cyclia.profiles import LogPower, PowerLaw

ATOM = atomic([(0.0, 1.0)])
LEB = lebesgue()
PHI = LogPower(1.0, 0.5)


@pytest.fixture(scope="module")
def kahane():
    return kahane_smooth(PHI, 12, seed=7)


@pytest.fixture(scope="module")
def salem():
    d, xi = choose_salem_parameters(0.8, 0.05)
    return salem_measure(SalemSpec(alpha=0.8, epsilon=0.05, d=d, xi=xi,
                                   generations=10, seed=3))


class TestReport:
    def test_json_round_trip_and_runtime_excluded(self):
        rep = CheckReport(name="x", params={"p": 3.0}, table=[{"a": 1.0}],
                          fits={"c": 2.0}, worst_ratio=0.1, threshold=1.0,
                          runtime=12.3)
        data = json.loads(rep.to_json())
        assert data["verdict"] == "pass"
        assert "runtime" not in data

    @pytest.mark.parametrize("worst, threshold, verdict", [
        (0.5, 1.0, "pass"),
        (1.0, 1.0, "pass"),
        (1.0 + 1e-13, 1.0, "fail"),
        (math.inf, 0.05, "fail"),
        (math.nan, 0.05, "inconclusive"),
    ])
    def test_verdict_is_worst_ratio_against_threshold(self, worst, threshold,
                                                      verdict):
        rep = CheckReport(name="x", params={}, table=[], worst_ratio=worst,
                          threshold=threshold)
        assert rep.verdict == verdict
        assert rep.passed == (verdict == "pass")
        data = json.loads(rep.to_json())
        assert data["verdict"] == verdict
        if math.isnan(worst):
            assert data["worst_ratio"] is None

    def test_json_signed_infinities_and_nan(self):
        rep = CheckReport(name="x", params={}, table=[],
                          fits={"lo": -math.inf, "hi": np.float64(math.inf),
                                "nan": math.nan})
        assert json.loads(rep.to_json())["fits"] == {
            "lo": "-inf", "hi": "inf", "nan": None}

    def test_csv_layout(self):
        rep = CheckReport(name="x", params={}, table=[{"a": 1.0, "b": 2}])
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "a,b"
        assert lines[1].startswith("1,")


class TestTrendRule:
    """The bounded-trend rule shared by brown-shields, derivative-sup and
    multiplier."""

    X = np.log(1.0 / (1.0 - np.array([0.5, 0.9, 0.99, 0.999])))

    def test_tiny_finite_samples_are_flat(self):
        vals = np.array([0.0, 1e-13, 1e-12, 0.0])
        rep = _trend_report("x", {}, [], self.X, vals, 1e-12, {"own": 1.0})
        assert rep.fits == {"slope": 0.0, "own": 1.0}
        assert rep.worst_ratio == 0.0 and rep.threshold == TREND_SLOPE_MAX
        assert rep.passed

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_kept_sample_fails(self, bad):
        # the other samples are tiny, but a blown-up one is never flat
        vals = np.array([0.0, 0.0, bad, 0.0])
        rep = _trend_report("x", {}, [], self.X, vals, 1e-12, {})
        assert rep.fits["slope"] == math.inf and rep.worst_ratio == math.inf
        assert rep.verdict == "fail"

    def test_derivative_sup_fits_the_tail_half(self):
        # phi divided by 1e3 on the first half of 8 radii multiplies
        # those ratios by 1e3 but leaves the slope
        rs = 1.0 - 10.0 ** -np.linspace(0.6, 2.4, 8)

        class Scaled:
            def phi(self, t):
                return PHI.phi(t) * (1e-3 if t > 1.0 - rs[4] else 1.0)

        base = derivative_sup_ratio(ATOM, PHI, rs)
        moved = derivative_sup_ratio(ATOM, Scaled(), rs)
        assert [row["ratio"] for row in moved.table[:4]] == pytest.approx(
            [1e3 * row["ratio"] for row in base.table[:4]], rel=1e-12)
        assert moved.table[4:] == base.table[4:]
        assert moved.fits["slope"] == base.fits["slope"]

    def test_multiplier_fits_generations_from_four(self):
        rep = multiplier_log_onebox(ATOM, 3.0, 8)
        ns = np.array([row["generation"] for row in rep.table], dtype=float)
        y = np.log([row["sup_ratio"] for row in rep.table])
        tail = np.polyfit(ns[3:], y[3:], 1)[0]
        assert rep.fits["slope"] == pytest.approx(tail, rel=1e-12)
        assert abs(np.polyfit(ns, y, 1)[0] - tail) > 1e-3


class TestBrownShields:
    def test_constant_model_zero(self):
        # S of Lebesgue measure is the constant 1/e: hat mu(n) = 0 exactly
        rep = brown_shields_table(SingularInnerPower(LEB), 3.0, [0.5, 0.9])
        assert rep.passed
        assert all(row["value"] == 0.0 for row in rep.table)

    def test_atom_blows_up(self):
        f = SingularInnerPower(ATOM, 0.1)
        rep = brown_shields_table(f, 3.0, [0.5, 0.9, 0.99])
        assert not rep.passed
        vals = [row["value"] for row in rep.table]
        assert vals[-1] > 10 * vals[0]

    @pytest.fixture
    def jet_calls(self, monkeypatch):
        # the seminorm reads log |f'|, the quotient's one ring evaluation
        calls = []
        log_abs_dring = DilationQuotient.log_abs_dring

        def counted(self, r, m, offset=0.0, **kwargs):
            calls.append(r)
            return log_abs_dring(self, r, m, offset, **kwargs)

        monkeypatch.setattr(DilationQuotient, "log_abs_dring", counted)
        return calls

    def test_underflowing_denominator_is_an_evaluation_error(self, jet_calls):
        # near the two atoms |S(0.999 z)| underflows on some rings: the
        # quotient, taken in log space, overflows there and the row is
        # inf, without a divide-by-zero, after the outermost ring alone
        f = SingularInnerPower(atomic([(0.1, 0.6), (0.55, 0.4)]))
        with np.errstate(divide="raise"):
            rep = brown_shields_table(f, 3.0, [0.999])
        assert rep.table == [{"t": 0.999, "value": math.inf, "error": math.inf}]
        assert len(jet_calls) == 1

    def test_overflowing_value_has_infinite_error(self, jet_calls):
        # the unit atom at t = 0.99206: the seminorm overflows to inf, and
        # its error reads inf too, not inf - inf = nan; the outermost ring
        # decides it
        rep = brown_shields_table(SingularInnerPower(ATOM), 3.0, [0.99206])
        assert rep.table == [{"t": 0.99206, "value": math.inf,
                              "error": math.inf}]
        assert len(jet_calls) == 1

    def test_p_validated(self):
        with pytest.raises(ValueError):
            brown_shields_table(SingularInnerPower(LEB), 2.0, [0.5])


class TestPMeans:
    def test_lebesgue_flat(self):
        rep = pmean_ratio(LEB, PHI, 3.0, [0.01, 0.5, 0.9, 0.99])
        assert rep.passed
        expect = math.log(2 * math.pi) + 3.0
        assert rep.table[0]["log_lhs"] == pytest.approx(expect, rel=0.02)

    def test_atom_fails(self):
        rep = pmean_ratio(ATOM, PHI, 3.0,
                          [1 - 2.0**-k for k in range(2, 12)])
        assert not rep.passed

    def test_kahane_residuals_tight(self, kahane):
        rep = pmean_ratio(kahane, PHI, 3.0,
                          [1 - 2.0**-k for k in range(2, 13)])
        assert rep.passed
        assert rep.fits["residual_spread_decades"] < 1.0

    @pytest.mark.parametrize("phi", [LogPower(1e308, 0.5),
                                     LogPower(1e200, 0.9)])
    def test_overflowing_bracket_is_inconclusive(self, phi):
        # the squared bracket overflows a float: no fit, so no verdict
        rep = pmean_ratio(LEB, phi, 3.0, [0.5, 0.9, 0.99])
        assert math.isnan(rep.worst_ratio)
        assert rep.verdict == "inconclusive"
        assert [row["bracket"] for row in rep.table] == [
            phi.bracket(1.0 - r) for r in (0.5, 0.9, 0.99)]

    def test_zero_bracket_is_inconclusive(self):
        # the bracket's closed form rounds to 0: no log, so no verdict
        rep = pmean_ratio(LEB, LogPower(1.0, 1e308), 3.0, [0.5, 0.9, 0.99])
        assert [row["bracket"] for row in rep.table] == [0.0] * 3
        assert math.isnan(rep.worst_ratio)
        assert rep.verdict == "inconclusive"


class TestPoissonMartingale:
    def test_lebesgue_constant_gap(self):
        rep = poisson_martingale_gap(LEB, 10)
        assert rep.passed
        assert rep.fits["C"] == pytest.approx(1.0, abs=1e-12)
        assert abs(rep.fits["sup_gap"]) < 1e-10

    def test_atom_ratio_bounded_on_tower(self):
        rep = poisson_martingale_gap(ATOM, 12)
        # P and M both blow up like 2^n on the atom column, so their
        # pooled slope settles at a fixed positive constant (its size
        # reflects the angular offset of the sample point from the atom)
        assert rep.fits["C"] > 0.05
        for row in rep.table[4:]:
            ratio = row["max_poisson"] / row["max_martingale"]
            assert 0.1 < ratio < 2.0

    def test_kahane_stable(self, kahane):
        rep = poisson_martingale_gap(kahane, 12)
        assert rep.passed
        assert 0.5 < rep.fits["C"] < 2.0


def carleson_box_measure(f: FunctionModel, p: float, n: int, j: int,
                         grid: QuadratureGrid | None = None) -> float:
    """int over the box S(I) of |f'(z)|^p (1-|z|)^{p-1} dA for the dyadic
    I = [j 2^-n, (j+1) 2^-n), one box at a time: the oracle of
    multiplier_log_onebox, which folds every box of each ring at once.

    The box is {z : z/|z| in I, 1 - |z| <= |I|}.  The radial rule starts
    exactly at 1 - |I| (the dyadic cut is a panel edge); angular samples
    are cell-aligned so the arc restriction is an index slice.
    """
    if grid is None:
        grid = default_grid()
    edges = n + np.append(np.arange(math.ceil(grid.u_max)), grid.u_max)
    _, rs, ws, ms = _radial_rule(edges, grid.nodes_per_panel, grid.m_min,
                                 grid.m_max)
    total = 0.0
    for r, w, m in zip(rs.tolist(), ws, ms.tolist()):
        per_cell = m // 2**n
        vals = f.dring(r, m, offset=0.5)
        arc = vals[j * per_cell:(j + 1) * per_cell]
        total += (w * (1.0 - r) ** (p - 1.0) * r * (2.0 * math.pi / m)
                  * float((np.abs(arc) ** p).sum()))
    return total


class TestCarlesonBox:
    def test_root_box_identity(self):
        p = 3.0
        val = carleson_box_measure(Polynomial([0, 1.0]), p, 0, 0)
        assert val == pytest.approx(2 * math.pi / (p * (p + 1)), rel=1e-9)

    def test_constant_zero(self):
        assert carleson_box_measure(Polynomial([2.0]), 3.0, 4, 7) == 0.0

    def test_children_sum_below_parent(self):
        f = Polynomial([0, 0, 1.0])
        full = carleson_box_measure(f, 3.0, 2, 1)
        kids = sum(carleson_box_measure(f, 3.0, 3, j) for j in (2, 3))
        assert kids <= full + 1e-12
        # the difference is the top-half ring contribution, strictly positive
        assert full - kids > 0

    def test_matches_besov_power(self):
        from cyclia.norms import besov_seminorm
        f = Polynomial([0, 1.0, 0.5])
        p = 3.0
        box = carleson_box_measure(f, p, 0, 0)
        semi, err = besov_seminorm(f, p)
        assert box == pytest.approx(semi**p, rel=1e-6)


class TestMultiplier:
    def test_boxes_match_carleson_oracle(self):
        # with the oracle's rule ending where the multiplier's does (u = 7,
        # an integer, so the panels coincide), each generation's sup box is
        # the max of the boxes integrated one at a time
        mu = kahane_smooth(PHI, 6, seed=7)
        grid = QuadratureGrid.build(u_max=7.0, panels=7, nodes_per_panel=4,
                                    m_min=16, m_max=1024)
        rep = multiplier_log_onebox(mu, 3.0, 3, grid)
        S = SingularInnerPower(mu)
        for row in rep.table:
            n = row["generation"]
            g = replace(grid, u_max=7.0 - n)
            boxes = [carleson_box_measure(S, 3.0, n, j, g)
                     for j in range(2**n)]
            assert row["sup_box"] == pytest.approx(max(boxes), rel=1e-12)

    def test_lebesgue_zero(self):
        rep = multiplier_log_onebox(LEB, 3.0, 8)
        assert rep.passed
        assert rep.fits["sup_ratio"] < 1e-30

    def test_atom_fails(self):
        rep = multiplier_log_onebox(ATOM, 3.0, 12)
        assert not rep.passed

    def test_atom_table_matches_the_modulus_power(self):
        # the unit atom's table (p 3, 12 generations) read from
        # exp(p log |S'|) and from |S'|^p on the jet of the same rings, its
        # boxes summed per generation without the fold: 1e-12 relative
        p, generations = 3.0, 12
        rep = multiplier_log_onebox(ATOM, p, generations)
        grid = default_grid()
        u_hi = max(grid.u_max, generations + 4.0)
        S = SingularInnerPower(ATOM)
        box = {n: np.zeros(2**n) for n in range(1, generations + 1)}
        for u, r, w, m in zip(*_radial_rule(
                np.append(np.arange(math.ceil(u_hi)), u_hi),
                grid.nodes_per_panel, grid.m_min, grid.m_max)):
            dens = np.abs(S.jet(float(r), int(m), 0.5)[1]) ** p * (
                w * (1.0 - r) ** (p - 1.0) * r * 2.0 * math.pi / m)
            for n in range(1, min(int(u), generations) + 1):
                box[n] += dens.reshape(2**n, -1).sum(axis=1)
        assert [row["sup_box"] for row in rep.table] == pytest.approx(
            [box[n].max() for n in range(1, generations + 1)], rel=1e-12)

    def test_kahane_stabilizes(self, kahane):
        rep = multiplier_log_onebox(kahane, 3.0, 10)
        assert rep.passed


class TestDerivativeSup:
    def test_lebesgue_zero(self):
        rep = derivative_sup_ratio(LEB, PHI, [0.5, 0.9])
        assert rep.passed
        assert rep.fits["sup_ratio"] < 1e-12

    def test_atom_power_law_unbounded(self):
        rs = [1 - 2.0**-k for k in range(2, 15)]
        rep = derivative_sup_ratio(ATOM, PowerLaw(1.0, 0.5), rs)
        assert not rep.passed

    def test_kahane_bounded(self, kahane):
        rs = [1 - 2.0**-k for k in range(2, 15)]
        rep = derivative_sup_ratio(kahane, PHI, rs)
        assert rep.passed

    def test_zero_gauge_ratio_is_inf(self):
        # phi(1 - r) underflows to 0 at r = 0.999: the ratio reads inf, with
        # no exception and no warning, and the trend rule fails it
        rep = derivative_sup_ratio(ATOM, LogPower(1.0, 400.0), [0.5, 0.999])
        assert math.isfinite(rep.table[0]["ratio"])
        assert rep.table[1]["ratio"] == math.inf
        assert rep.verdict == "fail"


# atoms only, pieces only, both
SWEEP_MEASURES = {
    "atoms": lambda: atomic([(0.1, 0.6), (0.55, 0.4)]),
    "pieces": lambda: kahane_smooth(PHI, 8, seed=7),
    "both": lambda: CircleMeasure(atoms=[(0.4, 0.5), (0.9, 0.25)],
                                  pieces=[(0.1, 0.3, 2.0), (0.6, 0.7, 1.0)]),
}


class TestSweepBuffers:
    """Each sweep passes each ring's log |f'| back to the next ring as
    out=; its numbers are those of fresh per-ring calls, bit for bit, so
    no ring reads what an earlier one left, and no value a sweep read from
    a ring is overwritten by the next."""

    @pytest.fixture
    def fresh_rings(self, monkeypatch):
        """Installs log_abs_dring that ignores out=: every ring is fresh."""
        def install():
            for cls in (SingularInnerPower, DilationQuotient):
                def per_ring(self, r, m, offset=0.0, out=None,
                             original=cls.log_abs_dring):
                    return original(self, r, m, offset)

                monkeypatch.setattr(cls, "log_abs_dring", per_ring)
        return install

    @staticmethod
    def _shared(ms):
        # several consecutive rings share one M
        ms = list(ms)
        return any(a == b for a, b in zip(ms, ms[1:]))

    @pytest.mark.parametrize("kind", list(SWEEP_MEASURES))
    def test_besov_seminorm(self, kind, fresh_rings):
        grid = QuadratureGrid.build(u_max=8.0, panels=4)
        assert self._shared(grid.m)

        def seminorms():
            mu = SWEEP_MEASURES[kind]()
            return [besov_seminorm(SingularInnerPower(mu, 0.7), 3.0, grid),
                    besov_seminorm(DilationQuotient(
                        SingularInnerPower(mu, 0.3), 0.9), 3.0, grid)]

        got = seminorms()
        fresh_rings()
        assert seminorms() == got

    @pytest.mark.parametrize("kind", list(SWEEP_MEASURES))
    def test_multiplier_offset_ring(self, kind, fresh_rings):
        grid = QuadratureGrid.build(u_max=8.0, panels=4)
        assert self._shared(_radial_rule(np.arange(9.0), grid.nodes_per_panel,
                                         grid.m_min, grid.m_max)[3])

        def report():
            return multiplier_log_onebox(SWEEP_MEASURES[kind](), 3.0, 4, grid)

        got = report()
        fresh_rings()
        want = report()
        assert (got.table, got.fits) == (want.table, want.fits)

    @pytest.mark.parametrize("kind", list(SWEEP_MEASURES))
    def test_derivative_sup(self, kind, fresh_rings):
        rs = [1 - 2.0**-k for k in range(2, 12)]
        assert self._shared(diagnostics._ring_count(r, 4096) for r in rs)

        def report():
            return derivative_sup_ratio(SWEEP_MEASURES[kind](), PHI, rs)

        got = report()
        fresh_rings()
        want = report()
        assert (got.table, got.fits) == (want.table, want.fits)

    @pytest.mark.parametrize("sweep, starts", [
        ("besov", 3), ("multiplier", 1), ("derivative-sup", 1)])
    def test_each_ring_gets_the_last_result_back(self, sweep, starts,
                                                 monkeypatch):
        # the reuse policy: a sweep passes every ring after its first the
        # array its thread's previous ring returned, which that ring writes
        # when it has the same M, so the sweep allocates once per M
        # (besov_seminorm starts three times: the outermost ring alone,
        # then each worker's share)
        calls, original = [], SingularInnerPower.log_abs_dring

        def recorded(self, r, m, offset=0.0, out=None):
            got = original(self, r, m, offset, out)
            calls.append((threading.get_ident(), m, out, got))
            return got

        monkeypatch.setattr(SingularInnerPower, "log_abs_dring", recorded)
        mu = SWEEP_MEASURES["atoms"]()
        grid = QuadratureGrid.build(u_max=8.0, panels=4)
        if sweep == "besov":
            besov_seminorm(SingularInnerPower(mu, 1.0), 3.0, grid)
        elif sweep == "multiplier":
            multiplier_log_onebox(mu, 3.0, 4, grid)
        else:
            derivative_sup_ratio(mu, PHI, [1 - 2.0**-k for k in range(2, 12)])
        last = {}
        for thread, m, out, got in calls:
            assert out is None or out is last[thread]
            assert (got is out) == (out is not None and out.size == m)
            last[thread] = got
        assert sum(out is None for _, _, out, _ in calls) == starts
        assert any(got is out for _, _, out, got in calls)

    @pytest.mark.parametrize("check", ["multiplier", "derivative-sup"])
    def test_streamed_rings_equal_full_jet_rings(self, check, monkeypatch):
        # the atom sweeps on 3 atoms: the rings stream the atoms' sums into
        # log |S'| one point slice at a time, with the report of rings
        # reduced from the full (2, M) jet
        mu = atomic([(0.1, 0.5), (0.4, 0.3), (0.8, 0.2)])
        grid = QuadratureGrid.build(u_max=8.0, panels=4)

        def report():
            if check == "multiplier":
                return multiplier_log_onebox(mu, 3.0, 4, grid)
            return derivative_sup_ratio(mu, PHI, [1 - 2.0**-k
                                                  for k in range(2, 12)])

        def full_jet(self, r, m, offset=0.0, out=None):
            e, e1 = np.stack(herglotz_jet(self.mu, r, m, offset))
            with np.errstate(divide="ignore"):
                out = np.log(np.abs(e1))
            out += math.log(self.alpha)
            out -= self.alpha * e.real
            return out

        got = report()
        monkeypatch.setattr(SingularInnerPower, "log_abs_dring", full_jet)
        want = report()
        assert (got.table, got.fits) == (want.table, want.fits)


class TestRingCount:
    @pytest.mark.parametrize("k", range(10, 16))
    def test_reaches_64_over_one_minus_r(self, k):
        # 64/(1 - r) = 2^k + 1/2: truncated to 2^k, it undersampled the ring
        r = 1.0 - 64.0 / (2**k + 0.5)
        assert diagnostics._ring_count(r, 1024) >= min(64.0 / (1.0 - r), 2**16)

    @pytest.mark.parametrize("check, ms", [
        ("pmeans", [1024] * 3 + [2048, 4096, 8192, 16384, 32768] + [65536] * 3),
        ("derivative-sup", [4096] * 5 + [8192, 16384, 32768] + [65536] * 9)])
    def test_default_grid_rings(self, check, ms, monkeypatch):
        # the angular count of every ring the check evaluates on its default
        # grid: a change of the ring-size rule that moves bytes shows here
        seen = []
        ring, dring = diagnostics.herglotz_ring, SingularInnerPower.log_abs_dring

        def counted(fn):
            def wrapper(obj, r, m, *args, **kwargs):
                seen.append(m)
                return fn(obj, r, m, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(diagnostics, "herglotz_ring", counted(ring))
        monkeypatch.setattr(SingularInnerPower, "log_abs_dring", counted(dring))
        rs = make_grid(RunConfig(command="check", spec={}), *CHECKS[check].grid)
        if check == "pmeans":
            pmean_ratio(ATOM, PowerLaw(1.0, 0.5), 3.0, rs)
        else:
            derivative_sup_ratio(ATOM, PowerLaw(1.0, 0.5), rs)
        assert seen == ms


class TestKorenblum:
    def test_atom_obstruction(self):
        E = IntervalSet.from_arcs([(0.0, 0.0)])
        rep = korenblum_necessity(ATOM, E)
        assert rep.verdict == "fail"
        assert rep.fits["mass"] == pytest.approx(1.0)
        assert rep.fits["entropy"] == 0.0

    def test_lebesgue_no_obstruction(self):
        E = IntervalSet.from_arcs([(0.1, 0.1), (0.5, 0.5)])
        rep = korenblum_necessity(LEB, E)
        assert rep.verdict == "pass"

    def test_salem_obstruction(self, salem):
        mu, E = salem
        rep = korenblum_necessity(mu, E)
        assert rep.verdict == "fail"
        assert rep.fits["entropy_verdict"] == "convergent"


class TestAnnihilator:
    @pytest.fixture(scope="class")
    def atom_coeffs(self):
        # hat S(0..801) of the unit atom, K = 800
        return maclaurin(SingularInnerPower(ATOM, 1.0), 801)

    def test_lebesgue_exact_zero(self):
        c = maclaurin(SingularInnerPower(LEB, 1.0), 101)
        v = annihilator_pairing(c, 0, 0.9)
        assert abs(v) < 1e-14

    def test_atom_decreasing_in_r(self, atom_coeffs):
        vals = [abs(annihilator_pairing(atom_coeffs, 0, r))
                for r in (0.9, 0.99, 0.999)]
        assert vals[1] < vals[0] and vals[2] < vals[1]

    def test_converged_in_k(self, atom_coeffs):
        a = abs(annihilator_pairing(atom_coeffs[:402], 1, 0.99))
        b = abs(annihilator_pairing(atom_coeffs, 1, 0.99))
        assert a == pytest.approx(b, abs=1e-5)

    def test_report_extracts_coefficients_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return maclaurin(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "maclaurin", counted)
        rep = annihilator_report(ATOM)
        assert len(calls) == 1 and len(rep.table) == 6


class TestFourier:
    def test_atom_slope_zero(self):
        rep = fourier_decay_fit(ATOM, 256)
        assert rep.fits["slope"] == 0.0
        assert not rep.passed

    def test_lebesgue_decays_faster_than_any_power(self):
        # every hat mu(n), n >= 1, vanishes: no envelope to fit, and a pass
        rep = fourier_decay_fit(LEB, 256)
        assert rep.fits["slope"] == -math.inf
        assert rep.table == [] and rep.to_csv() == ""
        assert rep.passed
        assert json.loads(rep.to_json())["fits"]["slope"] == "-inf"

    def test_envelope_ties_take_the_first_n(self):
        # |hat mu(n)| = 1 at every multiple of 5, up to rounding; each
        # octave reports the first of them, whatever the rounding
        mu = atomic([(0.1, 0.25), (0.3, 0.5), (0.7, 0.25)])
        rep = fourier_decay_fit(mu, 4096)
        first = {row["octave"]: row["n"] for row in rep.table}
        assert [first[k] for k in range(2, 12)] == \
            [5, 10, 20, 35, 65, 130, 260, 515, 1025, 2050]
        assert all(row["envelope"] == pytest.approx(1.0, abs=1e-12)
                   for row in rep.table if 2 <= row["octave"] <= 11)

    def test_salem_decay(self, salem):
        mu, _ = salem
        rep = fourier_decay_fit(mu, 2048)
        assert rep.passed
        assert rep.fits["slope"] <= -0.25

    def test_lp_atom_fails(self):
        rep = fourier_lp_summability(ATOM, 4.0, 1024)
        assert not rep.passed
        sums = [row["partial_sum"] for row in rep.table]
        assert sums[-1] > 1.9 * sums[-2]        # linear growth

    def test_lp_lebesgue_mass_power(self):
        rep = fourier_lp_summability(lebesgue(2.0), 3.0, 256)
        assert rep.passed
        assert rep.fits["partial_sum"] == pytest.approx(8.0)

    @pytest.mark.parametrize("mu", [lebesgue(1e200), atomic([(0.0, 1e120)])],
                             ids=["base", "coefficients"])
    def test_lp_overflowing_partial_sum_is_inconclusive(self, mu):
        # mu(T)^p, or the coefficients' sum, overflows a float: no fit
        # decides, so no verdict
        with np.errstate(all="raise"):
            rep = fourier_lp_summability(mu, 4.0, 256)
        assert math.isnan(rep.worst_ratio)
        assert math.isnan(rep.fits["increment_slope"])
        assert rep.verdict == "inconclusive"
        assert rep.table[-1]["partial_sum"] == math.inf

    def test_lp_salem_passes(self, salem):
        mu, _ = salem
        rep = fourier_lp_summability(mu, 4.0, 2048)
        assert rep.passed

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fourier_decay_fit(ATOM, 32)
        with pytest.raises(ValueError):
            fourier_lp_summability(ATOM, 1.5, 256)
