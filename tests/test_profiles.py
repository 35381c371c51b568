import math

import numpy as np
import pytest

from cyclia.diagnostics import integrability_report
from cyclia.profiles import LogPower, PowerLaw


class TestLogPower:
    def test_values(self):
        phi = LogPower(2.0, 0.5)
        assert float(phi.phi(1.0)) == pytest.approx(2.0)
        assert float(phi.phi(math.exp(-3))) == pytest.approx(2.0 / 2.0)

    def test_bracket_closed_form_half(self):
        phi = LogPower(1.0, 0.5)
        for s in [1e-1, 1e-3, 1e-8]:
            target = math.sqrt(math.log(math.log(math.e / s)))
            assert phi.bracket(s) == pytest.approx(target, abs=1e-12)

    def test_bracket_matches_quadrature(self):
        phi = LogPower(1.5, 0.8)
        from scipy.integrate import quad
        for s in [1e-2, 1e-5]:
            ref, _ = quad(lambda t: float(phi.phi(t)) ** 2 / t, s, 1.0,
                          epsrel=1e-11, limit=300)
            assert phi.bracket(s) == pytest.approx(math.sqrt(ref), rel=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            LogPower(-1.0, 0.5)
        with pytest.raises(ValueError):
            LogPower(1.0, 0.0)

    def test_beta0_is_gamma_plus_quarter_clamped(self):
        assert LogPower(1.0, 0.5).beta0 == 0.75
        assert LogPower(1.0, 0.8).beta0 == 0.95

    def test_regularity_report(self):
        rep = LogPower(1.0, 0.5).regularity_report()
        assert rep["positive"] and rep["nondecreasing"]
        assert rep["almost_decreasing_constant"] > 0


class TestPowerLaw:
    def test_bracket_closed_form(self):
        phi = PowerLaw(3.0, 0.25)
        s = 1e-4
        target = 3.0 * math.sqrt((1 - s**0.5) / 0.5)
        assert phi.bracket(s) == pytest.approx(target, rel=1e-12)

    def test_beta0_equals_beta(self):
        assert PowerLaw(1.0, 0.3).beta0 == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerLaw(1.0, 1.5)


class TestIntegrability:
    def test_log_power_p3_converges(self):
        rep = integrability_report(LogPower(1.0, 0.5), p=3.0, epsilon=0.01)
        assert rep.fits["verdict_first"] == "convergent"
        assert rep.fits["verdict_weighted"] == "convergent"

    def test_log_power_p2_diverges(self):
        # phi^2/t = 1/(t log(e/t)) integrates to log log: the borderline
        rep = integrability_report(LogPower(1.0, 0.5), p=2.0, epsilon=0.01)
        assert rep.fits["verdict_first"] == "divergent"

    def test_power_law_converges_fast(self):
        rep = integrability_report(PowerLaw(1.0, 0.5), p=2.0, epsilon=0.1)
        assert rep.fits["verdict_first"] == "convergent"

    def test_truncations_monotone(self):
        rep = integrability_report(LogPower(1.0, 0.5), p=3.0, epsilon=0.05)
        totals = [row["first"] for row in rep.table]
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            integrability_report(LogPower(1.0, 0.5), p=0.0, epsilon=0.1)
