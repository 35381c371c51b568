import math

import mpmath
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


class TestPowerLaw:
    def test_bracket_closed_form(self):
        phi = PowerLaw(3.0, 0.25)
        s = 1e-4
        target = 3.0 * math.sqrt((1 - s**0.5) / 0.5)
        assert phi.bracket(s) == pytest.approx(target, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerLaw(1.0, 1.5)


@pytest.mark.parametrize("gauge", [
    LogPower(1.0, 0.5), LogPower(2.0, 0.3), LogPower(1.0, 0.9),
    PowerLaw(1.0, 0.5), PowerLaw(3.0, 0.25), PowerLaw(1.0, 0.95)],
    ids=repr)
def test_phi_is_positive_and_nondecreasing(gauge):
    vals = gauge.phi(np.geomspace(1e-10, 1.0, 400))
    assert (vals > 0).all()
    assert (np.diff(vals) >= 0).all()


# phi and the bracket of each gauge as functions of v = log(e/t), written
# out from their definitions (bracket(s)^2 = int_s^1 phi^2 dt/t), for
# mpmath at 30 digits
def _log_power_half(v):
    return v ** -0.5, mpmath.sqrt(mpmath.log(v))


def _log_power_c2_g03(v):
    return 2 * v ** -0.3, 2 * mpmath.sqrt((v ** 0.4 - 1) / 0.4)


def _power_law_c1_b05(v):
    t = mpmath.exp(1 - v)
    return t ** 0.5, mpmath.sqrt(1 - t)


class TestIntegrability:
    @pytest.mark.parametrize("phi, p", [
        (LogPower(1.0, 0.5), 3.0), (LogPower(1.0, 0.5), 2.0),
        (LogPower(2.0, 0.3), 3.0),
        (LogPower(1.5, 0.8), 1.25),  # gamma p = 1: the logarithmic case
        (PowerLaw(1.0, 0.5), 2.0), (PowerLaw(3.0, 0.1), 5.0)])
    def test_first_partial_sums_closed_form(self, phi, p):
        # int_{2^-k}^1 phi^p dt/t in closed form at every k
        rep = integrability_report(phi, p, epsilon=0.05)
        for row in rep.table:
            k = row["k"]
            if isinstance(phi, LogPower):
                a, v = 1.0 - phi.gamma * p, 1.0 + k * math.log(2.0)
                want = phi.C ** p * (math.log(v) if a == 0.0
                                     else (v ** a - 1.0) / a)
            else:
                bp = phi.beta * p
                want = phi.C ** p * -math.expm1(-k * bp * math.log(2.0)) / bp
            assert row["first"] == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("phi, gauge, p, epsilon", [
        (LogPower(1.0, 0.5), _log_power_half, 3.0, 0.05),
        (LogPower(2.0, 0.3), _log_power_c2_g03, 2.0, 0.5),
        (PowerLaw(1.0, 0.5), _power_law_c1_b05, 2.0, 0.5)])
    def test_weighted_partial_sums_against_mpmath(self, phi, gauge, p,
                                                  epsilon):
        # int_{2^-k}^1 phi^p bracket exp(epsilon bracket^2) dt/t, dt/t = dv
        rep = integrability_report(phi, p, epsilon)

        def g(v):
            f, br = gauge(v)
            return f ** p * br * mpmath.exp(epsilon * br**2)

        with mpmath.workdps(30):
            ln2, total, k0 = mpmath.log(2), mpmath.mpf(0), 0
            for k in (1, 2, 8, 45):
                total += mpmath.quad(g, [1 + j * ln2 for j in range(k0, k + 1)])
                k0 = k
                assert rep.table[k - 1]["weighted"] == pytest.approx(
                    float(total), rel=1e-12, abs=0.0)

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

    @pytest.mark.parametrize("epsilon", [0.0, -1.0])
    def test_invalid_epsilon(self, epsilon):
        # the weight exp(epsilon bracket^2) of the condition needs epsilon > 0
        with pytest.raises(ValueError, match="epsilon must be positive"):
            integrability_report(LogPower(1.0, 0.5), p=3.0, epsilon=epsilon)
