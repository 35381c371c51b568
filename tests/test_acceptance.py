"""Acceptance gate: one test per top-level criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run) and asserts the stated tolerances and
runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from cyclia.diagnostics import (brown_shields_table, derivative_sup_ratio,
                                fourier_decay_fit, fourier_lp_summability,
                                integrability_report, korenblum_necessity,
                                multiplier_log_onebox, pmean_ratio)
from cyclia.dyadic import martingale_from_measure, max_square, tail_distribution
from cyclia.measures import (SalemSpec, atomic, bc_entropy,
                             choose_salem_parameters, kahane_smooth, lebesgue,
                             salem_measure, smoothness_constant)
from cyclia.models import (Polynomial, SingularInnerPower, herglotz,
                           herglotz_derivative, maclaurin)
from cyclia.norms import QuadratureGrid, besov_seminorm
from cyclia.profiles import LogPower, PowerLaw

ATOM = atomic([(0.0, 1.0)])


def _report(num, label, ok):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def test_criterion_1_closed_form_oracles():
    t0 = time.perf_counter()
    errs = []
    errs.append(abs(SingularInnerPower(ATOM, 1.0).ring(0.0, 1)[0] - math.exp(-1)))
    for r in (0.1, 0.5, 0.9, 0.99):
        errs.append(abs(herglotz(ATOM, -r).real - (1 - r) / (1 + r)))
    leb = lebesgue(1.75)
    for z in (0.0, 0.9, -0.9, 0.5j, 0.3 - 0.4j):
        errs.append(abs(herglotz(leb, z) - 1.75))
    for z in (0.0, 0.5j, -0.6):
        errs.append(abs(herglotz_derivative(ATOM, z) - 2.0 / (1 - z) ** 2))
    elapsed = time.perf_counter() - t0
    ok = max(errs) < 1e-10 and elapsed < 1.0
    _report(1, f"closed-form oracles, max err {max(errs):.2e}, "
               f"{elapsed:.2f}s", ok)


def test_criterion_2_maclaurin_extraction():
    t0 = time.perf_counter()
    k_max = 200
    # power-series composition oracle for exp(-(1+z)/(1-z))
    g = np.full(k_max + 2, -2.0)
    g[0] = -1.0
    oracle = np.zeros(k_max + 1)
    oracle[0] = math.exp(-1.0)
    for k in range(k_max):
        acc = sum((j + 1) * g[j + 1] * oracle[k - j] for j in range(k + 1))
        oracle[k + 1] = acc / (k + 1)
    c = maclaurin(SingularInnerPower(ATOM, 1.0), k_max)
    # the k = 2 coefficient vanishes identically, so measure errors at
    # zero-oracle entries against the leading coefficient scale instead
    denom = np.maximum(np.abs(oracle), 1e-6 * np.abs(oracle).max())
    rel = np.abs(c - oracle) / denom
    e = math.exp(-1.0)
    spots = [abs(c[0] - e), abs(c[1] + 2 * e), abs(c[2]),
             abs(c[3] - 2 * e / 3)]
    elapsed = time.perf_counter() - t0
    ok = rel.max() <= 1e-8 and max(spots) < 1e-10 and elapsed < 5.0
    _report(2, f"maclaurin vs composition oracle, max rel err "
               f"{rel.max():.2e}, {elapsed:.2f}s", ok)


def test_criterion_3_besov_quadrature():
    z = Polynomial([0.0, 1.0])
    v2, _ = besov_seminorm(z, 2.0)
    v3, _ = besov_seminorm(z, 3.0)
    err2 = abs(v2 - math.sqrt(math.pi / 3))
    err3 = abs(v3 - (math.pi / 6) ** (1 / 3))
    models = [Polynomial([0, 1.0]), Polynomial([0, 0, 1.0]),
              Polynomial([0, 0, 0, 1.0]), Polynomial([1.0, 1.0]),
              Polynomial([2.0, -1.0, 0.5]), Polynomial([0, 1.0, 1.0, 1.0]),
              Polynomial([5.0]), Polynomial([0, 0.1]),
              SingularInnerPower(ATOM, 1.0), SingularInnerPower(ATOM, 0.5)]
    grid = QuadratureGrid.build(panels=6)
    bounded = True
    for f in models:
        v1, e1 = besov_seminorm(f, 2.0, grid)
        vr, er = besov_seminorm(f, 2.0, grid.refine())
        if abs(v1 - vr) > e1 + er:
            bounded = False
    ok = err2 < 1e-6 and err3 < 1e-6 and bounded
    _report(3, f"besov closed forms (errs {err2:.1e}, {err3:.1e}) and "
               f"error estimates bound doubling on 10 models", ok)


def test_criterion_4_martingale_laws():
    t0 = time.perf_counter()
    phi = LogPower(1.0, 0.5)
    d, xi = choose_salem_parameters(0.8, 0.05)
    salem_mu, _ = salem_measure(SalemSpec(alpha=0.8, epsilon=0.05, d=d,
                                          xi=xi, generations=12, seed=3))
    constructions = {
        "lebesgue": lebesgue(),
        "atom": ATOM,
        "kahane": kahane_smooth(phi, 16, seed=7),
        "salem": salem_mu,
    }
    mean_value_ok = True
    conc_ok = True
    for name, mu in constructions.items():
        m = martingale_from_measure(mu, 16)
        for n in range(16):
            child_mean = m.levels[n + 1].reshape(-1, 2).mean(axis=1)
            gap = np.abs(m.levels[n] - child_mean)
            if gap.max() > 1e-12 * (1 + np.abs(m.levels[n]).max()):
                mean_value_ok = False
        for n in range(1, 17):
            an = max_square(m, n)
            if an == 0:
                continue
            # the sub-Gaussian bound as stated saturates below ~2 A_n for
            # shallow generations, so the grid starts there
            for s in np.geomspace(2 * an, 6 * an, 20):
                if tail_distribution(m, n, s) > math.exp(-s**2 / (2 * an**2)):
                    conc_ok = False
    mk = martingale_from_measure(constructions["kahane"], 16)
    incr_ok = all(
        np.abs(mk.increments(n)).max()
        <= float(phi.phi(2.0**-n)) / 2 * (1 + 1e-8)
        for n in range(1, 17))
    elapsed = time.perf_counter() - t0
    ok = mean_value_ok and incr_ok and conc_ok and elapsed < 30.0
    _report(4, f"martingale laws on 4 constructions to depth 16, "
               f"{elapsed:.1f}s", ok)


def test_criterion_5_theorem_main_pipeline():
    t0 = time.perf_counter()
    phi = LogPower(1.0, 0.5)
    mu = kahane_smooth(phi, 16, seed=7)

    c = smoothness_constant(mu, phi, [2.0**-k for k in range(3, 13)])
    smooth_ok = c <= 36.0

    r_grid = [1 - 2.0**-k for k in range(2, 19)]
    deriv = derivative_sup_ratio(mu, phi, r_grid)

    mult = multiplier_log_onebox(mu, 3.0, 12)
    gens = {row["generation"]: row["sup_ratio"] for row in mult.table}
    stabilizes = max(gens[n] for n in range(6, 13)) <= 2.0 * gens[6] + 1e-30

    pmeans = pmean_ratio(mu, phi, 3.0, [1 - 2.0**-k for k in range(2, 15)])
    spread_ok = pmeans.fits["residual_spread_decades"] < 1.0

    t_grid = [0.5, 0.9, 0.99, 0.999]
    bs = brown_shields_table(SingularInnerPower(mu, 0.05), 3.0, t_grid)

    # contrast: the atom fails all three
    atom_deriv = derivative_sup_ratio(ATOM, PowerLaw(1.0, 0.5), r_grid)
    atom_mult = multiplier_log_onebox(ATOM, 3.0, 12)
    atom_bs = brown_shields_table(SingularInnerPower(ATOM, 0.1), 3.0, t_grid)

    elapsed = time.perf_counter() - t0
    ok = (smooth_ok and deriv.passed and mult.passed and stabilizes
          and pmeans.passed and spread_ok and bs.passed
          and not atom_deriv.passed and not atom_mult.passed
          and not atom_bs.passed and elapsed < 600.0)
    _report(5, f"main pipeline: C={c:.2f}<=36, deriv/multiplier/pmeans/"
               f"dilates pass, atom contrast fails, {elapsed:.0f}s", ok)


def test_criterion_6_salem_pipeline():
    t0 = time.perf_counter()
    d, xi = choose_salem_parameters(0.8, 0.05)
    spec = SalemSpec(alpha=0.8, epsilon=0.05, d=d, xi=xi, generations=12,
                     seed=3)
    mu, E = salem_measure(spec)

    ent = bc_entropy(E)
    subs = [s for _, s in ent.generation_subtotals]
    entropy_ok = ent.verdict == "convergent" and subs[-1] < 0.5 * max(subs)

    decay = fourier_decay_fit(mu, 4096)
    decay_ok = decay.fits["slope"] <= -0.25

    lp = fourier_lp_summability(mu, 4.0, 4096)
    lp_atom = fourier_lp_summability(ATOM, 4.0, 4096)

    kor = korenblum_necessity(mu, E)
    necessity_ok = kor.verdict == "fail" and kor.fits["mass"] > 0.99

    elapsed = time.perf_counter() - t0
    ok = (entropy_ok and decay_ok and lp.passed and not lp_atom.passed
          and necessity_ok and elapsed < 120.0)
    _report(6, f"salem pipeline: entropy convergent, decay slope "
               f"{decay.fits['slope']:.2f}<=-0.25, lp p=4 pass/atom fail, "
               f"not-cyclic verdict, {elapsed:.0f}s", ok)


def test_criterion_7_phi_transforms():
    phi = LogPower(1.0, 0.5)
    errs = [abs(phi.bracket(10.0**-k)
                - math.sqrt(math.log(math.log(math.e * 10.0**k))))
            for k in range(1, 9)]
    rep3 = integrability_report(phi, p=3.0, epsilon=0.01).fits
    rep2 = integrability_report(phi, p=2.0, epsilon=0.01).fits
    ok = (max(errs) < 1e-9
          and rep3["verdict_first"] == "convergent"
          and rep3["verdict_weighted"] == "convergent"
          and rep2["verdict_first"] == "divergent")
    _report(7, f"gauge bracket closed form (max err {max(errs):.1e}) and "
               f"integrability verdicts", ok)


def test_criterion_8_determinism(tmp_path):
    import os

    from cyclia.cli import main

    spec = ('{"type": "salem", "params": {"alpha": 0.8, "epsilon": 0.05},'
            ' "depth": 8, "seed": 11}')
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    main(["suite", "--spec", spec, "--preset", "salem", "--seed", "11",
          "--out", a])
    main(["suite", "--spec", spec, "--preset", "salem", "--seed", "11",
          "--out", b])

    def read(path):
        with open(path, "rb") as fh:
            return fh.read()

    names = sorted(os.listdir(a))
    identical = names == sorted(os.listdir(b)) and all(
        read(os.path.join(a, n)) == read(os.path.join(b, n)) for n in names)
    _report(8, f"suite rerun byte-identical across {len(names)} artifacts",
            identical)
