"""The benchmark's oracles against mpmath (and exact arithmetic) on small cases.

Run with ``python3 -m pytest bench/test_oracles.py``.
"""

import math
import os
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

mp.mp.dps = 40


def _salem_leaves_mp(alpha, generations, seed, d=2):
    """Leaf left endpoints and the leaf length, built generation by generation."""
    xi, nu, xis = oracles.salem_geometry(alpha, generations, seed, d)
    starts, length = [mp.mpf(0)], mp.mpf(1)
    gaps = []
    for xi_j in xis:
        child = mp.mpf(xi_j) * length
        new = []
        for s in starts:
            kids = [s + k * mp.mpf(nu) * length for k in range(d)]
            new.extend(kids)
            gaps.extend(kids[k + 1] - kids[k] - child for k in range(d - 1))
            gaps.append(s + length - kids[-1] - child)
        starts, length = new, child
    return starts, length, gaps


def test_salem_product_formula_matches_leaf_sum():
    alpha, J, seed = 0.8, 4, 3
    starts, length, _ = _salem_leaves_mp(alpha, J, seed)
    ns = [0, 1, 2, 7, 40, 333]
    got = oracles.salem_fourier(ns, alpha, J, seed)
    for n, g in zip(ns, got):
        if n == 0:
            want = mp.mpf(1)
        else:
            leaf = (1 - mp.expjpi(-2 * n * length)) / (2j * mp.pi * n * length)
            want = sum(mp.expjpi(-2 * n * a) for a in starts) * leaf / len(starts)
        assert abs(g - complex(want)) < 1e-13


def test_salem_leaf_transform_against_quadrature():
    alpha, J, seed = 0.8, 2, 5
    starts, length, _ = _salem_leaves_mp(alpha, J, seed)
    n = 3
    want = sum(mp.quad(lambda x: mp.expjpi(-2 * n * x), [a, a + length])
               for a in starts) / (len(starts) * length)
    got = oracles.salem_fourier([n], alpha, J, seed)[0]
    assert abs(got - complex(want)) < 1e-13


def test_salem_gap_entropy_matches_gap_list():
    alpha, J, seed = 0.8, 5, 11
    _, _, gaps = _salem_leaves_mp(alpha, J, seed)
    want = sum(g * mp.log(1 / g) for g in gaps)
    assert abs(oracles.salem_gap_entropy(alpha, J, seed) - float(want)) < 1e-13


def test_octave_envelope():
    mags = np.array([1.0, 0.5, 0.7, 0.1, 0.2, 0.3, 0.05])
    assert oracles.octave_envelope(mags) == [(0, 1, 1.0), (1, 3, 0.7),
                                            (2, 6, 0.3)]


def _atom_inner_mp(z):
    return mp.exp(-(1 + z) / (1 - z))


@pytest.mark.parametrize("z", [0.3, -0.5 + 0.2j, 0.9j, 0.99 * mp.expjpi(0.01)])
def test_atom_derivative_closed_form(z):
    z = mp.mpc(z)
    want = mp.log(abs(mp.diff(_atom_inner_mp, z)))
    got = oracles.atom_log_abs_deriv(complex(z))
    assert abs(got - float(want)) < 1e-10


@pytest.mark.parametrize("r", [0.5, 0.9, 0.999])
def test_atom_derivative_sup(r):
    # the sup sits where |1 - z|^2 = 1 - r^2
    r = mp.mpf(r)
    theta = mp.acos((1 + r * r - (1 - r * r)) / (2 * r))
    z = r * mp.expj(theta)
    peak = abs(mp.diff(_atom_inner_mp, z))
    assert abs(oracles.atom_deriv_sup(float(r)) / float(peak) - 1) < 1e-10
    sampled = oracles.atom_sampled_deriv_sup(float(r), 1 << 16)
    assert sampled <= oracles.atom_deriv_sup(float(r)) * (1 + 1e-12)
    assert sampled >= oracles.atom_deriv_sup(float(r)) * (1 - 1e-3)


def test_atom_maclaurin_against_laguerre():
    # exp(-x t/(1-t)) = sum L_n^(-1)(x) t^n, so hat S(n) = L_n^(-1)(2)/e
    k_max = 401
    got = oracles.atom_maclaurin(k_max)
    assert got.size == k_max + 1
    for n in list(range(0, 40)) + [100, 250, 401]:
        want = mp.laguerre(n, -1, 2, zeroprec=300) * mp.exp(-1)
        assert abs(got[n] - float(want)) < 1e-15


def test_atom_maclaurin_against_taylor():
    want = mp.taylor(_atom_inner_mp, 0, 8)
    got = oracles.atom_maclaurin(8)
    assert np.allclose(got, [float(w) for w in want], atol=1e-12, rtol=0)


def test_annihilator_pairing_against_mpmath():
    K = 30
    c = [mp.laguerre(n, -1, 2, zeroprec=300) * mp.exp(-1) for n in range(K + 2)]
    got_c = oracles.atom_maclaurin(K + 1)
    for m in (0, 1, 2):
        for r in (0.9, 0.99):
            want = 2 * mp.pi * sum(c[k - m] * c[k + 1] * mp.mpf(r) ** (2 * k + 1)
                                   for k in range(m, K + 1))
            got = oracles.annihilator_pairing(got_c, m, K, r)
            assert abs(got - complex(want)) < 1e-13


def test_kahane_leaves_keep_mean_and_sign():
    leaves = oracles.kahane_leaves(1.0, 0.5, 10, seed=7)
    assert leaves.size == 1024
    assert abs(leaves.mean() - 1.0) < 1e-12
    assert (leaves >= 0).all()
    again = oracles.kahane_leaves(1.0, 0.5, 10, seed=7)
    assert np.array_equal(leaves, again)


def _exact_window(leaves, x, h):
    """mu([x, x+h)) in rationals for rational x, h on the circle."""
    p = len(leaves)
    total, pos, end = Fraction(0), x, x + h
    while pos < end:
        k = math.floor(pos * p)
        nxt = min(Fraction(k + 1, p), end)
        total += leaves[k % p] * (nxt - pos)
        pos = nxt
    return total


def test_window_moduli_against_exact_scan():
    rng = np.random.default_rng(1)
    leaves = [Fraction(int(v), 8) for v in rng.integers(0, 17, size=8)]
    p = len(leaves)
    arr = np.array([float(v) for v in leaves])
    fine = [Fraction(k, 4 * p) for k in range(4 * p)]
    for t in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
        sup = max(_exact_window(leaves, x, t) for x in fine)
        assert abs(oracles.window_sup(arr, float(t)) - float(sup)) < 1e-14
        hs = [Fraction(1, 2 * p)] + [Fraction(2**j, p) for j in range(4)
                                      if Fraction(2**j, p) <= t]
        lower = max(abs(_exact_window(leaves, x, h)
                        - _exact_window(leaves, x - h, h))
                    for h in hs for x in fine)
        # the lower bound is the exact sup over those widths, and no more
        # than the sup over every width up to t sampled on the fine grid
        assert abs(oracles.smoothness_lower_bound(arr, float(t))
                   - float(lower)) < 1e-14
        widths = [Fraction(k, 4 * p) for k in range(1, int(t * 4 * p) + 1)]
        true_sup = max(abs(_exact_window(leaves, x, h)
                           - _exact_window(leaves, x - h, h))
                       for h in widths for x in fine)
        assert oracles.smoothness_lower_bound(arr, float(t)) <= true_sup


def _herglotz_mp(a, b, dens, z):
    z = mp.mpc(z)
    total = mp.mpc(0)
    for lo, hi, d in zip(a, b, dens):
        def f(x):
            w = mp.expjpi(2 * x)
            return (w + z) / (w - z)
        total += d * mp.quad(f, [lo, (lo + hi) / 2, hi])
    return total


@pytest.mark.parametrize("z", [0.0, 0.5, -0.7 + 0.1j, 0.95j,
                               0.97 * np.exp(2j * np.pi * 0.62)])
def test_herglotz_pieces_against_quadrature(z):
    a = [0.0, 0.1, 0.55, 0.8]
    b = [0.1, 0.4, 0.7, 1.0]
    dens = [1.5, 0.2, 3.0, 0.7]
    got = oracles.herglotz_pieces(a, b, dens, [z])[0]
    want = complex(_herglotz_mp(a, b, dens, z))
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_log_mean_exp_poisson_against_quadrature():
    # the point values of P are tested above; this tests the angular rule
    leaves = oracles.kahane_leaves(1.0, 0.5, 6, seed=2)
    r, p = 0.75, 3.0

    def integrand(theta):
        z = r * np.exp(1j * float(theta))
        return math.exp(p * oracles.dyadic_herglotz(leaves, [z])[0].real)

    with mp.workdps(20):
        want = mp.log(mp.quad(integrand, mp.linspace(0, 2 * mp.pi, 65)))
    got = oracles.log_mean_exp_poisson(leaves, r, p)
    assert abs(got - float(want)) < 1e-12


@pytest.mark.parametrize("gamma", [0.5, 0.3])
def test_log_power_bracket_against_quadrature(gamma):
    s = 1e-3
    want = mp.sqrt(mp.quad(lambda t: (mp.log(mp.e / t) ** -gamma) ** 2 / t,
                           [s, 0.01, 0.1, 1]))
    assert abs(oracles.log_power_bracket(1.0, gamma, s) - float(want)) < 1e-12
