"""The benchmark's workloads: the cyclia invocations of each, and the checks
that compare what they write against the oracles and the paper's verdicts.

A workload is built from the benchmark's ``--seed``: the Kahane and Salem
specs take it as their construction seed, and every reference value is
computed from the same seed in ``oracles``.  The unit atom has no random
input.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

# Below the canonical depth 16 and 12 generations, so that 70 runs fit an
# hour: the brown-shields dilation alone takes 30-38 s at any depth, while
# the moduli grow about 3x per two Kahane levels and 2.3x per Salem
# generation (README).
KAHANE_DEPTH = 12
KAHANE_C, KAHANE_GAMMA = 1.0, 0.5
SALEM_GENERATIONS = 11
SALEM_ALPHA, SALEM_EPSILON = 0.8, 0.05
P_DEFAULT = 3.0


@dataclass
class Op:
    """One cyclia invocation (its arguments without ``--out``), the exit code
    the paper predicts, and a check returning the problems found in its
    artifact directory and standard output."""

    label: str
    argv: list
    expect_exit: int
    check: Callable[[str, str], list]


@dataclass
class Workload:
    name: str
    specs: list
    ops: list
    ring_oracle: Callable | None = None
    notes: dict = field(default_factory=dict)


# -- helpers ----------------------------------------------------------------


def _load(out: str, name: str) -> dict:
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _rows(out: str, name: str) -> list:
    with open(os.path.join(out, name), newline="") as fh:
        return list(csv.DictReader(fh))


def _close(got, want, rel=0.0, abs_=0.0) -> bool:
    return (math.isfinite(got) and math.isfinite(want)
            and abs(got - want) <= abs_ + rel * abs(want))


class Problems(list):
    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)


def _report(out: str, stem: str, stdout: str, verdict: str,
            probs: Problems) -> dict | None:
    """Load <stem>.json, and require the verdict in it and on stdout."""
    try:
        rep = _load(out, stem + ".json")
    except (OSError, ValueError) as e:
        probs.append(f"{stem}.json unreadable: {e}")
        return None
    name = rep.get("name")
    probs.expect(rep.get("verdict") == verdict,
                 f"{name}: verdict {rep.get('verdict')!r}, expected {verdict!r}")
    probs.expect(f"{name}: {verdict}" in stdout.splitlines(),
                 f"{name}: no '{name}: {verdict}' line on stdout")
    return rep


def _guarded(fn):
    """Turn a malformed artifact into a reported problem, not a crash."""
    def check(out, stdout):
        try:
            return fn(out, stdout)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as e:
            return [f"malformed artifact: {type(e).__name__}: {e}"]
    return check


# -- kahane-main --------------------------------------------------------------


def kahane_main(seed: int) -> Workload:
    spec = {"type": "kahane", "params": {"C": KAHANE_C, "gamma": KAHANE_GAMMA},
            "depth": KAHANE_DEPTH, "seed": seed}
    leaves = oracles.kahane_leaves(KAHANE_C, KAHANE_GAMMA, KAHANE_DEPTH, seed)
    phi = lambda t: float(oracles.log_power_phi(KAHANE_C, KAHANE_GAMMA, t))  # noqa: E731
    # pmeans rows at r <= 0.9 need no more than 256 angular samples
    poisson_lme = {}

    def lme(r):
        if r not in poisson_lme:
            poisson_lme[r] = oracles.log_mean_exp_poisson(leaves, r, P_DEFAULT)
        return poisson_lme[r]

    @_guarded
    def anderson(out, stdout):
        probs = Problems()
        rep = _report(out, "kahane_anderson", stdout, "pass", probs)
        if rep is None:
            return probs
        ts = [row["t"] for row in rep["table"]]
        probs.expect(ts == [2.0**-k for k in range(2, 13)],
                     f"anderson: t grid {ts}")
        for row in rep["table"]:
            t = row["t"]
            delta = oracles.window_sup(leaves, t)
            lower = oracles.smoothness_lower_bound(leaves, t)
            probs.expect(_close(row["delta"], delta, rel=1e-9),
                         f"anderson t={t}: delta {row['delta']} != {delta}")
            probs.expect(lower * (1 - 1e-9) <= row["omega"] <= delta * (1 + 1e-9),
                         f"anderson t={t}: omega {row['omega']} outside "
                         f"[{lower}, {delta}]")
            probs.expect(_close(row["delta_bound"], 8 * t * (
                2 + math.log(math.log(math.e / t)) / 96), rel=1e-12),
                f"anderson t={t}: delta bound")
            probs.expect(_close(row["omega_bound"],
                                36 * t / math.sqrt(math.log(math.e / t)),
                                rel=1e-12), f"anderson t={t}: omega bound")
        return probs

    @_guarded
    def pmeans(out, stdout):
        probs = Problems()
        rep = _report(out, "kahane_pmeans", stdout, "pass", probs)
        if rep is None:
            return probs
        probs.expect(len(rep["table"]) == 11, "pmeans: expected 11 radii")
        for row in rep["table"]:
            r = row["r"]
            probs.expect(_close(row["bracket"], oracles.log_power_bracket(
                KAHANE_C, KAHANE_GAMMA, 1 - r), rel=1e-9),
                f"pmeans r={r}: bracket {row['bracket']}")
            if r <= 0.9:
                probs.expect(_close(row["log_lhs"], lme(r), abs_=1e-8),
                             f"pmeans r={r}: log_lhs {row['log_lhs']} != {lme(r)}")
        # the smoothness constant is a sup over omega, so it lies between
        # the leaf-edge lower bound and the window sup
        cs = rep["fits"]["smoothness_constant"]
        lo = max(oracles.smoothness_lower_bound(leaves, t) / (t * phi(t))
                 for t in (2.0**-6, 2.0**-10))
        hi = max(oracles.window_sup(leaves, t) / (t * phi(t))
                 for t in (2.0**-6, 2.0**-10))
        probs.expect(lo * (1 - 1e-9) <= cs <= hi * (1 + 1e-9),
                     f"pmeans: smoothness constant {cs} outside [{lo}, {hi}]")
        return probs

    @_guarded
    def brown_shields(out, stdout):
        probs = Problems()
        rep = _report(out, "kahane_brown-shields", stdout, "pass", probs)
        if rep is None:
            return probs
        (row,) = rep["table"]
        probs.expect(_close(row["t"], 1 - 10**-0.3, rel=1e-12),
                     f"brown-shields: t {row['t']}")
        probs.expect(isinstance(row["value"], float)
                     and 0 < row["value"] < math.inf,
                     f"brown-shields: seminorm {row['value']}")
        probs.expect(isinstance(row["error"], float)
                     and 0 <= row["error"] < math.inf,
                     f"brown-shields: error estimate {row['error']}")
        return probs

    def ring_oracle(z):
        return oracles.dyadic_herglotz(leaves, z)

    s = json.dumps(spec)
    return Workload("kahane-main", [spec], [
        Op("anderson", ["check", "--spec", s, "--check", "anderson"], 0, anderson),
        Op("pmeans", ["check", "--spec", s, "--check", "pmeans"], 0, pmeans),
        # one dilation: each one costs 30-38 s whatever the measure
        Op("brown-shields", ["check", "--spec", s, "--check", "brown-shields",
                             "--alpha", "0.05", "--grid-count", "1"],
           0, brown_shields),
    ], ring_oracle=ring_oracle)


# -- salem-suite --------------------------------------------------------------


def salem_suite(seed: int) -> Workload:
    J = SALEM_GENERATIONS
    spec = {"type": "salem", "params": {"alpha": SALEM_ALPHA,
                                        "epsilon": SALEM_EPSILON},
            "depth": J, "seed": seed}
    _, _, xis = oracles.salem_geometry(SALEM_ALPHA, J, seed)
    leaf = float(np.prod(xis))
    coeffs = oracles.salem_fourier(np.arange(0, 4097), SALEM_ALPHA, J, seed)
    mags = np.abs(coeffs[1:])
    envelope = oracles.octave_envelope(mags)
    slope = float(np.polyfit(np.log([n for _, n, _ in envelope]),
                             np.log([v for _, _, v in envelope]), 1)[0])
    partial = 1.0 + 2.0 * np.cumsum(mags**4.0)
    tail = (partial[-1] - partial[1023]) / partial[-1]
    entropy = oracles.salem_gap_entropy(SALEM_ALPHA, J, seed)
    # the slope and tail share decide the Fourier verdicts; they depend on
    # the seed's xi_j draw, so the expected verdict comes from the oracle
    verdicts = {"fourier-decay": "pass" if slope <= -0.25 else "fail",
                "fourier-lp": "pass" if tail <= 0.1 else "fail",
                "korenblum": "fail"}
    margins = {"fourier-decay": abs(slope + 0.25), "fourier-lp": abs(tail - 0.1)}

    def verdict_ok(name, got):
        return got == verdicts[name] or margins.get(name, 1.0) < 1e-9

    @_guarded
    def suite(out, stdout):
        probs = Problems()
        summary = _load(out, "summary.json")
        probs.expect(summary["preset"] == "salem" and summary["seed"] == seed,
                     "summary: preset or seed")
        got = {e["check"]: e["verdict"] for e in summary["reports"]}
        probs.expect(list(got) == ["fourier-decay", "fourier-lp", "korenblum"],
                     f"summary: checks {list(got)}")
        for name, v in got.items():
            probs.expect(verdict_ok(name, v), f"summary: {name} {v}, "
                         f"expected {verdicts[name]}")
            probs.expect(f"{name}: {v}" in stdout.splitlines(),
                         f"stdout: no '{name}: {v}' line")

        pieces = _rows(out, "salem_measure.csv")
        probs.expect(len(pieces) == 2**J, f"measure: {len(pieces)} pieces")
        mass = sum(float(p["value"]) * (float(p["b"]) - float(p["a"]))
                   for p in pieces)
        probs.expect(_close(mass, 1.0, abs_=1e-12), f"measure: mass {mass}")
        probs.expect(all(_close(float(p["b"]) - float(p["a"]), leaf, rel=1e-9)
                         for p in pieces), "measure: leaf length")

        for row in _rows(out, "salem_fourier.csv"):
            n = int(row["n"])
            c = complex(float(row["re"]), float(row["im"]))
            probs.expect(abs(c - coeffs[n]) <= 1e-9,
                         f"fourier: hat mu({n}) = {c}, product formula "
                         f"{coeffs[n]}")

        for row in _rows(out, "salem_moduli.csv"):
            t, d, w = (float(row[k]) for k in ("t", "delta", "omega"))
            probs.expect(0 <= w <= d * (1 + 1e-12) and d <= 1 + 1e-12,
                         f"moduli t={t}: need 0 <= omega <= delta <= 1")
            probs.expect(_close(float(row["fitted_C"]),
                                w / (t * t ** (SALEM_ALPHA / 2)), rel=1e-12),
                         f"moduli t={t}: fitted_C")

        ent = _load(out, "salem_bc_entropy.json")
        probs.expect(_close(ent["entropy"], entropy, rel=1e-9),
                     f"bc_entropy: {ent['entropy']} != {entropy}")
        probs.expect(ent["verdict"] == "convergent", "bc_entropy: verdict")

        decay = _load(out, "salem_fourier-decay.json")
        rows = decay["table"]
        probs.expect(len(rows) == len(envelope), "fourier-decay: octaves")
        for row, (k, n, v) in zip(rows, envelope):
            # a near-tie inside an octave may pick either maximiser
            probs.expect(row["octave"] == k and _close(row["envelope"], v,
                                                       rel=1e-7)
                         and abs(mags[row["n"] - 1] - v) <= 1e-9 * v,
                         f"fourier-decay octave {k}: {row} != {(n, v)}")
        probs.expect(_close(decay["fits"]["slope"], slope, abs_=1e-6),
                     f"fourier-decay: slope {decay['fits']['slope']} != {slope}")

        lp = _load(out, "salem_fourier-lp.json")
        for row in lp["table"]:
            K = row["K"]
            probs.expect(_close(row["partial_sum"], partial[K - 1], rel=1e-9),
                         f"fourier-lp K={K}: partial sum")

        kor = _load(out, "salem_korenblum.json")
        probs.expect(_close(kor["fits"]["entropy"], entropy, rel=1e-9),
                     "korenblum: entropy")
        probs.expect(_close(kor["fits"]["mass"], 1.0, abs_=1e-9),
                     f"korenblum: mass on the carrier {kor['fits']['mass']}")
        return probs

    s = json.dumps(spec)
    return Workload("salem-suite", [spec], [
        Op("suite salem", ["suite", "--spec", s, "--preset", "salem",
                           "--seed", str(seed)], 1, suite),
    ], notes={"fourier-decay slope": slope, "fourier-lp tail share": tail})


# -- atom-contrast ------------------------------------------------------------


def atom_contrast(seed: int) -> Workload:
    del seed  # the unit atom has no random input
    spec = {"type": "atomic", "params": {"atoms": [[0.0, 1.0]]}}
    K = 400
    coeffs = oracles.atom_maclaurin(K + 1)

    @_guarded
    def derivative_sup(out, stdout):
        probs = Problems()
        rep = _report(out, "atomic_derivative-sup", stdout, "fail", probs)
        if rep is None:
            return probs
        probs.expect(len(rep["table"]) == 17, "derivative-sup: expected 17 radii")
        for row in rep["table"]:
            r, sup = row["r"], row["sup_deriv"]
            # the ring holds some power-of-two count of points, at least 4096
            sampled = [oracles.atom_sampled_deriv_sup(r, 1 << k)
                       for k in range(12, 17)]
            probs.expect(any(_close(sup, v, rel=1e-8) for v in sampled),
                         f"derivative-sup r={r}: sup {sup} matches no "
                         f"sampled closed form {sampled}")
            probs.expect(sup <= oracles.atom_deriv_sup(r) * (1 + 1e-9),
                         f"derivative-sup r={r}: above 2/(e(1-r^2))")
            probs.expect(_close(row["ratio"], sup * math.sqrt(1 - r),
                                rel=1e-12), f"derivative-sup r={r}: ratio")
        return probs

    @_guarded
    def multiplier(out, stdout):
        probs = Problems()
        rep = _report(out, "atomic_multiplier", stdout, "fail", probs)
        if rep is None:
            return probs
        probs.expect([r["generation"] for r in rep["table"]] == list(range(1, 13)),
                     "multiplier: generations")
        for row in rep["table"]:
            h = 2.0 ** -row["generation"]
            probs.expect(0 < row["sup_box"] < math.inf and _close(
                row["sup_ratio"],
                row["sup_box"] / (h * math.log(math.e / h) ** (1 - P_DEFAULT / 2)),
                rel=1e-12), f"multiplier generation {row['generation']}")
        return probs

    @_guarded
    def annihilator(out, stdout):
        probs = Problems()
        rep = _report(out, "atomic_annihilator", stdout, "pass", probs)
        if rep is None:
            return probs
        probs.expect(len(rep["table"]) == 6, "annihilator: expected 6 pairings")
        for row in rep["table"]:
            want = oracles.annihilator_pairing(coeffs, row["m"], K, row["r"])
            got = complex(row["re"], row["im"])
            probs.expect(abs(got - want) <= 1e-9 and _close(
                row["abs_value"], abs(got), rel=1e-12),
                f"annihilator m={row['m']} r={row['r']}: {got} != {want}")
        return probs

    def ring_oracle(z):
        z = np.asarray(z, dtype=complex)
        return (1 + z) / (1 - z)

    s = json.dumps(spec)
    return Workload("atom-contrast", [spec], [
        Op("derivative-sup", ["check", "--spec", s, "--check", "derivative-sup"],
           1, derivative_sup),
        Op("multiplier", ["check", "--spec", s, "--check", "multiplier"], 1,
           multiplier),
        Op("annihilator", ["check", "--spec", s, "--check", "annihilator"], 0,
           annihilator),
    ], ring_oracle=ring_oracle)


WORKLOADS = {"kahane-main": kahane_main, "salem-suite": salem_suite,
             "atom-contrast": atom_contrast}
