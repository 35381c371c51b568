"""Theorem-level checks for singular inner functions.

Every check returns a CheckReport: a parameter record, a per-sample table,
fitted constants, and the number that decides it (``worst_ratio``) with the
check's own constant (``threshold``).  Because the underlying statements are
existential in their constants, "bounded" verdicts are trend tests (fitted
slope of the log-values below a small cutoff) rather than comparisons
against a hard constant.  All exponentials of Poisson integrals are taken
in log space; reports serialize to JSON and CSV deterministically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import logsumexp, martingale_from_measure
from .measures import (CircleMeasure, IntervalSet, bc_entropy,
                       modulus_continuity, modulus_smoothness,
                       smoothness_constant)
from .models import (DilationQuotient, SingularInnerPower, herglotz_ring,
                     maclaurin)
from .norms import (QuadratureGrid, _angular_counts, _kronrod, _panel_map,
                    _radial_rule, besov_seminorm, default_grid)
from .profiles import SmoothnessProfile

__all__ = [
    "CheckReport", "TREND_SLOPE_MAX", "csv_table", "json_text",
    "brown_shields_table", "pmean_ratio", "poisson_martingale_gap",
    "multiplier_log_onebox", "derivative_sup_ratio",
    "anderson_report", "korenblum_necessity", "annihilator_pairing",
    "annihilator_report", "fourier_decay_fit",
    "fourier_lp_summability", "integrability_report",
]

# a sequence counts as bounded when the fitted slope of its log-values
# (against the relevant log-scale) stays below this
TREND_SLOPE_MAX = 0.05

_ZERO = 1e-300          # floor before taking logs of possibly-zero values
_ENVELOPE_TIE = 1e-12   # relative gap below an octave's max that counts as a tie
_LP_TAIL_FRACTION_MAX = 0.1  # share of the l^p sum its last two octaves may add
_ANNIHILATOR_K = 400    # last coefficient index of the annihilator pairing
_DECAY_SLOPE_MAX = -0.25  # largest Fourier envelope slope that counts as decay
_OCTAVES = 45           # octaves 2^-k, k = 1..45, of the integrability truncations
# a gauge integral's tail counts as convergent when its per-octave
# increments decay faster than 1/k (fitted log-log slope at most this);
# the 1/k borderline itself diverges
_INTEGRABLE_SLOPE = -1.15


@dataclass
class CheckReport:
    """Outcome of one check: samples, fits, and a thresholded verdict.

    The verdict is computed, never written: "inconclusive" when
    ``worst_ratio`` is NaN (the numerics could not decide), "pass" when
    ``worst_ratio <= threshold``, and "fail" otherwise.  ``runtime`` is
    informational and excluded from serialization so that repeated runs
    produce identical artifacts.
    """

    name: str
    params: dict
    table: list
    fits: dict = field(default_factory=dict)
    worst_ratio: float = 0.0
    threshold: float = 0.0
    runtime: float = 0.0

    @property
    def verdict(self) -> str:
        if math.isnan(self.worst_ratio):
            return "inconclusive"
        return "pass" if self.worst_ratio <= self.threshold else "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def json_chunks(self):
        """The report's JSON artifact in pieces (json_chunks)."""
        return json_chunks({
            "name": self.name, "params": self.params, "table": self.table,
            "fits": self.fits, "worst_ratio": self.worst_ratio,
            "threshold": self.threshold, "verdict": self.verdict})

    def to_csv(self) -> str:
        return csv_table(self.table, list(self.table[0])) if self.table else ""


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.floating, float)):
        v = float(x)
        if math.isnan(v):
            return None
        return ("inf" if v > 0 else "-inf") if math.isinf(v) else v
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    return x


def json_chunks(x):
    """The JSON text of every artifact, in the encoder's pieces: NaN as
    null, infinities as "inf" and "-inf", numpy scalars as Python numbers,
    sorted keys.  A file written piece by piece never holds the whole
    text, which the indenting encoder forms from all its pieces at once
    (2 MB for the 228 KB of a 2048-row report)."""
    yield from json.JSONEncoder(indent=2, sort_keys=True).iterencode(
        _jsonable(x))
    yield "\n"


def json_text(x) -> str:
    """The JSON text of json_chunks(x) as one string."""
    return "".join(json_chunks(x))


def _csv_cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def csv_table(rows, keys) -> str:
    """CSV text of ``rows`` (dicts) under a header of ``keys``; floats are
    written with 17 significant digits so they round-trip exactly."""
    lines = [",".join(keys)]
    lines += [",".join(_csv_cell(row[k]) for k in keys) for row in rows]
    return "\n".join(lines) + "\n"


def _fit_slope(x, y) -> float:
    """Least-squares slope; +inf when the data already blew up."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        return math.inf
    if len(x) < 2 or np.ptp(x) == 0:
        return 0.0
    return float(np.polyfit(x, y, 1)[0])


def _trend_report(name: str, params: dict, table: list, x, vals, tiny: float,
                  fits: dict, keep=slice(None)) -> CheckReport:
    """The bounded-trend rule for samples ``vals`` on the log-scale ``x``.

    The slope is 0 when every sample is finite and at most ``tiny``, and
    otherwise the least-squares slope of log(vals[keep]) against x[keep]
    (+inf when a kept sample is inf or NaN).  ``fits`` holds the check's
    own entries; the report adds the slope to them.
    """
    if np.isfinite(vals).all() and vals.max() <= tiny:
        slope = 0.0
    else:
        slope = _fit_slope(x[keep], np.log(np.maximum(vals[keep], _ZERO)))
    return CheckReport(name=name, params=params, table=table,
                       fits={"slope": slope, **fits}, worst_ratio=slope,
                       threshold=TREND_SLOPE_MAX)


def _ring_count(r: float, floor: int = 1024) -> int:
    """The angular count of a norm ring at r, and at least floor."""
    return max(floor, int(_angular_counts(-math.log2(1.0 - r), 64, 1 << 16)))


# -- dilate criterion ------------------------------------------------------


def brown_shields_table(f: SingularInnerPower, p: float, t_grid) -> CheckReport:
    """Boundedness of t -> seminorm of f / f(t.) over a dilation grid.

    A bounded table (no blow-up trend of the log-values against
    log(1/(1-t))) is the numerical surrogate for the dilate criterion of
    cyclicity; a monotone blow-up is a fail.  A row whose seminorm or
    error overflows reads inf for both.
    """
    if p <= 2:
        raise ValueError("p must exceed 2")
    rows = []
    for t in np.atleast_1d(np.asarray(t_grid, dtype=float)):
        t = float(t)
        with np.errstate(over="ignore", invalid="ignore"):
            value, err = besov_seminorm(DilationQuotient(f, t), p)
        if not (math.isfinite(value) and math.isfinite(err)):
            value, err = math.inf, math.inf
        rows.append({"t": t, "value": value, "error": err})
    vals = np.array([r["value"] for r in rows])
    ts = np.array([r["t"] for r in rows])
    sup = float(vals.max()) if np.isfinite(vals).all() else math.inf
    return _trend_report(
        "brown-shields", {"p": p, "t_grid": [float(t) for t in ts]}, rows,
        np.log(1.0 / (1.0 - ts)), vals, 1e-12, {"sup_value": sup})


# -- reciprocal p-means ----------------------------------------------------


def pmean_ratio(mu: CircleMeasure, phi, p: float, r_grid) -> CheckReport:
    """Fit of log int |S|^-p dtheta against the accumulated gauge.

    The model is log(lhs / bracket(1-r)) = log C + C_p bracket(1-r)^2;
    a measure whose reciprocal means obey the gauge produces residuals
    spanning under one decade, which is the pass condition.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    cs = smoothness_constant(mu, phi, [2.0**-6, 2.0**-10])
    rows = []
    for r in np.atleast_1d(np.asarray(r_grid, dtype=float)):
        r = float(r)
        m = _ring_count(r)
        pois = herglotz_ring(mu, r, m).real
        log_lhs = float(math.log(2.0 * math.pi) + logsumexp(p * pois) - math.log(m))
        br = float(phi.bracket(1.0 - r))
        rows.append({"r": r, "log_lhs": log_lhs, "bracket": br})
    try:
        x = np.array([r["bracket"] ** 2 for r in rows])
    except OverflowError:
        x = np.full(len(rows), math.inf)
    y = np.array([r["log_lhs"] - math.log(r["bracket"]) if r["bracket"] > 0
                  else math.nan for r in rows])
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        # a gauge whose squared bracket overflows or whose bracket is 0: no
        # fit decides, and the NaN spread reads inconclusive
        cp = logc = math.nan
    elif len(rows) >= 2 and np.ptp(x) > 0:
        cp, logc = np.polyfit(x, y, 1)
    else:
        cp, logc = 0.0, float(y.mean())
    resid = y - (logc + cp * x)
    for row, rr in zip(rows, resid):
        row["fit"] = row["log_lhs"] - rr
        row["residual"] = float(rr)
    spread = float(np.ptp(resid)) / math.log(10.0)
    return CheckReport(
        name="pmeans",
        params={"p": p, "r_grid": [float(r["r"]) for r in rows]},
        table=rows,
        fits={"C_p": float(cp), "log_C": float(logc),
              "residual_spread_decades": spread, "smoothness_constant": cs},
        worst_ratio=spread, threshold=1.0)


# -- Poisson integral vs dyadic martingale ---------------------------------


def poisson_martingale_gap(mu: CircleMeasure, depth: int) -> CheckReport:
    """P_mu at top-half box centers against C * mu(I)/|I|, per generation.

    z_I is the center of the top half of the Carleson box over I, so
    1 - |z_I| = (3/4)|I|.  C is the pooled least-squares slope through the
    origin; the check passes when the per-generation additive gap
    sup(P - C M) shows no upward trend.
    """
    if depth < 1:
        raise ValueError("need at least one generation")
    mart = martingale_from_measure(mu, depth)
    samples = []
    for n in range(1, depth + 1):
        r = 1.0 - 0.75 * 2.0**-n
        pois = herglotz_ring(mu, r, 2**n, offset=0.5).real
        samples.append((n, pois, mart.levels[n]))
    num = sum(float((p * m).sum()) for _, p, m in samples)
    den = sum(float((m * m).sum()) for _, p, m in samples)
    c = num / den if den > 0 else 0.0
    rows = []
    for n, pois, m in samples:
        gap = float((pois - c * m).max())
        rows.append({"generation": n, "gap": gap,
                     "max_poisson": float(pois.max()),
                     "max_martingale": float(m.max())})
    gaps = np.array([r["gap"] for r in rows])
    ns = np.array([r["generation"] for r in rows], dtype=float)
    keep = ns >= min(4, depth)
    scale = 1.0 + float(np.median(np.abs(gaps)))
    slope = _fit_slope(ns[keep], gaps[keep]) / scale
    return CheckReport(
        name="poisson-martingale", params={"depth": depth}, table=rows,
        fits={"C": c, "gap_trend_slope": slope, "sup_gap": float(gaps.max())},
        worst_ratio=slope, threshold=TREND_SLOPE_MAX)


# -- Carleson boxes and the multiplier test --------------------------------


def multiplier_log_onebox(mu: CircleMeasure, p: float, max_generation: int,
                          grid: QuadratureGrid | None = None) -> CheckReport:
    """One-box test with logarithmic gain for S_mu, all boxes at once.

    For every dyadic I up to max_generation the box integral of
    |S_mu'|^p (1-|z|)^{p-1} is compared against |I| (log(e/|I|))^{1-p/2};
    the check passes when the per-generation sup of that ratio stabilizes.
    Each quadrature ring is evaluated once, into the array the previous
    ring returned, and its cell-aligned partial sums are folded upward
    through the generations.
    """
    if p <= 2:
        raise ValueError("p must exceed 2")
    if max_generation < 1:
        raise ValueError("need at least one generation")
    if grid is None:
        grid = default_grid()
    # one panel per unit of u, so every dyadic cut 1 - r = 2^-n is an edge
    u_hi = max(grid.u_max, max_generation + 4.0)
    us, rs, ws, ms = _radial_rule(np.append(np.arange(math.ceil(u_hi)), u_hi),
                                  grid.nodes_per_panel, grid.m_min, grid.m_max)
    S = SingularInnerPower(mu, 1.0)
    box = {n: np.zeros(2**n) for n in range(1, max_generation + 1)}
    dens = None
    for u, r, w, m in zip(us, rs.tolist(), ws, ms.tolist()):
        g = min(int(u), max_generation)   # deepest generation this ring reaches
        if g < 1:
            continue
        with np.errstate(over="ignore"):
            dens = S.log_abs_dring(r, m, offset=0.5, out=dens)
            np.exp(np.multiply(dens, p, out=dens), out=dens)
        cells = dens.reshape(2**g, -1).sum(axis=1) * (
            w * (1.0 - r) ** (p - 1.0) * r * (2.0 * math.pi / m))
        for n in range(g, 0, -1):
            box[n] += cells
            cells = cells.reshape(-1, 2).sum(axis=1)
    rows = []
    for n in range(1, max_generation + 1):
        h = 2.0**-n
        denom = h * math.log(math.e / h) ** (1.0 - p / 2.0)
        rows.append({"generation": n, "sup_box": float(box[n].max()),
                     "sup_ratio": float(box[n].max()) / denom})
    ratios = np.array([r["sup_ratio"] for r in rows])
    ns = np.array([r["generation"] for r in rows], dtype=float)
    return _trend_report(
        "multiplier", {"p": p, "max_generation": max_generation}, rows,
        ns, ratios, 1e-30, {"sup_ratio": float(ratios.max())},
        keep=ns >= min(4, max_generation))


# -- derivative growth -----------------------------------------------------


def derivative_sup_ratio(mu: CircleMeasure, phi, r_grid) -> CheckReport:
    """sup_{|z|=r} |S_mu'(z)| (1-r) / phi(1-r), boundedness across r_grid;
    each ring is evaluated into the array the previous ring returned."""
    S = SingularInnerPower(mu, 1.0)
    rows = []
    dens = None
    for r in np.atleast_1d(np.asarray(r_grid, dtype=float)):
        r = float(r)
        m = _ring_count(r, floor=4096)
        dens = S.log_abs_dring(r, m, out=dens)
        log_sup = float(dens.max())
        sup = math.exp(log_sup) if log_sup < 700.0 else math.inf
        # S' = 0 on the ring (log sup = -inf) obeys any bound, also where
        # phi(1 - r) underflows; a finite log sup whose exp underflows to 0
        # is not such a zero
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = 0.0 if log_sup == -math.inf else float(
                sup * (1.0 - r) / phi.phi(1.0 - r))
        rows.append({"r": r, "sup_deriv": sup, "ratio": ratio})
    ratios = np.array([r["ratio"] for r in rows])
    rs = np.array([r["r"] for r in rows])
    # fit on the tail half of the grid: the transient before the
    # ratio saturates is not evidence of unboundedness
    j0 = len(rows) // 2 if len(rows) >= 8 else 0
    return _trend_report(
        "derivative-sup", {"r_grid": [float(r) for r in rs]}, rows,
        np.log(1.0 / (1.0 - rs)), ratios, 1e-12,
        {"sup_ratio": float(ratios.max())}, keep=slice(j0, None))


# -- the moduli and the gauge ----------------------------------------------


def anderson_report(mu: CircleMeasure, t_grid) -> CheckReport:
    """Both moduli of mu against Anderson's absolute bounds over t_grid,
    delta_mu(t) <= 8t(2 + log log(e/t)/96) and
    omega_mu(t) <= 36t/sqrt(log(e/t)).  Each margin is the worst ratio of
    a modulus to its bound; the worst ratio is the larger of the two, and
    the check passes when it is at most 1."""
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float)).tolist()
    rows = []
    wd = wo = 0.0
    for t, delta, omega in zip(ts, modulus_continuity(mu, ts).tolist(),
                               modulus_smoothness(mu, ts).tolist()):
        delta_bound = 8.0 * t * (2.0 + math.log(math.log(math.e / t)) / 96.0)
        omega_bound = 36.0 * t / math.sqrt(math.log(math.e / t))
        rows.append({"t": t, "delta": delta, "delta_bound": delta_bound,
                     "omega": omega, "omega_bound": omega_bound})
        wd = max(wd, delta / delta_bound)
        wo = max(wo, omega / omega_bound)
    return CheckReport(
        name="anderson", params={"t_grid": ts}, table=rows,
        fits={"worst_delta_margin": wd, "worst_omega_margin": wo},
        worst_ratio=max(wd, wo), threshold=1.0)


def _block_slope(blocks):
    """Fitted power-law slope of the positive octave increments from
    octave 8 on; NaN when an increment is not finite (an overflow proves
    nothing: the bracket may be bounded)."""
    ks = np.arange(1, len(blocks) + 1)
    vals = np.asarray(blocks)
    if not np.isfinite(vals).all():
        return math.nan
    mask = (ks >= 8) & (vals > 0)
    if mask.sum() < 4:
        return -math.inf  # everything underflowed: decays faster than any power
    return float(np.polyfit(np.log(ks[mask]), np.log(vals[mask]), 1)[0])


def integrability_report(phi: SmoothnessProfile, p: float,
                         epsilon: float) -> CheckReport:
    """Convergence of int phi^p/t dt and of its bracket-weighted variant,
    tabulated by truncation; pass when both are convergent.

    Both integrals are accumulated over the first 45 octaves
    2^-k <= t <= 2^-(k-1), each by the 17-point Gauss-Kronrod rule of
    ``norms`` in the variable w = sqrt(log(1/t)), dt/t = 2w dw, where both
    integrands are analytic (in log(e/t) = 1 + w^2 the brackets have a
    square-root endpoint at t = 1).  Each is convergent when the fitted
    power-law slope of its octave increments is at most -1.15, and
    inconclusive when an increment is not finite.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    x, wk, _ = _kronrod(8)
    w, (dw,) = _panel_map(np.sqrt(np.arange(_OCTAVES + 1) * math.log(2.0)),
                          x, [wk])
    t = np.exp(-w * w)
    br = np.array([phi.bracket(s) for s in t.tolist()])
    with np.errstate(over="ignore", invalid="ignore"):
        first = np.asarray(phi.phi(t)) ** p * (2.0 * w * dw)
        weighted = first * (br * np.exp(epsilon * br**2))
    blocks = [g.reshape(_OCTAVES, -1).sum(axis=1) for g in (first, weighted)]
    slopes = [_block_slope(b) for b in blocks]
    verdicts = ["inconclusive" if math.isnan(s) else
                "convergent" if s <= _INTEGRABLE_SLOPE else "divergent"
                for s in slopes]
    sums = [np.cumsum(b).tolist() for b in blocks]
    rows = [{"k": k, "first": a, "weighted": b}
            for k, a, b in zip(range(1, _OCTAVES + 1), *sums)]
    return CheckReport(
        name="integrability", params={"p": p, "epsilon": epsilon}, table=rows,
        fits={"slope_first": slopes[0], "slope_weighted": slopes[1],
              "verdict_first": verdicts[0], "verdict_weighted": verdicts[1]},
        worst_ratio=float(np.maximum(*slopes)), threshold=_INTEGRABLE_SLOPE)


# -- necessity -------------------------------------------------------------


def korenblum_necessity(mu: CircleMeasure, E: IntervalSet) -> CheckReport:
    """Mass placed on a finite-entropy closed set is a cyclicity obstruction.

    verdict "fail" means the obstruction is present (the inner function is
    not cyclic in any of the sequence spaces with p > 2); "pass" means no
    obstruction from this set.
    """
    ent = bc_entropy(E)
    arc_mass = mu.closed_arc_mass(*E.arcs.T).tolist()
    mass = float(sum(arc_mass))
    rows = [{"a": a, "b": b, "mass": m}
            for (a, b), m in zip(E.arcs.tolist(), arc_mass)]
    obstruction = ent.convergent and mass > 1e-12
    conclusion = ("not cyclic in any coefficient space with p > 2"
                  if obstruction else "no obstruction from this set")
    return CheckReport(
        name="korenblum", params={"arcs": len(E.arcs)}, table=rows,
        fits={"entropy": ent.total, "entropy_verdict": ent.verdict,
              "mass": mass, "conclusion": conclusion},
        worst_ratio=mass if ent.convergent else 0.0, threshold=1e-12)


# -- annihilating functional -----------------------------------------------


def annihilator_pairing(c: np.ndarray, m: int, r: float) -> complex:
    """Truncated pairing of z^m S against the shifted coefficients of S.

    ``c`` holds hat S(0..K+1).  Computes 2 pi sum_{k} hat(z^m S)(k)
    conj(hat S(k+1)) r^{2k+1} over k <= K, the radius-r regularization of
    int z^m |S|^2 e^{i theta} d theta, which tends to 0 as r -> 1 and
    K -> infinity.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    ks = np.arange(m, len(c) - 1)
    terms = c[ks - m] * np.conj(c[ks + 1]) * r ** (2 * ks + 1)
    return complex(2.0 * math.pi * terms.sum())


def annihilator_report(mu: CircleMeasure) -> CheckReport:
    """The pairing for m = 0, 1, 2 at r = 0.9 and 0.99, truncated at
    K = 400; pass when the sup of its modulus does not grow from r = 0.9
    to r = 0.99."""
    c = maclaurin(SingularInnerPower(mu, 1.0), _ANNIHILATOR_K + 1)
    rows = []
    for m in (0, 1, 2):
        for r in (0.9, 0.99):
            v = annihilator_pairing(c, m, r)
            rows.append({"m": m, "r": r, "abs_value": abs(v),
                         "re": v.real, "im": v.imag})
    worst = max(row["abs_value"] for row in rows if row["r"] == 0.99)
    ref = max(row["abs_value"] for row in rows if row["r"] == 0.9)
    decreasing = worst <= ref + 1e-12
    return CheckReport(
        name="annihilator", params={"K": _ANNIHILATOR_K, "m": [0, 1, 2]},
        table=rows,
        fits={"sup_abs": worst}, worst_ratio=0.0 if decreasing else 1.0,
        threshold=0.5)


# -- Fourier decay and summability -----------------------------------------


def fourier_decay_fit(mu: CircleMeasure, n_max: int) -> CheckReport:
    """Power-law fit of the Fourier coefficient envelope.

    The envelope is the per-octave max of |hat mu(n)|, taken at the first n
    within a relative 1e-12 of the max; the report's fit is
    the least-squares slope of its log against log n, and the check passes
    when the slope is at most -0.25.  When every hat mu(n), n >= 1,
    vanishes the decay is faster than any power: the slope is -inf, the
    table empty, and the check passes.
    """
    if n_max < 64:
        raise ValueError("n_max must be at least 64")
    mags = np.abs(mu.coefficients(n_max))
    vanish = mags.max() <= 1e-14 * max(1.0, mu.total_mass)
    rows = []
    k = 0
    while 2**k <= n_max and not vanish:
        lo, hi = 2**k, min(2 ** (k + 1) - 1, n_max)
        block = mags[lo - 1:hi]
        # the first n within _ENVELOPE_TIE of the octave's max, so exact
        # ties (|hat mu| = 1 at many n for rational atoms) do not follow
        # the rounding of the coefficients
        j = int(np.argmax(block >= (1.0 - _ENVELOPE_TIE) * block.max()))
        if block[j] > 0:
            rows.append({"octave": k, "n": int(lo + j),
                         "envelope": float(block[j])})
        k += 1
    slope = (_fit_slope(np.log([row["n"] for row in rows]),
                        np.log([row["envelope"] for row in rows]))
             if rows else -math.inf)
    return CheckReport(
        name="fourier-decay", params={"n_max": n_max,
                                      "slope_threshold": _DECAY_SLOPE_MAX},
        table=rows, fits={"slope": slope},
        worst_ratio=slope, threshold=_DECAY_SLOPE_MAX)


def fourier_lp_summability(mu: CircleMeasure, p: float,
                           n_max: int) -> CheckReport:
    """Cauchy test for sum |hat mu(n)|^p via dyadic partial sums.

    Partial sums over |n| <= K are tabulated at K = 2^k.  The verdict
    compares the mass added over the last two octaves against the total:
    a convergent series contributes a few percent there, while an atom
    keeps adding most of its sum in every octave.  (A fitted slope of the
    octave increments is reported too, but single-measure increments are
    too oscillatory to decide on.)
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if n_max < 4:
        raise ValueError("n_max too small")
    try:
        base = mu.total_mass ** p
    except OverflowError:
        base = math.inf
    with np.errstate(over="ignore"):
        csum = base + 2.0 * np.cumsum(np.abs(mu.coefficients(n_max)) ** p)
    rows = []
    prev = base
    k = 0
    while 2**k <= n_max:
        K = 2**k
        s = float(csum[K - 1])
        rows.append({"K": K, "partial_sum": s, "increment": s - prev})
        prev = s
        k += 1
    incs = np.array([row["increment"] for row in rows])
    total = prev
    if not math.isfinite(total):
        # a partial sum that overflows: no fit decides, and the NaN tail
        # fraction reads inconclusive
        slope = tail_fraction = math.nan
    else:
        if incs.max() <= 1e-15 * max(total, 1.0):
            slope = -math.inf
        else:
            keep = incs > 0
            slope = _fit_slope(np.log([row["K"] for row in rows])[keep],
                               np.log(incs[keep]))
        head = float(rows[-3]["partial_sum"]) if len(rows) >= 3 else 0.0
        tail_fraction = (total - head) / total if total > 0 else 0.0
    return CheckReport(
        name="fourier-lp", params={"p": p, "n_max": n_max}, table=rows,
        fits={"increment_slope": slope, "partial_sum": total,
              "tail_fraction": tail_fraction},
        worst_ratio=tail_fraction, threshold=_LP_TAIL_FRACTION_MAX)
