"""Batch front-end: build measures, run checks, write CSV/JSON reports.

Measure specs are JSON objects {"type": ..., "params": {...}, "depth": n,
"seed": s} given inline or as a file path.  Outputs are written atomically
(temp file + rename) with full round-trip float precision, so a rerun with
the same seed reproduces every artifact byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import diagnostics as diag
from .diagnostics import CheckReport
from .measures import (CircleMeasure, IntervalSet, SalemSpec, anderson_check,
                       atomic, bc_entropy, choose_salem_parameters,
                       kahane_smooth, lebesgue, modulus_continuity,
                       modulus_smoothness, salem_measure)
from .models import Polynomial, SingularInnerPower
from .profiles import LogPower, PowerLaw, integrability_tests

CHECK_NAMES = (
    "brown-shields", "pmeans", "poisson-martingale", "multiplier",
    "korenblum", "annihilator", "bloch-diff", "fourier-decay", "fourier-lp",
    "anderson", "derivative-sup", "integrability",
)

PRESETS = {
    "theorem-main": ("anderson", "derivative-sup", "multiplier", "pmeans",
                     "brown-shields"),
    "theorem-power": ("integrability", "brown-shields"),
    "theorem-necessity": ("korenblum",),
    "salem": ("fourier-decay", "fourier-lp", "korenblum"),
}

STATEMENTS = {
    "anderson": "Both moduli of the measure obey the absolute bounds "
                "8t(2 + log log(e/t)/96) and 36t/sqrt(log(e/t)).",
    "derivative-sup": "sup over |z|=r of |S'(z)| stays within a constant "
                      "multiple of phi(1-r)/(1-r).",
    "multiplier": "The box measure |S'|^p (1-|z|)^{p-1} dA satisfies the "
                  "one-box condition with logarithmic gain, so S multiplies "
                  "the weighted Besov space.",
    "pmeans": "The reciprocal p-means of S are controlled by the accumulated "
              "gauge times a Gaussian factor of it.",
    "brown-shields": "The dilation quotients f/f_t are bounded in the "
                     "weighted Besov seminorm, the dilate criterion for "
                     "cyclicity.",
    "poisson-martingale": "The Poisson integral at top-half box centers is "
                          "controlled by the dyadic martingale mu(I)/|I| up "
                          "to a stable additive gap.",
    "korenblum": "Positive mass on a finite-entropy carrier rules out "
                 "cyclicity in the coefficient spaces with p > 2.",
    "annihilator": "The truncated pairing of z^m S against the shifted "
                   "coefficients of S tends to zero, exhibiting an "
                   "annihilating functional.",
    "bloch-diff": "The dilation-difference integrals against a Bloch factor "
                  "are bounded by the product of the Besov and Bloch norms.",
    "fourier-decay": "The Fourier coefficients of the measure decay "
                     "polynomially.",
    "fourier-lp": "The p-th powers of the Fourier coefficients are summable.",
    "integrability": "The gauge integrals int phi^p/t dt and the "
                     "bracket-weighted variant converge.",
}


@dataclass
class RunConfig:
    command: str
    spec: dict
    check: str | None = None
    preset: str | None = None
    p: float | None = None
    alpha: float | None = None
    epsilon: float | None = None
    depth: int | None = None
    seed: int = 0
    out: str = "cyclia-out"
    grid_start: float | None = None
    grid_stop: float | None = None
    grid_count: int | None = None
    grid_scale: str | None = None
    tolerance: float | None = None


class UsageError(Exception):
    pass


# -- measure construction --------------------------------------------------


@dataclass
class MeasureContext:
    spec: dict
    mu: CircleMeasure
    phi: object
    support: IntervalSet | None = None
    label: str = "measure"


def _effective_seed(spec: dict, cfg: RunConfig) -> int:
    """The construction seed: the spec's own ``seed`` wins over ``--seed``."""
    return int(spec.get("seed", cfg.seed))


def build_measure(spec: dict, cfg: RunConfig) -> MeasureContext:
    if not isinstance(spec, dict):
        raise UsageError("measure spec must be a JSON object")
    kind = spec.get("type")
    params = spec.get("params", {})
    depth = cfg.depth if cfg.depth is not None else int(spec.get("depth", 12))
    seed = _effective_seed(spec, cfg)
    if kind == "lebesgue":
        mu = lebesgue(float(params.get("mass", 1.0)))
        return MeasureContext(spec, mu, LogPower(1.0, 0.5), label="lebesgue")
    if kind == "atomic":
        atoms = params.get("atoms")
        if not atoms:
            raise UsageError("atomic spec needs params.atoms = [[x, mass], ...]")
        mu = atomic([(float(x), float(m)) for x, m in atoms])
        E = IntervalSet.from_arcs([(float(x), float(x)) for x, _ in atoms])
        return MeasureContext(spec, mu, PowerLaw(1.0, 0.5), support=E,
                              label="atomic")
    if kind == "kahane":
        phi = LogPower(float(params.get("C", 1.0)),
                       float(params.get("gamma", 0.5)))
        mu = kahane_smooth(phi, depth, seed=seed)
        return MeasureContext(spec, mu, phi, label="kahane")
    if kind == "salem":
        alpha = float(params.get("alpha", cfg.alpha or 0.8))
        epsilon = float(params.get("epsilon", cfg.epsilon or 0.05))
        if "d" in params and "xi" in params:
            d, xi = int(params["d"]), float(params["xi"])
        else:
            d, xi = choose_salem_parameters(alpha, epsilon)
        sspec = SalemSpec(alpha=alpha, epsilon=epsilon, d=d, xi=xi,
                          generations=depth, seed=seed)
        mu, E = salem_measure(sspec)
        return MeasureContext(spec, mu, PowerLaw(1.0, alpha / 2.0), support=E,
                              label="salem")
    raise UsageError(f"unknown measure type {kind!r}; expected "
                     "lebesgue | atomic | kahane | salem")


# -- output plumbing -------------------------------------------------------


def _write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(rows, keys) -> str:
    out = [",".join(keys)]
    for row in rows:
        cells = []
        for k in keys:
            v = row[k]
            if isinstance(v, (float, np.floating)):
                cells.append(f"{float(v):.17g}")
            else:
                cells.append(str(v))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def _write_report(report: CheckReport, out: str, stem: str) -> list:
    jpath = os.path.join(out, stem + ".json")
    cpath = os.path.join(out, stem + ".csv")
    _write_atomic(jpath, report.to_json())
    _write_atomic(cpath, report.to_csv())
    return [jpath, cpath]


# -- grids -----------------------------------------------------------------


def make_grid(cfg: RunConfig, start: float, stop: float, count: int,
              scale: str) -> np.ndarray:
    if cfg.grid_start is not None:
        start = cfg.grid_start
    if cfg.grid_stop is not None:
        stop = cfg.grid_stop
    if cfg.grid_count is not None:
        count = cfg.grid_count
    if cfg.grid_scale:
        scale = cfg.grid_scale
    if count < 1:
        raise UsageError("grid count must be positive")
    if scale == "linear":
        return np.linspace(start, stop, count)
    if scale == "log1m":
        return 1.0 - 10.0 ** -np.linspace(start, stop, count)
    if scale == "dyadic":
        return 2.0 ** -np.linspace(start, stop, count)
    raise UsageError(f"unknown grid scale {scale!r}")


# -- commands --------------------------------------------------------------


def cmd_measure(cfg: RunConfig, ctx: MeasureContext | None = None) -> int:
    if ctx is None:
        ctx = build_measure(cfg.spec, cfg)
    mu, out = ctx.mu, cfg.out
    rows = []
    for x, m in zip(mu.atom_x, mu.atom_m):
        rows.append({"kind": "atom", "a": float(x), "b": float(x),
                     "value": float(m)})
    for a, b, d in zip(mu.piece_a, mu.piece_b, mu.piece_d):
        rows.append({"kind": "piece", "a": float(a), "b": float(b),
                     "value": float(d)})
    files = []
    p1 = os.path.join(out, ctx.label + "_measure.csv")
    _write_atomic(p1, _csv(rows, ["kind", "a", "b", "value"]))
    files.append(p1)

    trows = []
    for k in range(2, 13):
        t = 2.0**-k
        delta = modulus_continuity(mu, t)
        omega = modulus_smoothness(mu, t)
        trows.append({"t": t, "delta": delta, "omega": omega,
                      "fitted_C": omega / (t * float(ctx.phi.phi(t)))})
    p2 = os.path.join(out, ctx.label + "_moduli.csv")
    _write_atomic(p2, _csv(trows, ["t", "delta", "omega", "fitted_C"]))
    files.append(p2)

    ns = np.arange(0, 513)
    coeffs = mu.fourier_many(ns)
    frows = [{"n": int(n), "re": c.real, "im": c.imag, "abs": abs(c)}
             for n, c in zip(ns, coeffs)]
    p3 = os.path.join(out, ctx.label + "_fourier.csv")
    _write_atomic(p3, _csv(frows, ["n", "re", "im", "abs"]))
    files.append(p3)

    if ctx.support is not None:
        ent = bc_entropy(ctx.support)
        payload = {"entropy": ent.total, "verdict": ent.verdict,
                   "generation_subtotals": [[g, s] for g, s in
                                            ent.generation_subtotals]}
        p4 = os.path.join(out, ctx.label + "_bc_entropy.json")
        _write_atomic(p4, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        files.append(p4)
    for f in files:
        print(f)
    return 0


def run_check(name: str, ctx: MeasureContext, cfg: RunConfig) -> CheckReport:
    mu, phi = ctx.mu, ctx.phi
    p = cfg.p
    depth = cfg.depth if cfg.depth is not None else int(ctx.spec.get("depth", 12))
    if name == "brown-shields":
        t_grid = make_grid(cfg, 0.3, 3.0, 4, "log1m")
        f = SingularInnerPower(mu, cfg.alpha if cfg.alpha else 1.0)
        return diag.brown_shields_table(f, p or 3.0, t_grid)
    if name == "pmeans":
        r_grid = make_grid(cfg, 0.6, 3.6, 11, "log1m")
        return diag.pmean_ratio(mu, phi, p or 3.0, r_grid)
    if name == "poisson-martingale":
        return diag.poisson_martingale_gap(mu, min(depth, 16))
    if name == "multiplier":
        return diag.multiplier_log_onebox(mu, p or 3.0, min(depth, 12))
    if name == "korenblum":
        if ctx.support is None:
            raise UsageError("korenblum needs a measure with support "
                             "metadata (atomic or salem)")
        return diag.korenblum_necessity(mu, ctx.support)
    if name == "annihilator":
        rows = []
        for m in (0, 1, 2):
            for r in (0.9, 0.99):
                v = diag.annihilator_pairing(mu, m, 400, r)
                rows.append({"m": m, "r": r, "abs_value": abs(v),
                             "re": v.real, "im": v.imag})
        worst = max(row["abs_value"] for row in rows if row["r"] == 0.99)
        ref = max(row["abs_value"] for row in rows if row["r"] == 0.9)
        decreasing = worst <= ref + 1e-12
        return CheckReport(
            name="annihilator", params={"K": 400, "m": [0, 1, 2]},
            table=rows, fits={"sup_abs": worst},
            worst_ratio=0.0 if decreasing else 1.0, threshold=0.5,
            verdict="pass" if decreasing else "fail")
    if name == "bloch-diff":
        t_grid = make_grid(cfg, 0.3, 2.0, 4, "log1m")
        fB = SingularInnerPower(mu, 1.0)
        g = Polynomial([0.0] * 5 + [1.0])
        return diag.bloch_difference_bound(fB, g, p or 2.0, t_grid)
    if name == "derivative-sup":
        r_grid = make_grid(cfg, 0.6, 5.4, 17, "log1m")
        return diag.derivative_sup_ratio(mu, phi, r_grid)
    if name == "fourier-decay":
        thr = -cfg.tolerance if cfg.tolerance else -0.25
        return diag.fourier_decay_fit(mu, 4096, slope_threshold=thr)
    if name == "fourier-lp":
        return diag.fourier_lp_summability(mu, p or 4.0, 4096)
    if name == "anderson":
        ts = make_grid(cfg, 2.0, 12.0, 11, "dyadic")
        rep = anderson_check(mu, ts)
        rows = [{"t": t, "delta": d, "delta_bound": db, "omega": o,
                 "omega_bound": ob} for t, d, db, o, ob in rep.rows]
        worst = max(rep.worst_delta_margin, rep.worst_omega_margin)
        return CheckReport(
            name="anderson", params={"t_grid": [float(t) for t in ts]},
            table=rows,
            fits={"worst_delta_margin": rep.worst_delta_margin,
                  "worst_omega_margin": rep.worst_omega_margin},
            worst_ratio=worst, threshold=1.0,
            verdict="pass" if rep.delta_pass and rep.omega_pass else "fail")
    if name == "integrability":
        rep = integrability_tests(phi, p or 3.0, cfg.epsilon or 0.05)
        rows = [{"k": k, "first": v1, "weighted": v2}
                for k, v1, v2 in rep.truncations]
        ok = rep.verdict1 == "convergent" and rep.verdict2 == "convergent"
        return CheckReport(
            name="integrability",
            params={"p": p or 3.0, "epsilon": cfg.epsilon or 0.05},
            table=rows,
            fits={"slope_first": rep.slope1, "slope_weighted": rep.slope2,
                  "verdict_first": rep.verdict1,
                  "verdict_weighted": rep.verdict2},
            worst_ratio=max(rep.slope1, rep.slope2),
            threshold=rep.SLOPE_CUTOFF,
            verdict="pass" if ok else "fail")
    raise UsageError(f"unknown check {name!r}; available: "
                     + " | ".join(CHECK_NAMES))


def cmd_check(cfg: RunConfig) -> int:
    if not cfg.check:
        raise UsageError("--check is required")
    ctx = build_measure(cfg.spec, cfg)
    report = run_check(cfg.check, ctx, cfg)
    files = _write_report(report, cfg.out, f"{ctx.label}_{report.name}")
    for f in files:
        print(f)
    print(f"{report.name}: {report.verdict}")
    return 0 if report.passed else 1


def _load_schema() -> dict:
    with resources.files("cyclia").joinpath("summary_schema.json").open() as fh:
        return json.load(fh)


def cmd_suite(cfg: RunConfig) -> int:
    if cfg.preset not in PRESETS:
        raise UsageError(f"unknown preset {cfg.preset!r}; available: "
                         + " | ".join(sorted(PRESETS)))
    ctx = build_measure(cfg.spec, cfg)
    entries = []
    worst = 0
    if cfg.preset == "salem":
        cmd_measure(cfg, ctx)
    for name in PRESETS[cfg.preset]:
        report = run_check(name, ctx, cfg)
        files = _write_report(report, cfg.out, f"{ctx.label}_{report.name}")
        entries.append({"check": report.name, "verdict": report.verdict,
                        "statement": STATEMENTS[report.name],
                        "files": [os.path.basename(f) for f in files]})
        if not report.passed:
            worst = 1
        print(f"{report.name}: {report.verdict}")
    summary = {"preset": cfg.preset, "seed": _effective_seed(cfg.spec, cfg),
               "measure": cfg.spec, "reports": entries}
    import jsonschema

    jsonschema.validate(summary, _load_schema())
    spath = os.path.join(cfg.out, "summary.json")
    _write_atomic(spath, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(spath)
    return worst


# -- entry point -----------------------------------------------------------


def _parse_spec(text: str) -> dict:
    if text.lstrip().startswith("{"):
        raw = text
    else:
        try:
            with open(text) as fh:
                raw = fh.read()
        except OSError as e:
            raise UsageError(f"cannot read spec file {text!r}: {e}")
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed spec JSON: {e}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cyclia",
        description="numerical laboratory for singular inner functions")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("measure", "check", "suite"):
        sp = sub.add_parser(name)
        sp.add_argument("--spec", required=True,
                        help="measure spec: JSON object or path to one")
        sp.add_argument("--check", choices=CHECK_NAMES)
        sp.add_argument("--preset", choices=sorted(PRESETS))
        sp.add_argument("--p", type=float)
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--epsilon", type=float)
        sp.add_argument("--depth", type=int)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default="cyclia-out")
        sp.add_argument("--grid-start", type=float)
        sp.add_argument("--grid-stop", type=float)
        sp.add_argument("--grid-count", type=int)
        sp.add_argument("--grid-scale",
                        choices=("linear", "log1m", "dyadic"), default=None)
        sp.add_argument("--tolerance", type=float)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        cfg = RunConfig(
            command=ns.command, spec=_parse_spec(ns.spec), check=ns.check,
            preset=ns.preset, p=ns.p, alpha=ns.alpha, epsilon=ns.epsilon,
            depth=ns.depth, seed=ns.seed, out=ns.out,
            grid_start=ns.grid_start, grid_stop=ns.grid_stop,
            grid_count=ns.grid_count, grid_scale=ns.grid_scale,
            tolerance=ns.tolerance)
        if cfg.command == "measure":
            return cmd_measure(cfg)
        if cfg.command == "check":
            return cmd_check(cfg)
        return cmd_suite(cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as e:
        print(f"error: invalid configuration: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
