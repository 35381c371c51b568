"""Batch front-end: build measures, run checks, write CSV/JSON reports.

Measure specs are JSON objects {"type": ..., "params": {...}, "depth": n,
"seed": s} given inline or as a file path.  Outputs are written atomically
(temp file + rename) with full round-trip float precision, so a rerun with
the same seed reproduces every artifact byte for byte.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import diagnostics as diag
from .diagnostics import CheckReport, csv_table, json_chunks
from .measures import (CircleMeasure, IntervalSet, atomic, bc_entropy,
                       kahane_smooth, lebesgue, modulus_continuity,
                       modulus_smoothness, salem_measure)
from .models import SingularInnerPower
from .profiles import LogPower, PowerLaw


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


class UsageError(argparse.ArgumentTypeError):
    """A usage error: exit code 2 and no artifact.  It is an
    ArgumentTypeError, so an option's type may raise it."""


# -- measure construction --------------------------------------------------


@dataclass
class MeasureContext:
    spec: dict
    mu: CircleMeasure
    phi: object
    support: IntervalSet | None
    depth: int
    seed: int


def _spec_int(value, name: str) -> int:
    """value; a UsageError unless it is a JSON integer (a bool, float or
    string is not rounded into one)."""
    if type(value) is not int:
        raise UsageError(f"{name} must be an integer, got {json.dumps(value)}")
    return value


def _spec_real(value, name: str) -> float:
    """value as a float; a UsageError unless it is a JSON number (a bool
    or a string is not converted)."""
    if type(value) not in (int, float):
        raise UsageError(f"{name} must be a number, got {json.dumps(value)}")
    return float(value)


def _checked(fields: dict, defaults: dict, where: str) -> dict:
    """fields, with each absent key that has a default filled in, checked
    by its default's type: an int takes ``_spec_int``, a float
    ``_spec_real``, None any value.  An unknown key is a UsageError."""
    extra = [k for k in fields if k not in defaults]
    if extra:
        raise UsageError(f"unknown {where} key {json.dumps(extra[0])}; "
                         f"expected {' | '.join(defaults)}")
    check = {int: _spec_int, float: _spec_real}
    return {k: check.get(type(d), lambda v, _: v)(fields.get(k, d), k)
            for k, d in defaults.items() if k in fields or d is not None}


def _build_atomic(p: dict, depth: int, seed: int):
    atoms = p.get("atoms")
    if not atoms:
        raise UsageError("atomic spec needs params.atoms = [[x, mass], ...]")
    if not (isinstance(atoms, list)
            and all(isinstance(row, list) for row in atoms)):
        raise UsageError("atoms must be a list of [x, mass] rows")
    mu = atomic([[_spec_real(v, "atom position or mass")
                  for v in row] for row in atoms])
    # one degenerate arc per merged atom: a position given twice is
    # one atom, and its mass is counted once
    E = IntervalSet.from_arcs(np.column_stack([mu.atom_x, mu.atom_x]))
    return mu, PowerLaw(1.0, 0.5), E


def _build_kahane(p: dict, depth: int, seed: int):
    phi = LogPower(p["C"], p["gamma"])
    return kahane_smooth(phi, depth, seed=seed), phi, None


def _build_salem(p: dict, depth: int, seed: int):
    """(d, xi) = (2, 2^(-1/alpha)), a Cantor set of dimension alpha, unless
    both are given; alpha also sets the gauge t^(alpha/2).  epsilon is only
    checked: the construction does not pin down its role."""
    if ("d" in p) != ("xi" in p):
        raise UsageError("salem params d and xi must be given together")
    if "d" in p:
        d, xi = _spec_int(p["d"], "d"), _spec_real(p["xi"], "xi")
    alpha = p["alpha"]
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if p["epsilon"] <= 0:
        raise ValueError("epsilon must be positive")
    if "d" not in p:
        d, xi = 2, 2 ** (-1.0 / alpha)
        if 1.0 / d - xi < 1e-2:
            warnings.warn(f"xi={xi:.4f} is close to the 1/d={1 / d} "
                          "boundary; gap lengths degenerate")
    mu, E = salem_measure(d, xi, depth, seed)
    return mu, PowerLaw(1.0, alpha / 2.0), E


# One record per spec type: its params and their defaults (None: no
# default), and ``build(params, depth, seed) -> (measure, gauge, carrier or
# None)``.  Builders look the constructors up by name at call time, so a
# wrapper installed on the module attribute sees the call.
MEASURES = {
    "lebesgue": ({"mass": 1.0}, lambda p, depth, seed: (
        lebesgue(p["mass"]), LogPower(1.0, 0.5), None)),
    "atomic": ({"atoms": None}, _build_atomic),
    "kahane": ({"C": 1.0, "gamma": 0.5}, _build_kahane),
    "salem": ({"alpha": 0.8, "epsilon": 0.05, "d": None, "xi": None},
              _build_salem),
}


def build_measure(spec: dict, cfg: RunConfig) -> MeasureContext:
    """The measure of a spec.  An unknown key, in the spec or in its
    params, is a UsageError, and so is a real field that is not a JSON
    number.  ``--depth`` wins over its depth, and its seed over ``--seed``."""
    if not isinstance(spec, dict):
        raise UsageError("measure spec must be a JSON object")
    _checked(spec, dict.fromkeys(("type", "params", "depth", "seed")), "spec")
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in MEASURES:
        raise UsageError(f"unknown measure type {kind!r}; expected "
                         f"{' | '.join(MEASURES)}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise UsageError("measure spec params must be a JSON object")
    defaults, build = MEASURES[kind]
    params = _checked(params, defaults, f"{kind} params")
    depth = (cfg.depth if cfg.depth is not None
             else _spec_int(spec.get("depth", 12), "depth"))
    seed = _spec_int(spec.get("seed", cfg.seed), "seed")
    return MeasureContext(spec, *build(params, depth, seed), depth, seed)


# -- output plumbing -------------------------------------------------------


def _write_atomic(path: str, chunks) -> None:
    """Write an iterable of strings to path through a temporary file in
    its directory."""
    d = os.path.dirname(path) or "."
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    except OSError as e:
        raise UsageError(f"cannot write to output directory {d!r}: {e}")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- grids -----------------------------------------------------------------

_MAX_GRID = 1024  # points of a --grid-count grid; the largest default is 17


def make_grid(cfg: RunConfig, start: float, stop: float, count: int,
              scale: str) -> np.ndarray:
    """linspace(start, stop, count), each replaced by its ``--grid-*`` flag
    when given, mapped by the check's own scale: ``dyadic`` takes 2^-x (t
    in (0, 1]) and ``log1m`` takes 1 - 10^-x (radii or dilations, in
    (0, 1)); a point outside its range is a usage error naming the flag."""
    if cfg.grid_start is not None:
        start = cfg.grid_start
    if cfg.grid_stop is not None:
        stop = cfg.grid_stop
    if cfg.grid_count is not None:
        count = cfg.grid_count
    if not 1 <= count <= _MAX_GRID:
        raise UsageError(f"grid count must be in 1..{_MAX_GRID}, got {count}")
    x = np.linspace(start, stop, count)
    dyadic = scale == "dyadic"
    grid = 2.0 ** -x if dyadic else 1.0 - 10.0 ** -x
    bad = ~((grid > 0.0) & ((grid <= 1.0) if dyadic else (grid < 1.0)))
    if bad.any():
        flag, value = ("--grid-start", start) if bad[0] else ("--grid-stop", stop)
        raise UsageError(f"{flag} {value:g} puts a {scale} grid point at "
                         f"{float(grid[bad][0])!r}, outside "
                         f"{'(0, 1]' if dyadic else '(0, 1)'}")
    return grid


# -- the check registry ----------------------------------------------------


@dataclass(frozen=True)
class Check:
    """A check: ``run(ctx, cfg, grid)``, its statement, the default grid
    ``(start, stop, count, scale)`` or None, the defaults of the flags it
    reads (used when the flag is None), and the presets it belongs to."""

    run: Callable
    statement: str
    grid: tuple | None = None
    defaults: dict = field(default_factory=dict)
    presets: tuple = ()


def _support(ctx: MeasureContext) -> IntervalSet:
    if ctx.support is None:
        raise UsageError("korenblum needs a measure with support "
                         "metadata (atomic or salem)")
    return ctx.support


# Table order is the report order of every preset.  Entries call
# diagnostics through the module (``diag.f``), so a wrapper installed on
# the module attribute sees the call.
CHECKS = {
    "anderson": Check(
        lambda ctx, cfg, ts: diag.anderson_report(ctx.mu, ts),
        "Both moduli of the measure obey the absolute bounds "
        "8t(2 + log log(e/t)/96) and 36t/sqrt(log(e/t)).",
        grid=(2.0, 12.0, 11, "dyadic"), presets=("theorem-main",)),
    "derivative-sup": Check(
        lambda ctx, cfg, rs: diag.derivative_sup_ratio(ctx.mu, ctx.phi, rs),
        "sup over |z|=r of |S'(z)| stays within a constant multiple of "
        "phi(1-r)/(1-r).",
        grid=(0.6, 5.4, 17, "log1m"), presets=("theorem-main",)),
    "multiplier": Check(
        lambda ctx, cfg, _: diag.multiplier_log_onebox(
            ctx.mu, cfg.p, min(ctx.depth, 12)),
        "The box measure |S'|^p (1-|z|)^{p-1} dA satisfies the one-box "
        "condition with logarithmic gain, so S multiplies the weighted Besov "
        "space.",
        defaults={"p": 3.0}, presets=("theorem-main",)),
    "pmeans": Check(
        lambda ctx, cfg, rs: diag.pmean_ratio(ctx.mu, ctx.phi, cfg.p, rs),
        "The reciprocal p-means of S are controlled by the accumulated gauge "
        "times a Gaussian factor of it.",
        grid=(0.6, 3.6, 11, "log1m"), defaults={"p": 3.0},
        presets=("theorem-main",)),
    "integrability": Check(
        lambda ctx, cfg, _: diag.integrability_report(ctx.phi, cfg.p,
                                                      cfg.epsilon),
        "The gauge integrals int phi^p/t dt and the bracket-weighted variant "
        "converge.",
        defaults={"p": 3.0, "epsilon": 0.05}, presets=("theorem-power",)),
    "brown-shields": Check(
        lambda ctx, cfg, ts: diag.brown_shields_table(
            SingularInnerPower(ctx.mu, cfg.alpha), cfg.p, ts),
        "The dilation quotients f/f_t are bounded in the weighted Besov "
        "seminorm, the dilate criterion for cyclicity.",
        grid=(0.3, 3.0, 4, "log1m"), defaults={"p": 3.0, "alpha": 1.0},
        presets=("theorem-main", "theorem-power")),
    "fourier-decay": Check(
        lambda ctx, cfg, _: diag.fourier_decay_fit(ctx.mu, 4096),
        "The Fourier coefficients of the measure decay polynomially.",
        presets=("salem",)),
    "fourier-lp": Check(
        lambda ctx, cfg, _: diag.fourier_lp_summability(ctx.mu, cfg.p, 4096),
        "The p-th powers of the Fourier coefficients are summable.",
        defaults={"p": 4.0}, presets=("salem",)),
    "korenblum": Check(
        lambda ctx, cfg, _: diag.korenblum_necessity(ctx.mu, _support(ctx)),
        "Positive mass on a finite-entropy carrier rules out cyclicity in "
        "the coefficient spaces with p > 2.",
        presets=("theorem-necessity", "salem")),
    "poisson-martingale": Check(
        lambda ctx, cfg, _: diag.poisson_martingale_gap(
            ctx.mu, min(ctx.depth, 16)),
        "The Poisson integral at top-half box centers is controlled by the "
        "dyadic martingale mu(I)/|I| up to a stable additive gap."),
    "annihilator": Check(
        lambda ctx, cfg, _: diag.annihilator_report(ctx.mu),
        "The truncated pairing of z^m S against the shifted coefficients of "
        "S tends to zero, exhibiting an annihilating functional."),
}

PRESETS = {preset: tuple(n for n, c in CHECKS.items() if preset in c.presets)
           for preset in sorted({p for c in CHECKS.values()
                                 for p in c.presets})}


def run_check(name: str, ctx: MeasureContext, cfg: RunConfig) -> CheckReport:
    """Run one registered check; ``report.runtime`` is the check's own time."""
    check = CHECKS[name]
    cfg = replace(cfg, **{k: v for k, v in check.defaults.items()
                          if getattr(cfg, k) is None})
    grid = make_grid(cfg, *check.grid) if check.grid else None
    t0 = time.perf_counter()
    report = check.run(ctx, cfg, grid)
    report.runtime = time.perf_counter() - t0
    return report


# -- commands --------------------------------------------------------------


def cmd_measure(cfg: RunConfig, ctx: MeasureContext | None = None) -> int:
    if ctx is None:
        ctx = build_measure(cfg.spec, cfg)
    mu, files = ctx.mu, []

    def write(suffix: str, chunks) -> None:
        files.append(os.path.join(cfg.out, ctx.spec["type"] + suffix))
        _write_atomic(files[-1], chunks)

    # the rows are formed one at a time: a Salem measure has d^J pieces
    rows = itertools.chain(
        ({"kind": "atom", "a": x, "b": x, "value": m}
         for x, m in zip(mu.atom_x.tolist(), mu.atom_m.tolist())),
        ({"kind": "piece", "a": a, "b": b, "value": d} for a, b, d in
         zip(mu.piece_a.tolist(), mu.piece_b.tolist(), mu.piece_d.tolist())))
    write("_measure.csv", csv_table(rows, ["kind", "a", "b", "value"]))

    ts = 2.0 ** -np.arange(2, 13)
    delta, omega = modulus_continuity(mu, ts), modulus_smoothness(mu, ts)
    # a gauge that underflows to 0 fits C = inf (or NaN where omega is 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        fitted = omega / (ts * ctx.phi.phi(ts))
    trows = [{"t": t, "delta": d, "omega": o, "fitted_C": c} for t, d, o, c
             in zip(ts.tolist(), delta.tolist(), omega.tolist(),
                    fitted.tolist())]
    write("_moduli.csv", csv_table(trows, ["t", "delta", "omega", "fitted_C"]))

    coeffs = np.concatenate([[mu.total_mass], mu.coefficients(512)])
    frows = [{"n": n, "re": c.real, "im": c.imag, "abs": a}
             for n, (c, a) in enumerate(zip(coeffs, np.abs(coeffs)))]
    write("_fourier.csv", csv_table(frows, ["n", "re", "im", "abs"]))

    if ctx.support is not None:
        ent = bc_entropy(ctx.support)
        payload = {"entropy": ent.total, "verdict": ent.verdict,
                   "generation_subtotals": [[g, s] for g, s in
                                            ent.generation_subtotals]}
        write("_bc_entropy.json", json_chunks(payload))
    for f in files:
        print(f)
    return 0


def _write_report(report: CheckReport, ctx: MeasureContext,
                  cfg: RunConfig) -> list[str]:
    """Write a report's JSON and CSV; returns both paths."""
    stem = os.path.join(cfg.out, f"{ctx.spec['type']}_{report.name}")
    files = [stem + ".json", stem + ".csv"]
    _write_atomic(files[0], report.json_chunks())
    _write_atomic(files[1], report.to_csv())
    return files


def cmd_check(cfg: RunConfig) -> int:
    ctx = build_measure(cfg.spec, cfg)
    report = run_check(cfg.check, ctx, cfg)
    for f in _write_report(report, ctx, cfg):
        print(f)
    print(f"{report.name}: {report.verdict}")
    return 0 if report.passed else 1


def cmd_suite(cfg: RunConfig) -> int:
    ctx = build_measure(cfg.spec, cfg)
    if "korenblum" in PRESETS[cfg.preset]:
        _support(ctx)  # a usage error before any artifact is written
    # every check runs before a table or report is written, so a usage
    # error that only a later check detects leaves no file behind; the
    # reports are written and dropped before the salem tables are formed
    reports = [run_check(name, ctx, cfg) for name in PRESETS[cfg.preset]]
    entries = [{"check": r.name, "verdict": r.verdict,
                "statement": CHECKS[r.name].statement,
                "files": [os.path.basename(f)
                          for f in _write_report(r, ctx, cfg)]}
               for r in reports]
    del reports
    if cfg.preset == "salem":
        cmd_measure(cfg, ctx)
    for e in entries:
        print(f"{e['check']}: {e['verdict']}")
    summary = {"preset": cfg.preset, "seed": ctx.seed, "measure": cfg.spec,
               "reports": entries}
    spath = os.path.join(cfg.out, "summary.json")
    _write_atomic(spath, json_chunks(summary))
    print(spath)
    return 0 if all(e["verdict"] == "pass" for e in entries) else 1


# -- entry point -----------------------------------------------------------


def _finite(token: str) -> float:
    """float(token), refusing nan and +-inf: the float parser of specs and
    the type of the numeric flags (argparse reports a UsageError raised
    here with its message, and exits 2)."""
    try:
        x = float(token)
    except ValueError:
        raise UsageError(f"not a number: {token!r}")
    if not np.isfinite(x):
        raise UsageError(f"non-finite number {token}")
    return x


def _integer(token: str) -> int:
    """int(token), refusing an integer beyond the float range: specs
    convert their numbers with float()."""
    if not np.isfinite(float(token)):
        raise UsageError(f"integer of {len(token)} digits in spec is too "
                         "large for a float")
    return int(token)


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
        return json.loads(raw, parse_float=_finite, parse_int=_integer,
                          parse_constant=_finite)
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
        if name == "check":
            sp.add_argument("--check", choices=tuple(CHECKS), required=True)
        if name == "suite":
            sp.add_argument("--preset", choices=sorted(PRESETS), required=True)
        sp.add_argument("--p", type=_finite)
        sp.add_argument("--alpha", type=_finite)
        sp.add_argument("--epsilon", type=_finite)
        sp.add_argument("--depth", type=int)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default="cyclia-out")
        sp.add_argument("--grid-start", type=_finite)
        sp.add_argument("--grid-stop", type=_finite)
        sp.add_argument("--grid-count", type=int)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    commands = {"measure": cmd_measure, "check": cmd_check, "suite": cmd_suite}
    try:
        cfg = RunConfig(**dict(vars(ns), spec=_parse_spec(ns.spec)))
        return commands[cfg.command](cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: invalid configuration: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        # a resource outcome, neither a failed check (1) nor a bad
        # configuration (2); a suite writes no summary.json
        print("error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
