"""Traced run of one workload in a single process, and the per-layer metrics
computed from its spans.

Run as ``python3 bench/tracing.py OPS_JSON RESULT_JSON`` with ``src`` on
PYTHONPATH.  It wraps the public functions of cyclia's ``cli``,
``diagnostics``, ``norms``, ``models`` and ``measures`` modules at their
module attributes and at every one of those modules that imported them by
name, plus the measure methods ``fourier_many`` / ``interval_mass_many`` and
the model classes' ``ring`` / ``dring``.  It then runs each operation through
``cyclia.cli.main``.  Spans stay in memory and are written to RESULT_JSON
when the process ends.  Nothing in cyclia changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
import traceback
import weakref

MODULES = ("cli", "diagnostics", "norms", "models", "measures")
MEASURE_CONSTRUCTORS = ("lebesgue", "atomic", "kahane_smooth", "salem_measure")
RING_SAMPLES = 3          # herglotz_ring calls kept for the spot check
RING_SAMPLE_MAX_R = 0.999


class Tracer:
    """Spans as [name, start, end, parent index, attrs]; parent -1 is a root."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.ring_samples = []
        self._max_radius = weakref.WeakKeyDictionary()

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(args, kwargs) if before else {}
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    attrs]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if after:
                after(result, args, kwargs, attrs)
            return result

        return traced

    # attribute hooks, run outside the timed interval ----------------------

    def ring_before(self, args, kwargs):
        bound = _bind(self._ring_sig, args, kwargs)
        mu, r, m = bound["mu"], float(bound["r"]), int(bound["m"])
        prev = self._max_radius.get(mu, -1.0)
        if r > prev:
            self._max_radius[mu] = r
        return {"r": r, "m": m, "deriv": bool(bound["deriv"]),
                "offset": float(bound["offset"]), "cold": r > prev}

    def ring_after(self, result, args, kwargs, attrs):
        if (attrs["deriv"] or attrs["r"] > RING_SAMPLE_MAX_R
                or len(self.ring_samples) >= RING_SAMPLES
                or any(s["r"] == attrs["r"] for s in self.ring_samples)):
            return
        m = attrs["m"]
        ks = sorted({0, m // 3, m // 2, m - 1})
        self.ring_samples.append({
            "r": attrs["r"], "m": m, "offset": attrs["offset"], "k": ks,
            "re": [float(result[k].real) for k in ks],
            "im": [float(result[k].imag) for k in ks]})

    def install(self):
        mods = {n: importlib.import_module(f"cyclia.{n}") for n in MODULES}
        models, norms = mods["models"], mods["norms"]
        self._ring_sig = inspect.signature(models.herglotz_ring)
        besov_sig = inspect.signature(norms.besov_seminorm)

        def besov_before(args, kwargs):
            grid = _bind(besov_sig, args, kwargs)["grid"] or norms.default_grid()
            return {"rings": len(grid) + len(grid.refine()) + 1}

        def run_check_name(args, kwargs):
            return {"check": args[0] if args else kwargs["name"]}

        def built(result, args, kwargs, attrs):
            attrs["pieces"] = int(len(result[0].piece_a) if isinstance(result, tuple)
                                  else len(result.piece_a))

        hooks = {
            "models.herglotz_ring": (self.ring_before, self.ring_after),
            "norms.besov_seminorm": (besov_before, None),
            "cli.run_check": (run_check_name, None),
        }
        for b in MEASURE_CONSTRUCTORS:
            hooks[f"measures.{b}"] = (None, built)

        # every public function defined in one of the modules, replaced
        # wherever one of the modules holds it by name
        originals = {}
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (f"{mname}.{attr}", obj)
        wrapped = {}
        for key, (name, fn) in originals.items():
            before, after = hooks.get(name, (None, None))
            wrapped[key] = self.wrap(name, fn, before, after)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])

        cm = mods["measures"].CircleMeasure
        cm.fourier_many = self.wrap(
            "measures.fourier_many", cm.fourier_many,
            lambda a, k: {"coeffs": int(_size(a[1])),
                          "pieces": int(len(a[0].piece_a))})
        cm.interval_mass_many = self.wrap(
            "measures.interval_mass_many", cm.interval_mass_many,
            lambda a, k: {"intervals": int(_size(a[1]))})
        for cls in vars(models).values():
            if inspect.isclass(cls) and issubclass(cls, models.FunctionModel):
                for meth in ("ring", "dring"):
                    if meth in vars(cls):
                        setattr(cls, meth, self.wrap("models.ring_eval",
                                                     vars(cls)[meth]))


def _bind(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _size(x):
    try:
        return len(x)
    except TypeError:
        return 1


# -- the traced child ---------------------------------------------------------


def run_ops(ops_path: str, result_path: str) -> None:
    with open(ops_path) as fh:
        ops = json.load(fh)
    tracer = Tracer()
    tracer.install()
    from cyclia import cli

    results = []
    for op in ops:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(op["argv"] + ["--out", op["out"]])
            raised = None
        except Exception:  # a crash is a failed operation, not the end of the run
            code, raised = None, traceback.format_exc()
        results.append({"exit": code, "raised": raised, "stdout": buf.getvalue(),
                        "seconds": time.perf_counter() - t0})
    with open(result_path, "w") as fh:
        json.dump({"ops": results, "spans": tracer.spans,
                   "ring_samples": tracer.ring_samples}, fh)


# -- per-layer metrics --------------------------------------------------------

CHECKS = ("anderson", "derivative-sup", "multiplier", "pmeans", "brown-shields",
          "fourier-decay", "fourier-lp", "korenblum", "annihilator")

COUNT_METRICS = (
    "norms.besov_seminorm.calls", "norms.quadrature_rings",
    "models.herglotz_ring.calls", "models.herglotz_ring.points",
    "models.herglotz_ring.cold_calls", "models.ring_evals",
    "models.maclaurin.calls", "measures.build.pieces",
    "measures.fourier_many.calls", "measures.fourier_many.coeffs",
    "measures.fourier_many.piece_terms", "measures.interval_mass_many.calls",
    "measures.interval_mass_many.intervals",
    "measures.modulus_smoothness.calls",
)
SECOND_METRICS = (
    ("cli.build_measure.s", "cli.cmd_measure.s")
    + tuple(f"check.{c}.s" for c in CHECKS)
    + ("norms.besov_seminorm.s", "norms.besov_seminorm.self_s",
       "models.herglotz_ring.s", "models.herglotz_ring.self_s",
       "models.herglotz_ring.cold_s", "models.herglotz_ring.warm_s",
       "models.maclaurin.s", "measures.build.s", "measures.fourier_many.s",
       "measures.interval_mass_many.s", "measures.modulus_smoothness.s",
       "measures.modulus_continuity.s", "measures.bc_entropy.s",
       "trace.overhead_s")
)
UNITS = dict({k: "count" for k in COUNT_METRICS},
             **{k: "s" for k in SECOND_METRICS},
             **{"cli.artifact_bytes": "bytes",
                "models.herglotz_ring.per_quadrature_ring": "calls/ring"})


def layer_metrics(spans: list) -> dict:
    """Aggregate spans into the per-layer metrics (without the artifact
    bytes and the overhead, which the caller measures)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    # a recursive call counts once, at its outermost span
    outer = [not any(spans[a][0] == spans[i][0] for a in ancestors(i))
             for i in range(n)]
    in_besov = [any(spans[a][0] == "norms.besov_seminorm" for a in ancestors(i))
                for i in range(n)]

    m = {k: 0 for k in UNITS}
    m["models.herglotz_ring.per_quadrature_ring"] = 0.0
    besov_ring_calls = 0
    for i, (name, _, _, _, attrs) in enumerate(spans):
        d = dur[i] if outer[i] else 0.0
        if name == "cli.run_check" and attrs["check"] in CHECKS:
            m[f"check.{attrs['check']}.s"] += d
        elif name in ("cli.build_measure", "cli.cmd_measure"):
            m[f"{name}.s"] += d
        elif name == "norms.besov_seminorm":
            m["norms.besov_seminorm.calls"] += 1
            m["norms.besov_seminorm.s"] += d
            m["norms.besov_seminorm.self_s"] += dur[i] - child[i]
            m["norms.quadrature_rings"] += attrs["rings"]
        elif name == "models.herglotz_ring":
            m["models.herglotz_ring.calls"] += 1
            m["models.herglotz_ring.s"] += d
            m["models.herglotz_ring.self_s"] += dur[i] - child[i]
            m["models.herglotz_ring.points"] += attrs["m"]
            if attrs["cold"]:
                m["models.herglotz_ring.cold_calls"] += 1
                m["models.herglotz_ring.cold_s"] += d
            else:
                m["models.herglotz_ring.warm_s"] += d
            besov_ring_calls += in_besov[i]
        elif name == "models.ring_eval":
            m["models.ring_evals"] += 1
        elif name == "models.maclaurin":
            m["models.maclaurin.calls"] += 1
            m["models.maclaurin.s"] += d
        elif name.startswith("measures.") and name[9:] in MEASURE_CONSTRUCTORS:
            m["measures.build.s"] += d
            m["measures.build.pieces"] += attrs["pieces"]
        elif name == "measures.fourier_many":
            m["measures.fourier_many.calls"] += 1
            m["measures.fourier_many.s"] += d
            m["measures.fourier_many.coeffs"] += attrs["coeffs"]
            m["measures.fourier_many.piece_terms"] += attrs["coeffs"] * attrs["pieces"]
        elif name == "measures.interval_mass_many":
            m["measures.interval_mass_many.calls"] += 1
            m["measures.interval_mass_many.s"] += d
            m["measures.interval_mass_many.intervals"] += attrs["intervals"]
        elif name == "measures.modulus_smoothness":
            m["measures.modulus_smoothness.calls"] += 1
            m["measures.modulus_smoothness.s"] += d
        elif name in ("measures.modulus_continuity", "measures.bc_entropy"):
            m[f"{name}.s"] += d
    if m["norms.quadrature_rings"]:
        m["models.herglotz_ring.per_quadrature_ring"] = (
            besov_ring_calls / m["norms.quadrature_rings"])
    return m


if __name__ == "__main__":
    run_ops(sys.argv[1], sys.argv[2])
