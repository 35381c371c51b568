import ast
import csv
import importlib
import inspect
import json
import os
import subprocess
import sys
import weakref
from importlib import resources

import numpy as np
import pytest

from cyclia import cli, diagnostics, measures, models, norms
from cyclia.cli import (CHECKS, PRESETS, RunConfig, build_measure,
                        build_parser, main, make_grid, run_check)

ATOM_SPEC = '{"type": "atomic", "params": {"atoms": [[0.0, 1.0]]}}'
LEB_SPEC = '{"type": "lebesgue"}'
SALEM_SPEC = ('{"type": "salem", "params": {"alpha": 0.8, "epsilon": 0.05},'
              ' "depth": 8, "seed": 3}')
KAHANE_SPEC = ('{"type": "kahane", "params": {"C": 1.0, "gamma": 0.5},'
               ' "depth": 10, "seed": 7}')

PACKAGE = ("diagnostics", "dyadic", "measures", "models", "norms", "profiles")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the callers whose every reference keeps an exported name alive
REACHING = ("src/cyclia/cli.py", "tests/test_acceptance.py", "bench/tracing.py")
# exported names that only the tests reach: each is a statement of the
# paper, with the test that checks it
PAPER_STATEMENTS = {
    "smoothness_check":
        "tests/test_dyadic.py::TestSmoothness::test_increment_bound_detected",
    "exp_moment": "tests/test_dyadic.py::TestConcentration::test_exp_moment_bound",
    "lp_a_norm": "tests/test_norms.py::TestSequenceNorms::test_lp_a_closed_form",
    "weighted_l2alpha": "tests/test_norms.py::TestSequenceNorms::test_weighted_l2",
}


def run(*args):
    return main(list(args))


class TestMeasureCommand:
    def test_atomic_writes_four_files(self, tmp_path):
        out = str(tmp_path / "m")
        assert run("measure", "--spec", ATOM_SPEC, "--out", out) == 0
        names = sorted(os.listdir(out))
        assert names == ["atomic_bc_entropy.json", "atomic_fourier.csv",
                         "atomic_measure.csv", "atomic_moduli.csv"]

    def test_lebesgue_writes_three_files(self, tmp_path):
        out = str(tmp_path / "m")
        assert run("measure", "--spec", LEB_SPEC, "--out", out) == 0
        assert len(os.listdir(out)) == 3

    def test_moduli_constant_rows_for_atom(self, tmp_path):
        out = str(tmp_path / "m")
        run("measure", "--spec", ATOM_SPEC, "--out", out)
        with open(os.path.join(out, "atomic_moduli.csv")) as fh:
            lines = fh.read().splitlines()
        deltas = {line.split(",")[1] for line in lines[1:]}
        assert deltas == {"1"}

    def test_moduli_grid_scans_each_h_once(self, tmp_path, monkeypatch):
        seen, scan = [], measures._difference_sup

        def counting(mu, b, h, weights):
            if len(weights) == 3:
                seen.append(float(h))
            return scan(mu, b, h, weights)

        monkeypatch.setattr(measures, "_difference_sup", counting)
        assert run("measure", "--spec", KAHANE_SPEC,
                   "--out", str(tmp_path / "m")) == 0
        spec = json.loads(KAHANE_SPEC)
        mu = build_measure(spec, RunConfig(command="measure", spec=spec)).mu
        cands = measures._smoothness_h_candidates(
            mu.breakpoints, 2.0 ** -np.arange(2, 13))
        assert seen == np.unique(np.concatenate(cands)).tolist()
        assert len(seen) < sum(c.size for c in cands)

    def test_moduli_one_call_each(self, tmp_path, monkeypatch):
        calls = []
        for name in ("modulus_continuity", "modulus_smoothness"):
            def counting(mu, t, fn=getattr(cli, name), name=name):
                calls.append(name)
                return fn(mu, t)
            monkeypatch.setattr(cli, name, counting)
        assert run("measure", "--spec", ATOM_SPEC,
                   "--out", str(tmp_path / "m")) == 0
        assert sorted(calls) == ["modulus_continuity", "modulus_smoothness"]

    def test_kahane_readers_see_one_set_of_coefficients(self, tmp_path,
                                                        monkeypatch):
        # _fourier.csv, fourier-decay and the ring kernel read the measure's
        # one cache: the same hat mu(n), bit for bit
        seen, cache = [], measures.CircleMeasure.coefficients

        def recording(mu, count):
            seen.append(cache(mu, count).copy())
            return seen[-1]

        monkeypatch.setattr(measures.CircleMeasure, "coefficients", recording)
        spec = json.loads(KAHANE_SPEC)
        cfg = RunConfig(command="measure", spec=spec, out=str(tmp_path / "m"))
        ctx = build_measure(spec, cfg)
        assert cli.cmd_measure(cfg, ctx) == 0
        decay = diagnostics.fourier_decay_fit(ctx.mu, 4096)
        models.herglotz_jet(ctx.mu, 0.999, 64)
        c = max(seen, key=len)
        assert all(np.array_equal(s, c[:len(s)]) for s in seen)
        assert len(c) == models._truncation_order(0.999, ctx.mu.total_mass)
        with open(tmp_path / "m" / "kahane_fourier.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["re"]) == ctx.mu.total_mass
        assert [complex(float(r["re"]), float(r["im"])) for r in rows[1:]] \
            == c[:512].tolist()
        assert [float(r["abs"]) for r in rows[1:]] == np.abs(c[:512]).tolist()
        assert [row["envelope"] for row in decay.table] == \
            [np.abs(c)[row["n"] - 1] for row in decay.table]

    def test_malformed_spec_exits_two(self, tmp_path, capsys):
        out = str(tmp_path / "m")
        assert run("measure", "--spec", '{"type": "wedge"}', "--out", out) == 2
        assert "wedge" in capsys.readouterr().err

    def test_spec_from_file(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(LEB_SPEC)
        assert run("measure", "--spec", str(p),
                   "--out", str(tmp_path / "m")) == 0

    def test_missing_file_exits_two(self, tmp_path):
        assert run("measure", "--spec", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "m")) == 2


class TestCheckCommand:
    def test_korenblum_atom_exit_one_with_artifacts(self, tmp_path):
        out = str(tmp_path / "c")
        code = run("check", "--spec", ATOM_SPEC, "--check", "korenblum",
                   "--out", out)
        assert code == 1
        assert sorted(os.listdir(out)) == ["atomic_korenblum.csv",
                                           "atomic_korenblum.json"]
        with open(os.path.join(out, "atomic_korenblum.json")) as fh:
            data = json.load(fh)
        assert data["verdict"] == "fail"
        assert "runtime" not in data

    def test_pmeans_lebesgue_exit_zero(self, tmp_path):
        assert run("check", "--spec", LEB_SPEC, "--check", "pmeans",
                   "--out", str(tmp_path / "c")) == 0

    def test_korenblum_needs_support(self, tmp_path):
        assert run("check", "--spec", LEB_SPEC, "--check", "korenblum",
                   "--out", str(tmp_path / "c")) == 2

    def test_fourier_decay_salem(self, tmp_path):
        assert run("check", "--spec", SALEM_SPEC, "--check", "fourier-decay",
                   "--out", str(tmp_path / "c")) == 0

    def test_fourier_decay_lebesgue_passes(self, tmp_path):
        # every coefficient past n = 0 vanishes: a valid spec, not a usage
        # error, and decay faster than any power
        out = str(tmp_path / "c")
        assert run("check", "--spec", LEB_SPEC, "--check", "fourier-decay",
                   "--out", out) == 0
        with open(os.path.join(out, "lebesgue_fourier-decay.json")) as fh:
            data = json.load(fh)
        assert data["verdict"] == "pass"
        assert data["fits"]["slope"] == "-inf" and data["table"] == []

    def test_anderson_kahane(self, tmp_path):
        assert run("check", "--spec", KAHANE_SPEC, "--check", "anderson",
                   "--out", str(tmp_path / "c")) == 0

    def test_grid_override(self, tmp_path):
        out = str(tmp_path / "c")
        code = run("check", "--spec", LEB_SPEC, "--check", "derivative-sup",
                   "--grid-start", "0.5", "--grid-stop", "2.0",
                   "--grid-count", "3", "--out", out)
        assert code == 0
        with open(os.path.join(out, "lebesgue_derivative-sup.csv")) as fh:
            rows = fh.read().splitlines()
        assert len(rows) == 1 + 3

    def test_overflowing_gauge_integral_is_inconclusive(self, tmp_path,
                                                        capsys):
        # exp(epsilon bracket^2) overflows: no proof of divergence, since a
        # bracket may be bounded, so a report and not a traceback
        spec = ('{"type": "kahane", "params": {"C": 1.0, "gamma": 0.5},'
                ' "depth": 6, "seed": 7}')
        out = str(tmp_path / "c")
        assert run("check", "--spec", spec, "--check", "integrability",
                   "--epsilon", "1e6", "--out", out) == 1
        assert sorted(os.listdir(out)) == ["kahane_integrability.csv",
                                           "kahane_integrability.json"]
        assert capsys.readouterr().out.splitlines()[-1] == \
            "integrability: inconclusive"
        with open(os.path.join(out, "kahane_integrability.json")) as fh:
            data = json.load(fh)
        assert data["fits"]["verdict_first"] == "convergent"
        assert data["fits"]["verdict_weighted"] == "inconclusive"
        assert data["worst_ratio"] is None

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, below):
        # an existing file, or a path through one, cannot be the directory
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        out = os.path.join(str(blocker), below) if below else str(blocker)
        assert run("check", "--spec", LEB_SPEC, "--check", "anderson",
                   "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert repr(out) in err[0]
        assert blocker.read_text() == "kept\n"

    @pytest.mark.xfail(strict=True, reason="a ring of at most 2^16 points "
                       "misses the peak of |S'|, about 1 - r wide, once "
                       "1 - r is far below 2^-16")
    def test_derivative_sup_atom_does_not_pass_past_the_ring_cap(self, tmp_path):
        out = str(tmp_path / "c")
        run("check", "--spec", ATOM_SPEC, "--check", "derivative-sup",
            "--grid-stop", "12", "--out", out)
        with open(os.path.join(out, "atomic_derivative-sup.json")) as fh:
            assert json.load(fh)["verdict"] != "pass"


    @pytest.mark.parametrize("flag, value, point", [
        ("--grid-stop", "17", "1.0"), ("--grid-start", "0", "0.0"),
        ("--grid-start", "-1", "-9.0")])
    def test_log1m_point_outside_the_disc_is_a_usage_error(
            self, tmp_path, capsys, flag, value, point):
        # 1 - 10^-17 rounds to 1: a radius or a dilation on the circle
        assert run("check", "--spec", ATOM_SPEC, "--check", "derivative-sup",
                   flag, value, "--out", str(tmp_path / "c")) == 2
        err = capsys.readouterr().err
        assert f"{flag} {value} puts a log1m grid point at {point}," in err
        assert not os.path.exists(tmp_path / "c")

    def test_cache_budget_is_a_configuration_error(self, tmp_path, capsys):
        # the ring at 1 - 10^-16 needs more coefficients than the cache may
        # hold: refused before anything is allocated, as a bad configuration.
        # Lebesgue measure folds its cache; an atom fills none
        assert run("check", "--spec", LEB_SPEC, "--check", "derivative-sup",
                   "--grid-stop", "16", "--grid-count", "2",
                   "--out", str(tmp_path / "c")) == 2
        assert "exceed the cache budget of 67108864" in capsys.readouterr().err

    def test_default_config_keeps_check_scale(self):
        cfg = RunConfig(command="check", spec={})
        assert list(make_grid(cfg, 2, 12, 11, "dyadic")[:2]) == [0.25, 0.125]

    def test_zero_p_is_used_not_defaulted(self, tmp_path, capsys):
        assert run("check", "--spec", LEB_SPEC, "--check", "pmeans",
                   "--p", "0", "--out", str(tmp_path / "c")) == 2
        assert "p must be positive" in capsys.readouterr().err

    def test_tolerance_is_a_usage_error(self, tmp_path):
        # fourier-decay's threshold is a constant of the check
        assert run("check", "--spec", SALEM_SPEC, "--check", "fourier-decay",
                   "--tolerance", "0", "--out", str(tmp_path / "c")) == 2
        assert not os.path.exists(tmp_path / "c")

    def test_zero_epsilon_reaches_the_salem_construction(self, tmp_path,
                                                         capsys):
        spec = ('{"type": "salem", "params": {"epsilon": 0}, "depth": 6,'
                ' "seed": 3}')
        assert run("check", "--spec", spec, "--check", "korenblum",
                   "--out", str(tmp_path / "c")) == 2
        assert "epsilon must be positive" in capsys.readouterr().err

    def test_check_flags_leave_the_salem_construction(self, tmp_path):
        # --alpha and --epsilon are flags of the checks (the inner power of
        # brown-shields, the weighted gauge integral); the spec alone
        # builds the measure
        spec = '{"type": "salem", "depth": 6, "seed": 3}'
        texts = []
        for flags in ([], ["--alpha", "0.05", "--epsilon", "0.5"]):
            out = str(tmp_path / f"m{len(flags)}")
            assert run("measure", "--spec", spec, *flags, "--out", out) == 0
            with open(os.path.join(out, "salem_measure.csv")) as fh:
                texts.append(fh.read())
        assert texts[0] == texts[1]

    def test_grid_count_is_capped(self, tmp_path, capsys):
        assert run("check", "--spec", LEB_SPEC, "--check", "anderson",
                   "--grid-count", "1025", "--out", str(tmp_path / "c")) == 2
        assert "grid count must be in 1..1024" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "c")

    @pytest.mark.parametrize("spec", [
        '{"type": "atomic", "params": {"atoms": [[NaN, 1]]}}',
        '{"type": "atomic", "params": {"atoms": [[0.5, Infinity]]}}',
        '{"type": "atomic", "params": {"atoms": [[0.5, -Infinity]]}}',
        '{"type": "lebesgue", "params": {"mass": 1e400}}',
        '{"type": "kahane", "depth": Infinity}'])
    def test_non_finite_spec_number_is_a_usage_error(self, tmp_path, capsys,
                                                     spec):
        assert run("check", "--spec", spec, "--check", "anderson",
                   "--out", str(tmp_path / "c")) == 2
        assert "non-finite number" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "c")

    @pytest.mark.parametrize("spec", [
        '{"type": "lebesgue", "params": []}',
        '{"type": "lebesgue", "params": null}',
        '{"type": "kahane", "depth": 6.9}',
        '{"type": "kahane", "depth": true}',
        '{"type": "kahane", "depth": "6"}',
        '{"type": "kahane", "depth": 6, "seed": 7.5}',
        '{"type": "kahane", "depth": 6, "seed": false}',
        '{"type": "salem", "params": {"d": 2.9, "xi": 0.2}, "depth": 6}',
        '{"type": "salem", "params": {"d": "2", "xi": 0.2}, "depth": 6}'])
    def test_malformed_spec_field_is_a_usage_error(self, tmp_path, capsys,
                                                   spec):
        assert run("measure", "--spec", spec, "--out", str(tmp_path / "m")) == 2
        assert "must be" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "m")

    @pytest.mark.parametrize("command", ["measure", "check"])
    def test_spec_integer_beyond_floats_is_a_usage_error(self, tmp_path,
                                                         capsys, command):
        spec = '{"type": "lebesgue", "params": {"mass": 1%s}}' % ("0" * 400)
        check = ["--check", "anderson"] if command == "check" else []
        assert run(command, "--spec", spec, *check,
                   "--out", str(tmp_path / "c")) == 2
        assert "too large for a float" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "c")

    @pytest.mark.parametrize("flag", ["--p", "--alpha", "--epsilon",
                                      "--grid-start", "--grid-stop"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
    def test_non_finite_flag_is_a_usage_error(self, tmp_path, capsys, flag,
                                              value):
        assert run("check", "--spec", LEB_SPEC, "--check", "pmeans",
                   flag, value, "--out", str(tmp_path / "c")) == 2
        assert f"argument {flag}: non-finite number {value}" in \
            capsys.readouterr().err
        assert not os.path.exists(tmp_path / "c")

    def test_korenblum_counts_a_repeated_atom_once(self, tmp_path):
        # two atoms at 0.3 are one atom of mass 0.625: one arc, and the
        # carrier's mass is the measure's, 0.875
        spec = ('{"type": "atomic", "params": {"atoms": '
                '[[0.3, 0.5], [0.7, 0.25], [0.3, 0.125]]}}')
        assert run("check", "--spec", spec, "--check", "korenblum",
                   "--out", str(tmp_path / "c")) == 1
        with open(tmp_path / "c" / "atomic_korenblum.json") as fh:
            report = json.load(fh)
        assert report["fits"]["mass"] == 0.875
        assert [(row["a"], row["mass"]) for row in report["table"]] == [
            (0.3, 0.625), (0.7, 0.25)]

    def test_check_flag_is_required(self, tmp_path):
        assert run("check", "--spec", LEB_SPEC,
                   "--out", str(tmp_path / "c")) == 2

    def test_measure_rejects_check_flag(self, tmp_path):
        assert run("measure", "--spec", LEB_SPEC, "--check", "pmeans",
                   "--out", str(tmp_path / "m")) == 2


class TestSuiteCommand:
    def test_unknown_preset_exits_two(self, tmp_path):
        assert run("suite", "--spec", LEB_SPEC, "--preset", "nope",
                   "--out", str(tmp_path / "s")) == 2

    def test_preset_flag_is_required(self, tmp_path):
        assert run("suite", "--spec", LEB_SPEC,
                   "--out", str(tmp_path / "s")) == 2

    def test_salem_preset_files_and_summary(self, tmp_path):
        out = str(tmp_path / "s")
        code = run("suite", "--spec", SALEM_SPEC, "--preset", "salem",
                   "--out", out)
        # the necessity verdict counts as a failed check by design
        assert code == 1
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["preset"] == "salem"
        checks = {r["check"]: r["verdict"] for r in summary["reports"]}
        assert checks["korenblum"] == "fail"
        assert checks["fourier-decay"] == "pass"
        for rep in summary["reports"]:
            for fname in rep["files"]:
                assert os.path.exists(os.path.join(out, fname))

    def test_summary_validates_against_schema(self, tmp_path):
        # cyclia builds every field of summary.json and does not validate it
        # at run time; the summary of every preset matches the packaged schema
        import jsonschema
        schema = json.loads(resources.files("cyclia").joinpath(
            "summary_schema.json").read_text())
        for preset in PRESETS:
            out = str(tmp_path / preset)
            assert run("suite", "--spec", SALEM_SPEC, "--preset", preset,
                       "--depth", "4", "--grid-count", "1", "--out", out) in (0, 1)
            with open(os.path.join(out, "summary.json")) as fh:
                summary = json.load(fh)
            assert summary["preset"] == preset
            assert len(summary["reports"]) == len(PRESETS[preset])
            jsonschema.validate(summary, schema)

    def test_summary_records_spec_seed(self, tmp_path):
        out = str(tmp_path / "s")
        spec = json.loads(SALEM_SPEC)
        spec["seed"] = 11
        run("suite", "--spec", json.dumps(spec), "--preset",
            "theorem-necessity", "--seed", "0", "--out", out)
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["seed"] == 11

    def test_salem_preset_builds_the_measure_once(self, tmp_path, monkeypatch):
        from cyclia import cli
        calls = []
        build = cli.salem_measure

        def counting(spec):
            calls.append(spec)
            return build(spec)

        monkeypatch.setattr(cli, "salem_measure", counting)
        run("suite", "--spec", SALEM_SPEC, "--preset", "salem",
            "--out", str(tmp_path / "s"))
        assert len(calls) == 1

    def test_salem_preset_sends_each_coefficient_once(self, tmp_path,
                                                      monkeypatch):
        # _fourier.csv (n <= 512), fourier-decay and fourier-lp (n <= 4096)
        # share the measure's cache: 4096 coefficients, not 8705
        sent, kernel = [], measures.CircleMeasure.fourier_many

        def counting(mu, ns):
            sent.append(np.size(ns))
            return kernel(mu, ns)

        monkeypatch.setattr(measures.CircleMeasure, "fourier_many", counting)
        run("suite", "--spec", SALEM_SPEC, "--preset", "salem",
            "--out", str(tmp_path / "s"))
        assert sum(sent) <= 4096

    def test_byte_identical_reruns(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run("suite", "--spec", SALEM_SPEC, "--preset", "salem", "--out", a)
        run("suite", "--spec", SALEM_SPEC, "--preset", "salem", "--out", b)
        for name in sorted(os.listdir(a)):
            with open(os.path.join(a, name), "rb") as fh:
                fa = fh.read()
            with open(os.path.join(b, name), "rb") as fh:
                fb = fh.read()
            assert fa == fb, name


class TestRegistry:
    def test_preset_report_order(self):
        # summary.json lists the reports in this order
        assert PRESETS == {
            "theorem-main": ("anderson", "derivative-sup", "multiplier",
                             "pmeans", "brown-shields"),
            "theorem-power": ("integrability", "brown-shields"),
            "theorem-necessity": ("korenblum",),
            "salem": ("fourier-decay", "fourier-lp", "korenblum"),
        }

    def test_every_check_has_a_statement(self):
        assert len(CHECKS) == 11
        assert all(c.statement.strip() for c in CHECKS.values())

    def test_check_choices_are_the_registry(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        check = next(a for a in sub.choices["check"]._actions
                     if a.dest == "check")
        assert tuple(check.choices) == tuple(CHECKS)

    def test_readme_check_table_is_the_registry(self):
        # the README's check table names the checks in table order, with
        # each one's default grid and presets
        with open(os.path.join(REPO, "README.md")) as fh:
            lines = fh.read().splitlines()
        head = next(i for i, line in enumerate(lines)
                    if line.startswith("| Check | Default grid"))
        rows = []
        for line in lines[head + 2:]:
            if not line.startswith("|"):
                break
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        assert [row[0].strip("`") for row in rows] == list(CHECKS)
        for name, grid, _, _, presets in rows:
            check = CHECKS[name.strip("`")]
            if grid == "none":
                assert check.grid is None, name
            else:
                start, stop, count, scale = grid.strip("()").split(", ")
                assert check.grid == (float(start), float(stop), int(count),
                                      scale), name
            assert tuple(p.strip("`") for p in presets.split(", ")
                         if p != "—") == check.presets, name

    def test_run_check_fills_runtime_not_serialized(self):
        spec = json.loads(LEB_SPEC)
        cfg = RunConfig(command="check", spec=spec)
        report = run_check("pmeans", build_measure(spec, cfg), cfg)
        assert report.runtime > 0
        assert "runtime" not in json.loads(report.to_json())

    def test_benchmark_argv_parses(self, monkeypatch):
        # every operation of every benchmark workload is a command line the
        # parser accepts: its checks, presets and flags all still exist
        monkeypatch.syspath_prepend(os.path.join(REPO, "bench"))
        workloads = importlib.import_module("workloads")
        ap = build_parser()
        for name, build in workloads.WORKLOADS.items():
            for op in build(0).ops:
                ns = ap.parse_args(op.argv + ["--out", "unused"])
                assert ns.command == op.argv[0], (name, op.label)

    def test_benchmark_entry_points(self):
        # the benchmark's runner and tracer call these by name
        assert list(inspect.signature(run_check).parameters)[0] == "name"
        assert list(inspect.signature(build_measure).parameters) == [
            "spec", "cfg"]
        assert callable(cli.cmd_measure)
        cfg = RunConfig(command="check", spec={})
        assert (cfg.command, cfg.spec) == ("check", {})
        assert list(inspect.signature(models.herglotz_ring).parameters) == [
            "mu", "r", "m", "offset", "deriv"]
        assert "grid" in inspect.signature(norms.besov_seminorm).parameters
        for method in ("fourier_many", "interval_mass_many"):
            assert callable(vars(measures.CircleMeasure)[method])
        # the tracer counts len() of each fourier_many argument as the
        # coefficients computed, and the kernel takes a range
        mu, sent = measures.atomic([(0.25, 1.0)]), []
        kernel = mu.fourier_many
        mu.fourier_many = lambda ns: sent.append(len(ns)) or kernel(ns)
        mu.coefficients(100)
        mu.coefficients(250)
        assert sent == [100, 150]
        assert kernel(range(-2, 3))[2] == mu.total_mass
        for build in ("lebesgue", "atomic", "kahane_smooth", "salem_measure"):
            assert inspect.isfunction(getattr(measures, build))
        for method in ("ring", "dring"):
            assert callable(vars(models.FunctionModel)[method])
        # the tracer keys a WeakKeyDictionary by the measure
        mu = measures.lebesgue()
        assert weakref.ref(mu)() is mu
        assert weakref.WeakKeyDictionary({mu: 1.0})[mu] == 1.0

    @pytest.mark.parametrize("name", PACKAGE)
    def test_every_exported_name_resolves(self, name):
        mod = importlib.import_module(f"cyclia.{name}")
        assert [n for n in mod.__all__ if not hasattr(mod, n)] == []

    def test_every_exported_name_is_reached(self):
        # an exported name is referenced by the CLI, the acceptance gate,
        # the benchmark's tracer or another definition of the package, or
        # it is a paper statement whose test exists
        reached = set()
        for path in REACHING:
            reached |= _identifiers(_parse(path), strings=True)
        for name in PACKAGE:
            for node in _parse(f"src/cyclia/{name}.py").body:
                own = getattr(node, "name", None)
                reached |= _identifiers(node) - {own}
        exported = [n for name in PACKAGE
                    for n in importlib.import_module(f"cyclia.{name}").__all__]
        assert [n for n in exported
                if n not in reached and n not in PAPER_STATEMENTS] == []
        assert sorted(set(PAPER_STATEMENTS) - set(exported)) == []
        for test_id in PAPER_STATEMENTS.values():
            path, *names = test_id.split("::")
            scope = _parse(path).body
            for name in names:
                node = next((d for d in scope if getattr(d, "name", None)
                             == name), None)
                assert node is not None, test_id
                scope = node.body


def _parse(path):
    with open(os.path.join(REPO, path)) as fh:
        return ast.parse(fh.read())


def _identifiers(tree, strings=False):
    """The names and attributes a syntax tree uses, and with ``strings``
    each dotted part of its string constants (the tracer names what it
    hooks as "module.function")."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            found.update(node.value.split("."))
    return found


def test_cli_runs_without_scipy(tmp_path):
    """cyclia runs on numpy alone: with scipy's import blocked, every
    registered check and every preset runs to a verdict."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from cyclia import cli\n"
        "kahane = '{\"type\": \"kahane\", \"params\": {\"C\": 1.0,"
        " \"gamma\": 0.5}, \"depth\": 6, \"seed\": 7}'\n"
        "salem = '{\"type\": \"salem\", \"params\": {\"alpha\": 0.8,"
        " \"epsilon\": 0.05}, \"depth\": 6, \"seed\": 3}'\n"
        "runs = [['check', '--check', c] for c in cli.CHECKS]\n"
        "runs += [['suite', '--preset', p] for p in cli.PRESETS]\n"
        "for i, argv in enumerate(runs):\n"
        "    checks = cli.PRESETS.get(argv[2], [argv[2]])\n"
        "    spec = salem if 'korenblum' in checks else kahane\n"
        "    code = cli.main(argv + ['--spec', spec, '--grid-count', '2',"
        " '--out', f'{sys.argv[1]}/{i}'])\n"
        "    print('exit', argv[2], code)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "ImportError" not in done.stderr
    codes = dict(line.split()[1:] for line in done.stdout.splitlines()
                 if line.startswith("exit "))
    assert sorted(codes) == sorted([*CHECKS, *PRESETS])
    assert set(codes.values()) <= {"0", "1"}, codes
