import ast
import contextlib
import csv
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclia import cli, diagnostics, measures, models, norms
from cyclia.cli import (CHECKS, MEASURES, PRESETS, RunConfig, build_measure,
                        build_parser, main, make_grid, run_check)

ATOM_SPEC = '{"type": "atomic", "params": {"atoms": [[0.0, 1.0]]}}'
LEB_SPEC = '{"type": "lebesgue"}'
SALEM_SPEC = ('{"type": "salem", "params": {"alpha": 0.8, "epsilon": 0.05},'
              ' "depth": 8, "seed": 3}')
KAHANE_SPEC = ('{"type": "kahane", "params": {"C": 1.0, "gamma": 0.5},'
               ' "depth": 10, "seed": 7}')

# a small spec of each measure type, and the constructor its builder calls
SMALL_SPECS = {
    "lebesgue": ({"type": "lebesgue"}, "lebesgue"),
    "atomic": ({"type": "atomic", "params": {"atoms": [[0.0, 1.0]]}},
               "atomic"),
    "kahane": ({"type": "kahane", "depth": 4, "seed": 7}, "kahane_smooth"),
    "salem": ({"type": "salem", "depth": 4, "seed": 3}, "salem_measure"),
}

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

    def test_fitted_C_against_the_scalar_quotient(self, tmp_path):
        # one numpy division per grid, bit for bit the per-row quotient
        out = str(tmp_path / "m")
        assert run("measure", "--spec", KAHANE_SPEC, "--out", out) == 0
        phi = build_measure(json.loads(KAHANE_SPEC),
                            RunConfig("measure", {})).phi
        with open(os.path.join(out, "kahane_moduli.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        for row in rows:
            t, omega = float(row["t"]), float(row["omega"])
            assert float(row["fitted_C"]) == omega / (t * float(phi.phi(t)))

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
        # _fourier.csv and fourier-decay read the measure's one cache: the
        # same hat mu(n), bit for bit; the ring kernel folds the leaf table
        # and reads none of it
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
        tracemalloc.start()
        try:
            models.herglotz_jet(ctx.mu, 0.999, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        c = max(seen, key=len)
        assert all(np.array_equal(s, c[:len(s)]) for s in seen)
        assert len(c) == ctx.mu._ncoef == 4096
        # nor does it hold a table of 1/n (8 bytes per term): the ring
        # peaks below a quarter of that
        assert peak < 2 * models._truncation_order(0.999, ctx.mu.total_mass)
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

    @pytest.mark.parametrize("epsilon", ["0", "-1"])
    def test_nonpositive_epsilon_is_a_configuration_error(self, tmp_path,
                                                          capsys, epsilon):
        # the gauge integral's weight exp(epsilon bracket^2) needs epsilon > 0
        spec = ('{"type": "kahane", "params": {"C": 1.0, "gamma": 0.5},'
                ' "depth": 6, "seed": 7}')
        assert run("check", "--spec", spec, "--check", "integrability",
                   "--epsilon", epsilon, "--out", str(tmp_path / "c")) == 2
        assert "epsilon must be positive" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "c")

    @pytest.mark.parametrize("params", ['{"C": 1e308}',
                                        '{"C": 1e200, "gamma": 0.9}'])
    def test_overflowing_gauge_bracket_is_inconclusive(self, tmp_path, capsys,
                                                       params):
        # the squared bracket overflows a float: a report, not a traceback
        spec = '{"type": "kahane", "params": %s, "depth": 4}' % params
        out = str(tmp_path / "c")
        assert run("check", "--spec", spec, "--check", "pmeans",
                   "--out", out) == 1
        assert sorted(os.listdir(out)) == ["kahane_pmeans.csv",
                                           "kahane_pmeans.json"]
        assert capsys.readouterr().out.splitlines()[-1] == \
            "pmeans: inconclusive"
        with open(os.path.join(out, "kahane_pmeans.json")) as fh:
            assert json.load(fh)["worst_ratio"] is None

    def test_zero_gauge_is_a_report(self, tmp_path, capsys):
        # phi underflows to 0 below t = 2^-7, where this near-Lebesgue
        # measure has omega = 0: fitted C reads NaN, with no exception and
        # no warning.  Its sup |S'| is 0 on every ring, which obeys any
        # bound: each derivative ratio reads 0 and the check passes
        spec = '{"type": "kahane", "params": {"gamma": 400}, "depth": 4}'
        out = str(tmp_path / "c")
        assert run("measure", "--spec", spec, "--out", out) == 0
        with open(os.path.join(out, "kahane_moduli.csv")) as fh:
            fitted = [row["fitted_C"] for row in csv.DictReader(fh)]
        assert fitted == ["0"] * 6 + ["nan"] * 5
        assert run("check", "--spec", spec, "--check", "derivative-sup",
                   "--out", out) == 0
        assert capsys.readouterr().out.splitlines()[-1] == \
            "derivative-sup: pass"
        with open(os.path.join(out, "kahane_derivative-sup.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert {(row["sup_deriv"], row["ratio"])
                for row in rows} == {("0", "0")}
        assert run("check", "--spec", spec, "--check", "pmeans",
                   "--out", out) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            os.path.join(out, "kahane_pmeans.csv"), "pmeans: pass"]
        with open(os.path.join(out, "kahane_pmeans.json")) as fh:
            assert json.load(fh)["fits"]["smoothness_constant"] is None

    def test_zero_gauge_bracket_is_inconclusive(self, tmp_path, capsys):
        # the bracket's closed form rounds to 0: a report, not exit 2
        spec = '{"type": "kahane", "params": {"gamma": 1e308}, "depth": 4}'
        out = str(tmp_path / "c")
        assert run("check", "--spec", spec, "--check", "pmeans",
                   "--out", out) == 1
        assert capsys.readouterr().out.splitlines()[-1] == \
            "pmeans: inconclusive"

    def test_overflowing_lp_partial_sum_is_inconclusive(self, tmp_path,
                                                        capsys):
        # mu(T)^p overflows a float: a report, not a traceback
        spec = '{"type": "lebesgue", "params": {"mass": 1e200}}'
        out = str(tmp_path / "c")
        assert run("check", "--spec", spec, "--check", "fourier-lp",
                   "--out", out) == 1
        assert sorted(os.listdir(out)) == ["lebesgue_fourier-lp.csv",
                                           "lebesgue_fourier-lp.json"]
        assert capsys.readouterr().out.splitlines()[-1] == \
            "fourier-lp: inconclusive"
        with open(os.path.join(out, "lebesgue_fourier-lp.json")) as fh:
            assert json.load(fh)["worst_ratio"] is None

    @pytest.mark.parametrize("command", ["measure", "check"])
    def test_overflowing_total_mass_is_a_configuration_error(
            self, tmp_path, capsys, command):
        # two finite atoms whose masses sum past the float range
        spec = ('{"type": "atomic", "params": '
                '{"atoms": [[0.0, 1e308], [0.5, 1e308]]}}')
        check = ["--check", "fourier-decay"] if command == "check" else []
        assert run(command, "--spec", spec, *check,
                   "--out", str(tmp_path / "c")) == 2
        assert "total mass inf is not finite" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "c")

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

    @pytest.mark.parametrize("flag, value, point", [
        ("--grid-start", "-1", "2.0"), ("--grid-stop", "1100", "0.0")])
    def test_dyadic_point_outside_the_unit_interval_is_a_usage_error(
            self, tmp_path, capsys, flag, value, point):
        # 2^-x leaves (0, 1] for x < 0, and rounds to 0 for x above 1074
        assert run("check", "--spec", KAHANE_SPEC, "--check", "anderson",
                   flag, value, "--grid-count", "3",
                   "--out", str(tmp_path / "c")) == 2
        err = capsys.readouterr().err
        assert f"{flag} {value} puts a dyadic grid point at {point}," in err
        assert "outside (0, 1]" in err
        assert not os.path.exists(tmp_path / "c")

    def test_cache_budget_is_a_configuration_error(self, tmp_path, capsys):
        # the ring at 1 - 10^-16 needs more coefficients than the cache may
        # hold: refused before anything is allocated, as a bad configuration.
        # Lebesgue measure is one leaf, folded against reciprocals formed
        # per ring under the same budget; an atom fills none
        assert run("check", "--spec", LEB_SPEC, "--check", "derivative-sup",
                   "--grid-stop", "16", "--grid-count", "2",
                   "--out", str(tmp_path / "c")) == 2
        assert "exceed the cache budget of 67108864" in capsys.readouterr().err

    def test_leaf_budget_is_a_configuration_error(self, tmp_path, capsys):
        # a Kahane ring past the budget (1 - r below about 9.66e-7) keeps the
        # cache's exit code and message, though it folds no cache
        assert run("check", "--spec", KAHANE_SPEC, "--check", "derivative-sup",
                   "--grid-stop", "6.1", "--grid-count", "2",
                   "--out", str(tmp_path / "c")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: ")
        assert "Fourier coefficients exceed the cache budget of 67108864 (1 GiB)" in err
        assert not os.path.exists(tmp_path / "c")

    @pytest.mark.parametrize("argv", [
        ("check", "--check", "anderson"),
        ("suite", "--preset", "theorem-main"),
    ], ids=["check", "suite"])
    def test_out_of_memory_exits_three(self, tmp_path, capsys, monkeypatch,
                                       argv):
        # running out of memory is neither a failed check (1) nor a bad
        # configuration (2): its own code, one line, no summary.json
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(diagnostics, "anderson_report", exhausted)
        out = tmp_path / "c"
        assert run(*argv[:1], "--spec", KAHANE_SPEC, *argv[1:],
                   "--out", str(out)) == 3
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not os.path.exists(out / "summary.json")

    def test_poisson_martingale_needs_a_generation(self, tmp_path, capsys):
        # depth 0 leaves no generation: refused before a mean of an empty
        # sample, which numpy would warn about
        assert run("check", "--spec", LEB_SPEC, "--check",
                   "poisson-martingale", "--depth", "0",
                   "--out", str(tmp_path / "c")) == 2
        assert ("error: invalid configuration: need at least one generation"
                in capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "c")

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

    @pytest.mark.parametrize("spec, key", [
        ('{"type": "kahane", "depth": 6, "seeds": 9}', "spec key \"seeds\""),
        ('{"type": "lebesgue", "mass": 2}', "spec key \"mass\""),
        ('{"type": "kahane", "params": {"C": 1, "gama": 0.5}, "depth": 6}',
         "kahane params key \"gama\""),
        ('{"type": "atomic", "params": {"atoms": [[0.3, 1]], "mass": 2}}',
         "atomic params key \"mass\""),
        ('{"type": "salem", "params": {"dimension": 0.5}, "depth": 6}',
         "salem params key \"dimension\"")],
        ids=["top-level", "param-at-top-level", "kahane-params",
             "atomic-params", "salem-params"])
    def test_unknown_spec_key_is_a_usage_error(self, tmp_path, capsys, spec,
                                               key):
        # an unknown key was ignored: "seeds" ran seed 0 with exit 0
        assert run("measure", "--spec", spec, "--out", str(tmp_path / "m")) == 2
        assert f"unknown {key}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "m")

    @pytest.mark.parametrize("spec, name", [
        ('{"type": "lebesgue", "params": {"mass": true}}', "mass"),
        ('{"type": "lebesgue", "params": {"mass": "2"}}', "mass"),
        ('{"type": "lebesgue", "params": {"mass": null}}', "mass"),
        ('{"type": "kahane", "params": {"C": "1"}, "depth": 6}', "C"),
        ('{"type": "kahane", "params": {"gamma": false}, "depth": 6}', "gamma"),
        ('{"type": "salem", "params": {"alpha": true}, "depth": 6}', "alpha"),
        ('{"type": "salem", "params": {"epsilon": "0.05"}, "depth": 6}',
         "epsilon"),
        ('{"type": "salem", "params": {"d": 2, "xi": "0.2"}, "depth": 6}', "xi"),
        ('{"type": "salem", "params": {"d": 2, "xi": true}, "depth": 6}',
         "xi"),
        ('{"type": "atomic", "params": {"atoms": [["0.3", true]]}}',
         "atom position or mass"),
        ('{"type": "atomic", "params": {"atoms": [[0.3, true]]}}',
         "atom position or mass"),
        ('{"type": "atomic", "params": {"atoms": [[0.3, "1"]]}}',
         "atom position or mass")],
        ids=["mass-bool", "mass-string", "mass-null", "C-string", "gamma-bool",
             "alpha-bool", "epsilon-string", "xi-string", "xi-bool",
             "atom-string-and-bool", "atom-mass-bool", "atom-mass-string"])
    def test_real_field_that_is_not_a_number_is_a_usage_error(
            self, tmp_path, capsys, spec, name):
        # a real field went through float(): "mass": true built mass 1,
        # "mass": "2" built mass 2, and [["0.3", true]] built an atom
        assert run("measure", "--spec", spec, "--out", str(tmp_path / "m")) == 2
        assert f"{name} must be a number" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "m")

    @pytest.mark.parametrize("params", ['{"d": 3}', '{"xi": 0.2}'])
    def test_salem_d_or_xi_alone_is_a_usage_error(self, tmp_path, capsys,
                                                  params):
        # one of the two was ignored: the default construction ran
        spec = '{"type": "salem", "params": %s, "depth": 6}' % params
        assert run("measure", "--spec", spec, "--out", str(tmp_path / "m")) == 2
        assert "d and xi must be given together" in capsys.readouterr().err

    def test_atoms_that_are_not_rows_are_a_usage_error(self, tmp_path, capsys):
        spec = '{"type": "atomic", "params": {"atoms": [0.3, 1.0]}}'
        assert run("measure", "--spec", spec, "--out", str(tmp_path / "m")) == 2
        assert "atoms must be a list of [x, mass] rows" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        '{"type": "lebesgue", "params": {"mass": 2}}',
        '{"type": "kahane", "params": {"C": 1, "gamma": 1}, "depth": 4}',
        '{"type": "salem", "params": {"alpha": 0.8, "epsilon": 1, "d": 2,'
        ' "xi": 0.25}, "depth": 4}',
        '{"type": "atomic", "params": {"atoms": [[0, 1], [0.5, 2]]}}'],
        ids=["lebesgue", "kahane", "salem", "atomic"])
    def test_integer_real_fields_read_as_floats(self, tmp_path, spec):
        # a JSON integer is a number: the spec builds the measure its float
        # twin builds, byte for byte
        twin = spec.replace('"mass": 2', '"mass": 2.0').replace(
            '"C": 1, "gamma": 1', '"C": 1.0, "gamma": 1.0').replace(
            '"epsilon": 1,', '"epsilon": 1.0,').replace(
            '[[0, 1], [0.5, 2]]', '[[0.0, 1.0], [0.5, 2.0]]')
        assert twin != spec
        texts = []
        for k, s in enumerate((spec, twin)):
            out = str(tmp_path / f"m{k}")
            assert run("measure", "--spec", s, "--out", out) == 0
            files = {}
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name)) as fh:
                    files[name] = fh.read()
            texts.append(files)
        assert texts[0] == texts[1]

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

    def test_salem_preset_refuses_a_spec_without_support_first(
            self, tmp_path, capsys):
        # korenblum reads the measure's support: a spec without one is a
        # usage error before any check runs or any artifact is written
        out = tmp_path / "s"
        spec = '{"type": "kahane", "depth": 6, "seed": 7}'
        assert run("suite", "--spec", spec, "--preset", "salem",
                   "--out", str(out)) == 2
        assert not out.exists() or list(out.iterdir()) == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "korenblum needs a measure with support" in captured.err

    @pytest.mark.parametrize("preset, flags, message", [
        ("theorem-power", ["--p", "2"], "p must exceed 2"),
        ("theorem-main", ["--grid-stop", "17"],
         "puts a log1m grid point at 1.0")])
    def test_usage_error_in_a_later_check_writes_nothing(
            self, tmp_path, capsys, preset, flags, message):
        # a flag that only a later check refuses: every check runs before
        # any report is written, so the earlier checks leave no artifact
        out = tmp_path / "s"
        spec = '{"type": "kahane", "depth": 6, "seed": 7}'
        assert run("suite", "--spec", spec, "--preset", preset, *flags,
                   "--out", str(out)) == 2
        assert not out.exists() or list(out.iterdir()) == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_salem_preset_refuses_a_bad_p_before_its_tables(
            self, tmp_path, capsys):
        # fourier-lp refuses p < 2: the preset's checks run before the
        # measure tables are written, so the suite leaves no file
        out = tmp_path / "s"
        spec = '{"type": "salem", "depth": 6, "seed": 3}'
        assert run("suite", "--spec", spec, "--preset", "salem", "--p", "1",
                   "--out", str(out)) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "p must be at least 2" in captured.err

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
        # share the measure's cache: its Riesz product fill computes each
        # of the 4096 coefficients once (not 8705), the kernel none
        filled, sent = [], []
        fill, kernel = (measures.CircleMeasure._fill_product,
                        measures.CircleMeasure.fourier_many)

        def counting_fill(mu, start, out):
            filled.extend(range(start, start + out.size))
            fill(mu, start, out)

        def counting_kernel(mu, ns):
            sent.append(np.size(ns))
            return kernel(mu, ns)

        monkeypatch.setattr(measures.CircleMeasure, "_fill_product",
                            counting_fill)
        monkeypatch.setattr(measures.CircleMeasure, "fourier_many",
                            counting_kernel)
        run("suite", "--spec", SALEM_SPEC, "--preset", "salem",
            "--out", str(tmp_path / "s"))
        assert sorted(filled) == list(range(1, 4097)) and sent == []

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
        rows = _readme_table("| Check | Default grid")
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

    def test_readme_spec_table_is_the_registry(self):
        # the README's spec table names the measure types in table order,
        # with each one's params and defaults, the class of its gauge and
        # whether it has a carrier
        rows = _readme_table("| Type | Params (default)")
        assert [row[0].strip("`") for row in rows] == list(MEASURES)
        for kind, params, gauge, carrier in rows:
            kind = kind.strip("`")
            defaults, _ = MEASURES[kind]
            named = re.findall(r"`(\w+)`(?: \(([^)]*)\))?", params)
            assert [k for k, _ in named] == list(defaults), kind
            for k, default in named:
                want = defaults[k]
                assert (default == "" if want is None
                        else float(default) == want), (kind, k)
            spec = SMALL_SPECS[kind][0]
            ctx = build_measure(spec, RunConfig(command="measure", spec=spec))
            assert gauge.strip("`").startswith(
                type(ctx.phi).__name__ + "("), kind
            assert (carrier == "none") == (ctx.support is None), kind

    @pytest.mark.parametrize("kind", list(SMALL_SPECS))
    def test_builders_call_the_constructors_by_name(self, monkeypatch, kind):
        # the tracer wraps the constructors where cli holds them by name,
        # so its measures.build.* metrics see only the calls made that way
        spec, name = SMALL_SPECS[kind]
        made, constructor = [], getattr(cli, name)

        def counting(*args, **kwargs):
            made.append(constructor(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(cli, name, counting)
        ctx = build_measure(spec, RunConfig(command="measure", spec=spec))
        assert len(made) == 1
        mu = made[0][0] if isinstance(made[0], tuple) else made[0]
        assert ctx.mu is mu

    def test_benchmark_setup_builds_what_the_oracles_assume(self, monkeypatch):
        # the benchmark's set-up step runs build_measure on every workload
        # spec with a default RunConfig; its oracles compute their
        # references at the workload's depth and the spec's seed
        monkeypatch.syspath_prepend(os.path.join(REPO, "bench"))
        workloads = importlib.import_module("workloads")
        depths = {"kahane": workloads.KAHANE_DEPTH,
                  "salem": workloads.SALEM_GENERATIONS}
        assert depths == {"kahane": 12, "salem": 11}
        built = set()
        for name, build in workloads.WORKLOADS.items():
            for spec in build(7).specs:
                ctx = build_measure(spec, RunConfig(command="check",
                                                    spec=spec))
                assert ctx.seed == spec.get("seed", 0), name
                if spec["type"] in depths:
                    assert ctx.seed == 7, name
                    assert ctx.depth == depths[spec["type"]], name
                built.add(spec["type"])
        assert built == {"kahane", "salem", "atomic"}

    def test_run_check_fills_runtime_not_serialized(self):
        spec = json.loads(LEB_SPEC)
        cfg = RunConfig(command="check", spec=spec)
        report = run_check("pmeans", build_measure(spec, cfg), cfg)
        assert report.runtime > 0
        assert "runtime" not in json.loads("".join(report.json_chunks()))

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
        # an exported name, and each public method or property of an
        # exported class, is referenced by the CLI, the acceptance gate,
        # the benchmark's tracer or another definition of the package (a
        # sibling member counts, the member itself does not), or it is a
        # paper statement whose test exists
        reached = set()
        for path in REACHING:
            reached |= _identifiers(_parse(path), strings=True)
        exported, members = [], []
        for name in PACKAGE:
            names = importlib.import_module(f"cyclia.{name}").__all__
            exported += names
            for node in _parse(f"src/cyclia/{name}.py").body:
                own = getattr(node, "name", None)
                if isinstance(node, ast.ClassDef):
                    methods = [m for m in node.body
                               if isinstance(m, ast.FunctionDef)]
                    node.body = [s for s in node.body if s not in methods]
                    for m in methods:
                        reached |= _identifiers(m) - {own, m.name}
                        if own in names and not m.name.startswith("_"):
                            members.append((own, m.name))
                reached |= _identifiers(node) - {own}
        assert [n for n in exported
                if n not in reached and n not in PAPER_STATEMENTS] == []
        assert sorted(f"{c}.{m}" for c, m in members if m not in reached) == []
        assert sorted(set(PAPER_STATEMENTS) - set(exported)) == []
        for test_id in PAPER_STATEMENTS.values():
            path, *names = test_id.split("::")
            scope = _parse(path).body
            for name in names:
                node = next((d for d in scope if getattr(d, "name", None)
                             == name), None)
                assert node is not None, test_id
                scope = node.body


def _readme_table(header):
    """The cells of the README table whose header line starts with header."""
    with open(os.path.join(REPO, "README.md")) as fh:
        lines = fh.read().splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[head + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


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


def _src_env():
    """The environment with the package's source first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def test_cli_runs_without_scipy(tmp_path):
    """cyclia runs on numpy alone: with scipy's import blocked, every
    registered check and every preset runs to a verdict, and none of them
    raises a warning (-W error makes one an exception)."""
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
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, str(tmp_path / "out")],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert "ImportError" not in done.stderr
    codes = dict(line.split()[1:] for line in done.stdout.splitlines()
                 if line.startswith("exit "))
    assert sorted(codes) == sorted([*CHECKS, *PRESETS])
    assert set(codes.values()) <= {"0", "1"}, codes


def test_moduli_leave_numpy_ma_unimported(tmp_path):
    """The moduli and the breakpoints take their sorted unique values
    without np.unique, whose plain call imports numpy.ma (13 ms, about
    0.8 MiB) to ask whether its input is masked."""
    code = (
        "import sys\n"
        "from cyclia import cli\n"
        "kahane = '{\"type\": \"kahane\", \"depth\": 6, \"seed\": 7}'\n"
        "salem = '{\"type\": \"salem\", \"depth\": 6, \"seed\": 3}'\n"
        "cli.main(['check', '--spec', kahane, '--check', 'anderson',"
        " '--out', sys.argv[1]])\n"
        "cli.main(['suite', '--spec', salem, '--preset', 'salem',"
        " '--out', sys.argv[1]])\n"
        "print('numpy.ma' in sys.modules)\n")
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out")],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_benchmark_tracer_runs_the_package(tmp_path):
    """bench/tracing.py wraps the package's functions by name and runs each
    operation through cli.main in one process: two small checks exit as
    they do untraced, and the spans hold the check, the Besov seminorm and
    the ring kernel."""
    kahane = ('{"type": "kahane", "params": {"C": 1.0, "gamma": 0.5},'
              ' "depth": 6, "seed": 7}')
    ops = [{"argv": ["check", "--spec", kahane, "--check", "brown-shields",
                     "--alpha", "0.05", "--grid-count", "1"],
            "out": str(tmp_path / "bs")},
           {"argv": ["check", "--spec", ATOM_SPEC, "--check", "pmeans",
                     "--grid-count", "2"],
            "out": str(tmp_path / "pm")}]
    ops_path, result_path = tmp_path / "ops.json", tmp_path / "result.json"
    ops_path.write_text(json.dumps(ops))
    done = subprocess.run(
        [sys.executable, os.path.join(REPO, "bench", "tracing.py"),
         str(ops_path), str(result_path)],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(result_path.read_text())
    assert [(op["exit"], op["raised"]) for op in result["ops"]] == [(0, None)] * 2
    assert {"cli.run_check", "norms.besov_seminorm",
            "models.herglotz_ring"} <= {span[0] for span in result["spans"]}


# -- cli.main on drawn invocations ----------------------------------------

# the checks cheap enough to run on every draw, at --depth <= 4
CHEAP_CHECKS = ("anderson", "pmeans", "integrability", "fourier-decay",
                "fourier-lp", "korenblum", "poisson-martingale")
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=2),
                 st.lists(st.integers(0, 1), max_size=2))
EDGES = st.sampled_from([0.0, -1.0, 1e-320, 1e200, 1e308])


def reals(lo, hi):
    return st.one_of(st.floats(lo, hi), EDGES)


PARAMS = {
    "lebesgue": st.fixed_dictionaries({}, optional={"mass": reals(0.1, 4.0)}),
    "atomic": st.fixed_dictionaries({"atoms": st.lists(
        st.tuples(reals(-1.0, 2.0), reals(0.0, 2.0)).map(list),
        min_size=1, max_size=3)}),
    "kahane": st.fixed_dictionaries({}, optional={
        "C": reals(0.1, 4.0),
        "gamma": st.one_of(reals(0.05, 2.0), st.just(400.0))}),
    "salem": st.fixed_dictionaries(
        {"alpha": reals(0.05, 0.95), "epsilon": st.floats(0.02, 0.5)},
        optional={"dxi": st.tuples(st.integers(-1, 8), reals(0.05, 0.95))}),
}


@st.composite
def spec_texts(draw):
    """A JSON spec of one of the four types, from good and edge values;
    one draw in four spoils it, by an unknown type or key, a junk value
    or malformed text."""
    kind = draw(st.sampled_from(sorted(PARAMS)))
    params = draw(PARAMS[kind])
    if "dxi" in params:
        params["d"], params["xi"] = params.pop("dxi")
    spec = {"type": kind, "params": params}
    if draw(st.booleans()):
        spec["seed"] = draw(st.integers(0, 9))
    spoil = draw(st.integers(0, 15))
    if spoil == 15:
        spec["type"] = draw(st.sampled_from(["cantor", 1, None]))
    elif spoil == 14:
        params[draw(st.sampled_from(["bogus", "C", "mass", "atoms"]))] = \
            draw(JUNK)
    elif spoil == 13:
        spec["seed"] = draw(JUNK)
    elif spoil == 12:
        return draw(st.sampled_from(["{", "[]", '{"type": 1}', '"lebesgue"']))
    return json.dumps(spec)


FLAG_VALUES = {
    "--p": st.one_of(st.floats(0.5, 6.0), EDGES),
    "--alpha": st.one_of(st.floats(0.01, 2.0), EDGES),
    "--epsilon": st.one_of(st.floats(0.01, 1.0), EDGES, st.just(1e6)),
    "--grid-start": st.one_of(st.floats(0.1, 16.0), st.just(-1.0)),
    "--grid-stop": st.one_of(st.floats(0.1, 16.0), st.just(-1.0)),
    "--grid-count": st.one_of(st.integers(1, 6), st.sampled_from([0, 2000])),
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(("measure",) + CHEAP_CHECKS))
    argv = (["measure"] if command == "measure"
            else ["check", "--check", command])
    argv += ["--spec", draw(spec_texts())]
    depth = draw(st.one_of(st.integers(1, 4), st.sampled_from([-1, 0])))
    argv += ["--depth", str(depth)]
    for flag in draw(st.lists(st.sampled_from(sorted(FLAG_VALUES)),
                              unique=True, max_size=2)):
        argv += [flag, str(draw(FLAG_VALUES[flag]))]
    return argv


ZERO_GAUGE = '{"type": "kahane", "params": {"gamma": 400}}'


# numpy's RuntimeWarnings print and do not raise outside the tests: they
# fire on masses and params near the edges of the float range (1e308,
# 1e-320), and this test does not gate them
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@example(["measure", "--spec", ZERO_GAUGE, "--depth", "4"])
@example(["check", "--check", "pmeans", "--spec", ZERO_GAUGE, "--depth", "4"])
@example(["check", "--check", "pmeans", "--depth", "4", "--spec",
          '{"type": "kahane", "params": {"gamma": 1e308}}'])
@example(["measure", "--depth", "4", "--spec",
          '{"type": "kahane", "params": {"C": 1e-320}}'])
@given(invocations())
def test_main_exits_without_raising(argv):
    """main returns 0, 1 or 2 and raises nothing; exit 2 leaves --out
    empty."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--out", out])
        assert code in (0, 1, 2)
        if code == 2:
            assert not os.path.exists(out) or os.listdir(out) == []
