"""Command-line surface: exit codes, envelope schema, determinism, errors."""

from __future__ import annotations

import configparser
import dataclasses
import inspect
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from fuzzfix import (Carrier, ContractionSpec, EvalError, InputError, NumericalError,
                     RunConfig, SequenceSpec, TheoremConfig, Tolerances, _parallel, dp,
                     load_config, make_integral_altering, make_psi, pipeline)
from fuzzfix.cli import COMMANDS, build_parser, main, run_command

FULL_CONFIG = """\
[carrier]
lo = 0
hi = 1
grid_n = 101

[metric]
kind = standard
tnorm = product
distance = abs(x - y)

[maps]
a = x / 2
b = x / 4
f = x
g = 0

[psi]
example = ex2_2
k = 0.5

[phi]
kind = linear

[contraction]
form = main_411
ea_pairs = af
containment = g_in_a
closedness = a
commutation = weakly_compatible

[sequences]
af = 1 / n
bg = 1 / n
tail_start = 2000

[tolerances]
coincidence = 1e-9
fixed_point = 1e-9
tail = 1e-3
"""

DP_CONFIG = """\
[carrier]
lo = 0
hi = 1
grid_n = 201

[dp]
decisions = 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0
q = x * y
l1 = z / 2
l2 = z / 2
n1 = z / 2
n2 = z / 2
tau = x * y
lam = 1.0
beta = 0.5
"""

CONSTANT_MEMBERSHIP_CONFIG = """\
[carrier]
lo = 0
hi = 1
grid_n = 51

[metric]
kind = expr
tnorm = product
membership = 0.5
"""


@pytest.fixture(scope="module")
def schema() -> dict:
    ref = resources.files("fuzzfix") / "data" / "reports_schema.json"
    with resources.as_file(ref) as path:
        return json.loads(path.read_text())


@pytest.fixture
def full_config(tmp_path) -> str:
    path = tmp_path / "full.ini"
    path.write_text(FULL_CONFIG)
    return str(path)


@pytest.fixture
def dp_config(tmp_path) -> str:
    path = tmp_path / "dp.ini"
    path.write_text(DP_CONFIG)
    return str(path)


def run(tmp_path, argv: list[str]) -> tuple[int, dict]:
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else {}
    return code, doc


class TestEnvelope:
    def test_schema_is_itself_valid(self, schema):
        jsonschema.Draft202012Validator.check_schema(schema)

    @pytest.mark.parametrize(
        "command", ["axioms", "psi-check", "verify", "pairs", "fixpoint", "theorem"]
    )
    def test_config_commands_emit_schema_valid_pass(
        self, tmp_path, full_config, schema, command
    ):
        code, doc = run(tmp_path, [command, "--config", full_config])
        assert code == 0
        assert doc["verdict"] == "pass"
        assert doc["command"] == command
        assert doc["seed"] == 0
        jsonschema.validate(doc, schema)

    def test_dp_solve_emits_schema_valid_pass(self, tmp_path, dp_config, schema):
        code, doc = run(tmp_path, ["dp-solve", "--config", dp_config])
        assert code == 0
        assert doc["verdict"] == "pass"
        jsonschema.validate(doc, schema)

    def test_reproduce_needs_no_config(self, tmp_path, schema):
        code, doc = run(tmp_path, ["reproduce-example6"])
        assert code == 0
        jsonschema.validate(doc, schema)

    def test_stdout_used_without_out_flag(self, full_config, capsys):
        code = main(["fixpoint", "--config", full_config])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "fixpoint"

    def test_output_ends_with_newline(self, full_config, capsys):
        main(["fixpoint", "--config", full_config])
        assert capsys.readouterr().out.endswith("}\n")


class TestCommandReports:
    def test_axioms_report(self, tmp_path, full_config):
        _, doc = run(tmp_path, ["axioms", "--config", full_config])
        names = [c["name"] for c in doc["report"]["checks"]]
        assert names == [
            "FM-1", "FM-2-forward", "FM-2-reverse", "FM-3", "FM-4", "FM-5", "t-monotone"
        ]
        assert doc["report"]["passed"] is True
        assert doc["parameters"]["n_random"] == 1000

    def test_axioms_violation_exits_one(self, tmp_path, schema):
        path = tmp_path / "flat.ini"
        path.write_text(CONSTANT_MEMBERSHIP_CONFIG)
        code, doc = run(tmp_path, ["axioms", "--config", str(path)])
        assert code == 1
        assert doc["verdict"] == "fail"
        jsonschema.validate(doc, schema)
        failing = {c["name"] for c in doc["report"]["checks"] if c["status"] == "fail"}
        assert "FM-1" in failing and "FM-2-forward" in failing

    def test_psi_check_strict_exits_one(self, tmp_path, full_config, schema):
        code, doc = run(
            tmp_path, ["psi-check", "--config", full_config, "--variant", "strict"]
        )
        assert code == 1
        jsonschema.validate(doc, schema)
        psi3 = next(c for c in doc["report"]["conditions"] if c["name"] == "psi3")
        assert psi3["status"] == "fails"
        assert psi3["witness"] == {"u": 0.05, "value": 0.05}

    def test_verify_report(self, tmp_path, full_config):
        _, doc = run(tmp_path, ["verify", "--config", full_config])
        report = doc["report"]
        assert report["form"] == "main_411"
        assert report["samples"] == 51 * 51 * 5 + 102 * 102 * 5
        assert report["worst_margin"] >= -1e-9
        assert report["recheck"]["grid_n"] == 102

    def test_verify_grid_override(self, tmp_path, full_config):
        _, doc = run(tmp_path, ["verify", "--config", full_config, "--grid", "21"])
        assert doc["parameters"]["grid"] == 21
        assert doc["report"]["samples"] == 21 * 21 * 5 + 42 * 42 * 5

    def test_pairs_report(self, tmp_path, full_config):
        code, doc = run(tmp_path, ["pairs", "--config", full_config])
        assert code == 0
        report = doc["report"]
        assert report["coincidence"]["af"]["points"] == [0.0]
        assert report["commutation"]["af"]["status"] == "pass"
        assert report["property_ea"]["status"] == "pass"
        assert report["property_ea"]["common"] is False
        assert report["containment"]["status"] == "pass"
        assert report["closedness"]["status"] == "closed"

    def test_fixpoint_report(self, tmp_path, full_config):
        _, doc = run(tmp_path, ["fixpoint", "--config", full_config])
        certs = doc["report"]["certificates"]
        assert len(certs) == 1
        assert abs(certs[0]["z"]) < 1e-9

    def test_fixpoint_keeps_a_grid_point_below_tol(self, tmp_path):
        # all four maps fix the grid point 0, and the tent makes the residual
        # on the seed bracket [0, 0.01] anything but unimodal
        path = tmp_path / "tent.ini"
        path.write_text(_example6_text().replace(
            "g = 0", "g = 0.9 * max(0, 1 - 200 * abs(x - 0.005))"))
        code, doc = run(tmp_path, ["fixpoint", "--config", str(path)])
        assert code == 0
        assert [c["z"] for c in doc["report"]["certificates"]] == [0.0]
        code, doc = run(tmp_path, ["theorem", "--config", str(path)])
        assert code == 1  # the contraction scan fails on the tent
        assert doc["report"]["uniqueness"] == "unique-on-grid"

    def test_tent_at_a_coarse_grid_certifies_on_sampled_ranges(self, tmp_path):
        # G(0.005) = 0.9 lies outside A(X) = [0, 0.5], but containment compares
        # ranges sampled on the grid, and at grid 21 the contraction scan misses
        # the tent too: the verdict pinned here is the known false positive
        path = tmp_path / "tent.ini"
        path.write_text(_example6_text().replace(
            "g = 0", "g = 0.9 * max(0, 1 - 200 * abs(x - 0.005))"))
        code, doc = run(tmp_path, ["theorem", "--config", str(path), "--grid", "21"])
        assert code == 0
        assert doc["report"]["certified"] is True

    def test_fixpoint_wide_basin_is_one_certificate(self, tmp_path):
        # the residual is x, below 0.05 on five grid points: one basin, one
        # certificate
        path = tmp_path / "example6.ini"
        path.write_text(_example6_text())
        code, doc = run(tmp_path, ["fixpoint", "--config", str(path), "--tol", "0.05"])
        assert code == 0
        assert [c["z"] for c in doc["report"]["certificates"]] == [0.0]
        path.write_text(_example6_text().replace("fixed_point = 1e-9", "fixed_point = 0.05"))
        code, doc = run(tmp_path, ["theorem", "--config", str(path)])
        assert code == 0
        assert [c["z"] for c in doc["report"]["search"]["certificates"]] == [0.0]
        assert doc["report"]["uniqueness"] == "unique-on-grid"
        assert doc["report"]["certified"] is True

    def test_theorem_report(self, tmp_path, full_config):
        _, doc = run(tmp_path, ["theorem", "--config", full_config])
        report = doc["report"]
        assert report["certified"] is True
        assert report["uniqueness"] == "unique-on-grid"
        assert [s["status"] for s in report["stages"]] == ["pass"] * 8

    def test_dp_solve_report_and_csv(self, tmp_path, dp_config):
        csv_path = tmp_path / "solution.csv"
        code, doc = run(
            tmp_path, ["dp-solve", "--config", dp_config, "--csv", str(csv_path)]
        )
        assert code == 0
        report = doc["report"]
        assert report["common_solution"] is True
        assert report["results"]["U1"]["iterations"] == 28
        xs = report["solution"]["x"]
        vs = report["solution"]["value"]
        assert max(abs(v - 2.0 * x) for x, v in zip(xs, vs)) < 1e-6
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 1 + 201
        x0, v0 = lines[1].split(",")
        assert float(x0) == 0.0 and abs(float(v0)) < 1e-6

    def test_reproduce_report(self, tmp_path):
        code, doc = run(tmp_path, ["reproduce-example6"])
        assert code == 0
        report = doc["report"]
        assert report["spot_margin_at_1_1_1"] == pytest.approx(0.4, abs=1e-9)
        assert report["pipeline"]["certified"] is True
        certs = report["pipeline"]["search"]["certificates"]
        assert len(certs) == 1 and abs(certs[0]["z"]) < 1e-9

    def test_reproduce_builds_the_quadruple_and_spec_once(self, tmp_path, monkeypatch):
        built = []
        for name in ("quadruple", "contraction_spec"):
            def counted(self, *args, _build=getattr(RunConfig, name), _name=name):
                built.append(_name)
                return _build(self, *args)
            monkeypatch.setattr(RunConfig, name, counted)
        code, _ = run(tmp_path, ["reproduce-example6", "--grid", "5"])
        assert code == 0
        assert sorted(built) == ["contraction_spec", "quadruple"]

    def test_pairs_builds_no_contraction_spec(self, tmp_path, full_config, monkeypatch):
        built = []

        def counted(self, _build=RunConfig.contraction_spec):
            built.append(self.path)
            return _build(self)

        monkeypatch.setattr(RunConfig, "contraction_spec", counted)
        code, _ = run(tmp_path, ["pairs", "--config", full_config])
        assert code == 0 and built == []
        code, _ = run(tmp_path, ["verify", "--config", full_config, "--grid", "5"])
        assert code == 0 and built == [full_config]

    # pairs checks no contraction, so a spec or a [psi] gauge that verify and
    # theorem refuse has no effect on it
    @pytest.mark.parametrize("old, new, message", [
        ("form = main_411", "form = cor43_B\nk = 2", "cor43_B requires k in (0,1), got 2.0"),
        ("form = main_411\n", "", "section [contraction] needs key 'form'"),
        ("example = ex2_2\nk = 0.5", "example = ex2_5\na = 0.5\ndensity = 0 - s",
         "section [psi], key 'density': density must be finite and nonnegative, "
         "got -0.03125 at x=0.03125"),
    ], ids=["cor43_B-k", "no-form", "psi-density"])
    def test_pairs_reads_no_contraction_spec(self, tmp_path, capsys, old, new, message):
        path = tmp_path / "example6.ini"
        path.write_text(_example6_text())
        _, expected = run(tmp_path, ["pairs", "--config", str(path)])
        path.write_text(_example6_text().replace(old, new))
        code, doc = run(tmp_path, ["pairs", "--config", str(path)])
        assert code == 0 and doc == expected
        for command in ("verify", "theorem"):
            assert main([command, "--config", str(path), "--grid", "5"]) == 2
            assert capsys.readouterr().err == f"error: {path}: {message}\n"


class TestDeterminism:
    @pytest.mark.parametrize(
        "command",
        ["axioms", "psi-check", "verify", "pairs", "fixpoint", "theorem"],
    )
    def test_config_commands_identical_across_jobs(
        self, tmp_path, full_config, command
    ):
        outs = []
        for jobs in ("1", "4"):
            out = tmp_path / f"{command}-{jobs}.json"
            assert main(
                [command, "--config", full_config, "--jobs", jobs, "--out", str(out)]
            ) in (0, 1)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_dp_solve_identical_across_jobs(self, tmp_path, dp_config):
        outs = []
        for jobs in ("1", "4"):
            out = tmp_path / f"dp-{jobs}.json"
            main(["dp-solve", "--config", dp_config, "--jobs", jobs, "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_dp_solve_sweeps_row_blocks_on_threads(self, tmp_path, monkeypatch):
        # 1001 states are four Bellman row blocks; two distinct payoffs give
        # two solves, and the cross residuals sweep once more per payoff
        path = tmp_path / "dp.ini"
        path.write_text(DP_CONFIG.replace("grid_n = 201", "grid_n = 1001")
                        .replace("n1 = z / 2", "n1 = 0.4 * z")
                        .replace("n2 = z / 2", "n2 = 0.4 * z"))
        seen = []

        def spy(n, fn, jobs=1, step=_parallel.CHUNK):
            seen.append((n, jobs, step))
            return _parallel.map_concat(n, fn, jobs=jobs, step=step)

        monkeypatch.setattr(dp, "map_concat", spy)
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"dp-{jobs}.json"
            assert main(["dp-solve", "--config", str(path), "--jobs", jobs,
                         "--out", str(out)]) in (0, 1)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        sweeps = len(seen) // 2
        assert sweeps > 0 and seen == ([(1001, 1, dp._ROW_BLOCK)] * sweeps
                                       + [(1001, 2, dp._ROW_BLOCK)] * sweeps)

    def test_reproduce_identical_across_jobs(self, tmp_path):
        outs = []
        for jobs in ("1", "4"):
            out = tmp_path / f"repro-{jobs}.json"
            main(["reproduce-example6", "--jobs", jobs, "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestErrorPaths:
    def test_missing_config_flag(self, capsys):
        assert main(["axioms"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nonexistent_config(self, tmp_path, capsys):
        assert main(["axioms", "--config", str(tmp_path / "missing.ini")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_empty_config(self, tmp_path, capsys):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert main(["axioms", "--config", str(path)]) == 2
        assert "no sections" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(FULL_CONFIG + "\n[weird]\nkey = 1\n")
        assert main(["axioms", "--config", str(path)]) == 2
        assert "weird" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(FULL_CONFIG.replace("lo = 0", "lo = 0\nslope = 3"))
        assert main(["axioms", "--config", str(path)]) == 2
        assert "slope" in capsys.readouterr().err

    def test_malformed_expression_reports_location(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(FULL_CONFIG.replace("a = x / 2", "a = x +"))
        assert main(["verify", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "[maps]" in err and "'a'" in err
        assert "at offset 3" in err

    def test_out_of_range_parameter(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(FULL_CONFIG.replace("k = 0.5", "k = 1.5"))
        assert main(["psi-check", "--config", str(path)]) == 2
        assert "requires k in (0,1)" in capsys.readouterr().err

    def test_bad_t_grid_flag(self, full_config, capsys):
        # argparse refuses it before the config loads; "" once fell back to
        # the default t grid
        for t_grid in ("1,abc", ""):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--config", full_config, "--t-grid", t_grid])
            assert exc.value.code == 2
            assert (f"argument --t-grid: expected comma-separated numbers, got {t_grid!r}"
                    in capsys.readouterr().err)

    # each non-finite tolerance once gave a pass (inf) or a NaN report (nan)
    @pytest.mark.parametrize("command, config, old, new", [
        ("dp-solve", DP_CONFIG, "beta = 0.5\n", "beta = 0.5\ntol = inf\n"),
        ("pairs", FULL_CONFIG, "tail = 1e-3", "tail = inf"),
        ("fixpoint", FULL_CONFIG, "fixed_point = 1e-9", "fixed_point = nan"),
        ("verify", FULL_CONFIG, "kind = linear", "kind = integral\ndensity = 1\nquad_tol = inf"),
    ], ids=["dp-tol-inf", "tail-inf", "fixed-point-nan", "quad-tol-inf"])
    def test_non_finite_config_tolerance(self, tmp_path, capsys, command, config, old, new):
        path = tmp_path / "bad.ini"
        path.write_text(config.replace(old, new))
        assert main([command, "--config", str(path)]) == 2
        assert "finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command, old, new, key, value", [
        ("pairs", "tail = 1e-3", "tail = inf", "tail", "inf"),
        ("fixpoint", "fixed_point = 1e-9", "fixed_point = nan", "fixed_point", "nan"),
    ])
    def test_tolerance_errors_name_their_key_value_and_file(self, tmp_path, capsys,
                                                            command, old, new, key, value):
        path = tmp_path / "bad.ini"
        path.write_text(FULL_CONFIG.replace(old, new))
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: section [tolerances], key '{key}': tolerance must be "
            f"finite and positive, got {value}\n")

    def test_config_errors_do_not_depend_on_the_hash_seed(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[carrier]\nlo = zero\n\n[dp]\nlam = big\n")
        errs = []
        for hash_seed in ("0", "4"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            proc = subprocess.run([sys.executable, "-m", "fuzzfix.cli", "axioms",
                                   "--config", str(path)],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 2
            errs.append(proc.stderr)
        assert errs[0] == errs[1]
        assert "[carrier], key 'lo'" in errs[0]

    def test_fixpoint_names_its_stage_as_theorem_does(self, tmp_path, capsys):
        path = tmp_path / "grid2.ini"
        path.write_text(_example6_text().replace("grid_n = 101", "grid_n = 2"))
        for command in ("fixpoint", "theorem"):
            assert main([command, "--config", str(path)]) == 2
            assert capsys.readouterr().err == (
                "error: stage 'fixed-points': fixed-point search needs at least 3 grid "
                "points, got 2\n")

    @pytest.mark.parametrize("command", ["theorem", "pairs"])
    def test_nonpositive_r_constant_fails_before_the_scan(self, tmp_path, capsys,
                                                          monkeypatch, command):
        def no_scan(*args, **kwargs):
            raise AssertionError("the contraction scan ran")

        monkeypatch.setattr("fuzzfix.pipeline.verify_contraction", no_scan)
        path = tmp_path / "bad.ini"
        path.write_text(FULL_CONFIG.replace("commutation = weakly_compatible",
                                            "commutation = r_weak\nr_constant = -1"))
        assert main([command, "--config", str(path), "--grid", "5"] if command == "theorem"
                    else [command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: [contraction] r_constant must be positive" in err

    @pytest.mark.parametrize("command", ["verify", "theorem"])
    def test_membership_out_of_range_is_an_input_error(self, tmp_path, capsys, command):
        path = tmp_path / "bad.ini"
        path.write_text(FULL_CONFIG.replace(
            "kind = standard\ntnorm = product\ndistance = abs(x - y)",
            "kind = expr\ntnorm = product\nmembership = t / (t + abs(x - y)) + 0.25 * x"))
        errors = []
        for jobs in ("1", "2"):
            out = tmp_path / f"out-{jobs}.json"
            assert main([command, "--config", str(path), "--grid", "21",
                         "--jobs", jobs, "--out", str(out)]) == 2
            assert not out.exists()
            errors.append(capsys.readouterr().err)
        assert re.search(r"membership M\([ABFGxy,]+,t\) left \[0,1\]: value ", errors[0])
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("stage,target", [("contraction", "verify_contraction"),
                                              ("coincidence-af", "find_coincidence_points"),
                                              ("commutation-af", "check_commutation_variant")])
    @pytest.mark.parametrize("error", [
        InputError("bad input"), EvalError("division by zero"),
        NumericalError("quadrature did not reach tol 1e-10", trace=[1e-3, 1e-6])],
        ids=lambda e: type(e).__name__)
    def test_stage_errors_name_their_stage(self, monkeypatch, full_config, capsys,
                                           stage, target, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(pipeline, target, fail)
        argv = ["theorem", "--config", full_config, "--grid", "5"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: stage {stage!r}: {error}\n"
        with pytest.raises(type(error)) as info:
            run_command(build_parser().parse_args(argv))
        assert info.value.__cause__ is error
        assert getattr(info.value, "trace", None) is getattr(error, "trace", None)

    @pytest.mark.parametrize("command,message", [
        ("axioms", "check 'FM-1': division by zero"),
        ("verify", "stage 'contraction': division by zero"),
        ("theorem", "stage 'contraction': division by zero"),
        ("pairs", "stage 'commutation-af': division by zero"),
    ])
    def test_scan_errors_name_their_stage_or_check(self, tmp_path, capsys, command,
                                                   message):
        # the membership divides by zero at t = 0 and at t = 1
        path = tmp_path / "bad.ini"
        path.write_text(_example6_text().replace(
            "kind = standard\ntnorm = product\ndistance = abs(x - y)",
            "kind = expr\ntnorm = product\n"
            "membership = t / (t + abs(x - y)) + 0 / (t - 1)"))
        for jobs in ("1", "2"):
            assert main([command, "--config", str(path), "--jobs", jobs]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("old,new,commands,message", [
        ("distance = abs(x - y)", "distance = abs(x - y) / (x - 0.5) * (x - 0.5)",
         ("axioms", "verify", "pairs", "fixpoint", "theorem"), "crisp metric"),
        ("a = x / 2", "a = x / 2 + 0 / (x - 0.5) * 0",
         ("verify", "pairs", "fixpoint", "theorem"), "map 'A'"),
    ], ids=["distance", "map"])
    def test_build_errors_name_their_component(self, tmp_path, capsys, old, new,
                                               commands, message):
        path = tmp_path / "bad.ini"
        path.write_text(_example6_text().replace(old, new))
        for command in commands:
            assert main([command, "--config", str(path)]) == 2
            assert capsys.readouterr().err == (
                f"error: {message} cannot be evaluated on its check grid: "
                f"division by zero\n")

    @pytest.mark.parametrize("key,name", [("q", "q"), ("tau", "tau"), ("l1", "L1")])
    def test_dp_build_errors_name_their_component(self, tmp_path, capsys, key, name):
        path = tmp_path / "bad.ini"
        path.write_text(re.sub(rf"^{key} = (.*)$", rf"{key} = \1 + 0 / (x - 0.5)",
                               DP_CONFIG, flags=re.M))
        assert main(["dp-solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {name} cannot be evaluated on its check grid: division by zero\n")

    @pytest.mark.parametrize("old,new,commands,message", [
        ("k = 0.5", "k = 1.5", ("psi-check", "verify", "theorem"),
         "section [psi]: ex2_2 requires k in (0,1), got 1.5"),
        ("kind = linear", "kind = integral\ndensity = 0 * s", ("verify", "theorem"),
         "section [phi]: density '0 * s' fails the positive-mass check on eps grid "
         "(0.001, 0.01, 0.1, 1.0)"),
        ("example = ex2_2\nk = 0.5", "example = ex2_5\na = 0.5\ndensity = 0 * s",
         ("psi-check",), "section [psi]: ex2_5 density '0 * s' fails the positive-mass check"),
        ("grid_n = 101", "grid_n = 1", ("axioms", "verify", "pairs", "fixpoint", "theorem"),
         "section [carrier]: carrier grid_n must be >= 2, got 1"),
        ("example = ex2_2\nk = 0.5", "example = ex2_5\na = 0.5\ndensity = 0 - s",
         ("psi-check", "verify", "theorem"), "section [psi], key 'density': density must "
         "be finite and nonnegative, got -0.03125 at x=0.03125"),
        ("tail_len = 100", "tail_len = 5", ("pairs", "theorem"),
         "section [sequences]: tail_len must be >= 10, got 5"),
    ], ids=["psi-k", "phi-density", "psi-density", "carrier-grid", "negative-density",
            "tail-len"])
    def test_gauge_build_errors_name_file_and_section(self, tmp_path, capsys, old, new,
                                                      commands, message):
        path = tmp_path / "bad.ini"
        path.write_text(_example6_text().replace(old, new))
        for command in commands:
            assert main([command, "--config", str(path)]) == 2
            assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bellman_sweep_errors_name_operator_and_payoff(self, tmp_path, capsys, jobs):
        # the build check samples z at seven values that miss 0.5
        path = tmp_path / "bad.ini"
        path.write_text(DP_CONFIG.replace("l1 = z / 2", "l1 = z / 2 + 0 / (z - 0.5)"))
        assert main(["dp-solve", "--config", str(path), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == "error: operator 'U1' (L1): division by zero\n"

    def test_unwritable_out_path(self, tmp_path, full_config, capsys):
        target = tmp_path / "no" / "such" / "dir" / "out.json"
        assert main(["fixpoint", "--config", full_config, "--out", str(target)]) == 2

    def test_failed_verify_still_writes_report(self, tmp_path, schema):
        path = tmp_path / "failing.ini"
        path.write_text(FULL_CONFIG.replace("example = ex2_2", "example = ex2_4"))
        code, doc = run(tmp_path, ["verify", "--config", str(path)])
        assert code == 1
        assert doc["verdict"] == "fail"
        assert doc["report"]["witness"] is not None
        jsonschema.validate(doc, schema)


FAILING_MAPS = FULL_CONFIG.replace("g = 0", "g = 1 - x")


class TestPhiValidation:
    """A config-built phi is checked once, where the config builds it."""

    @pytest.mark.parametrize("command", ["verify", "theorem"])
    @pytest.mark.parametrize("expr", ["0", "s", "1 - s^2 + 0.5 * s", "sqrt(0.5 - s)"])
    def test_invalid_expr_phi_is_an_input_error(self, tmp_path, capsys, command, expr):
        path = tmp_path / "phi.ini"
        path.write_text(FAILING_MAPS.replace("kind = linear", f"kind = expr\nexpr = {expr}"))
        assert main([command, "--config", str(path), "--grid", "11",
                     "--out", str(tmp_path / "out.json")]) == 2
        assert "[phi]" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["verify", "theorem"])
    def test_valid_expr_phi_still_finds_the_violation(self, tmp_path, command):
        path = tmp_path / "phi.ini"
        path.write_text(FAILING_MAPS.replace("kind = linear", "kind = expr\nexpr = 1 - s"))
        code, doc = run(tmp_path, [command, "--config", str(path), "--grid", "11"])
        assert code == 1
        assert doc["verdict"] == "fail"


# every form on the passing reference maps, with the verdict its gauge gives
FORM_CASES = [
    ("main_411", "", 0),
    ("cor43_A", "delta = u^2 / 2", 1),
    ("cor43_B", "k = 0.5", 0),
    ("cor43_C", "delta3 = (u1 + u2 + u3) / 4", 1),
    ("cor43_D", "k = 0.5", 1),
    ("integral_511", "density = 2*s + 0.1", 0),
    ("cor51_A", "density = 1\na = 0.5", 1),
    ("cor51_B", "density = 4*s\ndelta = u / 2", 1),
]


class TestEveryForm:
    @pytest.mark.parametrize("form, extra, expected", FORM_CASES)
    def test_verify_is_schema_valid_and_identical_across_jobs(
        self, tmp_path, schema, form, extra, expected
    ):
        path = tmp_path / "form.ini"
        path.write_text(FULL_CONFIG.replace("form = main_411", f"form = {form}\n{extra}"))
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"verify-{jobs}.json"
            assert main(["verify", "--config", str(path), "--grid", "11",
                         "--jobs", jobs, "--out", str(out)]) == expected
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        doc = json.loads(outs[0])
        jsonschema.validate(doc, schema)
        assert doc["report"]["form"] == form
        assert doc["verdict"] == ("pass" if expected == 0 else "fail")


class TestIntegralPhiValidation:
    def test_phi_vanishing_density_is_an_input_error(self, tmp_path, capsys):
        # phi = 0.125 on all of [0, 0.5], so it is not strictly decreasing
        path = tmp_path / "phi.ini"
        path.write_text(FULL_CONFIG.replace(
            "kind = linear", "kind = integral\ndensity = max(0.5 - s, 0)"))
        assert main(["verify", "--config", str(path), "--grid", "11",
                     "--out", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert "[phi]" in err and "ad1-strictly-decreasing" in err
        assert not (tmp_path / "out.json").exists()


    @pytest.mark.parametrize("old, new, expected", [
        ("kind = linear", "kind = integral\ndensity = sqrt(s)", 0),
        ("form = main_411", "form = integral_511\ndensity = sqrt(s)", 0),
        ("form = main_411", "form = cor51_A\ndensity = sqrt(s)\na = 0.5", 1),
        ("form = main_411", "form = cor51_B\ndensity = sqrt(s)\ndelta = u / 2", 1),
    ], ids=["phi", "integral_511", "cor51_A", "cor51_B"])
    def test_sqrt_density_is_admissible(self, tmp_path, capsys, old, new, expected):
        # class Phi with mass 2/3, though its derivative is singular at 0
        path = tmp_path / "sqrt.ini"
        path.write_text(FULL_CONFIG.replace(old, new))
        assert main(["verify", "--config", str(path), "--grid", "11",
                     "--out", str(tmp_path / "out.json")]) == expected
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("old, new", [
        ("kind = linear", "kind = integral\ndensity = 2000 + 0*s"),
        ("form = main_411", "form = integral_511\ndensity = 2000 + 0*s"),
    ], ids=["phi", "integral_511"])
    def test_heavy_density_meets_its_tolerance(self, tmp_path, capsys, old, new):
        # b = sqrt(x)/3 makes nearly every M(Ax,By,t) of a chunk distinct: about
        # 50,000 knots, whose running sum of a mass-2000 table rounds by more
        # than 1e-10 absolute, but phi is rescaled by 1/2000
        path = tmp_path / "heavy.ini"
        path.write_text(FULL_CONFIG.replace("b = x / 4", "b = sqrt(x) / 3")
                        .replace(old, new))
        out = tmp_path / "out.json"
        assert main(["verify", "--config", str(path), "--grid", "101",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads(out.read_text())
        assert doc["report"]["recheck"]["grid_n"] == 202
        assert doc["report"]["worst_margin"] >= -1e-9


# the commands that read each overriding flag; every other pairing is rejected
FLAG_READERS = {
    "--grid": ("axioms", "psi-check", "verify", "fixpoint", "theorem",
               "reproduce-example6"),
    "--t-grid": ("axioms", "verify", "pairs", "theorem", "reproduce-example6"),
    "--tol": ("pairs", "fixpoint", "dp-solve"),
}
FLAG_VALUES = {"--grid": "11", "--t-grid": "0.5,1", "--tol": "1e-6"}
UNREAD_FLAGS = [(command, flag) for flag, readers in FLAG_READERS.items()
                for command in COMMANDS if command not in readers]


class TestFlags:
    def test_ten_pairs_are_unread(self):
        assert len(UNREAD_FLAGS) == 10

    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
    def test_unread_flag_is_rejected(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_reproduce_takes_no_config(self, tmp_path, capsys):
        # it always runs the bundled example; it once ignored the path given
        with pytest.raises(SystemExit) as exc:
            main(["reproduce-example6", "--config", str(tmp_path / "missing.ini")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    # the plans and searches refused these only after the config loaded,
    # without naming the flag
    @pytest.mark.parametrize("command", FLAG_READERS["--grid"])
    def test_grid_below_the_minimum_names_the_flag(self, capsys, command):
        least = 3 if command in ("psi-check", "fixpoint") else 2
        for value in (str(least - 1), "-4"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--grid", value])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"usage: fuzzfix {command} ")
            assert err.endswith(f"\nfuzzfix {command}: error: argument --grid: "
                                f"must be >= {least}, got {value}\n")

    # the plans refused these only after the config loaded, without naming
    # the flag; they keep their own check for library callers
    @pytest.mark.parametrize("command", FLAG_READERS["--t-grid"])
    def test_t_grid_not_finite_and_positive_names_the_flag(self, capsys, command):
        for value in ("1,-2", "1,nan", "0,1", "inf"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--t-grid", value])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"usage: fuzzfix {command} ")
            assert err.endswith(f"\nfuzzfix {command}: error: argument --t-grid: "
                                f"values must be finite and positive, got {value}\n")

    @pytest.mark.parametrize("command", FLAG_READERS["--grid"])
    def test_grid_at_the_minimum_runs(self, tmp_path, full_config, command):
        least = 3 if command in ("psi-check", "fixpoint") else 2
        config = [] if command == "reproduce-example6" else ["--config", full_config]
        out = tmp_path / "out.json"
        assert main([command, *config, "--grid", str(least), "--out", str(out)]) in (0, 1)
        assert json.loads(out.read_text())["parameters"]["grid"] == least

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_jobs_below_one_is_rejected(self, capsys, command, jobs):
        with pytest.raises(SystemExit) as exc:
            main([command, "--jobs", jobs])
        assert exc.value.code == 2
        assert f"argument --jobs: must be >= 1, got {jobs}" in capsys.readouterr().err

    # the plans own these defaults; the command restates none of them
    @pytest.mark.parametrize("command, flags", [
        ("axioms", ["--grid", "21", "--t-grid", "0.25,0.5,1,2,4"]),
        ("verify", ["--grid", "51", "--t-grid", "0.1,0.5,1,2,10"]),
        ("theorem", ["--grid", "51", "--t-grid", "0.1,0.5,1,2,10"]),
    ])
    def test_flags_at_the_plan_default_change_no_bytes(self, tmp_path, full_config,
                                                       command, flags):
        outs = []
        for given in (flags, []):
            out = tmp_path / f"{len(given)}.json"
            assert main([command, "--config", full_config, *given, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flag", sorted(FLAG_READERS))
    def test_read_flag_is_accepted(self, flag):
        for command in FLAG_READERS[flag]:
            build_parser().parse_args([command, flag, FLAG_VALUES[flag]])

    @pytest.mark.parametrize("variant, points", [("weakly_compatible", 1),
                                                 ("commuting", 101)])
    def test_theorem_commutation_samples_follow_t_grid(
        self, tmp_path, variant, points
    ):
        path = tmp_path / "full.ini"
        path.write_text(FULL_CONFIG.replace("commutation = weakly_compatible",
                                            f"commutation = {variant}"))
        for t_grid, n_t in ((["--t-grid", "0.3,0.7"], 2), ([], 5)):
            _, doc = run(tmp_path, ["theorem", "--config", str(path), "--grid", "11",
                                    *t_grid])
            for stage in doc["report"]["stages"]:
                if stage["stage"].startswith("commutation-"):
                    assert stage["detail"]["samples"] == points * n_t

    def test_pairs_tol_overrides_the_tail_tolerance(self, tmp_path, full_config):
        _, doc = run(tmp_path, ["pairs", "--config", full_config, "--tol", "0.5"])
        assert doc["parameters"]["tail_tol"] == 0.5

    # --tol inf once certified every grid point of example6 (exit 0), and
    # --tol nan reported NaN under exit 1
    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-0.5", "1e-9x"])
    @pytest.mark.parametrize("command", ["fixpoint", "pairs", "dp-solve"])
    def test_tol_must_be_finite_and_positive(self, capsys, command, tol):
        with pytest.raises(SystemExit) as exc:
            main([command, "--tol", tol])
        assert exc.value.code == 2
        assert "argument --tol:" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_axioms_rejects_a_negative_seed(self, full_config, capsys, seed):
        assert main(["axioms", "--config", full_config, "--seed", seed]) == 2
        assert f"seed must be >= 0, got {seed}" in capsys.readouterr().err


def _example6_text() -> str:
    return (resources.files("fuzzfix") / "data" / "example6.ini").read_text()


# each config exercises a stage option that pairs once ignored or read apart
AGREEMENT_CONFIGS = {
    "example6": _example6_text(),
    "full": FULL_CONFIG,
    "g-one-minus-x": FAILING_MAPS,
    "b-in-f": FULL_CONFIG.replace("containment = g_in_a", "containment = b_in_f")
                         .replace("f = x\n", "f = x / 8\n"),
    "coincidence-tol": FULL_CONFIG.replace("coincidence = 1e-9", "coincidence = 1e-3")
                                  .replace("b = x / 4", "b = x / 4 + 0.0001"),
    "ea-both": FULL_CONFIG.replace("ea_pairs = af", "ea_pairs = both"),
    "ea-bg": FULL_CONFIG.replace("ea_pairs = af", "ea_pairs = bg"),
    "r-weak": FULL_CONFIG.replace("commutation = weakly_compatible",
                                  "commutation = r_weak"),
    "commuting": FULL_CONFIG.replace("commutation = weakly_compatible",
                                     "commutation = commuting"),
    "closedness-f": FULL_CONFIG.replace("closedness = a", "closedness = f"),
    # A and F are parallel lines, so the (A, F) pair has no coincidence point
    "no-coincidence": FULL_CONFIG.replace("a = x / 2", "a = x / 4 + 0.1")
                                 .replace("f = x\n", "f = x / 4\n"),
}


def _report(tmp_path, argv: list[str]) -> tuple[int, dict]:
    out = tmp_path / f"{argv[0]}.json"
    code = main([*argv, "--out", str(out)])
    assert code in (0, 1)
    return code, json.loads(out.read_text())


class TestCommandsAgree:
    """Every command reports a theorem stage exactly as theorem does."""

    @pytest.mark.parametrize("t_grid", [[], ["--t-grid", "0.3,0.7"]],
                             ids=["default-t", "t-grid"])
    @pytest.mark.parametrize("name", list(AGREEMENT_CONFIGS))
    def test_commands_report_the_theorem_stages(self, tmp_path, schema, name, t_grid):
        path = tmp_path / f"{name}.ini"
        path.write_text(AGREEMENT_CONFIGS[name])
        config = ["--config", str(path)]
        _, theorem = _report(tmp_path, ["theorem", *config, "--grid", "11", *t_grid])
        stages = {s["stage"]: s for s in theorem["report"]["stages"]}
        detail = {n: s["detail"] for n, s in stages.items()}

        code, pairs = _report(tmp_path, ["pairs", *config, *t_grid])
        jsonschema.validate(pairs, schema)
        assert pairs["report"] == {
            "coincidence": {p: detail[f"coincidence-{p}"] for p in ("af", "bg")},
            "commutation": {p: detail[f"commutation-{p}"] for p in ("af", "bg")},
            "property_ea": detail["tail-convergence"],
            "containment": detail["containment"],
            "closedness": detail["closedness"]}
        failed = any(s["status"] == "fail" for n, s in stages.items()
                     if n != "contraction")
        assert code == (1 if failed else 0)

        _, verify = _report(tmp_path, ["verify", *config, "--grid", "11", *t_grid])
        assert verify["report"] == detail["contraction"]
        _, fixpoint = _report(tmp_path, ["fixpoint", *config])
        assert fixpoint["report"] == theorem["report"]["search"]


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls)}


# the default of every key that has one: the library's where the key feeds a
# library parameter, the config's otherwise
_THEOREM = _field_defaults(TheoremConfig)
CONFIG_DEFAULTS = {
    "carrier": {"grid_n": _field_defaults(Carrier)["grid_n"]},
    "metric": {"kind": "standard", "tnorm": "product", "distance": "abs(x - y)"},
    "psi": {"quad_tol": inspect.signature(make_psi).parameters["quad_tol"].default},
    "phi": {"kind": "linear",
            "quad_tol": inspect.signature(make_integral_altering).parameters["tol"].default},
    "contraction": {"quad_tol": _field_defaults(ContractionSpec)["quad_tol"],
                    "ea_pairs": _THEOREM["ea_pairs"],
                    "containment": _THEOREM["containment_direction"],
                    "closedness": _THEOREM["closedness_target"],
                    "commutation": _THEOREM["commutation_variant"],
                    "r_constant": _THEOREM["r_constant"]},
    "sequences": {key: _field_defaults(SequenceSpec)[key]
                  for key in ("tail_start", "tail_len")},
    "dp": {key: inspect.signature(dp.solve_system).parameters[key].default
           for key in ("tol", "max_iter")},
    "tolerances": _field_defaults(Tolerances),
}


def _defaults(text: str, write: bool) -> str:
    """``text`` with every defaulted key of its sections written out at its
    default (``write``), or with every key at its default left out."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.read_string(text)
    for section, defaults in CONFIG_DEFAULTS.items():
        if not parser.has_section(section):
            continue
        for key, value in defaults.items():
            if write:
                parser[section].setdefault(key, str(value))
            elif key in parser[section] and type(value)(parser[section][key]) == value:
                del parser[section][key]
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


DEFAULT_BASES = {
    "full": FULL_CONFIG,
    "example6": _example6_text(),
    "integral-phi": FULL_CONFIG.replace("kind = linear", "kind = integral\ndensity = 2*s + 0.1"),
    "ex2_5": FULL_CONFIG.replace("example = ex2_2\nk = 0.5",
                                 "example = ex2_5\na = 0.5\ndensity = 1")
                        .replace("form = main_411", "form = cor51_A\ndensity = 1\na = 0.5"),
}
DEFAULT_CASES = [(command, base) for command in COMMANDS
                 if command not in ("dp-solve", "reproduce-example6")
                 for base in DEFAULT_BASES]


def _readme_ini_blocks() -> list[str]:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return re.findall(r"```ini\n(.*?)```", text, flags=re.S)


class TestConfigTable:
    """One table types every key; a builder passes on only the keys a file
    sets, so a written-out default and an omitted one give the same bytes."""

    @pytest.mark.parametrize("command, base",
                             [*DEFAULT_CASES, ("dp-solve", "dp")])
    def test_written_defaults_equal_omitted_ones(self, tmp_path, command, base):
        text = DP_CONFIG if base == "dp" else DEFAULT_BASES[base]
        written, omitted = _defaults(text, write=True), _defaults(text, write=False)
        assert written != omitted
        grid = ["--grid", "11"] if command in ("verify", "theorem") else []
        outs = []
        for name, variant in (("written", written), ("omitted", omitted)):
            path = tmp_path / f"{name}.ini"
            path.write_text(variant)
            out = tmp_path / f"{name}.json"
            assert main([command, "--config", str(path), *grid, "--out", str(out)]) in (0, 1)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("edits, reported", [
        ({"lo = 0": "lo = zero", "a = x / 2": "a = x +"},
         "section [carrier], key 'lo': not a number: 'zero'"),
        ({"example = ex2_2": "example = ex2_9", "k = 0.5": "k = half"},
         "section [psi], key 'example': 'ex2_9' is not one of"),
        ({"af = 1 / n": "af = 1 / m", "tail = 1e-3": "tail = big"},
         "section [sequences], key 'af': expression may only use ['n']"),
    ], ids=["carrier-before-maps", "example-before-k", "sequences-before-tolerances"])
    def test_first_bad_key_in_table_order_is_reported(self, tmp_path, capsys, edits,
                                                      reported):
        text = _example6_text()
        for old, new in edits.items():
            text = text.replace(old, new)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert main(["axioms", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {reported}")

    def test_bad_decisions_are_reported_at_load(self, tmp_path, capsys):
        # [dp] is typed at load like every other section, so a command that
        # never builds the DP problem reports it too
        path = tmp_path / "bad.ini"
        dp_section = "\n[dp]" + DP_CONFIG.split("[dp]")[1]
        path.write_text(_example6_text() + dp_section.replace("decisions = 0, 0.1",
                                                              "decisions = 0, x"))
        assert main(["axioms", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: section [dp], key 'decisions': could not convert "
            "string to float: ' x'\n")

    def test_unknown_tnorm_is_reported_at_load(self, tmp_path, capsys):
        # the key's choices are the t-norm kinds the library builds
        path = tmp_path / "bad.ini"
        path.write_text(_example6_text().replace("tnorm = product", "tnorm = custom"))
        assert main(["axioms", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: section [metric], key 'tnorm': 'custom' is not one of "
            "['minimum', 'product', 'lukasiewicz']\n")

    def test_readme_config_example_runs(self, tmp_path):
        path = tmp_path / "readme.ini"
        path.write_text(_readme_ini_blocks()[0])
        with resources.as_file(resources.files("fuzzfix") / "data" / "example6.ini") as ex6:
            assert load_config(path).values == load_config(ex6).values
        code, doc = run(tmp_path, ["theorem", "--config", str(path)])
        assert code == 0 and doc["report"]["certified"]

    def test_readme_dp_example_runs(self, tmp_path):
        path = tmp_path / "readme-dp.ini"
        path.write_text("[carrier]\nlo = 0\nhi = 1\ngrid_n = 201\n\n" + _readme_ini_blocks()[1])
        code, doc = run(tmp_path, ["dp-solve", "--config", str(path)])
        assert code == 0 and doc["report"]["common_solution"]
