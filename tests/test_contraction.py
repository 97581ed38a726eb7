"""Contractive-inequality scans: all eight margin forms plus the dual routes."""

from __future__ import annotations

import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest

from scan_oracles import blockwise_contraction_margins

from fuzzfix import RunConfig, _parallel, contraction, distances
from fuzzfix.cli import main
from fuzzfix.config import load_config
from fuzzfix.expr import eval_expr, expr_function, parse
from fuzzfix.pairs import DEFAULT_T_GRID
from fuzzfix import (
    AlteringDistance,
    CONTRACTION_FORMS,
    ContractionSpec,
    Density,
    FuzzyMetric,
    InputError,
    MapQuadruple,
    NumericalError,
    ScanPlan,
    TNorm,
    builtin_altering,
    contraction_margin_at,
    make_integral_altering,
    make_psi,
    margins_at,
    psi_eval_on_arrays,
    selfmap_from_expr,
    verify_contraction,
)

PLAN = ScanPlan(grid_n=21)


def ex2_2() -> object:
    return make_psi("ex2_2", k=0.5)


class TestScanPlan:
    def test_defaults(self):
        plan = ScanPlan()
        assert plan.grid_n == 51
        assert plan.t_grid == (0.1, 0.5, 1.0, 2.0, 10.0)
        assert plan.jobs == 1

    @pytest.mark.parametrize(
        "kwargs",
        [{"grid_n": 1}, {"t_grid": ()}, {"t_grid": (0.0,)}, {"t_grid": (-1.0,)},
         {"t_grid": (1.0, math.nan)}, {"jobs": 0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InputError):
            ScanPlan(**kwargs)


class TestSpecValidation:
    def test_form_names(self):
        assert CONTRACTION_FORMS == (
            "main_411",
            "cor43_A",
            "cor43_B",
            "cor43_C",
            "cor43_D",
            "integral_511",
            "cor51_A",
            "cor51_B",
        )

    def test_unknown_form_rejected(self):
        with pytest.raises(InputError):
            ContractionSpec("main_412", psi=ex2_2(), phi=builtin_altering("linear"))

    def test_main_requires_psi_and_phi(self):
        with pytest.raises(InputError):
            ContractionSpec("main_411", phi=builtin_altering("linear"))
        with pytest.raises(InputError):
            ContractionSpec("main_411", psi=ex2_2())

    def test_cor43_b_requires_k_in_unit_interval(self):
        phi = builtin_altering("linear")
        for k in (None, 0.0, 1.0, 2.0):
            with pytest.raises(InputError):
                ContractionSpec("cor43_B", phi=phi, k=k)

    def test_cor43_a_delta_gauge_checked(self):
        phi = builtin_altering("linear")
        with pytest.raises(InputError):
            ContractionSpec("cor43_A", phi=phi, delta=lambda u: u)

    def test_cor43_c_delta3_axes_checked(self):
        phi = builtin_altering("linear")
        with pytest.raises(InputError):
            ContractionSpec("cor43_C", phi=phi, delta3=lambda u2, u3, u4: u2)

    def test_integral_forms_require_phi_class_density(self):
        with pytest.raises(InputError):
            ContractionSpec(
                "integral_511",
                psi=ex2_2(),
                density=Density(lambda s: np.where(s >= 0.5, s, 0.0)),
            )

    def test_cor51_a_range(self):
        d = Density(lambda s: 1.0)
        with pytest.raises(InputError):
            ContractionSpec("cor51_A", density=d, a=1.0)
        ContractionSpec("cor51_A", density=d, a=0.0)  # a = 0 is allowed

    def test_cor51_b_delta_cap_uses_mass(self):
        # mass 2 raises the gauge cap to 2
        heavy = Density(lambda s: 4.0 * s)
        ContractionSpec("cor51_B", density=heavy, delta=lambda u: 0.75 * u)
        with pytest.raises(InputError):
            ContractionSpec("cor51_B", density=heavy, delta=lambda u: u)

    def test_integral_normalization_scale(self):
        spec = ContractionSpec("integral_511", psi=ex2_2(), density=Density(lambda s: 4.0 * s))
        # the density 4s has mass 2, so phi(s) = (1 - s)^2 after rescaling
        assert spec.phi(0.0) == pytest.approx(1.0, abs=1e-9)
        assert spec.phi(0.5) == pytest.approx(0.25, abs=1e-9)
        raw = ContractionSpec("cor51_A", density=Density(lambda s: 4.0 * s), a=0.5)
        assert raw.phi is None


class TestUnreadGauges:
    """A gauge or ingredient the form does not read is refused, not dropped."""

    def test_a_form_that_fixes_psi_refuses_one(self):
        # the ex2_2 passed here was once replaced by ex2_5 without a word
        with pytest.raises(InputError) as info:
            ContractionSpec("cor51_A", psi=make_psi("ex2_2", k=0.5),
                            density=Density(lambda s: 1.0), a=0.5)
        assert str(info.value) == "cor51_A does not read ['psi']"

    @pytest.mark.parametrize("form, params", [
        ("integral_511", {"psi": ex2_2(), "density": Density(lambda s: 1.0)}),
        ("cor51_A", {"density": Density(lambda s: 1.0), "a": 0.5}),
        ("cor51_B", {"density": Density(lambda s: 1.0), "delta": lambda u: u / 2}),
    ])
    def test_a_form_without_a_given_phi_refuses_one(self, form, params):
        with pytest.raises(InputError) as info:
            ContractionSpec(form, phi=builtin_altering("linear"), **params)
        assert str(info.value) == f"{form} does not read ['phi']"

    @pytest.mark.parametrize("form, params, extra", [
        ("main_411", {"psi": ex2_2(), "phi": builtin_altering("linear")},
         {"k": 0.7, "delta": lambda u: u / 3}),
        ("cor43_B", {"phi": builtin_altering("linear"), "k": 0.5},
         {"density": Density(lambda s: 1.0)}),
        ("integral_511", {"psi": ex2_2(), "density": Density(lambda s: 1.0)}, {"a": 0.5}),
        ("cor51_A", {"density": Density(lambda s: 1.0), "a": 0.5}, {"k": 0.5}),
    ])
    def test_an_unread_ingredient_is_refused(self, form, params, extra):
        with pytest.raises(InputError) as info:
            ContractionSpec(form, **params, **extra)
        assert str(info.value) == f"{form} does not read {list(extra)}"


class TestSpotMargins:
    def test_main_margin_at_corner(self, reference_quad):
        spec = ContractionSpec("main_411", psi=ex2_2(), phi=builtin_altering("linear"))
        got = contraction_margin_at(spec, reference_quad, 1.0, 1.0, 1.0)
        assert got == pytest.approx(0.4, abs=1e-12)

    def test_cor43_b_matches_main_for_min_form(self, reference_quad):
        spec = ContractionSpec("cor43_B", phi=builtin_altering("linear"), k=0.5)
        got = contraction_margin_at(spec, reference_quad, 1.0, 1.0, 1.0)
        assert got == pytest.approx(0.4, abs=1e-12)

    def test_integral_margin_with_quadratic_weight(self, reference_quad):
        spec = ContractionSpec("integral_511", psi=ex2_2(), density=Density(lambda s: 2.0 * s))
        got = contraction_margin_at(spec, reference_quad, 1.0, 1.0, 1.0)
        # integrals of 2s reduce to squares: 0.25 - 0.5 * 0.04
        assert got == pytest.approx(0.23, abs=1e-9)

    def test_margins_at_broadcasts(self, reference_quad):
        spec = ContractionSpec("main_411", psi=ex2_2(), phi=builtin_altering("linear"))
        xs = np.linspace(0.0, 1.0, 7)[:, None]
        out = margins_at(spec, reference_quad, xs, 0.5, np.array([[0.5, 1.0, 2.0]]))
        assert out.shape == (7, 3)

    def test_membership_leaving_unit_interval_rejected(self, unit_carrier):
        bad_fm = FuzzyMetric(
            unit_carrier, lambda x, y, t: np.full(np.broadcast(x, y, t).shape, 1.5),
            TNorm("product"),
        )
        quad = MapQuadruple(
            a=selfmap_from_expr(unit_carrier, "x / 2"),
            b=selfmap_from_expr(unit_carrier, "x / 4"),
            f=selfmap_from_expr(unit_carrier, "x"),
            g=selfmap_from_expr(unit_carrier, "0"),
            fm=bad_fm,
        )
        spec = ContractionSpec("main_411", psi=ex2_2(), phi=builtin_altering("linear"))
        with pytest.raises(InputError):
            margins_at(spec, quad, 0.5, 0.5, 1.0)


class TestMainScan:
    def test_reference_system_passes(self, reference_quad):
        spec = ContractionSpec("main_411", psi=ex2_2(), phi=builtin_altering("linear"))
        report = verify_contraction(reference_quad, spec, PLAN)
        assert report["status"] == "pass"
        assert report["form"] == "main_411"
        assert report["worst_margin"] >= -1e-9
        assert report["witness"] is None
        # initial scan plus the doubled-resolution confirmation
        assert report["samples"] == 21 * 21 * 5 + 42 * 42 * 5
        assert report["recheck"] is not None
        assert report["recheck"]["grid_n"] == 42
        assert report["tolerance"] == -1e-9

    def test_margin_summary_shape(self, reference_quad):
        spec = ContractionSpec("main_411", psi=ex2_2(), phi=builtin_altering("linear"))
        report = verify_contraction(reference_quad, spec, PLAN)
        summary = report["margin_summary"]
        assert set(summary) == {"min", "q25", "median", "q75", "max", "mean"}
        assert summary["min"] <= summary["q25"] <= summary["median"]
        assert summary["median"] <= summary["q75"] <= summary["max"]
        assert set(report["worst_point"]) == {"x", "y", "t", "margin"}

    def test_failing_form_reports_first_witness(self, reference_quad):
        # u1 - k u2 - min(u3, u4) goes negative on this system
        spec = ContractionSpec("main_411", psi=make_psi("ex2_4", k=0.5),
                               phi=builtin_altering("linear"))
        report = verify_contraction(reference_quad, spec, PLAN)
        assert report["status"] == "fail"
        assert report["witness"] is not None
        assert report["witness"]["margin"] < -1e-9
        assert report["recheck"] is None

    def test_gauge_is_vetted_before_scanning(self):
        flat = AlteringDistance(lambda s: 0.5, "custom")
        with pytest.raises(InputError):
            ContractionSpec("main_411", psi=ex2_2(), phi=flat)

    def test_deterministic_across_jobs(self, reference_quad):
        spec = ContractionSpec("main_411", psi=ex2_2(), phi=builtin_altering("linear"))
        one = verify_contraction(reference_quad, spec, ScanPlan(grid_n=21, jobs=1))
        four = verify_contraction(reference_quad, spec, ScanPlan(grid_n=21, jobs=4))
        assert one == four


class TestCorollaryForms:
    def test_min_comparison_passes(self, reference_quad):
        spec = ContractionSpec("cor43_B", phi=builtin_altering("linear"), k=0.5)
        report = verify_contraction(reference_quad, spec, PLAN)
        assert report["status"] == "pass"
        assert report["form"] == "cor43_B"

    def test_max_comparison_fails_on_reference_system(self, reference_quad):
        spec = ContractionSpec("cor43_A", phi=builtin_altering("linear"),
                               delta=lambda u: u / 2)
        report = verify_contraction(reference_quad, spec, PLAN)
        assert report["status"] == "fail"
        # worst spot: x=0, y=1, t=0.1 gives phi1 = 0 against delta(5/7)
        assert report["worst_margin"] == pytest.approx(-5.0 / 14.0, abs=1e-9)

    def test_averaging_comparison_fails(self, reference_quad):
        spec = ContractionSpec("cor43_C", phi=builtin_altering("linear"),
                               delta3=lambda u2, u3, u4: (u2 + u3 + u4) / 4)
        report = verify_contraction(reference_quad, spec, PLAN)
        assert report["status"] == "fail"

    def test_mixed_comparison_fails(self, reference_quad):
        spec = ContractionSpec("cor43_D", phi=builtin_altering("linear"), k=0.5)
        report = verify_contraction(reference_quad, spec, PLAN)
        assert report["status"] == "fail"


class TestIntegralForms:
    def test_psi_route_matches_gauge_route_pointwise(self, reference_quad):
        density = Density(lambda s: 2.0 * s)
        via_gauge = ContractionSpec(
            "main_411", psi=ex2_2(), phi=make_integral_altering(density)
        )
        direct = ContractionSpec("integral_511", psi=ex2_2(), density=density)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y = rng.uniform(0.0, 1.0, 2)
            t = rng.uniform(0.05, 10.0)
            lhs = contraction_margin_at(via_gauge, reference_quad, x, y, t)
            rhs = contraction_margin_at(direct, reference_quad, x, y, t)
            assert lhs == pytest.approx(rhs, abs=4e-10)

    def test_psi_route_matches_gauge_route_on_scan(self, reference_quad):
        density = Density(lambda s: 2.0 * s)
        plan = ScanPlan(grid_n=11)
        via_gauge = verify_contraction(reference_quad, ContractionSpec(
            "main_411", psi=ex2_2(), phi=make_integral_altering(density)), plan)
        direct = verify_contraction(reference_quad, ContractionSpec(
            "integral_511", psi=ex2_2(), density=density), plan)
        assert via_gauge["status"] == direct["status"] == "pass"
        assert via_gauge["worst_margin"] == pytest.approx(direct["worst_margin"], abs=1e-9)
        assert via_gauge["margin_summary"]["mean"] == pytest.approx(
            direct["margin_summary"]["mean"], abs=1e-9
        )

    def test_raw_integral_comparison_with_zero_weight_passes(self, reference_quad):
        spec = ContractionSpec("cor51_A", density=Density(lambda s: 1.0), a=0.0)
        report = verify_contraction(reference_quad, spec, PLAN)
        assert report["status"] == "pass"

    def test_raw_integral_comparison_fails_for_positive_weight(self, reference_quad):
        spec = ContractionSpec("cor51_A", density=Density(lambda s: 1.0), a=0.5)
        report = verify_contraction(reference_quad, spec, PLAN)
        assert report["status"] == "fail"
        assert report["witness"] is not None

    def test_gauged_integral_comparison_fails(self, reference_quad):
        spec = ContractionSpec("cor51_B", density=Density(lambda s: 1.0),
                               delta=lambda u: u / 2)
        report = verify_contraction(reference_quad, spec, PLAN)
        assert report["status"] == "fail"
        assert report["worst_margin"] == pytest.approx(-5.0 / 14.0, abs=1e-9)

    def test_report_dict_round_trip(self, reference_quad):
        spec = ContractionSpec("integral_511", psi=ex2_2(), density=Density(lambda s: 1.0))
        doc = verify_contraction(reference_quad, spec, ScanPlan(grid_n=11))
        assert doc["form"] == "integral_511"
        assert doc["status"] == "pass"
        assert doc["recheck"]["grid_n"] == 22


def _recheck_only_failure_spec() -> ContractionSpec:
    # margin |u1 - 0.1| - 1e-3 with u1 = phi(M(x, 0, t)) = x / (t + x): the
    # base grid k/4 never brings u1 near 0.1, the recheck grid k/9 does
    # (x = 1/9 at t = 1, x = 2/9 at t = 2)
    def margin(u1, u2, u3, u4):
        return np.abs(u1 - 0.1) - 1e-3

    psi = make_psi("custom", evaluator=margin)
    return ContractionSpec("main_411", psi=psi, phi=builtin_altering("linear"))


class TestStreamedRecheck:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_recheck_failure_witness_matches_materialised_scan(self, reference_quad, jobs):
        spec = _recheck_only_failure_spec()
        plan = ScanPlan(grid_n=5, jobs=jobs)
        report = verify_contraction(reference_quad, spec, plan)
        assert report["status"] == "fail"
        assert report["recheck"] is not None and report["recheck"]["grid_n"] == 10

        margins, _ = contraction._scan(spec, reference_quad, 10, plan.t_grid, 1)
        xs, ts = reference_quad.fm.carrier.points(10), np.asarray(plan.t_grid)
        bad = int(np.flatnonzero(margins < report["tolerance"])[0])
        i, j, k = np.unravel_index(bad, (10, 10, ts.size))
        assert report["witness"] == {"x": float(xs[i]), "y": float(xs[j]),
                                     "t": float(ts[k]), "margin": float(margins[bad])}
        assert report["witness"]["x"] == pytest.approx(1.0 / 9.0)
        assert report["witness"]["t"] == 1.0
        assert report["recheck"]["worst_margin"] == float(np.min(margins))
        assert report["recheck"]["samples"] == margins.size
        assert report["samples"] == 5 * 5 * 5 + margins.size

    # a row is 9 x 3 = 27 samples: CHUNK 7 clamps the step to one row, CHUNK
    # 60 gives two-row blocks and a ragged last block of one row
    @pytest.mark.parametrize("chunk", [None, 7, 60])
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("phi", ["linear", "expr", "integral"])
    def test_per_axis_tables_match_per_sample_memberships(self, reference_quad, monkeypatch,
                                                          phi, jobs, chunk):
        if chunk is not None:
            monkeypatch.setattr(_parallel, "CHUNK", chunk)
        gauge = {"linear": lambda: builtin_altering("linear"),
                 "expr": lambda: AlteringDistance(
                     expr_function(parse("(1 - s)^2"), ("s",)), "custom"),
                 "integral": lambda: make_integral_altering(
                     Density(lambda s: 2.0 * s + 0.1))}[phi]()
        spec = ContractionSpec("main_411", psi=ex2_2(), phi=gauge)
        margins, _ = contraction._scan(spec, reference_quad, 9, (0.1, 1.0, 3.0), jobs)
        xs = reference_quad.fm.carrier.points(9)
        x, y, t = np.meshgrid(xs, xs, (0.1, 1.0, 3.0), indexing="ij")
        want = margins_at(spec, reference_quad, x, y, t).ravel()
        if phi == "integral":  # the quadrature table is built per chunk
            np.testing.assert_allclose(margins, want, rtol=0.0, atol=spec.quad_tol)
        else:
            assert np.array_equal(margins, want)


def _config(tmp_path, text: str):
    path = tmp_path / "gauges.ini"
    path.write_text(text)
    return load_config(path)


GAUGE_CONFIG = """\
[carrier]
lo = 0
hi = 1
[metric]
kind = standard
[maps]
a = x / 2
b = x / 4
f = x
g = 0
[phi]
kind = expr
expr = {phi}
[contraction]
form = {form}
{extra}
"""

PHI_EXPRS = ("(1 - s)^2", "sqrt(1 - s)", "(1 - s) / (1 + s)", "1 - s")


class TestArrayScalarParity:
    """Config-built gauges run on arrays; the scalar tree-walk is the oracle."""

    @pytest.mark.parametrize("text", PHI_EXPRS)
    def test_expr_phi_on_array_matches_scalar_oracle(self, tmp_path, text):
        cfg = _config(tmp_path, GAUGE_CONFIG.format(phi=text, form="cor43_B",
                                                    extra="k = 0.5"))
        ss = np.linspace(0.0, 1.0, 257)
        oracle = np.array([eval_expr(parse(text), {"s": float(s)}) for s in ss])
        np.testing.assert_allclose(cfg.phi().on_array(ss), oracle, rtol=1e-15, atol=0.0)

    def test_linear_phi_on_array_is_exact(self):
        ss = np.linspace(0.0, 1.0, 257)
        assert np.array_equal(builtin_altering("linear").on_array(ss), 1.0 - ss)

    @pytest.mark.parametrize("form, extra, scalar", [
        ("cor43_A", "delta = u^2 / 2", {"delta": lambda u: u ** 2 / 2}),
        ("cor43_C", "delta3 = (u1 + u2 + u3) / 4",
         {"delta3": lambda u1, u2, u3: (u1 + u2 + u3) / 4}),
        ("cor43_B", "k = 0.5", {"k": 0.5}),
    ])
    @pytest.mark.parametrize("phi_text", ["(1 - s)^2", "1 - s"])
    def test_scan_margins_match_scalar_oracle(self, tmp_path, reference_quad,
                                              form, extra, scalar, phi_text):
        cfg = _config(tmp_path, GAUGE_CONFIG.format(phi=phi_text, form=form, extra=extra))
        tree = parse(phi_text)
        # the tree-walk oracle stays scalar: one eval_expr per sample
        oracle_phi = AlteringDistance(lambda s: np.array(
            [eval_expr(tree, {"s": float(v)}) for v in s.ravel()]).reshape(s.shape), "custom")
        oracle = ContractionSpec(form, phi=oracle_phi, **scalar)
        spec = cfg.contraction_spec()
        got, _ = contraction._scan(spec, reference_quad, 11, (0.1, 1.0), 1)
        want, _ = contraction._scan(oracle, reference_quad, 11, (0.1, 1.0), 1)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-16)
        plan = ScanPlan(grid_n=11)
        assert (verify_contraction(reference_quad, spec, plan)["status"]
                == verify_contraction(reference_quad, oracle, plan)["status"])

    def test_integral_delta_gauge_matches_scalar_oracle(self, tmp_path, reference_quad):
        cfg = _config(tmp_path, GAUGE_CONFIG.format(
            phi="1 - s", form="cor51_B", extra="density = 1\ndelta = u / 2"))
        oracle = ContractionSpec("cor51_B", density=Density(lambda s: 1.0),
                                 delta=lambda u: u / 2)
        got, _ = contraction._scan(cfg.contraction_spec(), reference_quad, 9, (0.5,), 1)
        want, _ = contraction._scan(oracle, reference_quad, 9, (0.5,), 1)
        assert np.array_equal(got, want)

    def test_config_delta_is_array_built(self, tmp_path):
        cfg = _config(tmp_path, GAUGE_CONFIG.format(
            phi="1 - s", form="cor43_A", extra="delta = u^2 / 2"))
        delta = cfg.contraction_spec().delta
        us = np.linspace(0.0, 1.0, 101)
        assert delta(us).shape == us.shape
        np.testing.assert_allclose(delta(us), [u ** 2 / 2 for u in us], rtol=1e-15, atol=0.0)


def _expr_phi() -> AlteringDistance:
    return AlteringDistance(expr_function(parse("(1 - s)^2"), ("s",)), "custom")


ALIASED_PSI = {
    "cor43_A": ("ex2_1", {"delta": lambda u: u ** 2 / 2}),
    "cor43_B": ("ex2_2", {"k": 0.5}),
    "cor43_C": ("ex2_3", {"delta3": lambda u2, u3, u4: (u2 + u3 + u4) / 4}),
    "cor43_D": ("ex2_4", {"k": 0.5}),
}


class TestAliasTable:
    """Every form is psi(phi(m1), ..., phi(m4)); the corollaries name psi or phi."""

    @pytest.mark.parametrize("form", sorted(ALIASED_PSI))
    @pytest.mark.parametrize("phi", [builtin_altering("linear"), _expr_phi()],
                             ids=["linear", "expr"])
    def test_cor43_forms_are_main_with_the_aliased_psi(self, reference_quad, form, phi):
        example, params = ALIASED_PSI[form]
        alias = ContractionSpec(form, phi=phi, **params)
        main = ContractionSpec("main_411", psi=make_psi(example, **params), phi=phi)
        got, _ = contraction._scan(alias, reference_quad, 9, (0.1, 1.0), 1)
        want, _ = contraction._scan(main, reference_quad, 9, (0.1, 1.0), 1)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("phi", [builtin_altering("linear"), _expr_phi()],
                             ids=["linear", "expr"])
    def test_constant_delta_is_broadcast(self, reference_quad, phi):
        # g = 0 enters the scan as one point, so u1 = phi(M(Fx,Gy,t)) is a
        # rows x 1 x T slab, and u1 - delta(...) has the block's shape only
        # because psi's value is broadcast to the shape of its arguments
        const = ContractionSpec("cor43_A", phi=phi, delta=lambda u: 0.0)
        scaled = ContractionSpec("cor43_A", phi=phi, delta=lambda u: 0 * u)
        got, _ = contraction._scan(const, reference_quad, 9, (0.1, 1.0), 1)
        want, _ = contraction._scan(scaled, reference_quad, 9, (0.1, 1.0), 1)
        assert got.shape == (9 * 9 * 2,) and np.array_equal(got, want)

    @pytest.mark.parametrize("form, example, params", [
        ("cor51_A", "ex2_5", {"a": 0.5}),
        ("cor51_B", "ex2_6", {"delta": lambda u: u / 2}),
    ])
    def test_cor51_forms_take_the_raw_memberships(self, reference_quad, form,
                                                  example, params):
        density = Density(lambda s: 2.0 * s + 0.1)
        spec = ContractionSpec(form, density=density, **params)
        assert spec.phi is None and spec.psi.example_id == example
        got, _ = contraction._scan(spec, reference_quad, 9, (0.1, 1.0), 1)
        xs = reference_quad.fm.carrier.points(9)
        x, y, t = np.meshgrid(xs, xs, (0.1, 1.0), indexing="ij")
        q, m = reference_quad, reference_quad.fm.membership
        ax, fx, by, gy = q.a(x), q.f(x), q.b(y), q.g(y)
        want = psi_eval_on_arrays(make_psi(example, density=density, **params),
                                  m(fx, gy, t), m(ax, by, t), m(ax, fx, t), m(by, gy, t))
        assert np.array_equal(got, want.ravel())

    def test_integral_511_composes_the_integral_gauge(self):
        spec = ContractionSpec("integral_511", psi=ex2_2(), density=Density(lambda s: 4.0 * s))
        assert spec.phi.provenance == "integral"
        assert spec.phi(0.5) == pytest.approx(0.25, abs=1e-9)  # rescaled by 1/2

    def test_cor43_d_subtracts_the_minimum(self, reference_quad):
        # at (1, 1, 1): phi = (1/2, 1/5, 1/3, 1/5), so min{phi3, phi4} = 1/5 > 0
        # and the margin is 1/2 - k/5 - 1/5, not 1/2 - (k/5 - 1/5)
        spec = ContractionSpec("cor43_D", phi=builtin_altering("linear"), k=0.5)
        assert contraction_margin_at(spec, reference_quad, 1.0, 1.0, 1.0) == (
            pytest.approx(0.2, abs=1e-12))

    @pytest.mark.parametrize("form, params", [
        ("main_411", {"psi": make_psi("ex2_2", k=0.5)}), ("cor43_B", {"k": 0.5}),
        ("cor43_A", {"delta": lambda u: u / 2}),
    ])
    def test_non_altering_phi_is_rejected_at_construction(self, form, params):
        zero = AlteringDistance(lambda s: 0 * s, "custom")
        with pytest.raises(InputError, match=f"{form} \\[phi\\]"):
            ContractionSpec(form, phi=zero, **params)

    @pytest.mark.parametrize("form, params, alias", [
        ("cor43_B", {"phi": builtin_altering("linear"), "k": 1.5}, "ex2_2"),
        ("cor43_C", {"phi": builtin_altering("linear"),
                     "delta3": lambda u2, u3, u4: u2}, "ex2_3"),
        ("cor51_A", {"density": Density(lambda s: 1.0), "a": 1.0}, "ex2_5"),
    ])
    def test_errors_name_the_form_not_the_alias(self, form, params, alias):
        with pytest.raises(InputError) as info:
            ContractionSpec(form, **params)
        assert form in str(info.value) and alias not in str(info.value)

    @pytest.mark.parametrize("form, params", [
        ("cor43_A", {"phi": builtin_altering("linear")}),
        ("cor51_B", {"density": Density(lambda s: 1.0)}),
    ])
    def test_delta_must_vanish_at_zero(self, form, params):
        # below the identity at every positive grid point; only delta(0) is off
        with pytest.raises(InputError, match=f"{form} delta gauge must vanish at 0"):
            ContractionSpec(form, delta=lambda u: u / 2 + 1e-3, **params)


def _nan_psi():
    def margin(u1, u2, u3, u4):
        return np.where(u2 > 0.5, np.nan, u1)

    return make_psi("custom", evaluator=margin)


class TestNonFiniteMargins:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_verify_contraction_raises(self, reference_quad, jobs):
        spec = ContractionSpec("main_411", psi=_nan_psi(), phi=builtin_altering("linear"))
        with pytest.raises(NumericalError, match="not finite"):
            verify_contraction(reference_quad, spec, ScanPlan(grid_n=5, jobs=jobs))

    def test_margins_at_raises(self, reference_quad):
        spec = ContractionSpec("main_411", psi=_nan_psi(), phi=builtin_altering("linear"))
        assert margins_at(spec, reference_quad, 1.0, 1.0, 1.0) == pytest.approx(0.5)
        # u2 = phi(M(Ax,By,t)) = 1 - 0.1 / 0.6 > 0.5 at (1, 0, 0.1)
        with pytest.raises(NumericalError):
            margins_at(spec, reference_quad, 1.0, np.array([1.0, 0.0]), np.array([1.0, 0.1]))


def _full_broadcast_kernel(spec, quad, grid_n, t_grid):
    """Reference scan kernel in which every chunk evaluates and gauges
    M(Fx,Gy,t) and M(Ax,By,t) on a full rows x grid x T block, whatever the
    maps."""
    xs = quad.fm.carrier.points(grid_n)
    ts = np.asarray(list(t_grid), dtype=float)
    shape = (xs.size, xs.size, ts.size)
    row = shape[1] * shape[2]
    ax, fx = quad.a(xs), quad.f(xs)
    by, gy = quad.b(xs), quad.g(xs)
    m = quad.fm.membership
    u3 = contraction._gauged(
        spec, np.broadcast_to(m(ax[:, None], fx[:, None], ts), shape[::2]),
        "M(Ax,Fx,t)")[:, None, :]
    u4 = contraction._gauged(
        spec, np.broadcast_to(m(by[:, None], gy[:, None], ts), shape[1:]),
        "M(By,Gy,t)")[None, :, :]
    by, gy, t = by[None, :, None], gy[None, :, None], ts[None, None, :]

    def fn(lo, hi):
        i = slice(lo // row, hi // row)
        margins = contraction._margins(spec, m(fx[i, None, None], gy, t),
                                       m(ax[i, None, None], by, t), u3[i], u4)
        return np.broadcast_to(margins, ((hi - lo) // row,) + shape[1:]).ravel()

    return fn, max(1, _parallel.CHUNK // row) * row, (xs, ts, shape)


class _FullBroadcastSegment(_parallel.Segment):
    """Stand-in for ``contraction._segment``: the (x, y, t) grid, whose
    margins come from ``_full_broadcast_kernel`` in the blocks it was cut
    for."""

    def __init__(self, spec, quad, grid_n, t_grid):
        self.kernel, self.step, (xs, ts, _) = _full_broadcast_kernel(spec, quad, grid_n,
                                                                     t_grid)
        super().__init__((xs[:, None, None], xs[None, :, None], ts), None)

    def margins(self, lo, hi):
        assert lo % self.step == 0 and hi == min(lo + self.step, self.n)
        return self.kernel(lo, hi)


# maps that differ from the reference quadruple (g = 0), and the shapes in
# which M(Fx,Gy,t) and M(Ax,By,t) are formed, t-major, in a chunk of R x-rows
# on a grid of G points and T times
CONSTANT_MAPS = {
    "g=0": ({}, ("RT1", "RTG")),
    "g=0*x": ({"g": "0 * x"}, ("RT1", "RTG")),
    "f const": ({"f": "0.3", "g": "x / 3"}, ("1TG", "RTG")),
    "a const": ({"a": "0.5", "g": "x * x"}, ("RTG", "1TG")),
    "b const": ({"b": "0.25", "g": "sqrt(x) / 2"}, ("RTG", "RT1")),
    "none": ({"g": "x / 3"}, ("RTG", "RTG")),
}


def _quad(reference_quad, maps, membership=None):
    carrier = reference_quad.fm.carrier
    fm = reference_quad.fm if membership is None else dataclasses.replace(
        reference_quad.fm, membership=membership)
    return dataclasses.replace(
        reference_quad, fm=fm,
        **{name: selfmap_from_expr(carrier, text, label=name.upper())
           for name, text in maps.items()})


class TestConstantMaps:
    @pytest.mark.parametrize("chunk", [None, 100])
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("gauge", ["linear", "integral", "cor51_A"])
    @pytest.mark.parametrize("maps", list(CONSTANT_MAPS))
    def test_reports_equal_the_full_broadcast_kernel(self, reference_quad, monkeypatch,
                                                     maps, gauge, jobs, chunk):
        if chunk is not None:  # 9 x 5 = 45 samples a row: two-row blocks
            monkeypatch.setattr(_parallel, "CHUNK", chunk)
        density = Density(lambda s: 2.0 * s + 0.1)
        spec = {"linear": lambda: ContractionSpec(
                    "main_411", psi=ex2_2(), phi=builtin_altering("linear")),
                "integral": lambda: ContractionSpec(
                    "integral_511", psi=ex2_2(), density=density),
                "cor51_A": lambda: ContractionSpec(
                    "cor51_A", density=density, a=0.5)}[gauge]()
        quad = _quad(reference_quad, CONSTANT_MAPS[maps][0])
        plan = ScanPlan(grid_n=9, jobs=jobs)
        got = verify_contraction(quad, spec, plan)
        monkeypatch.setattr(contraction, "_segment", _FullBroadcastSegment)
        assert got == verify_contraction(quad, spec, plan)

    @pytest.mark.parametrize("maps", list(CONSTANT_MAPS))
    def test_a_constant_operand_is_one_point(self, reference_quad, monkeypatch, maps):
        monkeypatch.setattr(_parallel, "CHUNK", 60)  # two-row blocks
        shapes = []

        def membership(x, y, t):
            out = reference_quad.fm.membership(x, y, t)
            shapes.append(np.shape(out))
            return out

        quad = _quad(reference_quad, CONSTANT_MAPS[maps][0], membership)
        spec = ContractionSpec("main_411", psi=ex2_2(), phi=builtin_altering("linear"))
        ts = (0.5, 1.0, 2.0)
        segment = contraction._segment(spec, quad, 9, ts)
        assert shapes == [(9, 3), (9, 3)]  # M(Ax,Fx,t) and M(By,Gy,t), once
        shapes.clear()
        step = _parallel.block_step(segment)
        segment.margins(step, 2 * step)
        sizes = {"R": 2, "G": 9, "T": 3, "1": 1}
        assert shapes == [tuple(sizes[c] for c in want)
                          for want in CONSTANT_MAPS[maps][1]]

    def test_signed_zero_images_are_not_one_point(self):
        # 0 * x is -0.0 left of 0 and 0.0 right of it: equal, but not the same bits
        images = 0.0 * np.linspace(-1.0, 1.0, 5)
        assert np.array_equal(contraction._point(images), images)
        assert contraction._point(np.full(5, 0.25)).shape == (1,)


# maps that differ from the reference quadruple (a = x/2, b = x/4, f = x, g = 0)
TABLE_MAPS = {
    "affine": {"g": "x / 3"},                   # distances repeat within a block
    "nonlinear": {"a": "x * x / 2", "b": "sqrt(x) / 3", "g": "x / 3"},  # they do not
    "g=0": {},                                  # M(Fx,Gy,t) on a rows x 1 x T slab
    "failing": {"g": "1 - x"},
}
TABLE_T = DEFAULT_T_GRID


def _integral_spec(form: str) -> ContractionSpec:
    density = Density(lambda s: 2.0 * s + 0.1)
    if form == "integral_511":
        return ContractionSpec(form, psi=ex2_2(), density=density)
    phi = make_integral_altering(density)
    return (ContractionSpec(form, psi=ex2_2(), phi=phi) if form == "main_411"
            else ContractionSpec(form, phi=phi, k=0.5))


class TestTableGauge:
    """An integral phi over a standard metric is gauged once per distinct
    crisp distance of a block; the margins are the elementwise block's,
    bit for bit."""

    @pytest.mark.parametrize("grid_n", [17, 34], ids=["base", "recheck"])
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("form", ["main_411", "cor43_B", "integral_511"])
    @pytest.mark.parametrize("maps", list(TABLE_MAPS))
    def test_margins_equal_the_elementwise_blocks(self, reference_quad, monkeypatch,
                                                  maps, form, jobs, grid_n):
        monkeypatch.setattr(_parallel, "CHUNK", 300)  # 17 x 5 = 85 samples a row
        spec, quad = _integral_spec(form), _quad(reference_quad, TABLE_MAPS[maps])
        got, segment = contraction._scan(spec, quad, grid_n, TABLE_T, jobs)
        assert segment.n // _parallel.block_step(segment) >= 5
        want = blockwise_contraction_margins(spec, quad, grid_n, TABLE_T)
        assert got.tobytes() == want.tobytes()

    def test_margins_equal_the_elementwise_blocks_at_workload_size(self, reference_quad):
        # the verify workload's grid and its recheck, in blocks of CHUNK
        spec = _integral_spec("main_411")
        for grid_n in (201, 402):
            got, _ = contraction._scan(spec, reference_quad, grid_n, TABLE_T, 1)
            want = blockwise_contraction_margins(spec, reference_quad, grid_n, TABLE_T)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("form", ["main_411", "cor43_B", "integral_511"])
    def test_failing_witness_is_the_elementwise_one(self, reference_quad, form, jobs):
        spec, quad = _integral_spec(form), _quad(reference_quad, TABLE_MAPS["failing"])
        report = verify_contraction(quad, spec, ScanPlan(grid_n=17, jobs=jobs))
        want = blockwise_contraction_margins(spec, quad, 17, TABLE_T)
        bad = _parallel.fold_margins(want, contraction.MARGIN_TOLERANCE).first_bad
        i, j, k = np.unravel_index(bad, (17, 17, len(TABLE_T)))
        xs = quad.fm.carrier.points(17)
        assert report["status"] == "fail" and report["recheck"] is None
        assert report["witness"] == {"x": float(xs[i]), "y": float(xs[j]),
                                     "t": TABLE_T[k], "margin": float(want[bad])}

    @pytest.mark.parametrize("maps", ["affine", "nonlinear", "g=0"])
    def test_quadrature_gets_the_elementwise_knots(self, reference_quad, monkeypatch,
                                                   maps):
        monkeypatch.setattr(_parallel, "CHUNK", 300)
        spec, quad = _integral_spec("main_411"), _quad(reference_quad, TABLE_MAPS[maps])
        seen = []
        real = distances.cumulative_integrals

        def spy(density, uppers, tol=1e-10):
            seen.append(np.asarray(uppers, dtype=float))
            return real(density, uppers, tol)

        monkeypatch.setattr(distances, "cumulative_integrals", spy)
        contraction._scan(spec, quad, 17, TABLE_T, 1)
        table, seen[:] = seen[:], []
        blockwise_contraction_margins(spec, quad, 17, TABLE_T)
        # u3 and u4 once, then M(Fx,Gy,t) and M(Ax,By,t) in each of 6 blocks
        assert len(table) == len(seen) == 2 + 2 * 6
        for got, want in zip(table, seen):
            assert np.array_equal(np.unique(got), np.unique(want))
        if maps == "affine":
            assert sum(u.size for u in table) < sum(u.size for u in seen) / 2

    @pytest.mark.parametrize("metric", ["standard", "expr"])
    @pytest.mark.parametrize("phi", ["linear", "expr", "integral"])
    def test_only_an_integral_phi_over_a_distance_takes_the_table(self, reference_quad,
                                                                  phi, metric):
        fm, calls = reference_quad.fm, []

        def distance(x, y):
            calls.append("distance")
            return fm.distance(x, y)

        def membership(x, y, t):
            calls.append("membership")
            return fm.membership(x, y, t)

        if metric == "standard":
            membership.distance = distance
        quad = dataclasses.replace(reference_quad, fm=dataclasses.replace(
            fm, membership=membership))
        gauge = {"linear": builtin_altering("linear"), "expr": _expr_phi(),
                 "integral": _integral_spec("main_411").phi}[phi]
        spec = ContractionSpec("main_411", psi=ex2_2(), phi=gauge)
        segment = contraction._segment(spec, quad, 9, (0.5, 1.0))
        calls.clear()
        segment.margins(0, segment.n)
        table = phi == "integral" and metric == "standard"
        assert calls == ["distance" if table else "membership"] * 2

    def test_only_a_standard_config_metric_records_its_distance(self, tmp_path):
        standard = _config(tmp_path, GAUGE_CONFIG.format(phi="1 - s", form="cor43_B",
                                                         extra="k = 0.5"))
        expr = _config(tmp_path, GAUGE_CONFIG.format(phi="1 - s", form="cor43_B",
                                                     extra="k = 0.5").replace(
            "kind = standard", "kind = expr\nmembership = t / (t + abs(x - y))"))
        assert standard.fuzzy_metric().distance is not None
        assert expr.fuzzy_metric().distance is None

    def test_a_replaced_membership_is_scanned_by_its_own_formula(self, reference_quad):
        # 0.5 t / (t + |u - v|) is not t / (t + d): gauged by way of the
        # standard metric's distance, it would fail with worst margin -0.136
        def half(x, y, t):
            return 0.5 * t / (t + np.abs(x - y))

        spec = ContractionSpec("integral_511", psi=make_psi("ex2_2", k=0.5),
                               density=Density(lambda s: 2 * s + 0.1))
        quad = dataclasses.replace(reference_quad, fm=dataclasses.replace(
            reference_quad.fm, membership=half))
        assert quad.fm.distance is None
        report = verify_contraction(quad, spec, ScanPlan(grid_n=21))
        assert report["status"] == "pass"
        assert report["worst_margin"] == pytest.approx(0.136, abs=1e-3)

    def test_a_wrapped_standard_membership_keeps_its_distance(self, reference_fm):
        # functools.wraps copies __dict__, so a wrapper of the same formula
        # (the bench tracer's) still takes the table path
        @functools.wraps(reference_fm.membership)
        def traced(x, y, t):
            return reference_fm.membership(x, y, t)

        fm = dataclasses.replace(reference_fm, membership=traced)
        assert reference_fm.distance is not None
        assert fm.distance is reference_fm.distance


CORPUS = Path(__file__).resolve().parent / "corpus"


def _membership_config(tmp_path, name: str, membership: str) -> str:
    text = (CORPUS / "example6.ini").read_text().replace(
        "kind = standard\ntnorm = product\ndistance = abs(x - y)",
        f"kind = expr\ntnorm = product\nmembership = {membership}")
    path = tmp_path / f"{name}.ini"
    path.write_text(text)
    return str(path)


# t / (t + |x - y|), raised by ``excess`` on the diagonal x = y only
_DIAGONAL = "t / (t + abs(x - y)) + {excess} * max(0, 1 - 1e20 * abs(x - y))"


class TestMembershipRange:
    """A membership within 1e-12 of [0,1] is clipped; beyond it, refused."""

    def test_a_membership_within_rounding_of_one_is_clipped(self, tmp_path):
        # the corpus pins the report of the clipped membership and the
        # refusal of one beyond rounding; the margins equal the exact ones
        margins = []
        for excess in ("0", "5e-13"):
            cfg = load_config(_membership_config(tmp_path, excess,
                                                 _DIAGONAL.format(excess=excess)))
            got, _ = contraction._scan(cfg.contraction_spec(), cfg.quadruple(), 21,
                                       DEFAULT_T_GRID, 1)
            margins.append(got.view(np.uint64))
        assert np.array_equal(*margins)

    def test_a_nan_membership_reaches_the_psi_check(self, reference_quad, tmp_path,
                                                    monkeypatch, capsys):
        # the expression language refuses non-finite values, so a NaN comes
        # from a library membership
        def membership(u, v, t):
            m = t / (t + np.abs(u - v))
            return np.where((u == 0.5) & (v == 0.0) & (t == 2.0), np.nan, m)

        quad = _quad(reference_quad, {}, membership=membership)
        monkeypatch.setattr(RunConfig, "quadruple", lambda self: quad)
        path = _membership_config(tmp_path, "nan", "t / (t + abs(x - y))")
        assert main(["verify", "--config", path, "--grid", "21"]) == 2
        assert capsys.readouterr().err == (
            "error: stage 'contraction': psi ex2_2 is not finite at (u1, u2, u3, u4) = "
            "(nan, 0.11111111111111116, 0.11111111111111116, 0.0): nan\n")
