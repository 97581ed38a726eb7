"""End-to-end hypothesis pipeline and the common-fixed-point search."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from conftest import named

from fuzzfix import (
    Carrier,
    ContractionSpec,
    InputError,
    MapQuadruple,
    ScanPlan,
    TheoremConfig,
    Tolerances,
    builtin_altering,
    find_common_fixed_points,
    make_psi,
    make_tnorm,
    residuals_on_grid,
    run_theorem_pipeline,
    selfmap_from_expr,
    sequence_from_expr,
    standard_fuzzy_metric,
)
from fuzzfix.pipeline import _certificates, run_stages

PLAN = ScanPlan(grid_n=21)

STAGES = (
    "tail-convergence",
    "containment",
    "closedness",
    "contraction",
    "coincidence-af",
    "commutation-af",
    "coincidence-bg",
    "commutation-bg",
)


def main_spec() -> ContractionSpec:
    return ContractionSpec(
        "main_411", psi=make_psi("ex2_2", k=0.5), phi=builtin_altering("linear")
    )


def reference_config(quad, **overrides) -> TheoremConfig:
    kwargs = dict(
        quad=quad,
        contraction=main_spec(),
        plan=PLAN,
        seq_af=sequence_from_expr("1 / n"),
        ea_pairs="af",
        containment_direction="g_in_a",
        closedness_target="a",
        commutation_variant="weakly_compatible",
    )
    kwargs.update(overrides)
    return TheoremConfig(**kwargs)


def quad_from_exprs(fm, a: str, b: str, f: str, g: str) -> MapQuadruple:
    c = fm.carrier
    return MapQuadruple(
        a=selfmap_from_expr(c, a, label="A"),
        b=selfmap_from_expr(c, b, label="B"),
        f=selfmap_from_expr(c, f, label="F"),
        g=selfmap_from_expr(c, g, label="G"),
        fm=fm,
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"ea_pairs": "fg"},
            {"containment_direction": "a_in_b"},
            {"closedness_target": "x"},
            {"commutation_variant": "sideways"},
        ],
    )
    def test_choice_fields(self, reference_quad, overrides):
        with pytest.raises(InputError):
            reference_config(reference_quad, **overrides)

    def test_sequences_must_cover_chosen_pairs(self, reference_quad):
        with pytest.raises(InputError):
            reference_config(reference_quad, ea_pairs="both", seq_bg=None)
        with pytest.raises(InputError):
            reference_config(reference_quad, ea_pairs="af", seq_af=None)

    def test_tolerances_validated(self):
        with pytest.raises(InputError):
            Tolerances(coincidence=0.0)
        with pytest.raises(InputError):
            Tolerances(fixed_point=-1.0)

    @pytest.mark.parametrize("key", ["coincidence", "fixed_point", "tail"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_tolerances_rejected(self, key, value):
        with pytest.raises(InputError, match=f"key '{key}': .*finite and positive, "
                                             f"got {value}"):
            Tolerances(**{key: value})

    def test_certificate_invariant(self, reference_quad):
        # z = 0.5 is not fixed: |G(0.5) - 0.5| = 0.5
        with pytest.raises(InputError, match="certificate residual 0.5 is not below "
                                             "tolerance 1e-09"):
            _certificates(reference_quad, np.array([0.0, 0.5]), 1e-9)


class TestResiduals:
    def test_values_on_reference_quad(self, reference_quad):
        xs = np.array([0.0, 0.5, 1.0])
        r = residuals_on_grid(reference_quad, xs)
        # dominated by |G(x) - x| = x away from the origin
        assert r == pytest.approx([0.0, 0.5, 1.0])


class TestFixedPointSearch:
    def test_reference_quad_has_unique_zero(self, reference_quad):
        search = find_common_fixed_points(reference_quad)
        assert not search["all_points_fixed"]
        assert len(search["certificates"]) == 1
        cert = search["certificates"][0]
        assert cert["z"] == pytest.approx(0.0, abs=1e-9)
        assert cert["max_residual"] < 1e-9
        assert set(cert["residuals"]) == {"a", "b", "f", "g"}

    def test_identity_maps_fix_every_point(self, reference_fm):
        quad = quad_from_exprs(reference_fm, "x", "x", "x", "x")
        search = find_common_fixed_points(quad)
        assert search["all_points_fixed"]
        assert len(search["certificates"]) == reference_fm.carrier.grid_n

    def test_two_fixed_points_detected(self, reference_fm):
        quad = quad_from_exprs(reference_fm, "x ^ 2", "x ^ 2", "x ^ 2", "x ^ 2")
        search = find_common_fixed_points(quad)
        zs = [c["z"] for c in search["certificates"]]
        assert zs == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_disjoint_fixed_points_yield_none(self, reference_fm):
        # A fixes only 0.5, B fixes only 0, so no common fixed point exists
        quad = quad_from_exprs(reference_fm, "x / 2 + 0.25", "x / 4", "x", "x")
        search = find_common_fixed_points(quad)
        assert search["certificates"] == []

    def test_off_grid_fixed_point_refined(self, reference_fm):
        # the only common fixed point of x -> x^2 on (0,1] endpoints aside
        # is 1; shrink toward an off-grid interior point instead
        c = reference_fm.carrier
        quad = quad_from_exprs(
            reference_fm,
            "0.7853 + 0 * x",
            "0.7853 + 0 * x",
            "0.7853 + 0 * x",
            "0.7853 + 0 * x",
        )
        search = find_common_fixed_points(quad)
        assert len(search["certificates"]) == 1
        assert search["certificates"][0]["z"] == pytest.approx(0.7853, abs=1e-9)

    def test_grid_point_below_tol_is_kept(self, reference_fm):
        # the tent makes the residual on the seed bracket [0, 0.01] anything
        # but unimodal; golden section once converged to 0.0099 there, away
        # from the exact fixed point 0 on the grid
        quad = quad_from_exprs(reference_fm, "x / 2", "x / 4", "x",
                               "0.9 * max(0, 1 - 200 * abs(x - 0.005))")
        search = find_common_fixed_points(quad)
        assert [c["z"] for c in search["certificates"]] == [0.0]
        assert search["certificates"][0]["max_residual"] == 0.0

    def test_wide_basin_is_one_certificate(self, reference_fm):
        # the residual is x, below tol on five grid points
        quad = quad_from_exprs(reference_fm, "x / 2", "x / 4", "x", "0")
        search = find_common_fixed_points(quad, tol=0.05)
        assert [c["z"] for c in search["certificates"]] == [0.0]

    def test_tolerance_validated(self, reference_quad):
        with pytest.raises(InputError):
            find_common_fixed_points(reference_quad, tol=0.0)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan")])
    def test_non_finite_tolerance_rejected(self, reference_quad, tol):
        # tol = inf once certified the whole carrier as fixed
        with pytest.raises(InputError, match="finite and positive"):
            find_common_fixed_points(reference_quad, tol=tol)

    def test_grid_override(self, reference_quad):
        search = find_common_fixed_points(reference_quad, grid_n=11)
        assert search["grid_n"] == 11
        assert len(search["certificates"]) == 1


class TestPipeline:
    def test_reference_system_is_certified(self, reference_quad):
        report = run_theorem_pipeline(reference_config(reference_quad))
        assert tuple(s["stage"] for s in report["stages"]) == STAGES
        assert all(s["status"] == "pass" for s in report["stages"])
        assert report["hypotheses_pass"]
        assert report["uniqueness"] == "unique-on-grid"
        assert report["certified"]
        assert report["search"]["certificates"][0]["z"] == pytest.approx(0.0, abs=1e-9)

    def test_skipped_stage_is_left_out_and_not_run(self, reference_quad, monkeypatch):
        cfg = reference_config(reference_quad)
        full = run_theorem_pipeline(cfg)["stages"]
        monkeypatch.setattr("fuzzfix.pipeline.verify_contraction", None)
        stages = run_stages(dataclasses.replace(cfg, contraction=None))
        assert stages == [s for s in full if s["stage"] != "contraction"]

    def test_pipeline_refuses_a_config_without_a_contraction_spec(self, reference_quad,
                                                                  monkeypatch):
        # run_stages leaves the contraction out, so a certificate would rest
        # on no contraction scan
        monkeypatch.setattr("fuzzfix.pipeline.run_stages", None)
        cfg = reference_config(reference_quad, contraction=None)
        with pytest.raises(InputError, match="needs a contraction spec"):
            run_theorem_pipeline(cfg)

    def test_stage_lookup_and_details(self, reference_quad):
        report = run_theorem_pipeline(reference_config(reference_quad))
        containment = named(report["stages"], "containment")
        assert containment["detail"]["direction"] == "g_in_a"
        closedness = named(report["stages"], "closedness")
        assert closedness["detail"]["target"] == "a"
        assert named(report["stages"], "contraction")["detail"]["form"] == "main_411"
        with pytest.raises(KeyError):
            named(report["stages"], "nonexistent")

    def test_rescaled_commutation_variant_also_certifies(self, reference_quad):
        cfg = reference_config(
            reference_quad, commutation_variant="r_weak_Ag", r_constant=2.0
        )
        report = run_theorem_pipeline(cfg)
        assert report["certified"]
        assert named(report["stages"], "commutation-af")["detail"]["variant"] == "r_weak_Ag"

    def test_failed_contraction_blocks_certification(self, reference_quad):
        bad = ContractionSpec(
            "main_411", psi=make_psi("ex2_4", k=0.5), phi=builtin_altering("linear")
        )
        report = run_theorem_pipeline(reference_config(reference_quad, contraction=bad))
        assert named(report["stages"], "contraction")["status"] == "fail"
        assert not report["hypotheses_pass"]
        assert not report["certified"]
        # later stages still run and the search still reports its finding
        assert report["uniqueness"] == "unique-on-grid"

    def test_both_pairs_need_sequences_for_common_property(self, reference_quad):
        cfg = reference_config(
            reference_quad,
            ea_pairs="both",
            seq_af=sequence_from_expr("1 / n", tail_start=2000),
            seq_bg=sequence_from_expr("1 / n", tail_start=2000),
        )
        report = run_theorem_pipeline(cfg)
        assert named(report["stages"], "tail-convergence")["status"] == "pass"
        assert named(report["stages"], "tail-convergence")["detail"]["common"] is True

    def test_no_coincidence_is_inconclusive_not_failed(self, reference_fm):
        # parallel translates never meet, so weak compatibility has nothing
        # to certify
        quad = quad_from_exprs(reference_fm, "x / 2 + 0.25", "x / 4", "x / 2", "x / 4")
        cfg = reference_config(quad, containment_direction="b_in_f")
        report = run_theorem_pipeline(cfg)
        assert named(report["stages"], "coincidence-af")["status"] == "fail"
        assert named(report["stages"], "commutation-af")["status"] == "inconclusive"
        assert not report["certified"]

    def test_identity_quadruple_reports_all_points(self, reference_fm):
        quad = quad_from_exprs(reference_fm, "x", "x", "x", "x")
        cfg = reference_config(quad)
        report = run_theorem_pipeline(cfg)
        assert report["uniqueness"] == "all-points"
        assert report["search"]["all_points_fixed"]
        assert not report["certified"]  # certification demands a unique point

    def test_crossing_maps_without_common_fixed_point(self, reference_fm):
        # F and G cross the identity at different points; coincidences exist
        # but no point is fixed by all four maps
        quad = quad_from_exprs(reference_fm, "x", "x", "1 - x", "x / 2")
        report = run_theorem_pipeline(reference_config(quad))
        assert report["uniqueness"] == "none-found"
        assert report["search"]["certificates"] == []
        assert not report["certified"]

    def test_multiple_fixed_points_reported(self, reference_fm):
        quad = quad_from_exprs(reference_fm, "x ^ 2", "x ^ 2", "x ^ 2", "x ^ 2")
        report = run_theorem_pipeline(reference_config(quad))
        assert report["uniqueness"] == "multiple"
        assert not report["certified"]

    def test_stage_errors_are_attributed(self, reference_quad):
        cfg = reference_config(reference_quad, seq_af=sequence_from_expr("n"))
        with pytest.raises(InputError) as info:
            run_theorem_pipeline(cfg)
        assert "tail-convergence" in str(info.value)

    def test_report_dict_round_trip(self, reference_quad):
        doc = run_theorem_pipeline(reference_config(reference_quad))
        assert doc["certified"] is True
        assert doc["hypotheses_pass"] is True
        assert doc["uniqueness"] == "unique-on-grid"
        assert [s["stage"] for s in doc["stages"]] == list(STAGES)
        assert doc["search"]["certificates"][0]["z"] == pytest.approx(0.0, abs=1e-9)


class TestIndependentMetric:
    def test_pipeline_on_coarser_carrier(self):
        carrier = Carrier(0.0, 1.0, 41)
        fm = standard_fuzzy_metric(
            lambda x, y: np.abs(x - y), make_tnorm("minimum"), carrier
        )
        quad = quad_from_exprs(fm, "x / 2", "x / 4", "x", "0")
        report = run_theorem_pipeline(reference_config(quad))
        assert report["certified"]
