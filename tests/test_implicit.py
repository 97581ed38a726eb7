"""Gauge-family construction and the four-condition verifier."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import named
from scan_oracles import meshgrid_verify_psi

from fuzzfix.expr import expr_function, parse
from fuzzfix import (
    PSI_EXAMPLE_IDS,
    Density,
    InputError,
    NumericalError,
    make_psi,
    psi_eval_on_arrays,
    verify_psi,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def builtin_psis() -> dict[str, object]:
    """One valid instance of each builtin gauge."""
    return {
        "ex2_1": make_psi("ex2_1", delta=lambda u: u / 2),
        "ex2_2": make_psi("ex2_2", k=0.5),
        "ex2_3": make_psi("ex2_3", delta3=lambda u2, u3, u4: (u2 + u3 + u4) / 4),
        "ex2_4": make_psi("ex2_4", k=0.5),
        "ex2_5": make_psi("ex2_5", a=0.5, density=Density(lambda s: 1.0)),
        "ex2_6": make_psi("ex2_6", delta=lambda u: u / 2, density=Density(lambda s: 2.0 * s)),
    }


class TestConstruction:
    def test_example_ids_exported(self):
        assert PSI_EXAMPLE_IDS == ("ex2_1", "ex2_2", "ex2_3", "ex2_4", "ex2_5", "ex2_6")

    def test_unknown_id_rejected(self):
        with pytest.raises(InputError):
            make_psi("ex2_7")

    @pytest.mark.parametrize("k", [0.0, 1.0, 1.5, -0.1, None])
    def test_ex2_2_k_range(self, k):
        with pytest.raises(InputError):
            make_psi("ex2_2", k=k)

    def test_ex2_1_requires_delta(self):
        with pytest.raises(InputError):
            make_psi("ex2_1")

    def test_ex2_1_delta_gauge_must_stay_below_identity(self):
        with pytest.raises(InputError):
            make_psi("ex2_1", delta=lambda u: u)

    def test_ex2_1_delta_gauge_must_vanish_at_zero(self):
        with pytest.raises(InputError):
            make_psi("ex2_1", delta=lambda u: u / 2 + 0.01)

    def test_ex2_3_delta3_axis_condition(self):
        with pytest.raises(InputError):
            make_psi("ex2_3", delta3=lambda u2, u3, u4: u2)

    def test_ex2_5_a_range(self):
        with pytest.raises(InputError):
            make_psi("ex2_5", a=1.0, density=Density(lambda s: 1.0))

    def test_ex2_5_requires_phi_class_density(self):
        with pytest.raises(InputError):
            make_psi("ex2_5", a=0.5, density=Density(lambda s: np.where(s >= 0.5, s, 0.0)))

    def test_ex2_6_requires_delta(self):
        with pytest.raises(InputError):
            make_psi("ex2_6", density=Density(lambda s: 1.0))

    def test_ex2_6_delta_cap_scales_with_mass(self):
        # mass 2 permits gauge values up to but not at the cap
        make_psi("ex2_6", delta=lambda u: 0.9 * u, density=Density(lambda s: 4.0 * s))
        with pytest.raises(InputError):
            make_psi("ex2_6", delta=lambda u: u, density=Density(lambda s: 4.0 * s))

    def test_custom_requires_evaluator(self):
        with pytest.raises(InputError):
            make_psi("custom")

    def test_custom_direction_validated(self):
        with pytest.raises(InputError):
            make_psi("custom", evaluator=lambda *u: u[0], u1_direction="sideways")

    def test_orientation_of_builtin_families(self):
        psis = builtin_psis()
        for name in ("ex2_1", "ex2_2", "ex2_3", "ex2_4"):
            assert psis[name].u1_direction == "increasing"
        for name in ("ex2_5", "ex2_6"):
            assert psis[name].u1_direction == "decreasing"


class TestSpotValues:
    def test_ex2_1(self):
        psi = make_psi("ex2_1", delta=lambda u: u / 2)
        assert psi_eval_on_arrays(psi, 0.5, 0.2, 0.3, 0.4) == pytest.approx(0.3, abs=1e-12)

    def test_ex2_2(self):
        psi = make_psi("ex2_2", k=0.5)
        got = psi_eval_on_arrays(psi, 0.5, 0.2, 1.0 / 3.0, 0.2)
        assert got == pytest.approx(0.4, abs=1e-12)

    def test_ex2_3(self):
        psi = make_psi("ex2_3", delta3=lambda u2, u3, u4: (u2 + u3 + u4) / 4)
        assert psi_eval_on_arrays(psi, 0.5, 0.2, 0.3, 0.4) == pytest.approx(0.275, abs=1e-12)

    def test_ex2_4(self):
        psi = make_psi("ex2_4", k=0.5)
        assert psi_eval_on_arrays(psi, 0.5, 0.2, 0.3, 0.4) == pytest.approx(0.1, abs=1e-12)

    def test_ex2_5_with_unit_density(self):
        psi = make_psi("ex2_5", a=0.5, density=Density(lambda s: 1.0))
        # integrals reduce to 1 - u, so the value is 0.5 - 0.5 * 0.8
        assert psi_eval_on_arrays(psi, 0.5, 0.2, 0.3, 0.4) == pytest.approx(0.1, abs=1e-9)

    def test_ex2_6_with_quadratic_integral(self):
        psi = make_psi("ex2_6", delta=lambda u: u / 2, density=Density(lambda s: 2.0 * s))
        # integral of 2s up to v is v^2: at (0,1,1,1) the value is 1 - delta(0)
        assert psi_eval_on_arrays(psi, 0.0, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-9)
        assert psi_eval_on_arrays(psi, 0.0, 0.0, 0.0, 0.0) == pytest.approx(0.5, abs=1e-9)


class TestEvaluation:
    @pytest.mark.parametrize("name", ["ex2_1", "ex2_2", "ex2_3", "ex2_4", "ex2_5", "ex2_6"])
    def test_array_path_agrees_with_scalar(self, name):
        # the scalar reference is the closed form of each builtin_psis() gauge:
        # the unit density integrates to I(v) = v, the density 2s to I(v) = v^2
        closed_forms = {
            "ex2_1": lambda u1, u2, u3, u4: u1 - max(u2, u3, u4) / 2,
            "ex2_2": lambda u1, u2, u3, u4: u1 - 0.5 * min(u2, u3, u4),
            "ex2_3": lambda u1, u2, u3, u4: u1 - (u2 + u3 + u4) / 4,
            "ex2_4": lambda u1, u2, u3, u4: u1 - 0.5 * u2 - min(u3, u4),
            "ex2_5": lambda u1, u2, u3, u4: (1 - u1) - 0.5 * max(1 - u2, 1 - u3, 1 - u4),
            "ex2_6": lambda u1, u2, u3, u4: (1 - u1) ** 2 - max(
                (1 - u2) ** 2, (1 - u3) ** 2, (1 - u4) ** 2) / 2,
        }
        rng = np.random.default_rng(7)
        u = rng.uniform(0.0, 1.0, size=(4, 16))
        batch = psi_eval_on_arrays(builtin_psis()[name], *u)
        single = np.array([closed_forms[name](*map(float, col)) for col in u.T])
        assert np.allclose(batch, single, atol=1e-9)

    def test_array_path_broadcasts(self):
        psi = make_psi("ex2_2", k=0.5)
        out = psi_eval_on_arrays(
            psi, np.linspace(0, 1, 5)[:, None], 0.5, 0.5, np.linspace(0, 1, 3)[None, :]
        )
        assert out.shape == (5, 3)

    @given(u1=unit, u2=unit, u3=unit, u4=unit)
    def test_ex2_2_closed_form(self, u1, u2, u3, u4):
        psi = make_psi("ex2_2", k=0.5)
        want = u1 - 0.5 * min(u2, u3, u4)
        assert psi_eval_on_arrays(psi, u1, u2, u3, u4) == pytest.approx(want, abs=1e-12)


class TestConditionVerifier:
    @pytest.mark.parametrize("name", ["ex2_1", "ex2_2", "ex2_3", "ex2_4", "ex2_5", "ex2_6"])
    def test_monotonicity_holds_for_every_builtin(self, name):
        report = verify_psi(builtin_psis()[name], grid_n=11)
        assert named(report["conditions"], "psi1")["status"] == "holds"

    @pytest.mark.parametrize("name", ["ex2_1", "ex2_2", "ex2_3", "ex2_4", "ex2_5", "ex2_6"])
    def test_as_printed_implications_are_vacuous(self, name):
        report = verify_psi(builtin_psis()[name], grid_n=11)
        assert report["variant"] == "as_printed"
        for cond in ("psi2", "psi3", "psi4"):
            assert named(report["conditions"], cond)["status"] == "holds-vacuously"
        assert report["passed"]

    def test_strict_variant_fails_with_witness(self):
        report = verify_psi(make_psi("ex2_2", k=0.5), variant="strict")
        check = named(report["conditions"], "psi3")
        assert check["status"] == "fails"
        assert check["witness"] == {"u": 0.05, "value": 0.05}
        assert not report["passed"]

    @pytest.mark.parametrize("name", ["ex2_1", "ex2_2", "ex2_3", "ex2_4", "ex2_5", "ex2_6"])
    def test_strict_variant_fails_for_every_builtin(self, name):
        report = verify_psi(builtin_psis()[name], variant="strict", grid_n=11)
        for cond in ("psi2", "psi3", "psi4"):
            check = named(report["conditions"], cond)
            assert check["status"] == "fails"
            assert check["witness"] is not None
            assert check["witness"]["u"] > 0.0

    def test_wrongly_declared_orientation_fails_psi1(self):
        psi = make_psi(
            "custom", evaluator=lambda u1, u2, u3, u4: u1 - u2, u1_direction="decreasing"
        )
        report = verify_psi(psi, grid_n=7)
        check = named(report["conditions"], "psi1")
        assert check["status"] == "fails"
        assert check["witness"]["value_hi"] > check["witness"]["value_lo"]

    def test_custom_gauge_without_array_evaluator(self):
        # a plain function on arrays, with no wrapper around it
        psi = make_psi("custom", evaluator=lambda u1, u2, u3, u4: u1 - u2)
        report = verify_psi(psi, grid_n=5)
        assert named(report["conditions"], "psi1")["status"] == "holds"

    def test_unknown_variant_rejected(self):
        with pytest.raises(InputError):
            verify_psi(make_psi("ex2_2", k=0.5), variant="loose")

    def test_tiny_grid_rejected(self):
        with pytest.raises(InputError):
            verify_psi(make_psi("ex2_2", k=0.5), grid_n=2)

    def test_report_dict_shape(self):
        doc = verify_psi(make_psi("ex2_2", k=0.5))
        assert doc["example_id"] == "ex2_2"
        assert doc["variant"] == "as_printed"
        assert doc["passed"] is True
        assert [c["name"] for c in doc["conditions"]] == ["psi1", "psi2", "psi3", "psi4"]


def full_grid_psi1(psi, grid_n: int) -> tuple:
    """The psi1 sweep over one grid^4 meshgrid: the reference for the
    slab-by-slab sweep."""
    grid = np.linspace(0.0, 1.0, grid_n)
    u = np.meshgrid(grid, grid, grid, grid, indexing="ij")
    vals = psi_eval_on_arrays(psi, *u)
    sign = 1.0 if psi.u1_direction == "increasing" else -1.0
    diffs = np.diff(vals, axis=0)
    bad = np.flatnonzero((sign * diffs).ravel() < -1e-12)
    witness = None
    if bad.size:
        j, i2, i3, i4 = np.unravel_index(int(bad[0]), diffs.shape)
        witness = {"u1_lo": float(grid[j]), "u1_hi": float(grid[j + 1]),
                   "u2": float(grid[i2]), "u3": float(grid[i3]), "u4": float(grid[i4]),
                   "value_lo": float(vals[j, i2, i3, i4]),
                   "value_hi": float(vals[j + 1, i2, i3, i4])}
    return vals, witness, int(diffs.size)


class TestStreamedPsi1Sweep:
    @pytest.mark.parametrize("name", ["ex2_5", "ex2_6"])
    def test_integral_slabs_reproduce_full_grid_bytes(self, name):
        # every slab spans the full grid in u2..u4, so the batched quadrature
        # sees the same knots and returns the same values as one grid^4 call,
        # whether u1..u4 come as meshgrid cubes or as a scalar and three views
        psi = builtin_psis()[name]
        grid = np.linspace(0.0, 1.0, 9)
        full, _, _ = full_grid_psi1(psi, 9)
        u2, u3, u4 = np.meshgrid(grid, grid, grid, indexing="ij")
        for j, u1 in enumerate(grid):
            slab = psi_eval_on_arrays(psi, np.full_like(u2, u1), u2, u3, u4)
            assert slab.tobytes() == full[j].tobytes()
            views = psi_eval_on_arrays(psi, u1, grid[:, None, None], grid[None, :, None],
                                       grid[None, None, :])
            assert views.tobytes() == full[j].tobytes()

    @pytest.mark.parametrize("psi", [
        builtin_psis()["ex2_5"],
        builtin_psis()["ex2_6"],
        make_psi("ex2_2", k=0.5),
        make_psi("custom", evaluator=lambda u1, u2, u3, u4: u1 - u2,
                 u1_direction="decreasing"),
        make_psi("custom", evaluator=lambda u1, u2, u3, u4: abs(u1 - u3) - u4),
    ], ids=["ex2_5", "ex2_6", "ex2_2", "wrong-orientation", "kinked"])
    def test_sweep_matches_full_grid_reference(self, psi):
        _, witness, samples = full_grid_psi1(psi, 7)
        check = named(verify_psi(psi, grid_n=7)["conditions"], "psi1")
        assert check["witness"] == witness
        assert check["samples"] == samples
        assert check["status"] == ("holds" if witness is None else "fails")


ORACLE_PSIS = dict(
    builtin_psis(),
    **{"ex2_3-expr": make_psi("ex2_3", delta3=expr_function(
          parse("max(u1, max(u2, u3)) * 0.9"), ("u1", "u2", "u3"))),
       "ex2_6-sqrt": make_psi("ex2_6", delta=lambda u: 0.9 * u,
                              density=Density(lambda s: s ** 0.5 + 1.0)),
       # a gauge that ignores u3 and u4 returns a (grid, grid, 1) slab, which
       # psi_eval_on_arrays broadcasts
       "custom-increasing": make_psi("custom",
                                     evaluator=lambda u1, u2, u3, u4: u1 - 0.5 * u2),
       "custom-decreasing": make_psi("custom", evaluator=lambda u1, u2, u3, u4: u2 - u1 * u3,
                                     u1_direction="decreasing"),
       "custom-wrong-direction": make_psi("custom", evaluator=lambda u1, u2, u3, u4: u1 - u4,
                                          u1_direction="decreasing")})


class TestBroadcastPsi1Sweep:
    """The broadcast psi1 sweep reports exactly what the meshgrid sweep does."""

    @pytest.mark.parametrize("grid_n", [5, 12])
    @pytest.mark.parametrize("variant", ["as_printed", "strict"])
    @pytest.mark.parametrize("name", sorted(ORACLE_PSIS))
    def test_reports_equal_the_meshgrid_sweep(self, name, variant, grid_n):
        psi = ORACLE_PSIS[name]
        assert verify_psi(psi, variant, grid_n) == meshgrid_verify_psi(psi, variant, grid_n)

    def test_non_finite_value_names_the_same_point(self):
        psi = make_psi("custom", evaluator=_nan_above_half)
        with pytest.raises(NumericalError) as want:
            meshgrid_verify_psi(psi, "as_printed", 6)
        with pytest.raises(NumericalError) as got:
            verify_psi(psi, "as_printed", 6)
        assert str(got.value) == str(want.value)


def _nan_above_half(u1, u2, u3, u4):
    return np.where(np.asarray(u2) > 0.5, np.nan, u1)


def _offset_delta(u):
    # below the identity at every positive grid point; only delta(0) is off
    return u / 2 + 1e-3


class TestGaugeDomain:
    def test_ex2_1_rejects_nonzero_delta_at_zero(self):
        with pytest.raises(InputError, match="vanish at 0"):
            make_psi("ex2_1", delta=_offset_delta)

    def test_delta_outside_its_domain_is_an_input_error(self):
        # the gauge check runs the path the scans use, and names the gauge
        # (valid below u = 0.5, undefined above it)
        delta = expr_function(parse("u / 2 + 0 * sqrt(0.5 - u)"), ("u",))
        with pytest.raises(InputError, match="ex2_1 delta gauge cannot be evaluated"):
            make_psi("ex2_1", delta=delta)

    def test_ex2_6_rejects_nonzero_delta_at_zero(self):
        with pytest.raises(InputError, match="vanish at 0"):
            make_psi("ex2_6", delta=_offset_delta, density=Density(lambda s: 1.0))

    def test_non_finite_value_is_a_numerical_error(self):
        psi = make_psi("custom", evaluator=_nan_above_half)
        with pytest.raises(NumericalError, match="not finite"):
            verify_psi(psi, grid_n=5)
        with pytest.raises(NumericalError):
            psi_eval_on_arrays(psi, 0.2, np.array([0.1, 0.9]), 0.0, 0.0)
