"""Quadrature and altering-distance gauge tests against closed-form integrals."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzfix import (
    AlteringDistance,
    ContractionSpec,
    Density,
    InputError,
    NumericalError,
    builtin_altering,
    cumulative_integrals,
    integrate_density,
    is_phi_class,
    make_integral_altering,
    make_psi,
    verify_altering,
)
from fuzzfix.distances import _integrate
from fuzzfix.expr import expr_function, parse

bound = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def density(source) -> Density:
    """A density from an expression in s, as a config builds it, or from a
    callable on arrays."""
    if isinstance(source, str):
        return Density(expr_function(parse(source), ("s",)), description=source)
    return Density(source)


def abs_antiderivative(u: float) -> float:
    return 0.3 * u - u * u / 2 if u <= 0.3 else 0.045 + (u - 0.3) ** 2 / 2


class TestDensity:
    def test_negative_density_rejected(self):
        with pytest.raises(InputError):
            Density(lambda s: s - 0.5)
        with pytest.raises(InputError, match=r"got -0\.5 at x=0\.0"):
            density("s - 0.5")

    def test_constant_density_broadcasts(self):
        d = Density(lambda s: 1.0)
        assert integrate_density(d, 0.0, 0.5) == pytest.approx(0.5, abs=1e-15)
        with pytest.raises(InputError, match=r"got -1\.0 at x=0\.0"):
            Density(lambda s: -1.0)

    def test_non_finite_density_rejected(self):
        with pytest.raises(InputError):
            Density(lambda s: np.where(s == 0.0, np.inf, 1.0))


class TestQuadrature:
    @pytest.mark.parametrize(
        "source,antiderivative",
        [
            (lambda s: 1.0, lambda u: u),
            (lambda s: 2.0 * s, lambda u: u * u),
            (lambda s: 3.0 * s * s, lambda u: u**3),
            (lambda s: np.exp(s), lambda u: math.exp(u) - 1.0),
            (lambda s: 1.0 / (1.0 + s), lambda u: math.log1p(u)),
            ("3*s^2", lambda u: u**3),
            ("exp(s)", math.expm1),
            # admissible, with a derivative that is singular at 0
            ("sqrt(s)", lambda u: 2.0 / 3.0 * u**1.5),
            ("abs(s - 0.3)", abs_antiderivative),
        ],
    )
    def test_matches_closed_form(self, source, antiderivative):
        d = density(source)
        for a, b in [(0.0, 1.0), (0.0, 0.3), (0.25, 0.75), (0.9, 1.0)]:
            want = antiderivative(b) - antiderivative(a)
            assert integrate_density(d, a, b) == pytest.approx(want, abs=1e-10)

    def test_empty_interval_is_zero(self):
        assert integrate_density(Density(lambda s: 5.0), 0.4, 0.4) == 0.0

    @pytest.mark.parametrize("a,b", [(-0.1, 0.5), (0.0, 1.5), (0.8, 0.2)])
    def test_bounds_validated(self, a, b):
        with pytest.raises(InputError):
            integrate_density(Density(lambda s: 1.0), a, b)

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(InputError):
            integrate_density(Density(lambda s: 1.0), 0.0, 1.0, tol=0.0)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan")])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(InputError, match="finite and positive"):
            integrate_density(Density(lambda s: 1.0), 0.0, 1.0, tol=tol)

    def test_divergent_integrand_raises_numerical_error(self):
        # the error names the segment next to the pole, where it stays largest
        spike = Density(lambda s: 1.0 / np.maximum(1.0 - s, 1e-300))
        with pytest.raises(NumericalError, match=r"remains on \[0\.99\d*, 1\.0\]"):
            integrate_density(spike, 0.0, 1.0)

    @given(a=bound, b=bound)
    def test_quadratic_density_property(self, a, b):
        lo, hi = min(a, b), max(a, b)
        got = integrate_density(Density(lambda s: 3.0 * s * s), lo, hi)
        assert got == pytest.approx(hi**3 - lo**3, abs=1e-9)


class TestCumulativeIntegrals:
    def test_matches_individual_integrals(self):
        d = Density(lambda s: 2.0 * s)
        uppers = np.array([0.9, 0.1, 0.5, 0.1, 1.0, 0.0])
        got = cumulative_integrals(d, uppers)
        want = np.array([u * u for u in uppers])
        assert np.allclose(got, want, atol=1e-9)

    def test_preserves_input_order_with_duplicates(self):
        d = Density(lambda s: 1.0)
        uppers = [0.5, 0.25, 0.5, 0.75]
        assert np.allclose(cumulative_integrals(d, uppers), uppers, atol=1e-10)

    def test_empty_input(self):
        assert cumulative_integrals(Density(lambda s: 1.0), []).shape == (0,)

    def test_out_of_range_bounds_rejected(self):
        with pytest.raises(InputError):
            cumulative_integrals(Density(lambda s: 1.0), [0.5, 1.2])

    @pytest.mark.parametrize("source, knots, antiderivative", [
        ("exp(s)", 65536, np.expm1),  # one scan chunk of phi arguments
        # the four psi arguments of a chunk at once, with mass 8: one rounding
        # per knot in the running sum would alone exceed tol
        ("8", 4 * 65536, lambda u: 8.0 * u),
    ])
    def test_chunk_sized_table_meets_tol(self, source, knots, antiderivative):
        uppers = np.random.default_rng(7).random(knots)
        got = cumulative_integrals(density(source), uppers, tol=1e-10)
        assert np.unique(uppers).size == knots
        assert np.max(np.abs(got - antiderivative(uppers))) <= 1e-10

    @given(uppers=st.lists(bound, min_size=1, max_size=12),
           source=st.sampled_from(["1 + s", "sqrt(s)", "abs(s - 0.3)", "exp(-5*s)"]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_monotone_in_upper_bound(self, uppers, source, seed):
        d = density(source)
        uppers = np.array(uppers)
        got = cumulative_integrals(d, uppers)
        order = np.argsort(uppers)
        assert np.all(np.diff(got[order]) >= 0.0)
        shuffle = np.random.default_rng(seed).permutation(uppers.size)
        assert np.array_equal(cumulative_integrals(d, uppers[shuffle]), got[shuffle])


def searchsorted_lookup(density: Density, uppers, tol: float = 1e-10) -> np.ndarray:
    """Reference table lookup: a binary search of the sorted unique bounds
    for every requested bound."""
    uppers = np.asarray(uppers, dtype=float)
    if uppers.size == 0:
        return np.zeros(0)
    knots = np.unique(uppers)
    return _integrate(density, np.r_[0.0, knots], tol)[np.searchsorted(knots, uppers)]


class TestTableLookup:
    @pytest.mark.parametrize("source", ["2*s + 0.1", "sqrt(s)", "abs(s - 0.3)", "exp(s)"])
    @pytest.mark.parametrize("distinct", [2, 37, 5000])
    def test_shuffled_duplicates_match_the_search(self, source, distinct):
        rng = np.random.default_rng(distinct)
        values = rng.random(distinct)
        uppers = rng.permutation(np.concatenate([values[rng.integers(0, distinct, 20000)],
                                                 [0.0, 1.0, 0.0, 1.0]]))
        d = density(source)
        assert np.array_equal(cumulative_integrals(d, uppers), searchsorted_lookup(d, uppers))

    def test_three_dimensional_input_keeps_its_shape(self):
        # memberships t / (t + |x - y|) of a (rows, G, T) scan block
        x = np.linspace(0.0, 1.0, 31)
        t = np.array([0.1, 0.5, 1.0, 2.0, 10.0])
        m = t / (t + np.abs(x[:7, None, None] - x[None, :, None] / 4))
        d = density("2*s + 0.1")
        got = cumulative_integrals(d, 1.0 - m)
        assert got.shape == (7, 31, 5)
        assert np.array_equal(got, searchsorted_lookup(d, 1.0 - m))

    @pytest.mark.parametrize("uppers", [0.3, [0.3], [], np.zeros(0)],
                             ids=["scalar", "one", "empty-list", "empty-array"])
    def test_single_and_empty_inputs(self, uppers):
        d = density("1 + s")
        got = cumulative_integrals(d, uppers)
        want = searchsorted_lookup(d, uppers)
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("uppers", [[-1e-300], [0.5, np.nextafter(1.0, 2.0)],
                                        [[0.2], [np.nan]], np.full((2, 3, 4), 1.5)])
    def test_out_of_range_bounds_raise(self, uppers):
        with pytest.raises(InputError, match="must lie in"):
            cumulative_integrals(density("1 + s"), uppers)


class TestRelativeTolerance:
    def test_heavy_table_needs_more_than_the_absolute_tol(self):
        # 65,536 knots of a mass-2000 table: the running sum alone rounds by
        # about 1.1e-10, so an absolute 1e-10 cannot be met
        uppers = np.random.default_rng(11).random(65536)
        with pytest.raises(NumericalError, match="did not reach tol 1e-10"):
            cumulative_integrals(density("2000 + 0*s"), uppers, tol=1e-10)

    def test_heavy_gauge_is_within_tol_after_rescaling(self):
        s = np.random.default_rng(11).random(65536)
        phi = make_integral_altering(density("2000 + 0*s"), tol=1e-10)
        assert phi(0.0) == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(phi.on_array(s) - (1.0 - s))) <= 1e-10

    def test_light_gauge_keeps_its_bits(self):
        # mass 1.1: no bisection at tol 1e-10 or at 1.1e-10, so the same table
        d = density("2*s + 0.1")
        s = np.random.default_rng(5).random(65536)
        phi = make_integral_altering(d, tol=1e-10)
        scale = 1.0 / integrate_density(d, 0.0, 1.0)
        assert np.array_equal(phi.on_array(s), scale * cumulative_integrals(d, 1.0 - s))


class TestPhiClass:
    def test_positive_density_is_phi_class(self):
        assert is_phi_class(Density(lambda s: 2.0 * s + 0.1))

    def test_vanishing_near_zero_is_not(self):
        assert not is_phi_class(Density(lambda s: np.where(s >= 0.5, s, 0.0)))

    def test_zero_density_is_not(self):
        assert not is_phi_class(Density(lambda s: 0.0))


class TestIntegralAltering:
    def test_unit_density_reproduces_linear_gauge(self):
        phi = make_integral_altering(Density(lambda s: 1.0))
        linear = builtin_altering("linear")
        for s in np.linspace(0.0, 1.0, 101):
            assert phi(float(s)) == pytest.approx(linear(float(s)), abs=1e-12)

    def test_mass_above_one_is_normalized(self):
        phi = make_integral_altering(Density(lambda s: 3.0))
        assert phi(0.0) == pytest.approx(1.0, abs=1e-10)
        assert phi(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_mass_below_one_is_not_rescaled(self):
        phi = make_integral_altering(Density(lambda s: s))
        assert phi(0.0) == pytest.approx(0.5, abs=1e-10)

    def test_non_phi_class_density_rejected(self):
        with pytest.raises(InputError):
            make_integral_altering(Density(lambda s: np.where(s >= 0.5, s, 0.0)))

    def test_sqrt_density_is_admissible(self):
        # class Phi with mass 2/3; its derivative is singular at 0
        sqrt = density("sqrt(s)")
        phi = make_integral_altering(sqrt)
        assert phi(0.0) == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert make_psi("ex2_5", a=0.5, density=sqrt).example_id == "ex2_5"
        assert make_psi("ex2_6", delta=lambda u: u / 2, density=sqrt).example_id == "ex2_6"

    def test_argument_outside_unit_interval_rejected(self):
        phi = make_integral_altering(Density(lambda s: 1.0))
        with pytest.raises(InputError):
            phi(1.5)

    def test_on_array_agrees_with_scalar_path(self):
        # the density 2s has I(v) = v^2 and mass 1, so phi(s) = (1 - s)^2
        phi = make_integral_altering(Density(lambda s: 2.0 * s))
        ss = np.linspace(0.0, 1.0, 37)
        assert np.allclose(phi.on_array(ss), (1.0 - ss) ** 2, atol=1e-9)
        assert phi(0.25) == pytest.approx(0.5625, abs=1e-9)

    def test_on_array_without_density_vectorizes_evaluator(self):
        # with no density, on_array calls the evaluator on the whole array
        phi = builtin_altering("linear")
        out = phi.on_array(np.array([0.0, 0.25, 1.0]))
        assert np.allclose(out, [1.0, 0.75, 0.0])

    def test_unknown_builtin_rejected(self):
        with pytest.raises(InputError):
            builtin_altering("quadratic")


class TestVerifyAltering:
    @pytest.mark.parametrize(
        "gauge",
        [
            lambda s: 1.0 - s,
            lambda s: (1.0 - s) ** 2,
            lambda s: 1.0 - s * s,
            lambda s: np.expm1(1.0 - s) / math.expm1(1.0),
        ],
    )
    def test_valid_gauges_pass(self, gauge):
        report = verify_altering(gauge)
        assert report["passed"]
        assert report["grid_n"] == 101

    def test_constant_fails_both_conditions(self):
        report = verify_altering(lambda s: 0.5)
        names = {c["name"]: c for c in report["checks"]}
        assert names["ad1-strictly-decreasing"]["status"] == "fail"
        assert names["ad2-zero-at-one"]["status"] == "fail"
        assert names["ad2-zero-at-one"]["witness"] == {"s": 1.0, "value": 0.5}
        assert not report["passed"]

    def test_non_monotone_gauge_fails_with_witness(self):
        report = verify_altering(lambda s: abs(s - 0.5))
        check = next(c for c in report["checks"] if c["name"] == "ad1-strictly-decreasing")
        assert check["status"] == "fail"
        assert check["witness"]["s_lo"] >= 0.5

    def test_gauge_touching_zero_early_fails_positivity(self):
        report = verify_altering(lambda s: np.maximum(0.5 - s, 0.0))
        check = next(c for c in report["checks"] if c["name"] == "ad2-positive-below-one")
        assert check["status"] == "fail"

    def test_nan_inside_interval_rejected(self):
        # NaN compares false both ways, so it must be caught before ad1/ad2
        gauge = lambda s: np.where(abs(s - 0.5) < 1e-9, np.nan, 1 - s)
        with pytest.raises(InputError, match=r"not finite at s = 0\.5"):
            verify_altering(gauge)
        with pytest.raises(InputError, match=r"^main_411 \[phi\]: .*s = 0\.5"):
            ContractionSpec("main_411", psi=make_psi("ex2_2", k=0.5),
                            phi=AlteringDistance(gauge, "custom"))

    def test_tiny_grid_rejected(self):
        with pytest.raises(InputError):
            verify_altering(lambda s: 1.0 - s, grid_n=2)

    def test_report_dict_shape(self):
        doc = verify_altering(lambda s: 1.0 - s)
        assert doc["passed"] is True
        assert {c["name"] for c in doc["checks"]} == {
            "ad1-strictly-decreasing",
            "ad2-zero-at-one",
            "ad2-positive-below-one",
        }


class TestAlteringDistanceContainer:
    def test_custom_evaluator_callable(self):
        phi = AlteringDistance(lambda s: 1.0 - s, "custom")
        assert phi(0.25) == 0.75
