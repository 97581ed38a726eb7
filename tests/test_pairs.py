"""Self-maps, coincidence search, commutation variants, tail properties."""

from __future__ import annotations

import numpy as np
import pytest

from fuzzfix import (
    COMMUTATION_VARIANTS,
    Carrier,
    FuzzyMetric,
    InputError,
    MapPair,
    MapQuadruple,
    NumericalError,
    SelfMap,
    SequenceSpec,
    TNorm,
    check_commutation_variant,
    check_property_EA,
    check_range_closed,
    check_range_containment,
    find_coincidence_points,
    selfmap_from_expr,
    sequence_from_expr,
)


@pytest.fixture
def carrier() -> Carrier:
    return Carrier(0.0, 1.0, 101)


def pair_of(fm, first: SelfMap, second: SelfMap) -> MapPair:
    return MapPair(first=first, second=second, fm=fm)


class TestSelfMap:
    def test_expression_map_evaluates(self, carrier):
        m = selfmap_from_expr(carrier, "x / 2", label="H")
        assert m(0.8) == pytest.approx(0.4)
        assert m.label == "H"

    def test_label_defaults_to_expression(self, carrier):
        assert selfmap_from_expr(carrier, "x / 2").label == "x / 2"

    def test_map_leaving_carrier_rejected(self, carrier):
        with pytest.raises(InputError):
            selfmap_from_expr(carrier, "x + 1")

    def test_map_with_wrong_variable_rejected(self, carrier):
        with pytest.raises(InputError, match=r"^expression may only use \['x'\], "
                                             r"found \['y'\]$"):
            selfmap_from_expr(carrier, "y / 2")

    def test_non_finite_map_rejected(self, carrier):
        with pytest.raises(InputError):
            SelfMap(carrier, lambda x: np.where(x > 0, x, np.nan), "bad")

    def test_unevaluable_map_is_named(self, carrier):
        with pytest.raises(InputError, match="^map 'A' cannot be evaluated on its check "
                                             "grid: division by zero$"):
            selfmap_from_expr(carrier, "x / 2 + 0 / (x - 0.5) * 0", label="A")


class TestQuadruple:
    def test_pairs_are_exposed(self, reference_quad):
        assert reference_quad.pair_af.first.label == "A"
        assert reference_quad.pair_af.second.label == "F"
        assert reference_quad.pair_bg.first.label == "B"
        assert reference_quad.pair_bg.second.label == "G"

    def test_mismatched_carrier_rejected(self, reference_fm):
        other = Carrier(0.0, 2.0, 11)
        stray = selfmap_from_expr(other, "x / 2")
        good = selfmap_from_expr(reference_fm.carrier, "x / 2")
        with pytest.raises(InputError):
            MapQuadruple(a=stray, b=good, f=good, g=good, fm=reference_fm)


class TestSequences:
    def test_tail_window(self, carrier):
        seq = sequence_from_expr("1 / n", tail_start=10, tail_len=10)
        tail = seq.tail(carrier)
        assert tail.shape == (10,)
        assert tail[0] == pytest.approx(0.1)
        assert tail[-1] == pytest.approx(1.0 / 19.0)

    def test_constant_sequence_broadcasts(self, carrier):
        tail = sequence_from_expr("0.25").tail(carrier)
        assert np.all(tail == 0.25)

    def test_tail_leaving_carrier_rejected(self, carrier):
        with pytest.raises(InputError):
            sequence_from_expr("n").tail(carrier)

    def test_wrong_variable_rejected(self):
        with pytest.raises(InputError, match=r"^expression may only use \['n'\], "
                                             r"found \['m'\]$"):
            sequence_from_expr("1 / m")

    @pytest.mark.parametrize("kwargs", [{"tail_len": 5}, {"tail_start": 0}])
    def test_window_validation(self, kwargs):
        with pytest.raises(InputError):
            SequenceSpec(lambda n: 1.0 / n, **kwargs)


class TestCoincidence:
    def test_grid_coincidence_points(self, carrier):
        result = find_coincidence_points(
            selfmap_from_expr(carrier, "x ^ 2"), selfmap_from_expr(carrier, "x")
        )
        assert not result["coincide_everywhere"]
        assert result["points"] == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_reference_pair_coincides_at_zero(self, reference_quad):
        result = find_coincidence_points(
            reference_quad.pair_af.first, reference_quad.pair_af.second
        )
        assert result["points"] == pytest.approx([0.0], abs=1e-9)

    def test_identical_maps_coincide_everywhere(self, carrier):
        f = selfmap_from_expr(carrier, "x / 2")
        result = find_coincidence_points(f, selfmap_from_expr(carrier, "x / 2"))
        assert result["coincide_everywhere"]
        assert len(result["points"]) == carrier.grid_n

    def test_off_grid_point_found_by_bisection(self, carrier):
        result = find_coincidence_points(
            selfmap_from_expr(carrier, "x ^ 2"), selfmap_from_expr(carrier, "0.5")
        )
        assert len(result["points"]) == 1
        assert result["points"][0] == pytest.approx(np.sqrt(0.5), abs=1e-9)

    def test_separated_maps_have_no_points(self, carrier):
        result = find_coincidence_points(
            selfmap_from_expr(carrier, "x / 2 + 0.25"), selfmap_from_expr(carrier, "x / 2")
        )
        assert result["points"] == []
        assert not result["coincide_everywhere"]

    def test_shared_carrier_required(self, carrier):
        with pytest.raises(InputError):
            find_coincidence_points(
                selfmap_from_expr(carrier, "x"),
                selfmap_from_expr(Carrier(0.0, 2.0, 11), "x"),
            )

    def test_positive_tolerance_required(self, carrier):
        f = selfmap_from_expr(carrier, "x")
        with pytest.raises(InputError):
            find_coincidence_points(f, f, tol=0.0)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan")])
    def test_finite_tolerance_required(self, carrier, tol):
        # tol = inf once reported every grid point as a coincidence point
        f = selfmap_from_expr(carrier, "x")
        g = selfmap_from_expr(carrier, "x / 2")
        with pytest.raises(InputError, match="finite and positive"):
            find_coincidence_points(f, g, tol=tol)


class TestCommutationVariants:
    def test_variant_tuple(self):
        assert COMMUTATION_VARIANTS == (
            "commuting",
            "weakly_commuting",
            "r_weak",
            "r_weak_Ag",
            "r_weak_Af",
            "r_weak_P",
            "weakly_compatible",
        )

    def test_commuting_linear_maps(self, reference_fm, carrier):
        pair = pair_of(
            reference_fm,
            selfmap_from_expr(carrier, "x / 2"),
            selfmap_from_expr(carrier, "x / 4"),
        )
        for variant in ("commuting", "weakly_commuting", "r_weak"):
            report = check_commutation_variant(pair, variant)
            assert report["status"] == "pass"
            assert report["worst_margin"] >= -1e-9

    def test_noncommuting_pair_fails_with_witness(self, reference_fm, carrier):
        pair = pair_of(
            reference_fm,
            selfmap_from_expr(carrier, "x ^ 2"),
            selfmap_from_expr(carrier, "x / 2"),
        )
        report = check_commutation_variant(pair, "commuting")
        assert report["status"] == "fail"
        assert report["witness"] is not None
        assert report["witness"]["margin"] < -1e-9

    def test_weakly_commuting_fails_where_maps_cross(self, reference_fm, carrier):
        # at the crossing x = 0.5 the right side is 1 but the images differ
        pair = pair_of(
            reference_fm,
            selfmap_from_expr(carrier, "x ^ 2"),
            selfmap_from_expr(carrier, "x / 2"),
        )
        report = check_commutation_variant(pair, "weakly_commuting")
        assert report["status"] == "fail"

    def test_r_weak_Ag_passes_on_reference_pair(self, reference_quad):
        report = check_commutation_variant(reference_quad.pair_af, "r_weak_Ag", r_constant=2.0)
        assert report["status"] == "pass"
        assert report["r_constant"] == 2.0

    def test_r_weak_relaxes_as_r_grows(self, reference_fm, carrier):
        # composed images stay 1/2 apart while the maps cross at x = 2/3;
        # R = 1 is violated near the crossing, a large R shrinks the right
        # side enough to hold everywhere
        pair = pair_of(
            reference_fm,
            selfmap_from_expr(carrier, "x / 2"),
            selfmap_from_expr(carrier, "1 - x"),
        )
        tight = check_commutation_variant(pair, "r_weak", r_constant=1.0)
        assert tight["status"] == "fail"
        assert tight["witness"] is not None
        loose = check_commutation_variant(pair, "r_weak", r_constant=100.0)
        assert loose["status"] == "pass"

    @pytest.mark.parametrize("r", [float("inf"), float("nan")])
    def test_r_constant_must_be_finite(self, reference_fm, carrier, r):
        # t / inf = 0 puts the right-hand side at 0, so this failing pair once
        # passed, and its report carried a non-JSON Infinity
        pair = pair_of(reference_fm, selfmap_from_expr(carrier, "x / 2"),
                       selfmap_from_expr(carrier, "1 - x"))
        with pytest.raises(InputError) as info:
            check_commutation_variant(pair, "r_weak", r_constant=r)
        assert str(info.value) == (f"r_constant of the r_weak commutation must be "
                                   f"finite and positive, got {r}")

    def test_weakly_commuting_is_r_weak_at_one(self, reference_fm, carrier):
        pair = pair_of(reference_fm, selfmap_from_expr(carrier, "x / 2"),
                       selfmap_from_expr(carrier, "1 - x"))
        plain = check_commutation_variant(pair, "weakly_commuting")
        at_one = check_commutation_variant(pair, "r_weak", r_constant=1.0)
        assert plain["r_constant"] is None and at_one["r_constant"] == 1.0
        del plain["variant"], plain["r_constant"], at_one["variant"], at_one["r_constant"]
        assert plain == at_one

    def test_weakly_compatible_at_coincidence_points(self, reference_quad):
        pair = reference_quad.pair_af
        points = find_coincidence_points(pair.first, pair.second)["points"]
        report = check_commutation_variant(pair, "weakly_compatible", points=points)
        assert report["status"] == "pass"
        assert report["samples"] == len(points) * 5

    def test_weakly_compatible_requires_points(self, reference_quad):
        with pytest.raises(InputError):
            check_commutation_variant(reference_quad.pair_af, "weakly_compatible")
        with pytest.raises(InputError):
            check_commutation_variant(
                reference_quad.pair_af, "weakly_compatible", points=()
            )

    def test_unknown_variant_rejected(self, reference_quad):
        with pytest.raises(InputError):
            check_commutation_variant(reference_quad.pair_af, "strongly_commuting")

    def test_nan_membership_is_a_numerical_error(self, carrier):
        fm = FuzzyMetric(carrier, lambda x, y, t: np.full(np.broadcast(x, y, t).shape, np.nan),
                         TNorm("product"))
        pair = pair_of(fm, selfmap_from_expr(carrier, "x / 2"), selfmap_from_expr(carrier, "x"))
        with pytest.raises(NumericalError, match="NaN"):
            check_commutation_variant(pair, "weakly_commuting")

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_r_constant_validated(self, reference_quad, r):
        with pytest.raises(InputError):
            check_commutation_variant(reference_quad.pair_af, "r_weak", r_constant=r)

    @pytest.mark.parametrize("t_grid", [(), (float("nan"),), (float("inf"),), (0.0,)],
                             ids=["empty", "nan", "inf", "zero"])
    def test_t_grid_rejected(self, reference_quad, t_grid):
        # the plans' rule: a NaN t once passed, because the standard
        # membership maps it to 0 on both sides of weakly_commuting, and an
        # infinite t raised a NaN margin instead
        with pytest.raises(InputError, match="t_grid"):
            check_commutation_variant(reference_quad.pair_af, "weakly_commuting",
                                      t_grid=t_grid)

    def test_report_dict(self, reference_quad):
        doc = check_commutation_variant(reference_quad.pair_af, "commuting")
        assert doc["variant"] == "commuting"
        assert doc["r_constant"] is None
        assert doc["status"] == "pass"  # halving commutes with the identity


class TestPropertyEA:
    def test_single_pair(self, reference_quad):
        report = check_property_EA([reference_quad.pair_af], [sequence_from_expr("1 / n")])
        assert report["status"] == "pass"
        assert not report["common"]
        assert report["limit"] == pytest.approx(0.0, abs=1e-3)

    def test_two_pairs_share_a_limit(self, reference_quad):
        seq = sequence_from_expr("1 / n", tail_start=2000)
        report = check_property_EA(
            [reference_quad.pair_af, reference_quad.pair_bg], [seq, seq]
        )
        assert report["status"] == "pass"
        assert report["common"]

    def test_disagreeing_limits_fail(self, reference_quad):
        report = check_property_EA(
            [reference_quad.pair_af, reference_quad.pair_bg],
            [sequence_from_expr("1 / n"), sequence_from_expr("0.8")],
        )
        assert report["status"] == "fail"
        assert "disagree" in report["note"]

    def test_slow_tail_fails_convergence(self, reference_quad):
        seq = sequence_from_expr("n / (n + 100)", tail_start=10, tail_len=100)
        report = check_property_EA([reference_quad.pair_af], [seq])
        assert report["status"] == "fail"
        assert "converge" in report["note"]

    def test_pair_count_validated(self, reference_quad):
        seq = sequence_from_expr("1 / n")
        with pytest.raises(InputError):
            check_property_EA([reference_quad.pair_af], [seq, seq])


class TestContainment:
    def test_reference_containment_direction(self, reference_quad):
        report = check_range_containment(reference_quad.g, reference_quad.a)
        assert report["status"] == "pass"
        assert report["inner_hull"] == [0.0, 0.0]
        assert report["outer_hull"] == [0.0, 0.5]

    def test_reverse_direction_fails(self, reference_quad):
        report = check_range_containment(reference_quad.f, reference_quad.b)
        assert report["status"] == "fail"
        assert report["witness"] is not None

    def test_shared_carrier_required(self, carrier):
        with pytest.raises(InputError):
            check_range_containment(
                selfmap_from_expr(carrier, "x"),
                selfmap_from_expr(Carrier(0.0, 2.0, 11), "x"),
            )


class TestClosedness:
    def test_monotone_map_is_closed(self, reference_quad):
        report = check_range_closed(reference_quad.a)
        assert report["status"] == "closed"
        assert report["hull"] == [0.0, 0.5]

    def test_unimodal_map_is_closed(self, carrier):
        report = check_range_closed(selfmap_from_expr(carrier, "x * (1 - x)"))
        assert report["status"] == "closed"
        assert report["sign_changes"] == 1

    def test_wild_oscillation_is_not_verifiable(self, carrier):
        wiggle = SelfMap(carrier, lambda x: 0.5 + 0.4 * np.sin(200.0 * x), "wiggle")
        report = check_range_closed(wiggle)
        assert report["status"] == "not-verifiable"
        assert report["sign_changes"] > 16
