"""Fuzzy-metric construction and axiom verification."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import named
from scan_oracles import flat_gather_axioms

from fuzzfix import metric
from fuzzfix import (
    Carrier,
    EvalError,
    FuzzyMetric,
    InputError,
    NumericalError,
    SamplingPlan,
    TNorm,
    standard_fuzzy_metric,
    verify_fm_axioms,
)
from fuzzfix._parallel import CHUNK
from fuzzfix.expr import eval_on_arrays, parse

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

CHECK_NAMES = ("FM-1", "FM-2-forward", "FM-2-reverse", "FM-3", "FM-4", "FM-5", "t-monotone")


def constant_membership(carrier: Carrier, value: float) -> FuzzyMetric:
    return FuzzyMetric(
        carrier,
        lambda x, y, t: np.full(np.broadcast(x, y, t).shape, value),
        TNorm("product"),
    )


class TestTNorms:
    @pytest.mark.parametrize("kind", ["minimum", "product", "lukasiewicz"])
    @given(a=unit, b=unit)
    def test_commutative(self, kind, a, b):
        tn = TNorm(kind)
        assert tn.on_arrays(a, b) == tn.on_arrays(b, a)

    @pytest.mark.parametrize("kind", ["minimum", "product", "lukasiewicz"])
    @given(a=unit, b=unit, c=unit)
    def test_associative(self, kind, a, b, c):
        tn = TNorm(kind)
        left = tn.on_arrays(tn.on_arrays(a, b), c)
        right = tn.on_arrays(a, tn.on_arrays(b, c))
        assert left == pytest.approx(right, abs=1e-15)

    @pytest.mark.parametrize("kind", ["minimum", "product", "lukasiewicz"])
    @given(a=unit, b=unit, c=unit)
    def test_monotone(self, kind, a, b, c):
        tn = TNorm(kind)
        lo, hi = min(b, c), max(b, c)
        assert tn.on_arrays(a, lo) <= tn.on_arrays(a, hi) + 1e-15

    @pytest.mark.parametrize("kind", ["minimum", "product", "lukasiewicz"])
    @given(a=unit)
    def test_identity_exact(self, kind, a):
        assert TNorm(kind).on_arrays(a, 1.0) == a

    def test_lukasiewicz_identity_is_exact_at_awkward_floats(self):
        # 0.1 + 1.0 - 1.0 != 0.1 in floats; the identity law must still be exact
        assert TNorm("lukasiewicz").on_arrays(0.1, 1.0) == 0.1

    def test_known_values(self):
        assert TNorm("minimum").on_arrays(0.3, 0.7) == 0.3
        assert TNorm("product").on_arrays(0.5, 0.5) == 0.25
        assert TNorm("lukasiewicz").on_arrays(0.5, 0.3) == 0.0
        assert TNorm("lukasiewicz").on_arrays(0.8, 0.7) == pytest.approx(0.5)

    @pytest.mark.parametrize("kind,closed_form", [
        ("minimum", np.minimum),
        ("product", np.multiply),
        ("lukasiewicz", lambda a, b: np.maximum(a + b - 1.0, 0.0)),
    ])
    def test_on_arrays_broadcasts(self, kind, closed_form):
        tn = TNorm(kind)
        a = np.linspace(0.0, 1.0, 5)[:, None]
        b = np.linspace(0.0, 1.0, 3)[None, :]
        out = tn.on_arrays(a, b)
        assert out.shape == (5, 3)
        np.testing.assert_allclose(out, closed_form(a, b), rtol=0.0, atol=1e-15)
        # the identity law is exact on either side, 0.1 included
        xs = np.array([0.0, 0.1, 0.3, 0.7, 1.0])
        assert np.array_equal(tn.on_arrays(xs, 1.0), xs)
        assert np.array_equal(tn.on_arrays(1.0, xs[:, None]), xs[:, None])

    @pytest.mark.parametrize("kind", ["drastic", "custom"])
    def test_unknown_kind_refused_where_built(self, kind):
        # the class itself refuses it, before any call of on_arrays
        with pytest.raises(InputError, match=f"unknown t-norm kind '{kind}'"):
            TNorm(kind)


class TestCarrier:
    def test_points_and_spacing(self):
        c = Carrier(0.0, 1.0, 11)
        assert c.spacing == pytest.approx(0.1)
        assert np.allclose(c.points(), np.linspace(0.0, 1.0, 11))
        assert c.points(5).shape == (5,)

    def test_contains(self):
        c = Carrier(0.0, 1.0, 11)
        assert c.contains(0.5)
        assert c.contains([0.0, 1.0])
        assert not c.contains(1.1)

    @pytest.mark.parametrize("lo,hi,n", [(1.0, 0.0, 11), (0.0, 0.0, 11), (0.0, 1.0, 1)])
    def test_validation(self, lo, hi, n):
        with pytest.raises(InputError):
            Carrier(lo, hi, n)


class TestStandardMetric:
    def test_known_values(self, reference_fm):
        assert reference_fm.value(0.0, 1.0, 1.0) == pytest.approx(0.5)
        assert reference_fm.value(0.0, 0.5, 1.0) == pytest.approx(2.0 / 3.0)
        assert reference_fm.value(0.3, 0.3, 0.7) == 1.0
        assert reference_fm.value(0.0, 1.0, 0.0) == 0.0

    def test_membership_is_the_masked_formula_bit_for_bit(self, reference_fm):
        def masked(x, y, t):
            d = np.abs(x - y)
            return np.where(t > 0.0, t / np.where(t > 0.0, t + d, 1.0), 0.0)

        rng = np.random.default_rng(5)
        x, y = rng.random(300), rng.random(300)
        t = np.where(np.arange(300) % 3 == 0, 0.0, 4.0 * rng.random(300))
        mixed = reference_fm.membership(x, y, t)
        zero = t == 0.0
        assert np.all(mixed[zero] == 0.0)
        assert mixed[~zero].tobytes() == (t / (t + np.abs(x - y)))[~zero].tobytes()
        # every t positive, broadcast the way a scan block is
        bx, by, bt = x[:20, None, None], y[None, :30, None], t[None, None, ~zero][..., :7]
        positive = reference_fm.membership(bx, by, bt)
        assert positive.shape == (20, 30, 7)
        assert positive.tobytes() == masked(bx, by, bt).tobytes()
        assert reference_fm.value(0.3, 0.7, 0.0) == 0.0

    def test_negative_distance_rejected(self, unit_carrier):
        with pytest.raises(InputError):
            standard_fuzzy_metric(lambda x, y: x - y, TNorm("product"), unit_carrier)

    def test_asymmetric_distance_rejected(self, unit_carrier):
        with pytest.raises(InputError):
            standard_fuzzy_metric(
                lambda x, y: np.abs(x - y) * (1 + x), TNorm("product"), unit_carrier
            )

    def test_nonzero_diagonal_rejected(self, unit_carrier):
        with pytest.raises(InputError):
            standard_fuzzy_metric(
                lambda x, y: np.abs(x - y) + 0.1, TNorm("product"), unit_carrier
            )

    def test_unevaluable_distance_is_named(self, unit_carrier):
        dist = parse("abs(x - y) / (x - 0.5) * (x - 0.5)")
        with pytest.raises(InputError, match="^crisp metric cannot be evaluated on its "
                                             "check grid: division by zero$"):
            standard_fuzzy_metric(lambda x, y: eval_on_arrays(dist, x=x, y=y),
                                  TNorm("product"), unit_carrier)


class TestAxiomVerifier:
    def test_reference_metric_passes_all_checks(self, reference_fm):
        report = verify_fm_axioms(reference_fm, SamplingPlan())
        assert report["passed"]
        assert tuple(c["name"] for c in report["checks"]) == CHECK_NAMES
        for c in report["checks"]:
            assert c["witness"] is None
            assert c["samples"] > 0

    @pytest.mark.parametrize("kind", ["minimum", "lukasiewicz"])
    def test_triangle_holds_under_weaker_tnorms(self, unit_carrier, kind):
        # product-triangle implies the lukasiewicz one; minimum holds for
        # the standard membership as well
        fm = standard_fuzzy_metric(
            lambda x, y: np.abs(x - y), TNorm(kind), unit_carrier
        )
        report = verify_fm_axioms(fm, SamplingPlan(grid_n=13, n_random=200))
        assert named(report["checks"], "FM-4")["status"] == "pass"

    def test_nan_membership_is_a_numerical_error(self, unit_carrier):
        # NaN compares false against every tolerance, so it must not pass a check
        fm = constant_membership(unit_carrier, np.nan)
        with pytest.raises(NumericalError, match="NaN"):
            verify_fm_axioms(fm, SamplingPlan(grid_n=5, n_random=10))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_evaluation_errors_name_their_check(self, unit_carrier, jobs):
        # t / t divides by zero only at FM-1's t = 0
        tree = parse("t / (t + abs(x - y)) * (t / t)")
        fm = FuzzyMetric(unit_carrier, lambda x, y, t: eval_on_arrays(tree, x=x, y=y, t=t),
                         TNorm("product"))
        with pytest.raises(EvalError) as info:
            verify_fm_axioms(fm, SamplingPlan(grid_n=5, n_random=10, jobs=jobs))
        assert str(info.value) == "check 'FM-1': division by zero"
        assert isinstance(info.value.__cause__, EvalError)

    def test_constant_membership_fails_fm2_forward(self, unit_carrier):
        report = verify_fm_axioms(constant_membership(unit_carrier, 0.5), SamplingPlan())
        check = named(report["checks"], "FM-2-forward")
        assert check["status"] == "fail"
        assert check["witness"] is not None
        assert check["witness"]["value"] == pytest.approx(0.5)
        assert not report["passed"]

    def test_constant_membership_fails_fm1(self, unit_carrier):
        report = verify_fm_axioms(constant_membership(unit_carrier, 0.5), SamplingPlan())
        check = named(report["checks"], "FM-1")
        assert check["status"] == "fail"
        assert check["witness"]["t"] == 0.0

    def test_constant_one_fails_fm2_reverse(self, unit_carrier):
        report = verify_fm_axioms(constant_membership(unit_carrier, 1.0), SamplingPlan())
        check = named(report["checks"], "FM-2-reverse")
        assert check["status"] == "fail"
        assert check["witness"]["x"] != check["witness"]["y"]

    def test_asymmetric_membership_fails_fm3(self, unit_carrier):
        fm = FuzzyMetric(
            unit_carrier,
            lambda x, y, t: np.where(
                t > 0, t / np.where(t > 0, t + np.maximum(x - y, 0.0), 1.0), 0.0
            ),
            TNorm("product"),
        )
        report = verify_fm_axioms(fm, SamplingPlan(n_random=100))
        check = named(report["checks"], "FM-3")
        assert check["status"] == "fail"
        assert check["witness"] is not None

    def test_decreasing_in_t_fails_monotonicity(self, unit_carrier):
        fm = FuzzyMetric(
            unit_carrier,
            lambda x, y, t: np.where(t > 0, 1.0 / (1.0 + t * (1.0 + np.abs(x - y))), 0.0),
            TNorm("product"),
        )
        report = verify_fm_axioms(fm, SamplingPlan(n_random=100))
        assert named(report["checks"], "t-monotone")["status"] == "fail"

    def test_triangle_failure_has_full_witness(self, unit_carrier):
        # sub-additive in t with a steep cliff: M(x,z,t+s) can drop below
        # the product of the one-leg values
        fm = FuzzyMetric(
            unit_carrier,
            lambda x, y, t: np.where(
                t > 0, np.exp(-np.abs(x - y) * (1.0 + 1.0 / np.maximum(t, 1e-9))), 0.0
            ),
            TNorm("minimum"),
        )
        report = verify_fm_axioms(fm, SamplingPlan(grid_n=9, n_random=100))
        check = named(report["checks"], "FM-4")
        if check["status"] == "fail":
            for key in ("x", "y", "z", "t", "s", "margin"):
                assert key in check["witness"]

    def test_report_dict_round_trip(self, reference_fm):
        doc = verify_fm_axioms(reference_fm, SamplingPlan(grid_n=7, n_random=50))
        assert doc["passed"] is True
        assert [c["name"] for c in doc["checks"]] == list(CHECK_NAMES)

    def test_deterministic_across_jobs(self, reference_fm):
        one = verify_fm_axioms(reference_fm, SamplingPlan(jobs=1))
        four = verify_fm_axioms(reference_fm, SamplingPlan(jobs=4))
        assert one == four

    def test_seed_changes_random_samples_not_verdict(self, reference_fm):
        a = verify_fm_axioms(reference_fm, SamplingPlan(seed=0))
        b = verify_fm_axioms(reference_fm, SamplingPlan(seed=1))
        assert a["passed"] and b["passed"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_n": 1},
            {"t_grid": ()},
            {"t_grid": (0.0, 1.0)},
            {"t_grid": (-1.0,)},
            {"t_grid": (1.0, math.nan)},
            {"n_random": -1},
            {"jobs": 0},
            {"seed": -1},
        ],
    )
    def test_plan_validation(self, kwargs):
        with pytest.raises(InputError):
            SamplingPlan(**kwargs)


def _masked(x, y, t):
    # t / (t + |x - y|), and 0 at t = 0
    return np.where(t > 0, t / np.where(t > 0, t + np.abs(x - y), 1.0), 0.0)


def _expression(text: str):
    tree = parse(text)
    return lambda x, y, t: eval_on_arrays(tree, x=x, y=y, t=t)


# the memberships of TestAxiomVerifier, an expression and a jump in t
MEMBERSHIPS = {
    "standard": lambda x, y, t: _masked(x, y, t),
    "expression": _expression("t / (t + abs(x - y) + 0.001)"),
    "constant": lambda x, y, t: np.full(np.broadcast(x, y, t).shape, 0.5),
    "constant-one": lambda x, y, t: np.full(np.broadcast(x, y, t).shape, 1.0),
    "asymmetric": lambda x, y, t: np.where(
        t > 0, t / np.where(t > 0, t + np.maximum(x - y, 0.0), 1.0), 0.0),
    "decreasing-in-t": lambda x, y, t: np.where(
        t > 0, 1.0 / (1.0 + t * (1.0 + np.abs(x - y))), 0.0),
    "triangle-failure": lambda x, y, t: np.where(
        t > 0, np.exp(-np.abs(x - y) * (1.0 + 1.0 / np.maximum(t, 1e-9))), 0.0),
    "jump-in-t": lambda x, y, t: np.where(t > 1.0000005, 1.0, 0.5) * _masked(x, y, t),
}

TNORMS = {kind: TNorm(kind) for kind in ("minimum", "product", "lukasiewicz")}


class _HamacherProduct:
    """T(a, b) = ab / (a + b - ab), a t-norm outside TNORM_KINDS: the scans
    call nothing of a t-norm but its on_arrays."""

    def on_arrays(self, a, b):
        return a * b / np.maximum(a + b - a * b, 1e-300)


TNORMS["custom"] = _HamacherProduct()


class TestRowBlockScans:
    """The row-block scans report exactly what the flat-gather scans do."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("tnorm", sorted(TNORMS))
    @pytest.mark.parametrize("name", sorted(MEMBERSHIPS))
    def test_reports_equal_the_flat_gather_scans(self, unit_carrier, name, tnorm, jobs):
        fm = FuzzyMetric(unit_carrier, MEMBERSHIPS[name], TNORMS[tnorm])
        plan = SamplingPlan(grid_n=7, t_grid=(2.0, 0.5, 1.0), n_random=60, seed=3, jobs=jobs)
        assert verify_fm_axioms(fm, plan) == flat_gather_axioms(fm, plan)

    # the shapes where slicing only the coordinates that span the row axis
    # could go wrong: empty and one-row random segments, a single time
    # (no t-monotone check) and a two-point grid
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("tnorm", sorted(TNORMS))
    @pytest.mark.parametrize("name", sorted(MEMBERSHIPS))
    @pytest.mark.parametrize("shape", [
        {"n_random": 0}, {"n_random": 1}, {"t_grid": (0.5,)}, {"grid_n": 2}],
        ids=["no-random", "one-random", "one-t", "grid-2"])
    def test_edge_shapes_equal_the_flat_gather_scans(self, unit_carrier, shape, name,
                                                     tnorm, jobs):
        fm = FuzzyMetric(unit_carrier, MEMBERSHIPS[name], TNORMS[tnorm])
        plan = SamplingPlan(**{"grid_n": 7, "t_grid": (2.0, 0.5, 1.0), "n_random": 60,
                               "seed": 3, "jobs": jobs, **shape})
        assert verify_fm_axioms(fm, plan) == flat_gather_axioms(fm, plan)

    def test_every_check_kind_fails_somewhere(self, unit_carrier):
        # the comparisons above cover a failing witness of every check
        failed = set()
        for tnorm in ("minimum", "product"):
            for membership in MEMBERSHIPS.values():
                report = verify_fm_axioms(FuzzyMetric(unit_carrier, membership, TNORMS[tnorm]),
                                          SamplingPlan(grid_n=7, t_grid=(2.0, 0.5, 1.0),
                                                       n_random=60, seed=3))
                failed |= {c["name"] for c in report["checks"] if c["status"] == "fail"}
        assert failed == set(CHECK_NAMES)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_nan_raises_at_the_same_sample(self, unit_carrier, jobs):
        # NaN only where t + s > 4.5: the first NaN margin is inside FM-4's grid
        fm = FuzzyMetric(unit_carrier, lambda x, y, t: np.where(t > 4.5, np.nan, _masked(x, y, t)),
                         TNorm("product"))
        plan = SamplingPlan(grid_n=6, n_random=20, jobs=jobs)
        with pytest.raises(NumericalError) as want:
            flat_gather_axioms(fm, plan)
        with pytest.raises(NumericalError) as got:
            verify_fm_axioms(fm, plan)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("name", ["standard", "triangle-failure"])
    def test_fm4_row_larger_than_a_chunk(self, unit_carrier, name):
        # 52^2 * 25 = 67,600 samples per x-row: each chunk is one whole row
        assert 52 * 52 * 25 > CHUNK
        fm = FuzzyMetric(unit_carrier, MEMBERSHIPS[name], TNorm("minimum"))
        plan = SamplingPlan(grid_n=52, n_random=200, jobs=2)
        assert verify_fm_axioms(fm, plan) == flat_gather_axioms(fm, plan)

    @pytest.mark.parametrize("grid_n", [9, 52])
    def test_fm4_evaluates_m_yzs_once_per_scan(self, unit_carrier, monkeypatch, grid_n):
        calls = []

        def membership(x, y, t):
            calls.append(np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t)))
            return _masked(x, y, t)

        run_check = metric._run_check

        def logged(name, *args):
            calls.append(f"{name} start")
            check = run_check(name, *args)
            calls.append(f"{name} end")
            return check

        monkeypatch.setattr(metric, "_run_check", logged)
        fm = FuzzyMetric(unit_carrier, membership, TNorm("product"))
        plan = SamplingPlan(grid_n=grid_n, n_random=40)
        assert verify_fm_axioms(fm, plan)["passed"]
        g, nt = grid_n, len(plan.t_grid)
        setup = calls[calls.index("FM-3 end") + 1:calls.index("FM-4 start")]
        scan = calls[calls.index("FM-4 start") + 1:calls.index("FM-4 end")]
        # the M(y,z,s) table, then M(x,z,t+s) and M(x,y,t) per block of rows
        assert setup == [(g, g, nt)]
        grid_calls = [s for s in scan if len(s) == 5]
        assert sum(int(np.prod(s)) for s in grid_calls) == g * g * nt * nt + g * g * nt
        assert all(s[1] == 1 or s[2] == 1 for s in grid_calls)
        assert [s for s in scan if len(s) != 5] == [(plan.n_random,)] * 3
