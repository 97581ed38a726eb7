"""Bellman operators, value iteration, and the four-equation solve."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fuzzfix import (
    Carrier,
    DPProblem,
    EvalError,
    InputError,
    NumericalError,
    OPERATORS,
    ValueFunction,
    apply_bellman_operator,
    problem_from_exprs,
    solve_system,
    sup_metric,
    value_iterate,
    zero_value,
)
from fuzzfix.expr import expr_function, parse


def make_problem(**overrides) -> DPProblem:
    kwargs = dict(
        w=Carrier(0.0, 1.0, 201),
        decisions=[i / 10 for i in range(11)],
        q="x * y",
        l1="z / 2",
        l2="z / 2",
        n1="z / 2",
        n2="z / 2",
        tau="x * y",
        lam=1.0,
        beta=0.5,
    )
    kwargs.update(overrides)
    return problem_from_exprs(**kwargs)


class TestProblemValidation:
    def test_operators_tuple(self):
        assert OPERATORS == ("U1", "U2", "V1", "V2")

    def test_empty_decisions_rejected(self):
        with pytest.raises(InputError):
            make_problem(decisions=[])

    @pytest.mark.parametrize("beta", [1.0, 1.5, -0.1])
    def test_discount_range(self, beta):
        with pytest.raises(InputError):
            make_problem(beta=beta)

    def test_payoff_scale_must_be_positive(self):
        with pytest.raises(InputError):
            make_problem(lam=0.0)

    def test_transition_must_stay_in_state_space(self):
        with pytest.raises(InputError):
            make_problem(tau="x * y + 0.5")

    def test_payoff_exceeding_bound_rejected(self):
        # |z| reaches 2 on the induced value range while the cap is 1
        with pytest.raises(InputError) as info:
            make_problem(l1="z")
        assert "exceeds its bound" in str(info.value)

    def test_payoff_slope_above_discount_rejected(self):
        # clamped-linear payoff stays bounded but has slope 0.9 > beta
        with pytest.raises(InputError) as info:
            make_problem(n2="max(min(z, 0.6), 0 - 0.6)")
        assert "slope" in str(info.value).lower() or "quotient" in str(info.value).lower()

    # z / 2 and its kin come back as broadcast views; the check reduces over
    # their distinct values and must report what the full arrays give
    @pytest.mark.parametrize("payoff", ["z", "0.9 * z", "max(min(z, 0.6), 0 - 0.6)",
                                        "0.45 * z + 0.6 * x", "0.45 * z + 0.6 * y"])
    def test_payoff_messages_match_the_full_arrays(self, payoff):
        fn = expr_function(parse(payoff), ("x", "y", "z"))

        def full(x, y, z):
            shape = np.broadcast_shapes(x.shape, y.shape, z.shape)
            return np.array(np.broadcast_to(fn(x, y, z), shape))

        messages = []
        for l1 in (fn, full):
            with pytest.raises(InputError) as info:
                dataclasses.replace(make_problem(), l1=l1)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("overrides,name", [
        (dict(q="x * y + 0 / (x - 0.5)"), "q"),
        (dict(tau="x * y + 0 / (x - 0.5)"), "tau"),
        (dict(l1="z / 2 + 0 / (x - 0.5)"), "L1"),
        (dict(n2="z / 2 + 0 / (x - 0.5)"), "N2"),
    ])
    def test_unevaluable_component_is_named(self, overrides, name):
        with pytest.raises(InputError, match=f"^{name} cannot be evaluated on its check "
                                             f"grid: division by zero$"):
            make_problem(**overrides)

    def test_non_finite_q_rejected(self, control_problem):
        with pytest.raises(InputError):
            DPProblem(
                w=control_problem.w,
                decisions=control_problem.decisions,
                q=lambda x, y: np.full(np.broadcast(x, y).shape, np.inf),
                l1=control_problem.l1,
                l2=control_problem.l2,
                n1=control_problem.n1,
                n2=control_problem.n2,
                tau=control_problem.tau,
                lam=1.0,
                beta=0.5,
            )


class TestValueFunctions:
    def test_interpolation(self, control_problem):
        xs = control_problem.w.points()
        v = ValueFunction(xs, 2 * xs)
        assert v(0.3) == pytest.approx(0.6, abs=1e-12)
        assert np.allclose(v(np.array([0.0, 0.1234, 1.0])), [0.0, 0.2468, 2.0])

    def test_zero_value(self, control_problem):
        assert np.all(zero_value(control_problem).values == 0.0)

    def test_grid_must_increase(self):
        with pytest.raises(InputError):
            ValueFunction(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(4))

    def test_values_must_be_finite(self):
        with pytest.raises(InputError):
            ValueFunction(np.array([0.0, 1.0]), np.array([0.0, np.nan]))

    def test_sup_metric_requires_identical_grids(self, control_problem):
        u = zero_value(control_problem)
        v = ValueFunction(np.linspace(0.0, 1.0, 11), np.zeros(11))
        with pytest.raises(InputError):
            sup_metric(u, v)

    def test_sup_metric_value(self, control_problem):
        xs = control_problem.w.points()
        u = ValueFunction(xs, 2 * xs)
        v = ValueFunction(xs, xs)
        assert sup_metric(u, v) == pytest.approx(1.0)


class TestBellmanOperator:
    def test_zero_input_returns_best_immediate_payoff(self, control_problem):
        out = apply_bellman_operator(control_problem, "U1", zero_value(control_problem))
        assert np.allclose(out.values, control_problem.w.points(), atol=1e-12)

    def test_linear_growth_step(self, control_problem):
        xs = control_problem.w.points()
        out = apply_bellman_operator(control_problem, "U1", ValueFunction(xs, xs))
        assert np.allclose(out.values, 1.5 * control_problem.w.points(), atol=1e-12)

    def test_solution_is_fixed(self, control_problem):
        xs = control_problem.w.points()
        v = ValueFunction(xs, 2 * xs)
        out = apply_bellman_operator(control_problem, "U1", v)
        assert sup_metric(out, v) == pytest.approx(0.0, abs=1e-12)

    def test_maximum_over_decisions_is_exact(self):
        prob = make_problem(q="y * (1 - y) + 0 * x", decisions=[0.0, 0.37, 1.0])
        out = apply_bellman_operator(prob, "U1", zero_value(prob))
        assert np.allclose(out.values, 0.37 * 0.63, atol=1e-12)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_evaluation_error_names_operator_and_payoff(self, jobs):
        # the build check samples z at seven values that miss 0.5; the second
        # sweep reaches z = tau(0.5, 1.0) = 0.5
        prob = make_problem(n1="z / 2 + 0 / (z - 0.5)")
        with pytest.raises(EvalError) as info:
            value_iterate(prob, "V1", jobs=jobs)
        assert str(info.value) == "operator 'V1' (N1): division by zero"
        assert isinstance(info.value.__cause__, EvalError)

    def test_unknown_operator_rejected(self, control_problem):
        with pytest.raises(InputError):
            apply_bellman_operator(control_problem, "W1", zero_value(control_problem))

    def test_mismatched_grid_rejected(self, control_problem):
        v = ValueFunction(np.linspace(0.0, 1.0, 11), np.zeros(11))
        with pytest.raises(InputError):
            apply_bellman_operator(control_problem, "U1", v)

    def test_contraction_in_sup_metric(self, control_problem):
        rng = np.random.default_rng(11)
        xs = control_problem.w.points()
        for _ in range(10):
            u = ValueFunction(xs, rng.uniform(-2.0, 2.0, xs.size))
            v = ValueFunction(xs, rng.uniform(-2.0, 2.0, xs.size))
            tu = apply_bellman_operator(control_problem, "U1", u)
            tv = apply_bellman_operator(control_problem, "U1", v)
            assert sup_metric(tu, tv) <= control_problem.beta * sup_metric(u, v) + 1e-12


def reference_bellman(prob: DPProblem, which: str, v: ValueFunction) -> np.ndarray:
    """The Bellman update written out: q + payoff(x, y, v(tau)), max over y."""
    x = prob.w.points()[:, None]
    y = np.asarray(prob.decisions, dtype=float)[None, :]
    tv = np.asarray(prob.tau(x, y), dtype=float)
    totals = np.asarray(prob.q(x, y), dtype=float) + np.asarray(
        prob.payoff(which)(x, y, v(tv)), dtype=float)
    return np.max(totals, axis=1)


class TestKernelParity:
    """The precomputed kernel gives np.interp's bits, not just its values."""

    @pytest.mark.parametrize("overrides,jobs", [
        # tau on knots and on both endpoints
        (dict(decisions=[0.0, 1.0]), 1),
        # tau past hi and below lo by less than the 1e-9 allowance
        (dict(tau="x * y * (1 + 1e-10)"), 1),
        (dict(tau="x * y - 1e-10"), 1),
        # several row blocks, the last one partial, on one thread and on two
        (dict(w=Carrier(-1.0, 2.0, 601), tau="max(min(x * y + y / 3, 2), 0 - 1)",
              q="exp(0 - x) * y - y^2"), 1),
        (dict(w=Carrier(-1.0, 2.0, 601), tau="max(min(x * y + y / 3, 2), 0 - 1)",
              q="exp(0 - x) * y - y^2"), 2),
        # tau depends on x only
        (dict(tau="x / 2 + 0 * y"), 1),
        # more states than uint16 can index: the knots are uint32
        (dict(w=Carrier(0.0, 1.0, 70001), decisions=[0.0, 0.5, 1.0],
              tau="x * y + (1 - x) * (1 - y) / 3"), 1),
    ], ids=["endpoints", "past-hi", "below-lo", "blocks", "blocks-jobs2", "x-only",
            "uint32-knots"])
    def test_matches_the_interp_reference(self, overrides, jobs):
        prob = make_problem(**overrides)
        xs = prob.w.points()
        rng = np.random.default_rng(3)
        values = [np.zeros_like(xs), 2.0 * xs, np.sin(7.0 * xs) + xs**2,
                  rng.uniform(-2.0, 2.0, xs.size)]
        for fp in values:
            v = ValueFunction(xs, fp)
            for which in OPERATORS:
                got = apply_bellman_operator(prob, which, v, jobs).values
                assert np.array_equal(got, reference_bellman(prob, which, v))

    @pytest.mark.parametrize("grid_n,dtype", [(201, np.uint8), (2001, np.uint16),
                                              (65536, np.uint16), (70001, np.uint32)])
    def test_knots_take_the_smallest_unsigned_type(self, grid_n, dtype):
        prob = make_problem(w=Carrier(0.0, 1.0, grid_n), decisions=[0.0, 1.0])
        assert prob._knot.dtype == dtype
        assert prob._knot.max() == grid_n - 1

    def test_each_problem_and_thread_has_its_scratch(self):
        # two problems with different decision grids, swept in turn on two
        # threads, each give the reference's bits
        probs = [make_problem(w=Carrier(0.0, 1.0, 1201), decisions=[i / 4 for i in range(5)]),
                 make_problem(w=Carrier(0.0, 1.0, 1201))]
        xs = probs[0].w.points()
        v = ValueFunction(xs, np.cos(5.0 * xs))
        for _ in range(2):
            for prob in probs:
                got = apply_bellman_operator(prob, "U1", v, jobs=2).values
                assert np.array_equal(got, reference_bellman(prob, "U1", v))

    def test_library_callables_of_any_shape(self):
        # q returns a scalar and tau an (n, 1) column: both broadcast
        xs = Carrier(0.0, 1.0, 301).points()
        prob = DPProblem(
            w=Carrier(0.0, 1.0, 301), decisions=(0.0, 0.5, 1.0),
            q=lambda x, y: 0.25, l1=lambda x, y, z: z / 4 + y / 4,
            l2=lambda x, y, z: z / 3, n1=lambda x, y, z: z / 2,
            n2=lambda x, y, z: z / 2, tau=lambda x, y: x**2, lam=1.0, beta=0.5)
        v = ValueFunction(xs, np.cos(3.0 * xs))
        for which in OPERATORS:
            got = apply_bellman_operator(prob, which, v).values
            assert np.array_equal(got, reference_bellman(prob, which, v))


def _library_problem(tau) -> DPProblem:
    def half(x, y, z):
        return z / 2

    return DPProblem(w=Carrier(0.0, 1.0, 2001), decisions=(0.0, 0.5, 1.0),
                     q=lambda x, y: x * y, l1=half, l2=half, n1=half, n2=half, tau=tau,
                     lam=1.0, beta=0.5)


class TestKernelMessages:
    """tau is built a block of states at a time, yet its errors name what
    fails first on the whole grid, as one evaluation of it would."""

    @pytest.mark.parametrize("tau,message", [
        # the first failing block (x up to 0.38) has a minimum of its own,
        # about -0.08, and the first overflowing one a largest argument 767.5
        ("x * y + 0 * sqrt(0.3 - x)", "tau cannot be evaluated on its check grid: "
         "sqrt of negative -0.7"),
        ("x * y + 0 * exp(1000 * x)", "tau cannot be evaluated on its check grid: "
         "exp overflow at 1000.0"),
        # the block holding x = 0.5 fails only its division; the grid fails
        # the square root first
        ("x * y + 0 * sqrt(0.8 - x) + 0 / (x - 0.5)", "tau cannot be evaluated on its "
         "check grid: sqrt of negative -0.19999999999999996"),
        # leaves W first near x = 0.62, furthest at x = 1 in the last block
        ("x * y * (1 + x)", "tau leaves the state interval [0.0, 1.0]: image 2.0"),
    ], ids=["sqrt", "exp", "first-node", "worst-image"])
    def test_expression_errors_name_the_whole_grid(self, tau, message):
        with pytest.raises(InputError) as info:
            make_problem(w=Carrier(0.0, 1.0, 2001), tau=tau)
        assert str(info.value) == message

    @pytest.mark.parametrize("tau", [
        lambda x, y: np.where(x > 0.95, np.nan, x * y),
        # the first block leaves W; a later one is not finite, which the
        # whole grid names first
        lambda x, y: np.where(x > 0.9, np.inf, np.where(x < 0.1, x * y - 0.5, x * y)),
    ], ids=["nan", "inf-after-range"])
    def test_non_finite_library_tau(self, tau):
        with pytest.raises(InputError) as info:
            _library_problem(tau)
        assert str(info.value) == "tau produces non-finite values on the sample grid"

    def test_first_worst_image_over_the_grid(self):
        # lo - 0.25 in the first block and hi + 0.25 in the last are equally
        # far out; the first in C order is named
        def tau(x, y):
            return np.where(x < 0.05, x * y - 0.25, np.where(x > 0.95, x * y + 0.25, x * y))
        with pytest.raises(InputError) as info:
            _library_problem(tau)
        assert str(info.value) == "tau leaves the state interval [0.0, 1.0]: image -0.25"


class TestKernelMemory:
    """The kernel of the 2001 x 201 problem the dp-solve benchmark solves."""

    @pytest.fixture
    def bench_problem(self):
        return lambda: make_problem(w=Carrier(0.0, 1.0, 2001),
                                    decisions=[j / 200 for j in range(201)],
                                    q="2.0 * x * y", tau="x * y")

    def test_build_peaks_under_9_5_mib(self, bench_problem):
        # q (3.1 MiB), uint16 knots (0.8 MiB), offsets (3.1 MiB) and one
        # block of temporaries; int64 knots would add 2.3 MiB, a full-grid
        # tau array 3.1 MiB
        bench_problem()
        tracemalloc.start()
        try:
            bench_problem()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9.5 * 2**20

    def test_a_warm_sweep_allocates_about_one_block(self, bench_problem):
        # one payoff result of 256 x 201 floats (0.39 MiB) per block
        prob = bench_problem()
        xs = prob.w.points()
        v = ValueFunction(xs, 2.0 * xs)
        apply_bellman_operator(prob, "U1", v)
        tracemalloc.start()
        try:
            apply_bellman_operator(prob, "U1", v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * 2**20


class Counted:
    """A callable that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


class TestConstantsEvaluatedOnce:
    @pytest.fixture
    def counted(self):
        q = Counted(lambda x, y: x * y)
        tau = Counted(lambda x, y: x * y)
        payoff = Counted(lambda x, y, z: z / 2)
        prob = DPProblem(
            w=Carrier(0.0, 1.0, 201), decisions=tuple(i / 10 for i in range(11)),
            q=q, l1=payoff, l2=payoff, n1=payoff, n2=payoff, tau=tau,
            lam=1.0, beta=0.5)
        return prob, q, tau, payoff

    def test_sweeps_do_not_evaluate_q_or_tau(self, counted):
        prob, q, tau, _ = counted
        built = (q.calls, tau.calls)
        xs = prob.w.points()
        one = value_iterate(prob, "U1", init=ValueFunction(xs, 2 * xs))
        assert one.iterations == 1
        with pytest.raises(NumericalError) as info:
            value_iterate(prob, "U1", tol=1e-15, max_iter=30)
        assert len(info.value.trace) == 30
        assert (q.calls, tau.calls) == built

    def test_one_payoff_is_validated_and_solved_once(self, counted):
        prob, _, _, payoff = counted
        # one validation pass over the 7 sampled continuation values
        assert payoff.calls == 7
        report = solve_system(prob)
        # 201 states are one row block: one payoff call per sweep, and one
        # sweep for the shared cross residual
        assert payoff.calls == 7 + report.results["U1"].iterations + 1
        assert report.common_solution


class TestValueIteration:
    def test_converges_to_known_solution(self, control_problem):
        result = value_iterate(control_problem, "U1")
        want = 2.0 * control_problem.w.points()
        assert float(np.max(np.abs(result.value.values - want))) < 1e-6
        assert result.iterations == 28
        assert result.final_residual < 1e-8
        assert result.envelope_ok

    def test_residuals_halve_exactly(self, control_problem):
        trace = value_iterate(control_problem, "U1").residual_trace
        assert trace[0] == pytest.approx(1.0, abs=1e-12)
        ratios = [trace[k + 1] / trace[k] for k in range(len(trace) - 1)]
        assert ratios == pytest.approx([0.5] * len(ratios), abs=1e-9)

    def test_start_at_solution_stops_immediately(self, control_problem):
        xs = control_problem.w.points()
        result = value_iterate(control_problem, "U1", init=ValueFunction(xs, 2 * xs))
        assert result.iterations == 1
        assert result.final_residual == pytest.approx(0.0, abs=1e-12)

    def test_zero_payoff_converges_in_two_sweeps(self):
        prob = make_problem(l1="0 * z")
        result = value_iterate(prob, "U1")
        assert result.iterations == 2
        assert np.allclose(result.value.values, prob.w.points(), atol=1e-12)

    def test_all_operators_converge(self, control_problem):
        for which in OPERATORS:
            result = value_iterate(control_problem, which)
            assert result.operator == which
            assert result.final_residual < 1e-8

    def test_exhausted_budget_raises_with_trace(self, control_problem):
        with pytest.raises(NumericalError) as info:
            value_iterate(control_problem, "U1", tol=1e-15, max_iter=3)
        assert info.value.trace is not None
        assert len(info.value.trace) == 3

    @pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"max_iter": 0}])
    def test_parameters_validated(self, control_problem, kwargs):
        with pytest.raises(InputError):
            value_iterate(control_problem, "U1", **kwargs)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan")])
    def test_non_finite_tolerance_rejected(self, control_problem, tol):
        with pytest.raises(InputError, match="finite and positive"):
            value_iterate(control_problem, "U1", tol=tol)


class TestSystemSolve:
    def test_identical_payoffs_share_one_solution(self, control_problem):
        report = solve_system(control_problem)
        assert report.common_solution
        assert set(report.pairwise_gaps) == {
            "U1-U2", "U1-V1", "U1-V2", "U2-V1", "U2-V2", "V1-V2"
        }
        for gap in report.pairwise_gaps.values():
            assert gap == 0.0
        for residual in report.cross_residuals.values():
            assert residual < 1e-8
        want = 2.0 * control_problem.w.points()
        assert float(np.max(np.abs(report.representative.values - want))) < 1e-6

    def test_diverging_payoffs_are_flagged(self):
        # second-program payoff z/4 + 0.3 solves to 4x/3 + 0.4, not 2x
        prob = make_problem(n1="z / 4 + 0.3")
        report = solve_system(prob)
        assert not report.common_solution
        assert report.pairwise_gaps["U1-V1"] == pytest.approx(0.4, abs=1e-6)
        assert report.cross_residuals["V1"] > report.agreement_tol

    def test_error_bound_is_the_a_posteriori_bound(self, control_problem):
        report = solve_system(control_problem)
        for which, result in report.results.items():
            beta = control_problem.beta
            assert result.error_bound == beta / (1.0 - beta) * result.final_residual
            assert result.to_dict()["error_bound"] == result.error_bound

    def test_agreement_within_the_error_bounds(self):
        # four clipped beta = 0.9 operators with the common fixed point v = 1:
        # the slow pair stops further from it than 2 * tol
        prob = make_problem(
            q="0", tau="x", beta=0.9,
            l1="max(min(0.9*z + 0.1, 1), -1)", n1="max(min(0.9*z + 0.1, 1), -1)",
            l2="max(min(0.5*z + 0.5, 1), -1)", n2="max(min(0.5*z + 0.5, 1), -1)")
        report = solve_system(prob)
        gap = report.pairwise_gaps["U1-U2"]
        assert gap > report.agreement_tol
        bounds = report.results["U1"].error_bound + report.results["U2"].error_bound
        assert gap <= bounds + report.agreement_tol
        assert report.common_solution
        for result in report.results.values():
            assert float(np.max(np.abs(result.value.values - 1.0))) <= result.error_bound

    def test_shared_and_equal_payoffs_report_the_same(self, control_problem):
        def build(payoffs):
            return DPProblem(
                w=control_problem.w, decisions=control_problem.decisions,
                q=control_problem.q, l1=payoffs[0], l2=payoffs[1],
                n1=payoffs[2], n2=payoffs[3], tau=control_problem.tau,
                lam=1.0, beta=0.5)

        def halve(x, y, z):
            return z / 2

        one = solve_system(build([halve] * 4)).to_dict()
        four = solve_system(build([lambda x, y, z: z / 2 for _ in range(4)])).to_dict()
        assert one == four
        assert [r["operator"] for r in one["results"].values()] == list(OPERATORS)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_worker_count_below_one_rejected(self, control_problem, jobs):
        with pytest.raises(InputError, match=f"jobs must be >= 1, got {jobs}"):
            solve_system(control_problem, jobs=jobs)

    def test_equal_payoff_expressions_share_one_callable(self):
        prob = make_problem(l1="z / 2", l2="z/2", n1="(z) / 2", n2="z / 3")
        assert prob.l1 is prob.l2 is prob.n1
        assert prob.n2 is not prob.l1

    @pytest.mark.parametrize("overrides,name", [
        (dict(l2="z", n2="z"), "L2"),
        (dict(n2="z"), "N2"),
    ])
    def test_validation_names_the_first_failing_payoff(self, overrides, name):
        with pytest.raises(InputError) as info:
            make_problem(**overrides)
        assert str(info.value).startswith(f"{name} exceeds its bound")

    def test_stability_under_grid_refinement(self):
        coarse = make_problem()
        fine = make_problem(w=Carrier(0.0, 1.0, 401))
        u_coarse = value_iterate(coarse, "U1").value
        u_fine = value_iterate(fine, "U1").value
        xs = coarse.w.points()
        assert float(np.max(np.abs(u_coarse(xs) - u_fine(xs)))) < 1e-7
