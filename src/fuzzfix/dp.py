"""Functional-equation solver for two intertwined dynamic programs.

The two state processes share one bounded state interval W and one finite
decision grid D.  Four Bellman-type operators act on value functions over W:

    (U1 r)(x) = max_{y in D} { q(x, y) + L1(x, y, r(tau(x, y))) }
    (U2 r)(x) = max_{y in D} { q(x, y) + L2(x, y, r(tau(x, y))) }
    (V1 p)(x) = max_{y in D} { q(x, y) + N1(x, y, p(tau(x, y))) }
    (V2 p)(x) = max_{y in D} { q(x, y) + N2(x, y, p(tau(x, y))) }

Each payoff is bounded by Lambda and Lipschitz in its value argument with a
declared constant beta < 1, which makes every operator a sup-metric
contraction with factor beta; both facts are spot-verified on samples at
construction time, and q, tau or a payoff that cannot be evaluated on those
samples is named in the InputError.  Value functions live on the carrier
grid with linear interpolation in between, maxima over D are exact, and
iteration residuals must respect the geometric envelope beta^k * r0.

The Bellman kernel is built once per problem: the q table and, for every
tau(x, y), its left knot and offset on the state grid.  A sweep gathers
v(tau) from them with np.interp's arithmetic, so it evaluates neither q nor
tau again.  Operators that share one payoff are solved once.  Each solution
carries the a-posteriori bound beta/(1 - beta) * r_final on its distance to
the true fixed point, and two solutions agree when their gap is within the
sum of their bounds plus the agreement tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ._parallel import map_concat
from .errors import InputError, NumericalError
from .expr import EvalError, expr_function, on_check_grid, parse, variables
from .metric import Carrier

Array = np.ndarray

OPERATORS = ("U1", "U2", "V1", "V2")

_PAYOFF_NAMES = {"U1": "L1", "U2": "L2", "V1": "N1", "V2": "N2"}
_BOUND_SAMPLES = 7
# the iteration tolerance (sup metric) and budget a solve takes by default
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 500
# states per block of a Bellman sweep: keeps the sweep's temporaries small
_ROW_BLOCK = 256


@dataclass(frozen=True)
class DPProblem:
    """One pair of intertwined dynamic programs on a shared state interval.

    q, tau take (x, y); the four payoffs take (x, y, z) where z is the value
    of the continuation state.  All callables must accept numpy arrays."""

    w: Carrier
    decisions: tuple[float, ...]
    q: Callable[[Array, Array], Array]
    l1: Callable[[Array, Array, Array], Array]
    l2: Callable[[Array, Array, Array], Array]
    n1: Callable[[Array, Array, Array], Array]
    n2: Callable[[Array, Array, Array], Array]
    tau: Callable[[Array, Array], Array]
    lam: float
    beta: float

    def __post_init__(self):
        if not self.decisions:
            raise InputError("decision grid must be nonempty")
        if any(not math.isfinite(d) for d in self.decisions):
            raise InputError(f"decision grid must be finite: {self.decisions}")
        if not math.isfinite(self.lam) or self.lam <= 0.0:
            raise InputError(f"payoff bound must be positive and finite, got {self.lam}")
        if not 0.0 <= self.beta < 1.0:
            raise InputError(f"contraction factor must lie in [0,1), got {self.beta}")

        x, y = self._sample_xy()
        qv = on_check_grid("q", self.q, x, y)
        if not np.all(np.isfinite(qv)):
            raise InputError("q produces non-finite values on the sample grid")
        tv = on_check_grid("tau", self.tau, x, y)
        if not np.all(np.isfinite(tv)):
            raise InputError("tau produces non-finite values on the sample grid")
        if not self.w.contains(tv, tol=1e-9):
            worst = float(tv.ravel()[np.argmax(np.maximum(self.w.lo - tv, tv - self.w.hi))])
            raise InputError(f"tau leaves the state interval [{self.w.lo}, {self.w.hi}]: "
                             f"image {worst}")

        _per_payoff(self, lambda which: self._check_payoff(which, x, y))

        # The kernel: q on the full grid, and for each tau its left knot and
        # offset.  A tau below lo gets knot 0 and offset 0; one at or past hi
        # gets the last knot, whose slope in a sweep is 0.
        xs = self.w.points()
        shape = (x.size, y.size)
        tv = np.broadcast_to(tv, shape)
        knot = np.searchsorted(xs, tv, side="right")
        knot -= 1
        np.clip(knot, 0, xs.size - 1, out=knot)
        offset = xs[knot]
        np.subtract(tv, offset, out=offset)
        del tv
        np.maximum(offset, 0.0, out=offset)
        object.__setattr__(self, "_q_table", np.broadcast_to(qv, shape))
        object.__setattr__(self, "_knot", knot)
        object.__setattr__(self, "_offset", offset)

    def _check_payoff(self, which: str, x: Array, y: Array) -> None:
        payoff = self.payoff(which)
        name = _PAYOFF_NAMES[which]
        bound = self.lam / (1.0 - self.beta)
        prev = None
        for z in np.linspace(-bound, bound, _BOUND_SAMPLES):
            vals = on_check_grid(name, payoff, x, y, np.full(x.shape, float(z)))
            # a broadcast result repeats its values: reduce over each once
            vals = vals[tuple(slice(0, 1) if s == 0 else slice(None) for s in vals.strides)]
            if not np.all(np.isfinite(vals)):
                raise InputError(f"{name} produces non-finite values")
            worst = float(np.max(np.abs(vals)))
            if worst > self.lam + 1e-9:
                raise InputError(f"{name} exceeds its bound {self.lam}: "
                                 f"|value| = {worst}")
            if prev is not None:
                dz = float(z - prev[0])
                slope = float(np.max(np.abs(vals - prev[1]))) / dz
                if slope > self.beta + 1e-9:
                    raise InputError(
                        f"{name} violates the declared contraction factor "
                        f"{self.beta}: sampled difference quotient {slope}")
            prev = (float(z), vals)

    def _sample_xy(self) -> tuple[Array, Array]:
        xs = self.w.points()
        ys = np.asarray(self.decisions, dtype=float)
        return xs[:, None], ys[None, :]

    def payoff(self, which: str) -> Callable[[Array, Array, Array], Array]:
        try:
            return {"U1": self.l1, "U2": self.l2, "V1": self.n1, "V2": self.n2}[which]
        except KeyError:
            raise InputError(f"operator must be one of {OPERATORS}, got {which!r}") from None


def _per_payoff(prob: DPProblem, fn: Callable[[str], object]) -> dict:
    """{operator: fn(operator)}, calling fn once per distinct payoff callable.

    Operators are visited in OPERATORS order, so fn sees the first operator
    of each payoff, and an error names that one."""
    done: dict[int, object] = {}
    out = {}
    for which in OPERATORS:
        key = id(prob.payoff(which))
        if key not in done:
            done[key] = fn(which)
        out[which] = done[key]
    return out


def _xy_fn(tree, names: tuple[str, ...]):
    extra = variables(tree) - set(names)
    if extra:
        raise InputError(f"expression may only use {list(names)}, found {sorted(extra)}")
    return expr_function(tree, names)


def problem_from_exprs(w: Carrier, decisions: Sequence[float], q: str, l1: str,
                       l2: str, n1: str, n2: str, tau: str, lam: float,
                       beta: float) -> DPProblem:
    """Build a problem from expression strings in x, y (and z for payoffs).

    Payoffs that parse to equal trees share one callable, so the problem
    validates and solves them once."""
    q_fn = _xy_fn(parse(q), ("x", "y"))
    trees = [parse(text) for text in (l1, l2, n1, n2)]
    payoffs = {tree: _xy_fn(tree, ("x", "y", "z")) for tree in trees}
    return DPProblem(
        w=w, decisions=tuple(float(d) for d in decisions), q=q_fn,
        l1=payoffs[trees[0]], l2=payoffs[trees[1]],
        n1=payoffs[trees[2]], n2=payoffs[trees[3]],
        tau=_xy_fn(parse(tau), ("x", "y")), lam=lam, beta=beta)


@dataclass(frozen=True, eq=False)
class ValueFunction:
    """Piecewise-linear value function on the state grid."""

    xs: Array
    values: Array

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)
        if xs.ndim != 1 or xs.shape != values.shape or xs.size < 2:
            raise InputError("value function needs matching 1-d grids with >= 2 points")
        if not np.all(np.diff(xs) > 0.0):
            raise InputError("value function grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise InputError("value function has non-finite values")

    def __call__(self, x) -> Array:
        return np.interp(np.asarray(x, dtype=float), self.xs, self.values)


def zero_value(prob: DPProblem) -> ValueFunction:
    xs = prob.w.points()
    return ValueFunction(xs, np.zeros_like(xs))


def sup_metric(u: ValueFunction, v: ValueFunction) -> float:
    if not np.array_equal(u.xs, v.xs):
        raise InputError("sup metric needs value functions on the same grid")
    return float(np.max(np.abs(u.values - v.values)))


def apply_bellman_operator(prob: DPProblem, which: str, v: ValueFunction,
                           jobs: int = 1) -> ValueFunction:
    """One Bellman update; the maximum over the decision grid is exact.

    v(tau) is slope[knot] * offset + v[knot] on the problem's stored knots,
    the arithmetic of np.interp, so it equals v(tau(x, y)) bit for bit.  The
    states are swept in blocks of _ROW_BLOCK rows, on ``jobs`` threads; each
    state's maximum is its own, so the result is the same for any ``jobs``.
    An evaluation error is re-raised, with its type kept, under a message
    that names the operator and its payoff."""
    payoff = prob.payoff(which)
    xs = prob.w.points()
    if not np.array_equal(v.xs, xs):
        raise InputError("value function grid does not match the problem grid")
    x, y = prob._sample_xy()
    fp = v.values
    slopes = np.append(np.diff(fp) / np.diff(xs), 0.0)

    def block(lo: int, hi: int) -> Array:
        knot = prob._knot[lo:hi]
        vt = slopes[knot] * prob._offset[lo:hi] + fp[knot]
        totals = prob._q_table[lo:hi] + np.asarray(payoff(x[lo:hi], y, vt), dtype=float)
        return np.max(totals, axis=1)

    try:
        values = map_concat(xs.size, block, jobs=jobs, step=_ROW_BLOCK)
    except EvalError as exc:
        raise EvalError(f"operator {which!r} ({_PAYOFF_NAMES[which]}): {exc}") from exc
    return ValueFunction(xs, values)


@dataclass(frozen=True, eq=False)
class IterationResult:
    operator: str
    value: ValueFunction
    iterations: int
    final_residual: float
    error_bound: float  # beta/(1 - beta) * final_residual bounds |value - fixed point|
    residual_trace: tuple[float, ...]
    envelope_ok: bool
    tolerance: float

    def to_dict(self) -> dict:
        return {"operator": self.operator, "iterations": self.iterations,
                "final_residual": self.final_residual,
                "error_bound": self.error_bound,
                "residual_trace": list(self.residual_trace),
                "envelope_ok": self.envelope_ok, "tolerance": self.tolerance}


def _envelope_ok(trace: Sequence[float], beta: float, slack: float = 1e-9) -> bool:
    if not trace:
        return True
    r0 = trace[0]
    return all(r <= beta**k * r0 + slack for k, r in enumerate(trace))


def value_iterate(prob: DPProblem, which: str, init: ValueFunction | None = None,
                  tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                  jobs: int = 1) -> IterationResult:
    """Iterate one operator to its fixed point within tol in sup metric.

    The residual trace must stay under the geometric envelope beta^k * r0;
    running out of iterations raises a NumericalError carrying the trace."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise InputError(f"iteration tolerance must be finite and positive, got {tol}")
    if max_iter < 1:
        raise InputError(f"max_iter must be >= 1, got {max_iter}")
    v = zero_value(prob) if init is None else init
    trace: list[float] = []
    for _ in range(max_iter):
        nxt = apply_bellman_operator(prob, which, v, jobs)
        r = sup_metric(nxt, v)
        trace.append(r)
        v = nxt
        if r < tol:
            bound = prob.beta / (1.0 - prob.beta) * r
            return IterationResult(which, v, len(trace), r, bound, tuple(trace),
                                   _envelope_ok(trace, prob.beta), tol)
    raise NumericalError(
        f"operator {which} did not converge to {tol} within {max_iter} "
        f"iterations; last residual {trace[-1]}", trace=tuple(trace))


@dataclass(frozen=True, eq=False)
class SystemReport:
    """Joint solve of all four operators from the zero function."""

    results: dict
    pairwise_gaps: dict
    cross_residuals: dict
    common_solution: bool
    agreement_tol: float

    @property
    def representative(self) -> ValueFunction:
        return self.results["U1"].value

    def to_dict(self) -> dict:
        return {"results": {k: r.to_dict() for k, r in self.results.items()},
                "pairwise_gaps": self.pairwise_gaps,
                "cross_residuals": self.cross_residuals,
                "common_solution": self.common_solution,
                "agreement_tol": self.agreement_tol}


def solve_system(prob: DPProblem, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER, jobs: int = 1) -> SystemReport:
    """Solve all four fixed-point equations and compare the solutions.

    Operators that share one payoff callable are solved once, and the others
    get a relabelled copy of that result.  A common solution is certified
    when every pairwise sup distance is within the two solutions' error
    bounds plus 2*tol; cross residuals measure how far the representative
    solution (from U1) is from being fixed under each operator."""
    solved = _per_payoff(prob, lambda which: value_iterate(
        prob, which, tol=tol, max_iter=max_iter, jobs=jobs))
    results = {which: replace(r, operator=which) for which, r in solved.items()}
    agreement_tol = 2.0 * tol
    gaps = {}
    common = True
    for i, p in enumerate(OPERATORS):
        for s in OPERATORS[i + 1:]:
            gap = sup_metric(results[p].value, results[s].value)
            gaps[f"{p}-{s}"] = gap
            common &= gap <= (results[p].error_bound + results[s].error_bound
                              + agreement_tol)
    rep = results["U1"].value
    cross = _per_payoff(prob, lambda which: sup_metric(
        apply_bellman_operator(prob, which, rep, jobs), rep))
    return SystemReport(results, gaps, cross, common, agreement_tol)
