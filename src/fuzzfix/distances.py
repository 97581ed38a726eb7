"""Altering distances and the densities that generate them.

An altering distance is a strictly decreasing continuous gauge
phi: [0,1] -> [0,1] with phi(lambda) = 0 iff lambda = 1.  Besides the builtin
linear gauge phi(s) = 1 - s, any admissible density phi_dens on [0,1] induces
one by

    phi(s) = integral of phi_dens over [0, 1-s],

computed here by adaptive Simpson quadrature.  Admissible ("class Phi") means
the mass near 0 is positive: integral over [0, eps] > 0 for every eps > 0,
checked on the grid eps in {1e-3, 1e-2, 1e-1, 1}.  Densities with total mass
above 1 are rescaled so the gauge lands in [0,1]; the scale is recorded.

Batch evaluation (``on_array``) is array-first: the linear and expression
gauges run as NumPy expressions, integral gauges through one batched
cumulative quadrature, and only scalar-only library callables are looped over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, NumericalError
from .expr import ArrayFunction, EvalError, array_fn

PHI_CLASS_GRID = (1e-3, 1e-2, 1e-1, 1.0)
PHI_CLASS_THRESHOLD = 1e-14

_MAX_DEPTH = 40


@dataclass(frozen=True)
class Density:
    """Nonnegative integrand on [0,1]; spot-checked at construction."""

    evaluator: Callable[[float], float]
    description: str = ""

    def __post_init__(self):
        for x in np.linspace(0.0, 1.0, 33):
            v = float(self.evaluator(float(x)))
            if not math.isfinite(v) or v < 0.0:
                raise InputError(
                    f"density must be finite and nonnegative, got {v} at x={float(x)}"
                )


def _simpson(f, a: float, fa: float, b: float, fb: float) -> tuple[float, float, float]:
    c = 0.5 * (a + b)
    fc = float(f(c))
    return c, fc, (b - a) / 6.0 * (fa + 4.0 * fc + fb)


def _adaptive(f, a, fa, b, fb, whole, c, fc, tol, depth) -> float:
    lm, flm, left = _simpson(f, a, fa, c, fc)
    rm, frm, right = _simpson(f, c, fc, b, fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth >= _MAX_DEPTH:
        raise NumericalError(
            f"quadrature did not converge on [{a}, {b}] at depth {_MAX_DEPTH}"
        )
    return (
        _adaptive(f, a, fa, c, fc, left, lm, flm, tol / 2.0, depth + 1)
        + _adaptive(f, c, fc, b, fb, right, rm, frm, tol / 2.0, depth + 1)
    )


def integrate_density(density: Density, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive-Simpson integral of the density over [a, b] within tol."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise InputError(f"integration bounds must lie in [0,1], got [{a}, {b}]")
    if a > b:
        raise InputError(f"integration bounds out of order: {a} > {b}")
    if not tol > 0.0:
        raise InputError(f"quadrature tolerance must be positive, got {tol}")
    if a == b:
        return 0.0
    f = density.evaluator
    fa, fb = float(f(a)), float(f(b))
    c, fc, whole = _simpson(f, a, fa, b, fb)
    return _adaptive(f, a, fa, b, fb, whole, c, fc, tol, 0)


def cumulative_integrals(
    density: Density, uppers, tol: float = 1e-10
) -> np.ndarray:
    """Integrals from 0 to each requested upper bound, batched.

    Sorts the unique bounds, integrates each gap once at a proportionally
    tightened tolerance, and accumulates, so k bounds cost k segment
    quadratures instead of k full ones.
    """
    uppers = np.asarray(uppers, dtype=float)
    if uppers.size == 0:
        return np.zeros(0)
    if np.any(uppers < 0.0) or np.any(uppers > 1.0):
        raise InputError("cumulative integral bounds must lie in [0,1]")
    knots = np.unique(uppers)
    seg_tol = tol / max(knots.size, 1)
    totals = np.empty(knots.size)
    acc = 0.0
    prev = 0.0
    for i, u in enumerate(knots):
        acc += integrate_density(density, prev, float(u), seg_tol)
        totals[i] = acc
        prev = float(u)
    return totals[np.searchsorted(knots, uppers)]


@dataclass(frozen=True)
class AlteringDistance:
    """Gauge phi with its provenance and its mass normalization scale (1.0
    unless an integral gauge was rescaled)."""

    evaluator: Callable[[float], float]
    provenance: str  # "builtin_linear" | "integral" | "custom"
    scale: float = 1.0

    def __call__(self, s: float) -> float:
        return float(self.on_array(s))

    def on_array(self, s) -> np.ndarray:
        return np.asarray(array_fn(self.evaluator)(np.asarray(s, dtype=float)), dtype=float)


def is_phi_class(density: Density, tol: float = 1e-10) -> bool:
    """True iff the density has positive mass on [0, eps] for every grid eps."""
    return all(
        integrate_density(density, 0.0, eps, tol) > PHI_CLASS_THRESHOLD
        for eps in PHI_CLASS_GRID
    )


def make_integral_altering(density: Density, tol: float = 1e-10) -> AlteringDistance:
    """Gauge phi(s) = scale * integral of the density over [0, 1-s].

    Requires the class-Phi mass condition; densities with total mass above 1
    are rescaled by 1/mass so the gauge maps into [0,1].
    """
    if not is_phi_class(density, tol):
        raise InputError(
            f"density {density.description!r} fails the positive-mass check on "
            f"eps grid {PHI_CLASS_GRID}"
        )
    mass = integrate_density(density, 0.0, 1.0, tol)
    scale = 1.0 / mass if mass > 1.0 else 1.0
    return AlteringDistance(
        ArrayFunction(lambda s: scale * cumulative_integrals(density, 1.0 - s, tol)),
        "integral", scale)


def builtin_altering(kind: str) -> AlteringDistance:
    if kind == "linear":
        return AlteringDistance(ArrayFunction(lambda s: 1.0 - s), "builtin_linear")
    raise InputError(f"unknown altering distance kind {kind!r}; expected 'linear'")


@dataclass(frozen=True)
class GaugeCheck:
    name: str
    status: str  # "pass" | "fail"
    witness: dict | None

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "witness": self.witness}


@dataclass(frozen=True)
class AlteringReport:
    checks: tuple[GaugeCheck, ...]
    grid_n: int

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "grid_n": self.grid_n,
            "checks": [c.to_dict() for c in self.checks],
        }


def verify_altering(candidate: Callable[[float], float], grid_n: int = 101) -> AlteringReport:
    """Check (ad1) strict decrease on consecutive grid points and (ad2)
    phi(1) = 0 within 1e-12 with phi positive elsewhere on the grid.  A
    non-finite value raises, since every comparison with NaN is false."""
    if grid_n < 3:
        raise InputError(f"verification grid must have at least 3 points, got {grid_n}")
    grid = np.linspace(0.0, 1.0, grid_n)
    vals = np.asarray(array_fn(candidate)(grid), dtype=float)
    finite = np.isfinite(vals)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InputError(f"altering distance is not finite at s = {float(grid[i])}: "
                         f"{float(vals[i])}")

    checks = []

    diffs = np.diff(vals)
    bad = np.nonzero(diffs >= 0.0)[0]
    if bad.size:
        i = int(bad[0])
        checks.append(GaugeCheck("ad1-strictly-decreasing", "fail", {
            "s_lo": float(grid[i]), "s_hi": float(grid[i + 1]),
            "value_lo": float(vals[i]), "value_hi": float(vals[i + 1])}))
    else:
        checks.append(GaugeCheck("ad1-strictly-decreasing", "pass", None))

    if abs(vals[-1]) <= 1e-12:
        checks.append(GaugeCheck("ad2-zero-at-one", "pass", None))
    else:
        checks.append(GaugeCheck("ad2-zero-at-one", "fail",
                                 {"s": 1.0, "value": float(vals[-1])}))

    interior = vals[:-1]
    bad = np.nonzero(interior <= 0.0)[0]
    if bad.size:
        i = int(bad[0])
        checks.append(GaugeCheck("ad2-positive-below-one", "fail",
                                 {"s": float(grid[i]), "value": float(vals[i])}))
    else:
        checks.append(GaugeCheck("ad2-positive-below-one", "pass", None))

    return AlteringReport(tuple(checks), grid_n)


def require_altering(phi: AlteringDistance, where: str) -> None:
    """Raise an InputError naming ``where`` unless ``phi`` passes
    ``verify_altering`` on the path the scans use (``on_array``)."""
    try:
        report = verify_altering(ArrayFunction(phi.on_array))
    except EvalError as exc:
        raise InputError(f"{where}: altering distance cannot be evaluated on "
                         f"[0,1]: {exc}") from None
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None
    if not report.passed:
        failed = [c for c in report.checks if c.status == "fail"]
        raise InputError(f"{where}: altering distance fails "
                         f"{[c.name for c in failed]}; first witness {failed[0].witness}")
