"""Altering distances and the densities that generate them.

An altering distance is a strictly decreasing continuous gauge
phi: [0,1] -> [0,1] with phi(lambda) = 0 iff lambda = 1.  Besides the builtin
linear gauge phi(s) = 1 - s, any admissible density phi_dens on [0,1] induces
one by

    phi(s) = integral of phi_dens over [0, 1-s],

computed here by vectorised G7/K15 Gauss-Kronrod quadrature with global
bisection by error (QUADPACK's qk15).  Admissible ("class Phi") means the
mass near 0 is positive: integral over [0, eps] > 0 for every eps > 0,
checked on the grid eps in {1e-3, 1e-2, 1e-1, 1}.  Densities with total mass
above 1 are rescaled by 1/mass so the gauge lands in [0,1].

Batch evaluation (``on_array``) is array-first, as every callable is (see
``expr``): the linear and expression gauges run as NumPy expressions and
integral gauges through one batched cumulative quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvalError, InputError, NumericalError, require_positive

PHI_CLASS_GRID = (1e-3, 1e-2, 1e-1, 1.0)
PHI_CLASS_THRESHOLD = 1e-14

# Gauss-Kronrod G7/K15 on [-1, 1] (QUADPACK qk15): the nodes >= 0 with their Kronrod
# and Gauss weights (zero at the Kronrod-only nodes); the negative half mirrors them
_X = np.array([0.99145537112081264, 0.94910791234275852, 0.86486442335976907,
               0.74153118559939444, 0.58608723546769113, 0.40584515137739717,
               0.20778495500789847, 0.0])
_W_K = np.array([0.022935322010529225, 0.063092092629978553, 0.10479001032225018,
                 0.14065325971552592, 0.16900472663926790, 0.19035057806478541,
                 0.20443294007529889, 0.20948214108472783])
_W_G = np.array([0.0, 0.12948496616886969, 0.0, 0.27970539148927667, 0.0,
                 0.38183005050511894, 0.0, 0.41795918367346939])
_NODES = np.concatenate([-_X, _X[-2::-1]])
_KRONROD = np.concatenate([_W_K, _W_K[-2::-1]])
_GAUSS = np.concatenate([_W_G, _W_G[-2::-1]])

_BLOCK = 2048          # segments per density call: 30,720 nodes, 240 kB a temporary
_MAX_SPLITS = 1 << 14  # bisections one quadrature may spend beyond its gaps
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Density:
    """Nonnegative integrand on [0,1], called on arrays of nodes; spot-checked."""

    evaluator: Callable[..., np.ndarray]
    description: str = ""

    def __post_init__(self):
        xs = np.linspace(0.0, 1.0, 33)
        vals = np.broadcast_to(np.asarray(self.evaluator(xs), dtype=float), xs.shape)
        bad = ~(np.isfinite(vals) & (vals >= 0.0))
        if bad.any():
            raise InputError(f"density must be finite and nonnegative, got "
                             f"{vals[bad][0]} at x={xs[bad][0]}")


def _gk15(fn, a: np.ndarray, b: np.ndarray):
    """Kronrod value and QUADPACK's scaled error estimate on each segment
    [a_i, b_i], calling ``fn`` on _BLOCK segments at a time."""
    value, error = np.empty(a.size), np.empty(a.size)
    for lo in range(0, a.size, _BLOCK):
        s = slice(lo, lo + _BLOCK)
        half = 0.5 * (b[s] - a[s])
        x = (0.5 * (a[s] + b[s]))[:, None] + half[:, None] * _NODES
        f = np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape)
        if not np.isfinite(f).all():
            raise NumericalError(f"density is not finite at s = {x[~np.isfinite(f)][0]}")
        k = f @ _KRONROD
        value[s] = k * half
        spread = np.abs(f - 0.5 * k[:, None]) @ _KRONROD * half
        raw = np.abs(k - f @ _GAUSS) * half
        ratio = np.divide(200.0 * raw, spread, out=np.ones_like(raw), where=spread > 0.0)
        error[s] = np.maximum(spread * np.minimum(1.0, ratio) ** 1.5,
                              50.0 * _EPS * np.abs(value[s]))
    return value, error


def _integrate(density: Density, edges: np.ndarray, tol: float) -> np.ndarray:
    """Integrals of the density from edges[0] to each later sorted edge.

    Every gap gets one G7/K15 rule at once; then the segments carrying the
    largest error estimates are bisected until their sum, plus a first-order
    bound on the rounding of summing the segments, is within tol.  The running
    sum goes along rows of ``run`` gaps and then down the row totals, so an
    entry takes fewer than 2 * run roundings, not one per gap.
    """
    require_positive(tol, "quadrature tolerance")
    fn = density.evaluator
    gaps = edges.size - 1
    run = int(gaps ** 0.5) + 1  # run * run > gaps
    a, b, owner = edges[:-1], edges[1:], np.arange(gaps)
    value, error = _gk15(fn, a, b)
    while True:
        rounding = (a.size - gaps + 2 * run) * 0.5 * _EPS * np.abs(value).sum()
        excess = error.sum() + rounding - tol
        if excess <= 0.0:
            rows = np.cumsum(np.bincount(owner, weights=value, minlength=run * run)
                             .reshape(run, run), axis=1)
            rows[1:] += np.cumsum(rows[:-1, -1])[:, None]
            return rows.ravel()[:gaps]
        order = np.argsort(error)[::-1]
        worst = order[:np.searchsorted(np.cumsum(error[order]), excess) + 1]
        mid = 0.5 * (a[worst] + b[worst])
        if (a.size + worst.size > gaps + _MAX_SPLITS
                or not np.all((a[worst] < mid) & (mid < b[worst]))):
            i = order[0]
            raise NumericalError(
                f"quadrature did not reach tol {tol}: error {error[i]:.3g} remains on "
                f"[{a[i]}, {b[i]}] after {a.size - gaps} bisections; rounding {rounding:.3g}")
        keep = np.delete(np.arange(a.size), worst)
        lo, hi = np.concatenate([a[worst], mid]), np.concatenate([mid, b[worst]])
        a, b = np.concatenate([a[keep], lo]), np.concatenate([b[keep], hi])
        owner = np.concatenate([owner[keep], owner[worst], owner[worst]])
        value, error = (np.concatenate([old[keep], new])
                        for old, new in zip((value, error), _gk15(fn, lo, hi)))


def integrate_density(density: Density, a: float, b: float, tol: float = 1e-10) -> float:
    """Integral of the density over [a, b] within tol."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise InputError(f"integration bounds must lie in [0,1], got [{a}, {b}]")
    if a > b:
        raise InputError(f"integration bounds out of order: {a} > {b}")
    return float(_integrate(density, np.array([a, b], dtype=float), tol)[0])


def cumulative_integrals(density: Density, uppers, tol: float = 1e-10) -> np.ndarray:
    """Integrals from 0 to each requested upper bound, batched, in the shape
    of ``uppers``.

    One quadrature covers the gaps between 0 and the sorted unique bounds,
    and a running sum over the gaps gives the table; ``tol`` bounds the error
    of every entry, the rounding of that sum included.  The sort that finds
    the unique bounds also gives each bound its table index (its inverse),
    so no search of the table is needed.
    """
    uppers = np.asarray(uppers, dtype=float)
    if uppers.size == 0:
        return np.zeros(uppers.shape)
    if not np.all((uppers >= 0.0) & (uppers <= 1.0)):
        raise InputError("cumulative integral bounds must lie in [0,1]")
    knots, inverse = np.unique(uppers, return_inverse=True)
    return _integrate(density, np.r_[0.0, knots], tol)[inverse.reshape(uppers.shape)]


@dataclass(frozen=True)
class AlteringDistance:
    """Gauge phi with its provenance."""

    evaluator: Callable[..., np.ndarray]
    provenance: str  # "builtin_linear" | "integral" | "custom"

    def __call__(self, s: float) -> float:
        return float(self.on_array(s))

    def on_array(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return np.broadcast_to(np.asarray(self.evaluator(s), dtype=float), s.shape)


def is_phi_class(density: Density, tol: float = 1e-10) -> bool:
    """True iff the density has positive mass on [0, eps] for every grid eps."""
    return bool(np.all(cumulative_integrals(density, PHI_CLASS_GRID, tol)
                       > PHI_CLASS_THRESHOLD))


def make_integral_altering(density: Density, tol: float = 1e-10) -> AlteringDistance:
    """Gauge phi(s) = scale * integral of the density over [0, 1-s].

    Requires the class-Phi mass condition; densities with total mass above 1
    are rescaled by 1/mass so the gauge maps into [0,1].  Each table of
    integrals is computed within tol * max(1, mass), so the rescaled gauge
    is within tol.
    """
    if not is_phi_class(density, tol):
        raise InputError(
            f"density {density.description!r} fails the positive-mass check on "
            f"eps grid {PHI_CLASS_GRID}"
        )
    mass = integrate_density(density, 0.0, 1.0, tol)
    scale, table_tol = (1.0 / mass, tol * mass) if mass > 1.0 else (1.0, tol)
    return AlteringDistance(
        lambda s: scale * cumulative_integrals(density, 1.0 - s, table_tol), "integral")


def builtin_altering(kind: str) -> AlteringDistance:
    if kind == "linear":
        return AlteringDistance(lambda s: 1.0 - s, "builtin_linear")
    raise InputError(f"unknown altering distance kind {kind!r}; expected 'linear'")


def verify_altering(candidate: Callable[..., np.ndarray], grid_n: int = 101) -> dict:
    """Check (ad1) strict decrease on consecutive grid points and (ad2)
    phi(1) = 0 within 1e-12 with phi positive elsewhere on the grid.  A
    non-finite value raises, since every comparison with NaN is false."""
    if grid_n < 3:
        raise InputError(f"verification grid must have at least 3 points, got {grid_n}")
    grid = np.linspace(0.0, 1.0, grid_n)
    vals = np.broadcast_to(np.asarray(candidate(grid), dtype=float), grid.shape)
    finite = np.isfinite(vals)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InputError(f"altering distance is not finite at s = {float(grid[i])}: "
                         f"{float(vals[i])}")

    diffs = np.diff(vals)
    bad = np.nonzero(diffs >= 0.0)[0]
    decreasing = None
    if bad.size:
        i = int(bad[0])
        decreasing = {"s_lo": float(grid[i]), "s_hi": float(grid[i + 1]),
                      "value_lo": float(vals[i]), "value_hi": float(vals[i + 1])}

    zero = None if abs(vals[-1]) <= 1e-12 else {"s": 1.0, "value": float(vals[-1])}

    interior = vals[:-1]
    bad = np.nonzero(interior <= 0.0)[0]
    positive = None
    if bad.size:
        i = int(bad[0])
        positive = {"s": float(grid[i]), "value": float(vals[i])}

    checks = [{"name": name, "status": "pass" if witness is None else "fail",
               "witness": witness}
              for name, witness in (("ad1-strictly-decreasing", decreasing),
                                    ("ad2-zero-at-one", zero),
                                    ("ad2-positive-below-one", positive))]
    return {"passed": all(c["status"] == "pass" for c in checks), "grid_n": grid_n,
            "checks": checks}


def require_altering(phi: AlteringDistance, where: str) -> None:
    """Raise an InputError naming ``where`` unless ``phi`` passes
    ``verify_altering`` on the path the scans use (``on_array``)."""
    try:
        report = verify_altering(phi.on_array)
    except EvalError as exc:
        raise InputError(f"{where}: altering distance cannot be evaluated on "
                         f"[0,1]: {exc}") from None
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None
    if not report["passed"]:
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        raise InputError(f"{where}: altering distance fails "
                         f"{[c['name'] for c in failed]}; first witness {failed[0]['witness']}")
