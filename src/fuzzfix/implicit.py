"""Implicit-relation gauges psi: [0,1]^4 -> R and their condition checks.

A quadruple gauge drives the contraction inequality psi(...) >= 0.  The
family carries four conditions:

    psi1  monotone in the first argument (orientation noted per example;
          the integral examples act through s -> integral over [0, 1-s],
          which reverses the direction),
    psi2  psi(u,0,u,0) >= 0  implies  u bound,
    psi3  psi(u,0,0,u) >= 0  implies  u bound,
    psi4  psi(u,u,0,0) >= 0  implies  u bound.

Two readings of the bound are implemented and never conflated: the printed
consequent u >= 0, vacuous on [0,1] and reported as "holds-vacuously", and
the strict consequent u <= 0, which is the reading the fixed-point argument
actually needs.  Six builtin constructions are provided under opaque ids
ex2_1 .. ex2_6:

    ex2_1  u1 - delta(max{u2,u3,u4})          delta(0) = 0, delta(u) < u
    ex2_2  u1 - k min{u2,u3,u4}               0 < k < 1
    ex2_3  u1 - delta3(u2,u3,u4)              axis condition delta3 < u
    ex2_4  u1 - k u2 - min{u3,u4}             0 < k < 1
    ex2_5  I(1-u1) - a max{I(1-u2), I(1-u3), I(1-u4)}   0 <= a < 1
    ex2_6  I(1-u1) - delta(max{I(1-u2), I(1-u3), I(1-u4)})

where I(v) is the integral of a positive-mass density over [0, v].  Every
gauge callable (delta, delta3, the density and a custom evaluator) takes
NumPy arrays and broadcasts, as ``expr`` describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distances import Density, cumulative_integrals, integrate_density, is_phi_class
from .errors import InputError, NumericalError
from .expr import on_check_grid

PSI_EXAMPLE_IDS = ("ex2_1", "ex2_2", "ex2_3", "ex2_4", "ex2_5", "ex2_6")

_GAUGE_GRID_N = 101
# the grid size per axis that verify_psi checks on by default
DEFAULT_PSI_GRID = 21


@dataclass(frozen=True)
class PsiFunction:
    """A quadruple gauge with its one evaluator, which takes arrays and
    broadcasts, and the orientation its first-argument monotonicity takes."""

    example_id: str  # one of PSI_EXAMPLE_IDS or "custom"
    evaluator: Callable[..., np.ndarray]
    u1_direction: str = "increasing"  # "increasing" | "decreasing"


def _check_delta_gauge(delta: Callable[..., np.ndarray], cap: float, what: str) -> None:
    # delta(0) = 0, and 0 <= delta(u) < u for u > 0 on a grid up to cap
    grid = np.linspace(0.0, cap, _GAUGE_GRID_N)
    # on its check grid in one call, on the path the scans use
    vals = on_check_grid(what, delta, grid)
    if vals[0] != 0.0:
        raise InputError(f"{what} must vanish at 0, got delta(0) = {float(vals[0])}")
    bad = np.flatnonzero(~((vals[1:] >= 0.0) & (vals[1:] < grid[1:])))
    if bad.size:
        i = int(bad[0]) + 1
        raise InputError(
            f"{what} must satisfy 0 <= delta(u) < u for u > 0; "
            f"delta({float(grid[i])}) = {float(vals[i])}"
        )


def _check_delta3_gauge(delta3: Callable[..., np.ndarray]) -> None:
    u = np.linspace(0.0, 1.0, _GAUGE_GRID_N)[1:]
    z = np.zeros_like(u)
    # one row per coordinate axis: (0,u,0), (0,0,u), (u,0,0)
    vals = on_check_grid("ex2_3 delta3 gauge", delta3,
                         np.stack([z, z, u]), np.stack([u, z, z]), np.stack([z, u, z]))
    bad = np.flatnonzero((vals < 0.0).any(axis=0) | ~(vals.max(axis=0) < u))
    if bad.size:
        i = int(bad[0])
        raise InputError(
            f"ex2_3 delta3 gauge must satisfy max over the coordinate "
            f"axes < u for u > 0; at u={float(u[i])} the axis values are "
            f"{[float(v) for v in vals[:, i]]}"
        )


def make_psi(
    example_id: str,
    *,
    k: float | None = None,
    a: float | None = None,
    delta: Callable[..., np.ndarray] | None = None,
    delta3: Callable[..., np.ndarray] | None = None,
    density: Density | None = None,
    quad_tol: float = 1e-10,
    evaluator: Callable[..., np.ndarray] | None = None,
    u1_direction: str = "increasing",
) -> PsiFunction:
    """Construct a builtin gauge by id, or a custom one from an evaluator."""
    if example_id == "custom":
        if evaluator is None:
            raise InputError("custom psi requires an evaluator")
        if u1_direction not in ("increasing", "decreasing"):
            raise InputError(f"unknown u1 direction {u1_direction!r}")
        return PsiFunction("custom", evaluator, u1_direction)
    if example_id not in PSI_EXAMPLE_IDS:
        raise InputError(
            f"unknown psi example {example_id!r}; expected one of "
            f"{PSI_EXAMPLE_IDS} or 'custom'"
        )

    if example_id == "ex2_1":
        if delta is None:
            raise InputError("ex2_1 requires a delta gauge")
        _check_delta_gauge(delta, 1.0, "ex2_1 delta gauge")
        return PsiFunction(example_id, lambda u1, u2, u3, u4:
                           u1 - delta(np.maximum(np.maximum(u2, u3), u4)))

    if example_id == "ex2_2":
        if k is None or not 0.0 < k < 1.0:
            raise InputError(f"ex2_2 requires k in (0,1), got {k}")
        return PsiFunction(example_id, lambda u1, u2, u3, u4:
                           u1 - k * np.minimum(np.minimum(u2, u3), u4))

    if example_id == "ex2_3":
        if delta3 is None:
            raise InputError("ex2_3 requires a three-argument delta gauge")
        _check_delta3_gauge(delta3)
        return PsiFunction(example_id, lambda u1, u2, u3, u4: u1 - delta3(u2, u3, u4))

    if example_id == "ex2_4":
        if k is None or not 0.0 < k < 1.0:
            raise InputError(f"ex2_4 requires k in (0,1), got {k}")
        return PsiFunction(example_id,
                           lambda u1, u2, u3, u4: u1 - k * u2 - np.minimum(u3, u4))

    # the two integral-backed constructions
    if density is None:
        raise InputError(f"{example_id} requires a density")
    if not is_phi_class(density, quad_tol):
        raise InputError(
            f"{example_id} density {density.description!r} fails the "
            "positive-mass check"
        )

    def batched(u1, u2, u3, u4) -> tuple[np.ndarray, np.ndarray]:
        u1, u2, u3, u4 = np.broadcast_arrays(
            np.asarray(u1, dtype=float), np.asarray(u2, dtype=float),
            np.asarray(u3, dtype=float), np.asarray(u4, dtype=float))
        uppers = 1.0 - np.stack([u1, u2, u3, u4])
        ints = cumulative_integrals(density, uppers, quad_tol)
        inner = np.maximum(np.maximum(ints[1], ints[2]), ints[3])
        return ints[0], inner

    if example_id == "ex2_5":
        if a is None or not 0.0 <= a < 1.0:
            raise InputError(f"ex2_5 requires a in [0,1), got {a}")

        def arr5(u1, u2, u3, u4):
            first, inner = batched(u1, u2, u3, u4)
            return first - a * inner

        return PsiFunction(example_id, arr5, "decreasing")

    if delta is None:
        raise InputError("ex2_6 requires a delta gauge")
    mass = integrate_density(density, 0.0, 1.0, quad_tol)
    _check_delta_gauge(delta, max(1.0, mass), "ex2_6 delta gauge")

    def arr6(u1, u2, u3, u4):
        first, inner = batched(u1, u2, u3, u4)
        return first - delta(inner)

    return PsiFunction(example_id, arr6, "decreasing")


def psi_eval_on_arrays(psi: PsiFunction, u1, u2, u3, u4) -> np.ndarray:
    """The one gauge evaluation, in the broadcast shape of its arguments.
    Every contraction margin comes from here, so a non-finite value raises
    instead of slipping past a check."""
    shape = np.broadcast_shapes(*(np.shape(u) for u in (u1, u2, u3, u4)))
    out = np.broadcast_to(np.asarray(psi.evaluator(u1, u2, u3, u4), dtype=float), shape)
    if not np.isfinite(out).all():
        vals, *us = np.broadcast_arrays(out, u1, u2, u3, u4)
        i = int(np.argmin(np.isfinite(vals)))
        raise NumericalError(f"psi {psi.example_id} is not finite at (u1, u2, u3, u4) = "
                             f"{tuple(float(u.flat[i]) for u in us)}: {float(vals.flat[i])}")
    return out


_SLOTS = {
    # how each implication condition places u into (u1,u2,u3,u4)
    "psi2": lambda u, z: (u, z, u, z),
    "psi3": lambda u, z: (u, z, z, u),
    "psi4": lambda u, z: (u, u, z, z),
}


def _condition(name: str, status: str, witness: dict | None, samples: int,
               note: str) -> dict:
    return {"name": name, "status": status, "witness": witness, "samples": samples,
            "note": note}


def verify_psi(psi: PsiFunction, variant: str = "as_printed",
               grid_n: int = DEFAULT_PSI_GRID) -> dict:
    """Grid verification of the four family conditions.

    psi1 sweeps the first argument over all grid tuples of the other three
    and demands monotonicity in the gauge's declared orientation (within
    1e-12).  psi2..psi4 scan u over the grid; under "as_printed" the
    consequent u >= 0 cannot fail on [0,1] and the status says so, under
    "strict" the consequent is u <= 0 and each positive u with a nonnegative
    gauge value is a counterexample.  Each condition's status is "holds",
    "holds-vacuously" or "fails".
    """
    if variant not in ("as_printed", "strict"):
        raise InputError(f"unknown condition variant {variant!r}")
    if grid_n < 3:
        raise InputError(f"verification grid must have at least 3 points, got {grid_n}")
    grid = np.linspace(0.0, 1.0, grid_n)
    conditions = []

    # psi1: monotone sweep in the first argument, one u1 value at a time; u1
    # is a scalar and u2..u4 are broadcast views, so each slab spans grid^3
    # and batched integral gauges see the knots a full grid^4 sweep would
    cube = (grid_n,) * 3
    u2, u3, u4 = grid[:, None, None], grid[None, :, None], grid[None, None, :]
    sign = 1.0 if psi.u1_direction == "increasing" else -1.0
    note = "checked nondecreasing in u1" if sign > 0 else "checked nonincreasing in u1"
    samples = (grid_n - 1) * grid_n ** 3
    witness = None
    lo_vals = np.broadcast_to(psi_eval_on_arrays(psi, grid[0], u2, u3, u4), cube)
    for j in range(grid_n - 1):
        hi_vals = np.broadcast_to(psi_eval_on_arrays(psi, grid[j + 1], u2, u3, u4), cube)
        bad = np.flatnonzero(sign * (hi_vals - lo_vals) < -1e-12)
        if bad.size:
            i2, i3, i4 = np.unravel_index(int(bad[0]), cube)
            witness = {
                "u1_lo": float(grid[j]), "u1_hi": float(grid[j + 1]),
                "u2": float(grid[i2]), "u3": float(grid[i3]), "u4": float(grid[i4]),
                "value_lo": float(lo_vals[i2, i3, i4]),
                "value_hi": float(hi_vals[i2, i3, i4]),
            }
            break
        lo_vals = hi_vals
    conditions.append(_condition("psi1", "holds" if witness is None else "fails",
                                 witness, samples, note))

    zeros = np.zeros_like(grid)
    for name in ("psi2", "psi3", "psi4"):
        u1, u2, u3, u4 = _SLOTS[name](grid, zeros)
        slot_vals = psi_eval_on_arrays(psi, u1, u2, u3, u4)
        if variant == "as_printed":
            conditions.append(_condition(
                name, "holds-vacuously", None, int(grid.size),
                "consequent u >= 0 holds for every u in [0,1]"))
            continue
        violating = np.nonzero((slot_vals >= 0.0) & (grid > 0.0))[0]
        if violating.size:
            i = int(violating[0])
            witness = {"u": float(grid[i]), "value": float(slot_vals[i])}
            conditions.append(_condition(
                name, "fails", witness, int(grid.size),
                "gauge stays nonnegative at a positive u"))
        else:
            conditions.append(_condition(
                name, "holds", None, int(grid.size),
                "nonnegative gauge forces u = 0 on the grid"))

    return {"example_id": psi.example_id, "variant": variant,
            "passed": all(c["status"] != "fails" for c in conditions),
            "conditions": conditions}
