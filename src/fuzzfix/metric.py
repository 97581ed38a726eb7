"""Fuzzy metrics over interval carriers.

A fuzzy metric assigns every pair of points a degree of nearness M(x,y,t) in
[0,1] at each time scale t >= 0, combined along triangles by a t-norm.  The
axioms checked here:

    FM-1  M(x,y,0) = 0
    FM-2  M(x,y,t) = 1 for all t > 0  iff  x = y
    FM-3  M(x,y,t) = M(y,x,t)
    FM-4  M(x,z,t+s) >= T(M(x,y,t), M(y,z,s))
    FM-5  M(x,y,.) is continuous on (0, infinity)

together with monotonicity of t -> M(x,y,t).

Membership and crisp-distance callables accept numpy arrays and broadcast,
as every callable does (see ``expr``), and the t-norms are NumPy
expressions; all verification is vectorized over sample grids.  Each check is
one margin formula and one witness formula over coordinate segments
(``_parallel.Segment``): tuples of arrays that broadcast together, axis 0 the
row axis, such as the grid ``(x[:, None, None], y[None, :, None], t)``.  A
scan runs in blocks of whole rows, slicing only the coordinates that span
axis 0, and FM-4 evaluates M(y,z,s) once per scan, as a table every grid
block reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._parallel import Segment, scan
from .errors import InputError
from .expr import EvalError, on_check_grid

Array = np.ndarray

TNORM_KINDS = ("minimum", "product", "lukasiewicz")


@dataclass(frozen=True)
class TNorm:
    """Binary operation on [0,1], one of ``TNORM_KINDS``: commutative,
    associative, monotone, with identity T(a,1) = a holding exactly."""

    kind: str

    def __post_init__(self):
        if self.kind not in TNORM_KINDS:
            raise InputError(f"unknown t-norm kind {self.kind!r}; expected one of "
                             f"{TNORM_KINDS}")

    def on_arrays(self, a: Array, b: Array) -> Array:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.kind == "minimum":
            return np.minimum(a, b)
        if self.kind == "product":
            return a * b
        # lukasiewicz: special-case the identity law so T(a,1) = a survives
        # float rounding
        out = np.maximum(a + b - 1.0, 0.0)
        out = np.where(b == 1.0, a, out)
        return np.where(a == 1.0, b, out)


def make_tnorm(kind: str) -> TNorm:
    """The t-norm of ``kind``; ``TNorm`` refuses a kind not in TNORM_KINDS."""
    return TNorm(kind)


@dataclass(frozen=True)
class Carrier:
    """Compact interval [lo, hi] with a uniform sample grid."""

    lo: float
    hi: float
    grid_n: int = 101

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise InputError(f"carrier needs finite lo < hi, got [{self.lo}, {self.hi}]")
        if self.grid_n < 2:
            raise InputError(f"carrier grid_n must be >= 2, got {self.grid_n}")

    def points(self, n: int | None = None) -> Array:
        return np.linspace(self.lo, self.hi, self.grid_n if n is None else n)

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.grid_n - 1)

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))


@dataclass(frozen=True)
class FuzzyMetric:
    """Membership (x,y,t) -> [0,1] over a carrier, with its t-norm."""

    carrier: Carrier
    membership: Callable[[Array, Array, Array], Array]
    tnorm: TNorm

    @property
    def distance(self) -> Callable[[Array, Array], Array] | None:
        """The crisp metric d of a standard fuzzy metric, whose membership
        is ``standard_membership(t, d(x, y))``, and None for any other.
        ``standard_fuzzy_metric`` records d on the membership function it
        builds, so the distance travels with that membership (and with a
        wrapper that copies its ``__dict__``, as ``functools.wraps`` does):
        a membership replaced by another formula has none."""
        return getattr(self.membership, "distance", None)

    def value(self, x: float, y: float, t: float) -> float:
        m = self.membership(
            np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(t, dtype=float)
        )
        return float(np.asarray(m))


def standard_membership(t: Array, dist: Array) -> Array:
    """t / (t + dist) for t > 0, and 0 at t = 0, on arrays that broadcast
    together: the standard membership at crisp distance ``dist``."""
    positive = t > 0.0
    if positive.all():  # always so in a contraction scan; the same bits
        return t / (t + dist)
    denom = np.where(positive, t + dist, 1.0)
    return np.where(positive, t / denom, 0.0)


def standard_fuzzy_metric(
    d: Callable[[Array, Array], Array], tnorm: TNorm, carrier: Carrier
) -> FuzzyMetric:
    """M(x,y,t) = t / (t + d(x,y)) for t > 0, and 0 at t = 0, recording d
    on the membership function as the metric's ``distance``.

    The crisp metric d is spot-validated on a sample grid: nonnegative,
    symmetric, zero on the diagonal.
    """
    xs = carrier.points(min(carrier.grid_n, 33))
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    dv = on_check_grid("crisp metric", d, gx, gy)
    if np.any(dv < 0.0):
        i, j = np.unravel_index(int(np.argmin(dv)), dv.shape)
        raise InputError(f"crisp metric is negative at ({xs[i]}, {xs[j]}): {dv[i, j]}")
    if np.max(np.abs(dv - dv.T)) > 0.0:
        raise InputError("crisp metric is not symmetric on the sample grid")
    if np.max(np.abs(np.diagonal(dv))) > 0.0:
        raise InputError("crisp metric is nonzero on the diagonal")

    def membership(x: Array, y: Array, t: Array) -> Array:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return standard_membership(np.asarray(t, dtype=float),
                                   np.asarray(d(x, y), dtype=float))

    membership.distance = d
    return FuzzyMetric(carrier, membership, tnorm)


@dataclass(frozen=True)
class SamplingPlan:
    """Where the axioms get checked: a spatial grid, a time grid, and a batch
    of seeded random triples (x,y,z) with random time pairs."""

    grid_n: int = 21
    t_grid: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
    n_random: int = 1000
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.grid_n < 2:
            raise InputError(f"sampling plan grid_n must be >= 2, got {self.grid_n}")
        if not self.t_grid:
            raise InputError("sampling plan t_grid must be nonempty")
        if any(not (math.isfinite(t) and t > 0.0) for t in self.t_grid):
            raise InputError(f"t_grid values must be finite and positive: {self.t_grid}")
        if self.n_random < 0:
            raise InputError(f"n_random must be >= 0, got {self.n_random}")
        if self.seed < 0:
            raise InputError(f"sampling plan seed must be >= 0, got {self.seed}")
        if self.jobs < 1:
            raise InputError(f"sampling plan jobs must be >= 1, got {self.jobs}")


def _run_check(
    name: str, margin: Callable[..., Array], detail: Callable[..., dict],
    segments: list[tuple[Array, ...]], tolerance: float, jobs: int,
) -> dict:
    """Scan ``margin`` over each segment's coordinates; a failing check's
    witness is ``detail`` at the coordinates of its first bad sample.  An
    evaluation error is re-raised, with its type kept, under a message that
    names the check."""
    try:
        fold, bad = scan([Segment(coords, margin) for coords in segments], tolerance, jobs)
        witness = None if bad is None else detail(*bad)
    except EvalError as exc:
        raise EvalError(f"check {name!r}: {exc}") from exc
    return {"name": name, "status": "pass" if fold.passed else "fail",
            "worst_margin": fold.worst_margin, "tolerance": tolerance,
            "samples": fold.n, "witness": witness}


def verify_fm_axioms(fm: FuzzyMetric, plan: SamplingPlan) -> dict:
    """Check FM-1..FM-5 and t-monotonicity on the plan's samples.

    Tolerances: FM-1/FM-3 exact, FM-2 and FM-4 1e-12, FM-5 sampled modulus
    of continuity 1e-3 at h = 1e-6 t.  Fail witnesses are the first bad
    sample in deterministic grid-then-random order.

    Each check is one margin formula and one witness formula over its
    sample coordinates: the grid's x, y (and z) axes broadcast against the
    time grid, then the random samples.  A grid is scanned in blocks of
    whole x-rows, so no sample index is gathered.  FM-4 evaluates M(y,z,s)
    once per scan, as a grid x grid x T table, and per block only M(x,y,t)
    and M(x,z,t+s).
    """
    xs = fm.carrier.points(plan.grid_n)
    ts = np.asarray(sorted(plan.t_grid), dtype=float)
    nt = ts.size
    g = xs.size
    m = fm.membership
    jobs = plan.jobs

    rng = np.random.default_rng(plan.seed)
    nr = plan.n_random
    rx, ry, rz = (rng.uniform(fm.carrier.lo, fm.carrier.hi, nr) for _ in range(3))
    rt = rng.uniform(float(ts[0]), float(ts[-1]), nr)
    rs = rng.uniform(float(ts[0]), float(ts[-1]), nr)

    # the grid's (x, y, t) axes, and the random pairs against the time grid
    x3, y3 = xs[:, None, None], xs[None, :, None]
    rx2, ry2 = rx[:, None], ry[:, None]

    checks = []

    # FM-1: membership vanishes at t = 0, exactly
    checks.append(_run_check(
        "FM-1",
        lambda x, y, t: -np.abs(m(x, y, t)),
        lambda x, y, t: {"x": float(x), "y": float(y), "t": float(t), "value": fm.value(x, y, t)},
        [(xs[:, None], xs[None, :], np.zeros((1, 1))), (rx, ry, np.zeros(nr))],
        0.0, jobs))

    # FM-2 forward: M(x,x,t) = 1 within 1e-12
    checks.append(_run_check(
        "FM-2-forward",
        lambda x, t: -np.abs(m(x, x, t) - 1.0),
        lambda x, t: {"x": float(x), "y": float(x), "t": float(t), "value": fm.value(x, x, t)},
        [(xs[:, None], ts), (rx2, ts)],
        -1e-12, jobs))

    # FM-2 reverse: no distinct sampled pair has M = 1 (within 1e-12) at
    # every sampled t; sampling-sound, not complete
    def fm2r(x: Array, y: Array, distinct: Array) -> Array:
        vals = np.broadcast_to(m(x[..., None], y[..., None], ts), (*distinct.shape, nt))
        return np.where(distinct, (1.0 - 1e-12) - np.min(vals, axis=-1), np.inf)

    checks.append(_run_check(
        "FM-2-reverse", fm2r,
        lambda x, y, _: {"x": float(x), "y": float(y), "t": float(ts[0]),
                         "value": fm.value(x, y, ts[0])},
        [(xs[:, None], xs[None, :], ~np.eye(g, dtype=bool))],
        0.0, jobs))

    # FM-3: exact symmetry
    checks.append(_run_check(
        "FM-3",
        lambda x, y, t: -np.abs(m(x, y, t) - m(y, x, t)),
        lambda x, y, t: {"x": float(x), "y": float(y), "t": float(t),
                         "value": fm.value(x, y, t), "value_swapped": fm.value(y, x, t)},
        [(x3, y3, ts), (rx2, ry2, ts)],
        0.0, jobs))

    # FM-4: triangle law through the t-norm.  A grid block's axes are
    # (x, y, z, t, s); M(y,z,s) does not depend on x, so the grid segment
    # carries it as one more coordinate, a table that spans no rows
    def fm4(x: Array, y: Array, z: Array, t: Array, s: Array,
            m_yzs: Array | None = None) -> Array:
        lhs = m(x, z, t + s)
        rhs = fm.tnorm.on_arrays(m(x, y, t), m(y, z, s) if m_yzs is None else m_yzs)
        return np.asarray(lhs, dtype=float) - rhs

    m_yzs = np.broadcast_to(m(x3, y3, ts), (g, g, nt))[:, :, None, :]
    checks.append(_run_check(
        "FM-4", fm4,
        lambda x, y, z, t, s, *_: {"x": float(x), "y": float(y), "z": float(z),
                                   "t": float(t), "s": float(s),
                                   "margin": float(fm4(x, y, z, t, s))},
        [(xs[:, None, None, None, None], xs[None, :, None, None, None],
          xs[None, None, :, None, None], ts[:, None], ts, m_yzs),
         (rx, ry, rz, rt, rs)],
        -1e-12, jobs))

    # FM-5: sampled modulus of continuity in t
    def fm5(x: Array, y: Array, t: Array) -> Array:
        h = 1e-6 * t
        return 1e-3 - np.abs(np.asarray(m(x, y, t + h), dtype=float) - m(x, y, t))

    checks.append(_run_check(
        "FM-5", fm5,
        lambda x, y, t: {"x": float(x), "y": float(y), "t": float(t),
                         "jump": float(1e-3 - fm5(x, y, t))},
        [(x3, y3, ts), (rx2, ry2, ts)],
        0.0, jobs))

    # t-monotonicity: nondecreasing along the sorted time grid
    if nt >= 2:
        checks.append(_run_check(
            "t-monotone",
            lambda x, y, lo, hi: np.asarray(m(x, y, hi), dtype=float) - m(x, y, lo),
            lambda x, y, lo, hi: {"x": float(x), "y": float(y),
                                  "t_lo": float(lo), "t_hi": float(hi),
                                  "value_lo": fm.value(x, y, lo),
                                  "value_hi": fm.value(x, y, hi)},
            [(x3, y3, ts[:-1], ts[1:]), (rx2, ry2, ts[:-1], ts[1:])],
            -1e-12, jobs))

    return {"passed": all(c["status"] == "pass" for c in checks), "checks": checks}
