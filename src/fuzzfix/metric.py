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

Membership and crisp-distance callables must accept numpy arrays and
broadcast; all verification is vectorized over sample grids.  A grid scan
runs in blocks of whole x-rows broadcast against the other axes, and FM-4
evaluates M(y,z,s) once per scan, as a table every block reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._parallel import CHUNK, scan_segments
from .errors import InputError
from .expr import array_fn

Array = np.ndarray

TNORM_KINDS = ("minimum", "product", "lukasiewicz", "custom")


@dataclass(frozen=True)
class TNorm:
    """Binary operation on [0,1]: commutative, associative, monotone, with
    identity T(a,1) = a holding exactly for the builtin kinds.  The builtins
    are NumPy expressions in ``on_arrays``; only a custom kind carries an
    ``evaluator``."""

    kind: str
    evaluator: Callable[[float, float], float] | None = None

    def on_arrays(self, a: Array, b: Array) -> Array:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.kind == "minimum":
            return np.minimum(a, b)
        if self.kind == "product":
            return a * b
        if self.kind == "lukasiewicz":
            # special-case the identity law so T(a,1) = a survives float rounding
            out = np.maximum(a + b - 1.0, 0.0)
            out = np.where(b == 1.0, a, out)
            return np.where(a == 1.0, b, out)
        return array_fn(self.evaluator)(a, b)


def make_tnorm(kind: str, evaluator: Callable[[float, float], float] | None = None) -> TNorm:
    if kind not in TNORM_KINDS:
        raise InputError(f"unknown t-norm kind {kind!r}; expected one of {TNORM_KINDS}")
    if kind == "custom":
        if evaluator is None:
            raise InputError("custom t-norm requires an evaluator")
        return TNorm("custom", evaluator)
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

    def value(self, x: float, y: float, t: float) -> float:
        m = self.membership(
            np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(t, dtype=float)
        )
        return float(np.asarray(m))


def standard_fuzzy_metric(
    d: Callable[[Array, Array], Array], tnorm: TNorm, carrier: Carrier
) -> FuzzyMetric:
    """M(x,y,t) = t / (t + d(x,y)) for t > 0, and 0 at t = 0.

    The crisp metric d is spot-validated on a sample grid: nonnegative,
    symmetric, zero on the diagonal.
    """
    xs = carrier.points(min(carrier.grid_n, 33))
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    dv = np.asarray(d(gx, gy), dtype=float)
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
        t = np.asarray(t, dtype=float)
        dist = np.asarray(d(x, y), dtype=float)
        positive = t > 0.0
        if positive.all():  # always so in a contraction scan; the same bits
            return t / (t + dist)
        denom = np.where(positive, t + dist, 1.0)
        return np.where(positive, t / denom, 0.0)

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
        if self.jobs < 1:
            raise InputError(f"sampling plan jobs must be >= 1, got {self.jobs}")


@dataclass(frozen=True)
class _Segment:
    """``rows`` rows of ``row_shape`` samples, in C order.  ``block(r0, r1)``
    gives the margins of rows [r0, r1) as anything that broadcasts to
    (r1 - r0, *row_shape)."""

    rows: int
    row_shape: tuple[int, ...]
    block: Callable[[int, int], Array]
    describe: Callable[[int], dict]

    @property
    def row(self) -> int:
        return math.prod(self.row_shape)

    @property
    def n(self) -> int:
        return self.rows * self.row

    def margins(self, lo: int, hi: int) -> Array:
        r0, r1 = lo // self.row, hi // self.row
        return np.broadcast_to(self.block(r0, r1), (r1 - r0, *self.row_shape))


def _run_check(
    name: str, segments: list[_Segment], tolerance: float, jobs: int
) -> dict:
    # a chunk is whole rows of the grid segment; a random segment's row
    # divides the grid's, so its chunks are whole rows as well
    row = segments[0].row
    fold = scan_segments([(s.n, s.margins) for s in segments], tolerance,
                         jobs=jobs, step=max(1, CHUNK // row) * row)
    witness = None
    if fold.first_bad is not None:
        idx = fold.first_bad
        for seg in segments:
            if idx < seg.n:
                witness = seg.describe(idx)
                break
            idx -= seg.n
    return {"name": name, "status": "pass" if fold.passed else "fail",
            "worst_margin": fold.worst_margin, "tolerance": tolerance,
            "samples": fold.n, "witness": witness}


def _rand_points(rng: np.random.Generator, carrier: Carrier, n: int) -> Array:
    return rng.uniform(carrier.lo, carrier.hi, n)


def verify_fm_axioms(fm: FuzzyMetric, plan: SamplingPlan) -> dict:
    """Check FM-1..FM-5 and t-monotonicity on the plan's samples.

    Tolerances: FM-1/FM-3 exact, FM-2 and FM-4 1e-12, FM-5 sampled modulus
    of continuity 1e-3 at h = 1e-6 t.  Fail witnesses are the first bad
    sample in deterministic grid-then-random order.

    Each grid segment is scanned in blocks of whole x-rows: the block's x
    values are broadcast against the y (and z) grid and the time grid, so no
    sample index is gathered.  FM-4 evaluates M(y,z,s) once per scan, as a
    grid x grid x T table, and per block only M(x,y,t) and M(x,z,t+s); the
    t-norm and the margin run on the whole block.
    """
    xs = fm.carrier.points(plan.grid_n)
    ts = np.asarray(sorted(plan.t_grid), dtype=float)
    nt = ts.size
    g = xs.size
    m = fm.membership
    jobs = plan.jobs

    rng = np.random.default_rng(plan.seed)
    nr = plan.n_random
    rx = _rand_points(rng, fm.carrier, nr)
    ry = _rand_points(rng, fm.carrier, nr)
    rz = _rand_points(rng, fm.carrier, nr)
    rt = rng.uniform(float(ts[0]), float(ts[-1]), nr)
    rs = rng.uniform(float(ts[0]), float(ts[-1]), nr)

    # the y grid of an (x, y, t) block
    col = xs[None, :, None]

    checks = []

    # FM-1: membership vanishes at t = 0, exactly
    pair_shape = (g, g)

    def fm1_grid(r0: int, r1: int) -> Array:
        return -np.abs(m(xs[r0:r1, None], xs[None, :], np.zeros((1, 1))))

    def fm1_grid_desc(idx: int) -> dict:
        i, j = np.unravel_index(idx, pair_shape)
        return {"x": float(xs[i]), "y": float(xs[j]), "t": 0.0,
                "value": fm.value(xs[i], xs[j], 0.0)}

    def fm1_rand(r0: int, r1: int) -> Array:
        return -np.abs(m(rx[r0:r1], ry[r0:r1], np.zeros(r1 - r0)))

    def fm1_rand_desc(idx: int) -> dict:
        return {"x": float(rx[idx]), "y": float(ry[idx]), "t": 0.0,
                "value": fm.value(rx[idx], ry[idx], 0.0)}

    checks.append(_run_check(
        "FM-1",
        [_Segment(g, (g,), fm1_grid, fm1_grid_desc),
         _Segment(nr, (), fm1_rand, fm1_rand_desc)],
        0.0, jobs))

    # FM-2 forward: M(x,x,t) = 1 within 1e-12
    diag_shape = (g, nt)

    def fm2f_grid(r0: int, r1: int) -> Array:
        x = xs[r0:r1, None]
        return -np.abs(m(x, x, ts) - 1.0)

    def fm2f_grid_desc(idx: int) -> dict:
        i, j = np.unravel_index(idx, diag_shape)
        return {"x": float(xs[i]), "y": float(xs[i]), "t": float(ts[j]),
                "value": fm.value(xs[i], xs[i], ts[j])}

    rand_diag_shape = (nr, nt)

    def fm2f_rand(r0: int, r1: int) -> Array:
        x = rx[r0:r1, None]
        return -np.abs(m(x, x, ts) - 1.0)

    def fm2f_rand_desc(idx: int) -> dict:
        i, j = np.unravel_index(idx, rand_diag_shape)
        return {"x": float(rx[i]), "y": float(rx[i]), "t": float(ts[j]),
                "value": fm.value(rx[i], rx[i], ts[j])}

    checks.append(_run_check(
        "FM-2-forward",
        [_Segment(g, (nt,), fm2f_grid, fm2f_grid_desc),
         _Segment(nr, (nt,), fm2f_rand, fm2f_rand_desc)],
        -1e-12, jobs))

    # FM-2 reverse: no distinct sampled pair has M = 1 (within 1e-12) at
    # every sampled t; sampling-sound, not complete
    def fm2r_grid(r0: int, r1: int) -> Array:
        vals = np.broadcast_to(m(xs[r0:r1, None, None], col, ts), (r1 - r0, g, nt))
        distinct = np.arange(r0, r1)[:, None] != np.arange(g)
        return np.where(distinct, (1.0 - 1e-12) - np.min(vals, axis=2), np.inf)

    def fm2r_grid_desc(idx: int) -> dict:
        i, j = np.unravel_index(idx, pair_shape)
        return {"x": float(xs[i]), "y": float(xs[j]), "t": float(ts[0]),
                "value": fm.value(xs[i], xs[j], ts[0])}

    checks.append(_run_check(
        "FM-2-reverse", [_Segment(g, (g,), fm2r_grid, fm2r_grid_desc)], 0.0, jobs))

    # FM-3: exact symmetry
    tri_shape = (g, g, nt)

    def fm3_grid(r0: int, r1: int) -> Array:
        x = xs[r0:r1, None, None]
        return -np.abs(m(x, col, ts) - m(col, x, ts))

    def fm3_grid_desc(idx: int) -> dict:
        i, j, k = np.unravel_index(idx, tri_shape)
        return {"x": float(xs[i]), "y": float(xs[j]), "t": float(ts[k]),
                "value": fm.value(xs[i], xs[j], ts[k]),
                "value_swapped": fm.value(xs[j], xs[i], ts[k])}

    rand_tri_shape = (nr, nt)

    def fm3_rand(r0: int, r1: int) -> Array:
        x, y = rx[r0:r1, None], ry[r0:r1, None]
        return -np.abs(m(x, y, ts) - m(y, x, ts))

    def fm3_rand_desc(idx: int) -> dict:
        i, k = np.unravel_index(idx, rand_tri_shape)
        return {"x": float(rx[i]), "y": float(ry[i]), "t": float(ts[k]),
                "value": fm.value(rx[i], ry[i], ts[k]),
                "value_swapped": fm.value(ry[i], rx[i], ts[k])}

    checks.append(_run_check(
        "FM-3",
        [_Segment(g, (g, nt), fm3_grid, fm3_grid_desc),
         _Segment(nr, (nt,), fm3_rand, fm3_rand_desc)],
        0.0, jobs))

    # FM-4: triangle law through the t-norm.  A block's axes are
    # (x, y, z, t, s); M(y,z,s) does not depend on x, so it is one table
    quad_shape = (g, g, g, nt, nt)

    def fm4_margin(x: Array, y: Array, z: Array, t: Array, s: Array) -> Array:
        lhs = m(x, z, t + s)
        rhs = fm.tnorm.on_arrays(m(x, y, t), m(y, z, s))
        return np.asarray(lhs, dtype=float) - rhs

    m_yzs = np.broadcast_to(m(xs[:, None, None], col, ts), tri_shape)[:, :, None, :]
    t_plus_s = ts[:, None] + ts[None, :]  # the bits of ts[p] + ts[q]
    y_axis, z_axis = xs[None, :, None, None, None], xs[None, None, :, None, None]

    def fm4_grid(r0: int, r1: int) -> Array:
        x = xs[r0:r1, None, None, None, None]
        lhs = m(x, z_axis, t_plus_s)
        return np.asarray(lhs, dtype=float) - fm.tnorm.on_arrays(
            m(x, y_axis, ts[:, None]), m_yzs)

    def fm4_grid_desc(idx: int) -> dict:
        i, j, k, p, q = np.unravel_index(idx, quad_shape)
        return {"x": float(xs[i]), "y": float(xs[j]), "z": float(xs[k]),
                "t": float(ts[p]), "s": float(ts[q]),
                "margin": float(fm4_margin(xs[i], xs[j], xs[k], ts[p], ts[q]))}

    def fm4_rand(r0: int, r1: int) -> Array:
        s = slice(r0, r1)
        return fm4_margin(rx[s], ry[s], rz[s], rt[s], rs[s])

    def fm4_rand_desc(idx: int) -> dict:
        return {"x": float(rx[idx]), "y": float(ry[idx]), "z": float(rz[idx]),
                "t": float(rt[idx]), "s": float(rs[idx]),
                "margin": float(fm4_margin(rx[idx], ry[idx], rz[idx], rt[idx], rs[idx]))}

    checks.append(_run_check(
        "FM-4",
        [_Segment(g, quad_shape[1:], fm4_grid, fm4_grid_desc),
         _Segment(nr, (), fm4_rand, fm4_rand_desc)],
        -1e-12, jobs))

    # FM-5: sampled modulus of continuity in t
    def fm5_margin(x: Array, y: Array, t: Array) -> Array:
        h = 1e-6 * t
        jump = np.abs(np.asarray(m(x, y, t + h), dtype=float) - m(x, y, t))
        return 1e-3 - jump

    def fm5_grid(r0: int, r1: int) -> Array:
        return fm5_margin(xs[r0:r1, None, None], col, ts)

    def fm5_grid_desc(idx: int) -> dict:
        i, j, k = np.unravel_index(idx, tri_shape)
        return {"x": float(xs[i]), "y": float(xs[j]), "t": float(ts[k]),
                "jump": float(1e-3 - fm5_margin(xs[i], xs[j], ts[k]))}

    def fm5_rand(r0: int, r1: int) -> Array:
        return fm5_margin(rx[r0:r1, None], ry[r0:r1, None], ts)

    def fm5_rand_desc(idx: int) -> dict:
        i, k = np.unravel_index(idx, rand_tri_shape)
        return {"x": float(rx[i]), "y": float(ry[i]), "t": float(ts[k]),
                "jump": float(1e-3 - fm5_margin(rx[i], ry[i], ts[k]))}

    checks.append(_run_check(
        "FM-5",
        [_Segment(g, (g, nt), fm5_grid, fm5_grid_desc),
         _Segment(nr, (nt,), fm5_rand, fm5_rand_desc)],
        0.0, jobs))

    # t-monotonicity: nondecreasing along the sorted time grid
    if nt >= 2:
        mono_shape = (g, g, nt - 1)

        def mono_grid(r0: int, r1: int) -> Array:
            x = xs[r0:r1, None, None]
            return np.asarray(m(x, col, ts[1:]), dtype=float) - m(x, col, ts[:-1])

        def mono_grid_desc(idx: int) -> dict:
            i, j, k = np.unravel_index(idx, mono_shape)
            return {"x": float(xs[i]), "y": float(xs[j]),
                    "t_lo": float(ts[k]), "t_hi": float(ts[k + 1]),
                    "value_lo": fm.value(xs[i], xs[j], ts[k]),
                    "value_hi": fm.value(xs[i], xs[j], ts[k + 1])}

        rand_mono_shape = (nr, nt - 1)

        def mono_rand(r0: int, r1: int) -> Array:
            x, y = rx[r0:r1, None], ry[r0:r1, None]
            return np.asarray(m(x, y, ts[1:]), dtype=float) - m(x, y, ts[:-1])

        def mono_rand_desc(idx: int) -> dict:
            i, k = np.unravel_index(idx, rand_mono_shape)
            return {"x": float(rx[i]), "y": float(ry[i]),
                    "t_lo": float(ts[k]), "t_hi": float(ts[k + 1]),
                    "value_lo": fm.value(rx[i], ry[i], ts[k]),
                    "value_hi": fm.value(rx[i], ry[i], ts[k + 1])}

        checks.append(_run_check(
            "t-monotone",
            [_Segment(g, mono_shape[1:], mono_grid, mono_grid_desc),
             _Segment(nr, (nt - 1,), mono_rand, mono_rand_desc)],
            -1e-12, jobs))

    return {"passed": all(c["status"] == "pass" for c in checks), "checks": checks}
