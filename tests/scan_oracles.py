"""Reference implementations of the axiom and psi-condition scans.

Every grid sample is gathered by its flat index (``np.unravel_index`` over
``np.arange``) and psi1 is swept over full meshgrid cubes, one u1 slab at a
time.  This is the straightforward form of each scan; the library's row-block
and broadcast scans must give reports equal to these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from fuzzfix import _parallel
from fuzzfix._parallel import scan_segments
from fuzzfix.contraction import ContractionSpec, _gauged
from fuzzfix.implicit import _SLOTS, PsiFunction, psi_eval_on_arrays
from fuzzfix.metric import FuzzyMetric, SamplingPlan
from fuzzfix.pairs import MapQuadruple

Array = np.ndarray


@dataclass(frozen=True)
class _Segment:
    n: int
    margins: Callable[[int, int], Array]
    describe: Callable[[int], dict]


def _run_check(name: str, segments: list[_Segment], tolerance: float, jobs: int) -> dict:
    fold = scan_segments([(s.n, s.margins) for s in segments], tolerance, jobs=jobs)
    witness = None
    if fold.first_bad is not None:
        idx = fold.first_bad
        for seg in segments:
            if idx < seg.n:
                witness = seg.describe(idx)
                break
            idx -= seg.n
    status = "pass" if fold.passed else "fail"
    return {"name": name, "status": status, "worst_margin": fold.worst_margin,
            "tolerance": tolerance, "samples": fold.n, "witness": witness}


def flat_gather_axioms(fm: FuzzyMetric, plan: SamplingPlan) -> dict:
    """The axiom scans with every sample gathered by its flat index."""
    xs = fm.carrier.points(plan.grid_n)
    ts = np.asarray(sorted(plan.t_grid), dtype=float)
    nt = ts.size
    g = xs.size
    m = fm.membership
    jobs = plan.jobs

    rng = np.random.default_rng(plan.seed)
    nr = plan.n_random
    rx = rng.uniform(fm.carrier.lo, fm.carrier.hi, nr)
    ry = rng.uniform(fm.carrier.lo, fm.carrier.hi, nr)
    rz = rng.uniform(fm.carrier.lo, fm.carrier.hi, nr)
    rt = rng.uniform(float(ts[0]), float(ts[-1]), nr)
    rs = rng.uniform(float(ts[0]), float(ts[-1]), nr)

    checks = []

    # FM-1: membership vanishes at t = 0, exactly
    pair_shape = (g, g)

    def fm1_grid(lo: int, hi: int) -> Array:
        i, j = np.unravel_index(np.arange(lo, hi), pair_shape)
        return -np.abs(m(xs[i], xs[j], np.zeros(hi - lo)))

    def fm1_grid_desc(idx: int) -> dict:
        i, j = np.unravel_index(idx, pair_shape)
        return {"x": float(xs[i]), "y": float(xs[j]), "t": 0.0,
                "value": fm.value(xs[i], xs[j], 0.0)}

    def fm1_rand(lo: int, hi: int) -> Array:
        return -np.abs(m(rx[lo:hi], ry[lo:hi], np.zeros(hi - lo)))

    def fm1_rand_desc(idx: int) -> dict:
        return {"x": float(rx[idx]), "y": float(ry[idx]), "t": 0.0,
                "value": fm.value(rx[idx], ry[idx], 0.0)}

    checks.append(_run_check(
        "FM-1",
        [_Segment(g * g, fm1_grid, fm1_grid_desc), _Segment(nr, fm1_rand, fm1_rand_desc)],
        0.0, jobs))

    # FM-2 forward: M(x,x,t) = 1 within 1e-12
    diag_shape = (g, nt)

    def fm2f_grid(lo: int, hi: int) -> Array:
        i, j = np.unravel_index(np.arange(lo, hi), diag_shape)
        return -np.abs(m(xs[i], xs[i], ts[j]) - 1.0)

    def fm2f_grid_desc(idx: int) -> dict:
        i, j = np.unravel_index(idx, diag_shape)
        return {"x": float(xs[i]), "y": float(xs[i]), "t": float(ts[j]),
                "value": fm.value(xs[i], xs[i], ts[j])}

    rand_diag_shape = (nr, nt)

    def fm2f_rand(lo: int, hi: int) -> Array:
        i, j = np.unravel_index(np.arange(lo, hi), rand_diag_shape)
        return -np.abs(m(rx[i], rx[i], ts[j]) - 1.0)

    def fm2f_rand_desc(idx: int) -> dict:
        i, j = np.unravel_index(idx, rand_diag_shape)
        return {"x": float(rx[i]), "y": float(rx[i]), "t": float(ts[j]),
                "value": fm.value(rx[i], rx[i], ts[j])}

    checks.append(_run_check(
        "FM-2-forward",
        [_Segment(g * nt, fm2f_grid, fm2f_grid_desc),
         _Segment(nr * nt, fm2f_rand, fm2f_rand_desc)],
        -1e-12, jobs))

    # FM-2 reverse: no distinct sampled pair has M = 1 (within 1e-12) at
    # every sampled t; sampling-sound, not complete
    def fm2r_grid(lo: int, hi: int) -> Array:
        i, j = np.unravel_index(np.arange(lo, hi), pair_shape)
        vals = m(xs[i][:, None], xs[j][:, None], ts[None, :])
        m_min = np.min(np.asarray(vals, dtype=float), axis=1)
        distinct = i != j
        return np.where(distinct, (1.0 - 1e-12) - m_min, np.inf)

    def fm2r_grid_desc(idx: int) -> dict:
        i, j = np.unravel_index(idx, pair_shape)
        return {"x": float(xs[i]), "y": float(xs[j]), "t": float(ts[0]),
                "value": fm.value(xs[i], xs[j], ts[0])}

    checks.append(_run_check(
        "FM-2-reverse", [_Segment(g * g, fm2r_grid, fm2r_grid_desc)], 0.0, jobs))

    # FM-3: exact symmetry
    tri_shape = (g, g, nt)

    def fm3_grid(lo: int, hi: int) -> Array:
        i, j, k = np.unravel_index(np.arange(lo, hi), tri_shape)
        return -np.abs(m(xs[i], xs[j], ts[k]) - m(xs[j], xs[i], ts[k]))

    def fm3_grid_desc(idx: int) -> dict:
        i, j, k = np.unravel_index(idx, tri_shape)
        return {"x": float(xs[i]), "y": float(xs[j]), "t": float(ts[k]),
                "value": fm.value(xs[i], xs[j], ts[k]),
                "value_swapped": fm.value(xs[j], xs[i], ts[k])}

    rand_tri_shape = (nr, nt)

    def fm3_rand(lo: int, hi: int) -> Array:
        i, k = np.unravel_index(np.arange(lo, hi), rand_tri_shape)
        return -np.abs(m(rx[i], ry[i], ts[k]) - m(ry[i], rx[i], ts[k]))

    def fm3_rand_desc(idx: int) -> dict:
        i, k = np.unravel_index(idx, rand_tri_shape)
        return {"x": float(rx[i]), "y": float(ry[i]), "t": float(ts[k]),
                "value": fm.value(rx[i], ry[i], ts[k]),
                "value_swapped": fm.value(ry[i], rx[i], ts[k])}

    checks.append(_run_check(
        "FM-3",
        [_Segment(g * g * nt, fm3_grid, fm3_grid_desc),
         _Segment(nr * nt, fm3_rand, fm3_rand_desc)],
        0.0, jobs))

    # FM-4: triangle law through the t-norm
    quad_shape = (g, g, g, nt, nt)

    def fm4_margin(x: Array, y: Array, z: Array, t: Array, s: Array) -> Array:
        lhs = m(x, z, t + s)
        rhs = fm.tnorm.on_arrays(m(x, y, t), m(y, z, s))
        return np.asarray(lhs, dtype=float) - rhs

    def fm4_grid(lo: int, hi: int) -> Array:
        i, j, k, p, q = np.unravel_index(np.arange(lo, hi), quad_shape)
        return fm4_margin(xs[i], xs[j], xs[k], ts[p], ts[q])

    def fm4_grid_desc(idx: int) -> dict:
        i, j, k, p, q = np.unravel_index(idx, quad_shape)
        return {"x": float(xs[i]), "y": float(xs[j]), "z": float(xs[k]),
                "t": float(ts[p]), "s": float(ts[q]),
                "margin": float(fm4_margin(xs[i], xs[j], xs[k], ts[p], ts[q]))}

    def fm4_rand(lo: int, hi: int) -> Array:
        s = slice(lo, hi)
        return fm4_margin(rx[s], ry[s], rz[s], rt[s], rs[s])

    def fm4_rand_desc(idx: int) -> dict:
        return {"x": float(rx[idx]), "y": float(ry[idx]), "z": float(rz[idx]),
                "t": float(rt[idx]), "s": float(rs[idx]),
                "margin": float(fm4_margin(rx[idx], ry[idx], rz[idx], rt[idx], rs[idx]))}

    checks.append(_run_check(
        "FM-4",
        [_Segment(g * g * g * nt * nt, fm4_grid, fm4_grid_desc),
         _Segment(nr, fm4_rand, fm4_rand_desc)],
        -1e-12, jobs))

    # FM-5: sampled modulus of continuity in t
    def fm5_margin(x: Array, y: Array, t: Array) -> Array:
        h = 1e-6 * t
        jump = np.abs(np.asarray(m(x, y, t + h), dtype=float) - m(x, y, t))
        return 1e-3 - jump

    def fm5_grid(lo: int, hi: int) -> Array:
        i, j, k = np.unravel_index(np.arange(lo, hi), tri_shape)
        return fm5_margin(xs[i], xs[j], ts[k])

    def fm5_grid_desc(idx: int) -> dict:
        i, j, k = np.unravel_index(idx, tri_shape)
        return {"x": float(xs[i]), "y": float(xs[j]), "t": float(ts[k]),
                "jump": float(1e-3 - fm5_margin(xs[i], xs[j], ts[k]))}

    def fm5_rand(lo: int, hi: int) -> Array:
        i, k = np.unravel_index(np.arange(lo, hi), rand_tri_shape)
        return fm5_margin(rx[i], ry[i], ts[k])

    def fm5_rand_desc(idx: int) -> dict:
        i, k = np.unravel_index(idx, rand_tri_shape)
        return {"x": float(rx[i]), "y": float(ry[i]), "t": float(ts[k]),
                "jump": float(1e-3 - fm5_margin(rx[i], ry[i], ts[k]))}

    checks.append(_run_check(
        "FM-5",
        [_Segment(g * g * nt, fm5_grid, fm5_grid_desc),
         _Segment(nr * nt, fm5_rand, fm5_rand_desc)],
        0.0, jobs))

    # t-monotonicity: nondecreasing along the sorted time grid
    if nt >= 2:
        mono_shape = (g, g, nt - 1)

        def mono_grid(lo: int, hi: int) -> Array:
            i, j, k = np.unravel_index(np.arange(lo, hi), mono_shape)
            return np.asarray(m(xs[i], xs[j], ts[k + 1]), dtype=float) - m(xs[i], xs[j], ts[k])

        def mono_grid_desc(idx: int) -> dict:
            i, j, k = np.unravel_index(idx, mono_shape)
            return {"x": float(xs[i]), "y": float(xs[j]),
                    "t_lo": float(ts[k]), "t_hi": float(ts[k + 1]),
                    "value_lo": fm.value(xs[i], xs[j], ts[k]),
                    "value_hi": fm.value(xs[i], xs[j], ts[k + 1])}

        rand_mono_shape = (nr, nt - 1)

        def mono_rand(lo: int, hi: int) -> Array:
            i, k = np.unravel_index(np.arange(lo, hi), rand_mono_shape)
            return np.asarray(m(rx[i], ry[i], ts[k + 1]), dtype=float) - m(rx[i], ry[i], ts[k])

        def mono_rand_desc(idx: int) -> dict:
            i, k = np.unravel_index(idx, rand_mono_shape)
            return {"x": float(rx[i]), "y": float(ry[i]),
                    "t_lo": float(ts[k]), "t_hi": float(ts[k + 1]),
                    "value_lo": fm.value(rx[i], ry[i], ts[k]),
                    "value_hi": fm.value(rx[i], ry[i], ts[k + 1])}

        checks.append(_run_check(
            "t-monotone",
            [_Segment(g * g * (nt - 1), mono_grid, mono_grid_desc),
             _Segment(nr * (nt - 1), mono_rand, mono_rand_desc)],
            -1e-12, jobs))

    return {"passed": all(c["status"] == "pass" for c in checks), "checks": checks}


def blockwise_contraction_margins(spec: ContractionSpec, quad: MapQuadruple,
                                  grid_n: int, t_grid) -> Array:
    """The contraction scan's margins with every membership gauged
    elementwise, ``_gauged(spec, fm.membership(...))``, on each block of
    whole x-rows that the scan cuts (as many as fit in ``CHUNK``).  Every
    map's images enter in full, so a constant map spans a block like any
    other: an integral phi gets exactly the block's set of memberships."""
    m = quad.fm.membership
    xs = quad.fm.carrier.points(grid_n)
    ts = np.asarray(t_grid, dtype=float)
    g, nt = xs.size, ts.size
    ax, fx, by, gy = quad.a(xs), quad.f(xs), quad.b(xs), quad.g(xs)
    u3 = _gauged(spec, m(ax[:, None], fx[:, None], ts), "M(Ax,Fx,t)")
    u4 = _gauged(spec, m(by[:, None], gy[:, None], ts), "M(By,Gy,t)")
    rows = max(1, _parallel.CHUNK // (g * nt))
    blocks = []
    for r0 in range(0, g, rows):
        r = slice(r0, r0 + rows)
        m1 = _gauged(spec, m(fx[r, None, None], gy[None, :, None], ts), "M(Fx,Gy,t)")
        m2 = _gauged(spec, m(ax[r, None, None], by[None, :, None], ts), "M(Ax,By,t)")
        margins = psi_eval_on_arrays(spec.psi, m1, m2, u3[r, None, :], u4[None])
        blocks.append(np.broadcast_to(margins, m1.shape).ravel())
    return np.concatenate(blocks)


def meshgrid_verify_psi(psi: PsiFunction, variant: str, grid_n: int) -> dict:
    """The condition checks with psi1 swept over meshgrid cubes."""
    grid = np.linspace(0.0, 1.0, grid_n)
    conditions = []

    # psi1: monotone sweep in the first argument, one u1 slab at a time; each
    # slab spans the whole grid in u2..u4, so batched integral gauges see the
    # same quadrature knots as a sweep over the full grid^4 would
    u2g, u3g, u4g = np.meshgrid(grid, grid, grid, indexing="ij")
    sign = 1.0 if psi.u1_direction == "increasing" else -1.0
    note = "checked nondecreasing in u1" if sign > 0 else "checked nonincreasing in u1"
    samples = (grid_n - 1) * u2g.size
    witness = None
    lo_vals = psi_eval_on_arrays(psi, np.full_like(u2g, grid[0]), u2g, u3g, u4g)
    for j in range(grid_n - 1):
        hi_vals = psi_eval_on_arrays(psi, np.full_like(u2g, grid[j + 1]), u2g, u3g, u4g)
        bad = np.flatnonzero(sign * (hi_vals - lo_vals) < -1e-12)
        if bad.size:
            i2, i3, i4 = np.unravel_index(int(bad[0]), u2g.shape)
            witness = {
                "u1_lo": float(grid[j]), "u1_hi": float(grid[j + 1]),
                "u2": float(grid[i2]), "u3": float(grid[i3]), "u4": float(grid[i4]),
                "value_lo": float(lo_vals[i2, i3, i4]),
                "value_hi": float(hi_vals[i2, i3, i4]),
            }
            break
        lo_vals = hi_vals
    conditions.append({"name": "psi1", "status": "holds" if witness is None else "fails",
                       "witness": witness, "samples": samples, "note": note})

    zeros = np.zeros_like(grid)
    for name in ("psi2", "psi3", "psi4"):
        u1, u2, u3, u4 = _SLOTS[name](grid, zeros)
        slot_vals = psi_eval_on_arrays(psi, u1, u2, u3, u4)
        if variant == "as_printed":
            conditions.append({"name": name, "status": "holds-vacuously", "witness": None,
                               "samples": int(grid.size),
                               "note": "consequent u >= 0 holds for every u in [0,1]"})
            continue
        violating = np.nonzero((slot_vals >= 0.0) & (grid > 0.0))[0]
        if violating.size:
            i = int(violating[0])
            witness = {"u": float(grid[i]), "value": float(slot_vals[i])}
            conditions.append({"name": name, "status": "fails", "witness": witness,
                               "samples": int(grid.size),
                               "note": "gauge stays nonnegative at a positive u"})
        else:
            conditions.append({"name": name, "status": "holds", "witness": None,
                               "samples": int(grid.size),
                               "note": "nonnegative gauge forces u = 0 on the grid"})

    return {"example_id": psi.example_id, "variant": variant,
            "passed": all(c["status"] != "fails" for c in conditions),
            "conditions": conditions}
