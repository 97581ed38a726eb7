"""The lockstep searches against the one-bracket-at-a-time loops they replace.

``find_common_fixed_points`` refines every golden-section bracket at once and
``find_coincidence_points`` bisects every sign change at once.  The scalar
loops below are the searches as they ran before, one bracket and one point
at a time; every result must equal theirs bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from fuzzfix import (
    MapQuadruple,
    SelfMap,
    find_coincidence_points,
    find_common_fixed_points,
    residuals_on_grid,
    selfmap_from_expr,
)
from fuzzfix import pipeline

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
POLY5 = "x + 2 * x * (x - 0.143) * (x - 0.305) * (x - 0.617) * (x - 1)"


def scalar_golden_min(fn, lo: float, hi: float) -> tuple[float, float, int]:
    """One bracket refined alone; returns (x, fn(x), steps taken)."""
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    steps = 0
    for _ in range(200):
        if not (b - a) > 1e-14:
            break
        steps += 1
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    x = c if fc <= fd else d
    fx = min(fc, fd)
    for cand, fcand in ((a, fn(a)), (b, fn(b))):
        if fcand < fx:
            x, fx = cand, fcand
    return x, fx, steps


def scalar_certificate(quad: MapQuadruple, z: float, tol: float) -> dict:
    maps = {"a": quad.a, "b": quad.b, "f": quad.f, "g": quad.g}
    residuals = {name: abs(float(m(np.asarray([z]))[0]) - z) for name, m in maps.items()}
    return {"z": float(z), "residuals": residuals,
            "max_residual": max(residuals.values()), "tolerance": tol}


def scalar_fixed_points(quad: MapQuadruple, tol: float = 1e-9,
                        grid_n: int | None = None) -> tuple[dict, int]:
    """The search with one golden-section loop per bracket; returns the search
    and the most steps any bracket took."""
    carrier = quad.fm.carrier
    n = carrier.grid_n if grid_n is None else grid_n
    xs = carrier.points(n)
    r = residuals_on_grid(quad, xs)
    if bool(np.all(r < tol)):
        certs = [scalar_certificate(quad, float(x), tol) for x in xs]
        return {"certificates": certs, "all_points_fixed": True, "grid_n": n,
                "tolerance": tol}, 0

    def at(x: float) -> float:
        return float(residuals_on_grid(quad, np.asarray([x], dtype=float))[0])

    spacing = float(xs[1] - xs[0])
    interior = (r[1:-1] <= r[:-2]) & (r[1:-1] <= r[2:])
    candidates = [0] + (np.nonzero(interior)[0] + 1).tolist() + [xs.size - 1]
    hits, longest = [], 0
    for i in sorted(set(candidates)):
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, xs.size - 1)]
        z, rz, steps = scalar_golden_min(at, float(lo), float(hi))
        longest = max(longest, steps)
        if rz < tol:
            hits.append((float(z), float(rz)))
    hits.sort()
    merged: list[tuple[float, float]] = []
    for z, rz in hits:
        if merged and z - merged[-1][0] <= spacing:
            if rz < merged[-1][1]:
                merged[-1] = (z, rz)
        else:
            merged.append((z, rz))
    certs = [scalar_certificate(quad, z, tol) for z, _ in merged]
    return {"certificates": certs, "all_points_fixed": False, "grid_n": n,
            "tolerance": tol}, longest


def scalar_coincidences(f: SelfMap, g: SelfMap,
                        tol: float = 1e-9) -> tuple[dict, list[int]]:
    """The search with one bisection loop per sign change, evaluating the
    maps at one point at a time; returns the result and the steps each
    bracket took."""
    def at(m: SelfMap, x: float) -> float:
        return float(m(x))

    grid = f.carrier.points()
    h = f(grid) - g(grid)
    if bool(np.all(np.abs(h) < tol)):
        return {"points": [float(x) for x in grid], "coincide_everywhere": True,
                "tol": tol}, []
    candidates = [float(x) for x in grid[np.abs(h) < tol]]
    steps = []
    for i in np.nonzero(h[:-1] * h[1:] < 0.0)[0]:
        lo, hi = float(grid[i]), float(grid[i + 1])
        hlo = float(h[i])
        for step in range(1, 61):
            mid = 0.5 * (lo + hi)
            hm = at(f, mid) - at(g, mid)
            if hm == 0.0:
                lo = hi = mid
                break
            if (hm > 0.0) == (hlo > 0.0):
                lo, hlo = mid, hm
            else:
                hi = mid
        steps.append(step)
        candidates.append(0.5 * (lo + hi))
    if not candidates:
        return {"points": [], "coincide_everywhere": False, "tol": tol}, steps
    candidates.sort()
    spacing = f.carrier.spacing
    clusters: list[list[float]] = [[candidates[0]]]
    for x in candidates[1:]:
        if x - clusters[-1][-1] <= spacing:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    merged = []
    for cluster in clusters:
        best = min(cluster, key=lambda x: (abs(at(f, x) - at(g, x)), x))
        if abs(at(f, best) - at(g, best)) < tol:
            merged.append(best)
    return {"points": merged, "coincide_everywhere": False, "tol": tol}, steps


def quad_of(fm, a: str, b: str, f: str, g: str) -> MapQuadruple:
    c = fm.carrier
    return MapQuadruple(*(selfmap_from_expr(c, text, label=label)
                          for text, label in ((a, "A"), (b, "B"), (f, "F"), (g, "G"))),
                        fm=fm)


QUADS = {
    "example": ("x / 2", "x / 4", "x", "0"),
    "several-interior-minima": (POLY5, "x", "x", "x"),
    "minima-off-tolerance": ("abs(2 * x - 1) / 2 + 0.25", "max(0.25, min(x, 0.75))",
                             "min(x, 1 - x) + 0.3", "max(x / 2, 1 / 3)"),
    "exp-sqrt-power": ("exp(x - 1) * x", "sqrt(x)", "x ^ 2",
                       "exp(x) - 1 - 0.75 * x ^ 2"),
    "power-fixed-ends": ("x ^ 3", "x", "x ^ 0.5", "(x + x ^ 2) / 2"),
    "off-grid": ("0.7853 + 0 * x",) * 4,
    "all-points-fixed": ("x", "x", "min(x, 1)", "max(x, 0)"),
}


class TestLockstepGoldenSection:
    @pytest.mark.parametrize("grid_n", [None, 37])
    @pytest.mark.parametrize("name", sorted(QUADS))
    def test_equals_the_scalar_search(self, reference_fm, name, grid_n):
        quad = quad_of(reference_fm, *QUADS[name])
        got = find_common_fixed_points(quad, grid_n=grid_n)
        want, _ = scalar_fixed_points(quad, grid_n=grid_n)
        assert got == want
        assert [c["z"] for c in got["certificates"]] == [c["z"] for c in want["certificates"]]
        assert [c["residuals"] for c in got["certificates"]] == [
            c["residuals"] for c in want["certificates"]]

    def test_cases_reach_their_paths(self, reference_fm):
        def search(name):
            return find_common_fixed_points(quad_of(reference_fm, *QUADS[name]))
        assert len(search("several-interior-minima")["certificates"]) == 5
        assert search("minima-off-tolerance")["certificates"] == []
        assert search("all-points-fixed")["all_points_fixed"]

    @pytest.mark.parametrize("name", ["example", "several-interior-minima",
                                      "exp-sqrt-power"])
    def test_one_residual_call_per_step(self, reference_fm, monkeypatch, name):
        # one grid scan, two initial probes, one call per step of the
        # longest bracket and two endpoint checks
        quad = quad_of(reference_fm, *QUADS[name])
        _, longest = scalar_fixed_points(quad)
        calls = []
        real = pipeline.residuals_on_grid

        def counted(q, xs):
            calls.append(np.size(xs))
            return real(q, xs)

        monkeypatch.setattr(pipeline, "residuals_on_grid", counted)
        find_common_fixed_points(quad)
        assert len(calls) == 5 + longest
        assert longest > 40


class TestLockstepBisection:
    PAIRS = {
        "example-af": ("x / 2", "x"),
        "example-bg-failing": ("x / 4", "1 - x"),
        "three-sign-changes": (POLY5, "x"),
        "sign-changes-both-ways": (POLY5, "1 - x ^ 2"),
        "exp-sqrt-power": ("exp(x - 1) * x", "sqrt(x) ^ 3"),
        "abs-min-max": ("abs(2 * x - 1) / 2 + 0.25", "min(x, 1 - x) + 0.3"),
        "coincide-everywhere": ("x", "min(x, 1)"),
        "none": ("x / 4 + 0.5", "x / 4"),
    }

    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_equals_the_scalar_search(self, unit_carrier, name, tol):
        f, g = (selfmap_from_expr(unit_carrier, text) for text in self.PAIRS[name])
        assert find_coincidence_points(f, g, tol) == scalar_coincidences(f, g, tol)[0]

    def test_cases_reach_their_paths(self, unit_carrier):
        def search(name):
            f, g = (selfmap_from_expr(unit_carrier, text) for text in self.PAIRS[name])
            return find_coincidence_points(f, g)
        grid = unit_carrier.points()
        f, g = (selfmap_from_expr(unit_carrier, t) for t in self.PAIRS["three-sign-changes"])
        h = f(grid) - g(grid)
        assert np.count_nonzero(h[:-1] * h[1:] < 0.0) == 3
        assert len(search("three-sign-changes")["points"]) == 5
        assert search("coincide-everywhere")["coincide_everywhere"]
        assert search("none")["points"] == []

    def test_exact_zero_midpoint_stops_its_bracket(self, unit_carrier):
        # h = x - 0.375 is exactly 0 at the first midpoint of [0.37, 0.38]
        grid = unit_carrier.points()
        assert 0.5 * (grid[37] + grid[38]) == 0.375
        evaluated = []

        def ident(x):
            evaluated.append(np.size(x))
            return x

        f = SelfMap(unit_carrier, ident, "F")
        g = selfmap_from_expr(unit_carrier, "0.375 + 0 * x")
        evaluated.clear()
        got = find_coincidence_points(f, g)
        # the grid, one bisection step and the cluster merge
        assert evaluated == [grid.size, 1, 1]
        assert got == scalar_coincidences(f, g)[0]
        assert got["points"] == [0.375]

    def test_one_evaluation_per_step_for_all_open_brackets(self, unit_carrier):
        evaluated = []
        poly = selfmap_from_expr(unit_carrier, POLY5)

        def counted(x):
            evaluated.append(np.size(x))
            return poly(x)

        f = SelfMap(unit_carrier, counted, "F")
        g = selfmap_from_expr(unit_carrier, "x")
        evaluated.clear()
        find_coincidence_points(f, g)
        grid_call, *step_calls, merge_call = evaluated
        # step k evaluates the brackets that take more than k steps alone
        _, steps = scalar_coincidences(f, g)
        assert len(steps) == 3 and min(steps) < max(steps)
        assert step_calls == [sum(s > k for s in steps) for k in range(max(steps))]
        assert (grid_call, merge_call) == (unit_carrier.grid_n, 5)
