"""The lockstep searches against one-bracket-at-a-time loops.

``find_common_fixed_points`` and ``find_coincidence_points`` refine every
bracket at once by sectioning.  The scalar sectioning loops below refine one
bracket at a time, with the pick rules written out sample by sample; every
lockstep result must equal theirs bit for bit.  The golden-section and
bisection loops that the searches used before are kept as reference
searches: wherever one of them finds a point below tolerance, sectioning
finds one too, within one grid spacing of it.
"""

from __future__ import annotations

import math
from importlib import resources

import numpy as np
import pytest

from fuzzfix import (
    Carrier,
    MapQuadruple,
    SelfMap,
    find_coincidence_points,
    find_common_fixed_points,
    make_tnorm,
    residuals_on_grid,
    selfmap_from_expr,
    standard_fuzzy_metric,
)
from fuzzfix import cli, pipeline

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SECTIONS = 16
MAX_STEPS = 200
POLY5 = "x + 2 * x * (x - 0.143) * (x - 0.305) * (x - 0.617) * (x - 1)"


def samples(lo: float, hi: float) -> np.ndarray:
    """The SECTIONS + 1 evenly spaced points of [lo, hi], ends included."""
    xs = lo + (hi - lo) * (np.arange(SECTIONS + 1) / SECTIONS)
    xs[-1] = hi
    return xs


def scalar_section_min(fn, lo: float, hi: float) -> tuple[float, float, int]:
    """One bracket refined alone by sectioning; returns the best sample, its
    value and the steps taken."""
    x, fx, steps = math.nan, math.inf, 0
    while steps < MAX_STEPS:
        steps += 1
        xs = samples(lo, hi)
        ys = fn(xs).tolist()
        k = min(range(SECTIONS + 1), key=lambda i: ys[i])  # the first smallest
        if ys[k] < fx:
            x, fx = float(xs[k]), ys[k]
        was = lo, hi
        lo, hi = float(xs[max(k - 1, 0)]), float(xs[min(k + 1, SECTIONS)])
        if not hi - lo > 1e-14 or (lo, hi) == was:
            break
    return x, fx, steps


def scalar_golden_min(fn, lo: float, hi: float) -> tuple[float, float, int]:
    """One bracket refined alone by the golden-section search used before
    sectioning; returns (x, fn(x), steps taken)."""
    def at(x: float) -> float:
        return float(fn(np.asarray([x], dtype=float))[0])

    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = at(c), at(d)
    steps = 0
    for _ in range(200):
        if not (b - a) > 1e-14:
            break
        steps += 1
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = at(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = at(d)
    x = c if fc <= fd else d
    fx = min(fc, fd)
    for cand, fcand in ((a, at(a)), (b, at(b))):
        if fcand < fx:
            x, fx = cand, fcand
    return x, fx, steps


def scalar_certificate(quad: MapQuadruple, z: float, tol: float) -> dict:
    maps = {"a": quad.a, "b": quad.b, "f": quad.f, "g": quad.g}
    residuals = {name: abs(float(m(np.asarray([z]))[0]) - z) for name, m in maps.items()}
    return {"z": float(z), "residuals": residuals,
            "max_residual": max(residuals.values()), "tolerance": tol}


def scalar_fixed_points(quad: MapQuadruple, tol: float = 1e-9, grid_n: int | None = None,
                        minimize=scalar_section_min) -> tuple[dict, int]:
    """The search with one ``minimize`` loop per bracket; returns the search
    and the most steps any bracket took."""
    carrier = quad.fm.carrier
    n = carrier.grid_n if grid_n is None else grid_n
    xs = carrier.points(n)
    r = residuals_on_grid(quad, xs)
    if bool(np.all(r < tol)):
        certs = [scalar_certificate(quad, float(x), tol) for x in xs]
        return {"certificates": certs, "all_points_fixed": True, "grid_n": n,
                "tolerance": tol}, 0

    spacing = float(xs[1] - xs[0])
    interior = (r[1:-1] <= r[:-2]) & (r[1:-1] <= r[2:])
    candidates = [0] + (np.nonzero(interior)[0] + 1).tolist() + [xs.size - 1]
    hits, longest = [], 0
    for i in sorted(set(candidates)):
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, xs.size - 1)]
        z, rz, steps = minimize(lambda pts: residuals_on_grid(quad, pts), float(lo),
                                float(hi))
        longest = max(longest, steps)
        if rz < tol:
            hits.append((float(z), float(rz)))
        if r[i] < tol:
            hits.append((float(xs[i]), float(r[i])))
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


def section_root(h, lo: float, hi: float) -> tuple[float, float, int]:
    """One sign change refined alone by sectioning; returns its final
    bracket and the steps taken."""
    steps = 0
    while steps < MAX_STEPS:
        steps += 1
        xs = samples(lo, hi)
        hs = h(xs).tolist()
        k = next(i for i in range(1, SECTIONS + 1)
                 if hs[i] == 0.0 or (hs[i] > 0.0) != (hs[0] > 0.0))
        if hs[k] == 0.0:
            return float(xs[k]), float(xs[k]), steps
        was = lo, hi
        lo, hi = float(xs[k - 1]), float(xs[k])
        if not np.nextafter(lo, hi) < hi or (lo, hi) == was:
            break
    return lo, hi, steps


def bisect_root(h, lo: float, hi: float) -> tuple[float, float, int]:
    """One sign change refined alone by the bisection used before
    sectioning, one point at a time; returns the midpoint twice and the
    steps taken."""
    hlo = float(h(np.asarray([lo]))[0])
    for step in range(1, 61):
        mid = 0.5 * (lo + hi)
        hm = float(h(np.asarray([mid]))[0])
        if hm == 0.0:
            lo = hi = mid
            break
        if (hm > 0.0) == (hlo > 0.0):
            lo, hlo = mid, hm
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return mid, mid, step


def scalar_coincidences(f: SelfMap, g: SelfMap, tol: float = 1e-9,
                        refine=section_root) -> tuple[dict, list[int]]:
    """The search with one ``refine`` loop per sign change; returns the
    result and the steps each bracket took."""
    def h(xs: np.ndarray) -> np.ndarray:
        return f(xs) - g(xs)

    def at(x: float) -> float:
        return float(h(np.asarray([x]))[0])

    grid = f.carrier.points()
    hg = h(grid)
    if bool(np.all(np.abs(hg) < tol)):
        return {"points": [float(x) for x in grid], "coincide_everywhere": True,
                "tol": tol}, []
    candidates = [float(x) for x in grid[np.abs(hg) < tol]]
    steps = []
    for i in np.nonzero(hg[:-1] * hg[1:] < 0.0)[0]:
        lo, hi, taken = refine(h, float(grid[i]), float(grid[i + 1]))
        steps.append(taken)
        candidates += [lo, hi]
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
        best = min(cluster, key=lambda x: (abs(at(x)), x))
        if abs(at(best)) < tol:
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


class TestLockstepSectionMin:
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

    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    @pytest.mark.parametrize("grid_n", [None, 37])
    @pytest.mark.parametrize("name", sorted(QUADS))
    def test_finds_what_golden_section_found(self, reference_fm, name, grid_n, tol):
        quad = quad_of(reference_fm, *QUADS[name])
        got = find_common_fixed_points(quad, tol=tol, grid_n=grid_n)
        old, _ = scalar_fixed_points(quad, tol=tol, grid_n=grid_n,
                                     minimize=scalar_golden_min)
        spacing = 1.0 / ((grid_n or 101) - 1)
        assert got["all_points_fixed"] == old["all_points_fixed"]
        assert len(got["certificates"]) == len(old["certificates"])
        for new, was in zip(got["certificates"], old["certificates"]):
            assert abs(new["z"] - was["z"]) <= spacing
            assert new["max_residual"] < tol

    def test_cases_reach_their_paths(self, reference_fm):
        def search(name):
            return find_common_fixed_points(quad_of(reference_fm, *QUADS[name]))
        assert len(search("several-interior-minima")["certificates"]) == 5
        assert search("minima-off-tolerance")["certificates"] == []
        assert search("all-points-fixed")["all_points_fixed"]

    @pytest.mark.parametrize("name", ["example", "several-interior-minima",
                                      "exp-sqrt-power"])
    def test_one_residual_call_per_step(self, reference_fm, monkeypatch, name):
        # one grid scan and one call per step of the longest bracket
        quad = quad_of(reference_fm, *QUADS[name])
        _, longest = scalar_fixed_points(quad)
        calls = []
        real = pipeline.residuals_on_grid

        def counted(q, xs):
            calls.append(np.size(xs))
            return real(q, xs)

        monkeypatch.setattr(pipeline, "residuals_on_grid", counted)
        find_common_fixed_points(quad)
        assert len(calls) == 1 + longest
        assert 10 <= longest <= 14

    def test_example6_fixpoint_budget(self, monkeypatch, capsys):
        # golden section took 62 residual calls here
        calls = []
        real = pipeline.residuals_on_grid

        def counted(q, xs):
            calls.append(np.size(xs))
            return real(q, xs)

        monkeypatch.setattr(pipeline, "residuals_on_grid", counted)
        ini = resources.files("fuzzfix") / "data" / "example6.ini"
        with resources.as_file(ini) as path:
            assert cli.main(["fixpoint", "--config", str(path)]) == 0
        assert '"z": 0.0' in capsys.readouterr().out
        assert len(calls) <= 15


    def test_unchanged_bracket_stops(self, monkeypatch):
        # adjacent floats near 150 are farther apart than 1e-14, so the
        # bracket around z = 150 never reaches that width; it once took all
        # 200 steps, each repeating the one before
        carrier = Carrier(100.0, 200.0, 101)
        fm = standard_fuzzy_metric(lambda x, y: abs(x - y), make_tnorm("product"), carrier)
        quad = quad_of(fm, "x / 2 + 75", "x / 4 + 112.5", "x", "150 + 0 * x")
        calls = []
        real = pipeline.residuals_on_grid

        def counted(q, xs):
            calls.append(np.size(xs))
            return real(q, xs)

        monkeypatch.setattr(pipeline, "residuals_on_grid", counted)
        got = find_common_fixed_points(quad)
        want, longest = scalar_fixed_points(quad)
        assert got == want
        assert [c["z"] for c in got["certificates"]] == [150.0]
        assert len(calls) == 1 + longest == 18


class TestLockstepSectionRoots:
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

    @pytest.mark.parametrize("tol", [1e-9, 1e-3, 1e-16])
    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_equals_the_scalar_search(self, unit_carrier, name, tol):
        f, g = (selfmap_from_expr(unit_carrier, text) for text in self.PAIRS[name])
        assert find_coincidence_points(f, g, tol) == scalar_coincidences(f, g, tol)[0]

    @pytest.mark.parametrize("tol", [1e-9, 1e-3, 1e-16])
    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_finds_what_bisection_found(self, unit_carrier, name, tol):
        f, g = (selfmap_from_expr(unit_carrier, text) for text in self.PAIRS[name])
        got = find_coincidence_points(f, g, tol)["points"]
        old = scalar_coincidences(f, g, tol, refine=bisect_root)[0]["points"]
        assert len(got) == len(old)
        for new, was in zip(got, old):
            assert abs(new - was) <= unit_carrier.spacing
            assert abs(float(f(new)) - float(g(new))) < tol

    def test_tolerance_1e_16_keeps_its_points(self, unit_carrier):
        # brackets narrowed to adjacent floats are at least as tight as 60
        # bisection steps, so the three refined roots stay below 1e-16
        f, g = (selfmap_from_expr(unit_carrier, t) for t in self.PAIRS["three-sign-changes"])
        old = scalar_coincidences(f, g, 1e-16, refine=bisect_root)[0]["points"]
        assert len(old) == 5
        assert len(find_coincidence_points(f, g, 1e-16)["points"]) == 5

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

    def test_exact_zero_sample_stops_its_bracket(self, unit_carrier):
        # h = x - 0.375 is exactly 0 at the middle sample of [0.37, 0.38]
        grid = unit_carrier.points()
        assert samples(grid[37], grid[38])[SECTIONS // 2] == 0.375
        evaluated = []

        def ident(x):
            evaluated.append(np.size(x))
            return x

        f = SelfMap(unit_carrier, ident, "F")
        g = selfmap_from_expr(unit_carrier, "0.375 + 0 * x")
        evaluated.clear()
        got = find_coincidence_points(f, g)
        # the grid, one sectioning step and the cluster merge of both ends
        assert evaluated == [grid.size, SECTIONS + 1, 2]
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
        # step k samples the brackets that take more than k steps alone
        _, steps = scalar_coincidences(f, g)
        assert len(steps) == 3 and max(steps) <= 15
        assert step_calls == [(SECTIONS + 1) * sum(s > k for s in steps)
                              for k in range(max(steps))]
        # two grid hits (0 and 1) and both ends of each bracket
        assert (grid_call, merge_call) == (unit_carrier.grid_n, 2 + 2 * 3)
