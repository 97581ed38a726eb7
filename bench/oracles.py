"""Output oracles: every call's exit code and report are checked against
values the benchmark derives on its own.

The contraction scans are recomputed in closed form with NumPy: the standard
membership M(u,v,t) = t/(t+|u-v|), the maps a = x/2, b = x/4, f = x and
g = 0 (or 1 - x), the linear gauge 1 - s or the integral gauge
phi(s) = ((1-s)^2 + 0.1(1-s))/1.1 of the density 2s + 0.1, and
psi = u1 - k min(u2, u3, u4).  The DP solution is 2c*x.  ``check`` returns
the list of problems found (empty when the call is correct) and the work the
call did, for the throughput metrics.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from workloads import SCAN_T_GRID

MARGIN_TOLERANCE = -1e-9
# closed form and program agree to rounding (linear gauge) or to the
# quadrature tolerance (integral gauge); both stay far below this
AGREE = 1e-9

Recompute = Callable[[float, float, float], float]


def _gauge(phi: str, m: np.ndarray) -> np.ndarray:
    d = 1.0 - m
    return d if phi == "linear" else (d * d + 0.1 * d) / 1.1


def closed_margins(variant: str, phi: str, k: float, xs: np.ndarray,
                   ys: np.ndarray, t: float) -> np.ndarray:
    """Margins of main_411 on the grid xs x ys at one time t, closed form."""
    x, y = xs[:, None], ys[None, :]
    fx, ax, by = x, x / 2, y / 4
    gy = np.zeros_like(y) if variant == "pass" else 1 - y

    def m(u, v):
        return t / (t + np.abs(u - v))

    p1 = _gauge(phi, m(fx, gy))
    p2, p3, p4 = (_gauge(phi, m(ax, by)), _gauge(phi, m(ax, fx)),
                  _gauge(phi, m(by, gy)))
    return p1 - k * np.minimum(np.minimum(p2, p3), p4)


def _scan(exp: dict, grid: int) -> np.ndarray:
    """All margins of a scan, flattened in the program's (x, y, t) order."""
    xs = np.linspace(0.0, 1.0, grid)
    cols = [closed_margins(exp["variant"], exp["phi"], exp["k"], xs, xs, t)
            for t in SCAN_T_GRID]
    return np.stack(cols, axis=-1).ravel()


def _scan_min(exp: dict, grid: int, rows: int = 64) -> float:
    # in row blocks, so the check stays far below the program's own peak RSS
    xs = np.linspace(0.0, 1.0, grid)
    return min(float(closed_margins(exp["variant"], exp["phi"], exp["k"],
                                    xs[i:i + rows], xs, t).min())
               for t in SCAN_T_GRID for i in range(0, grid, rows))


def _near(a, b, tol: float = AGREE) -> bool:
    return a is not None and b is not None and abs(float(a) - float(b)) <= tol


def _point_index(point: dict, grid: int) -> int | None:
    xs = np.linspace(0.0, 1.0, grid)
    i = np.nonzero(xs == point["x"])[0]
    j = np.nonzero(xs == point["y"])[0]
    if point["t"] not in SCAN_T_GRID or not i.size or not j.size:
        return None
    return (int(i[0]) * grid + int(j[0])) * len(SCAN_T_GRID) + SCAN_T_GRID.index(point["t"])


def _check_verify(exp: dict, doc: dict, recompute: Recompute | None) -> tuple[list, dict]:
    problems: list[str] = []
    rep, g = doc["report"], exp["grid"]
    T = len(SCAN_T_GRID)
    if doc["parameters"] != {"grid": g, "t_grid": list(SCAN_T_GRID)}:
        problems.append(f"parameters {doc['parameters']}")
    if rep["status"] != doc["verdict"]:
        problems.append(f"status {rep['status']} != verdict {doc['verdict']}")
    margins = _scan(exp, g)
    expected_samples = g * g * T + ((2 * g) ** 2 * T if exp["code"] == 0 else 0)
    if rep["samples"] != expected_samples:
        problems.append(f"samples {rep['samples']} != {expected_samples}")

    q25, q50, q75 = np.quantile(margins, [0.25, 0.5, 0.75])
    want = {"min": margins.min(), "q25": q25, "median": q50, "q75": q75,
            "max": margins.max(), "mean": margins.mean()}
    for key, value in want.items():
        if not _near(rep["margin_summary"].get(key), value):
            problems.append(f"margin_summary.{key} {rep['margin_summary'].get(key)} "
                            f"!= closed form {float(value)}")

    wp = rep["worst_point"]
    wi = _point_index(wp, g)
    if wi is None:
        problems.append(f"worst_point {wp} is not a grid sample")
    else:
        if not _near(wp["margin"], margins[wi]) or margins[wi] > margins.min() + AGREE:
            problems.append(f"worst_point margin {wp['margin']} vs closed form "
                            f"{float(margins[wi])}, minimum {float(margins.min())}")
        if recompute is not None and not _near(
                recompute(wp["x"], wp["y"], wp["t"]), wp["margin"]):
            problems.append("worst_point margin differs from margins_at")

    if exp["code"] == 0:
        if rep["witness"] is not None:
            problems.append("passing scan carries a witness")
        re = rep["recheck"] or {}
        re_worst = _scan_min(exp, 2 * g)
        if re.get("grid_n") != 2 * g or re.get("samples") != (2 * g) ** 2 * T:
            problems.append(f"recheck layout {re}")
        if not _near(re.get("worst_margin"), re_worst):
            problems.append(f"recheck worst {re.get('worst_margin')} != {re_worst}")
        if not _near(rep["worst_margin"], min(float(margins.min()), re_worst)):
            problems.append(f"worst_margin {rep['worst_margin']} != closed form")
    else:
        w = rep["witness"]
        if rep["recheck"] is not None:
            problems.append("failing scan ran the recheck")
        wi = None if w is None else _point_index(w, g)
        if wi is None:
            problems.append(f"witness {w} is not a grid sample")
        else:
            if not (w["margin"] < MARGIN_TOLERANCE and _near(w["margin"], margins[wi])):
                problems.append(f"witness margin {w['margin']} vs closed form "
                                f"{float(margins[wi])}")
            if np.any(margins[:wi] < MARGIN_TOLERANCE - AGREE):
                problems.append("witness is not the first violating sample")
            if recompute is not None and not _near(
                    recompute(w["x"], w["y"], w["t"]), w["margin"]):
                problems.append("witness margin differs from margins_at")
        if not _near(rep["worst_margin"], margins.min()):
            problems.append(f"worst_margin {rep['worst_margin']} != closed form")
    return problems, {"samples": int(rep["samples"])}


def _check_fixed_point(search: dict) -> list[str]:
    certs = search["certificates"]
    if len(certs) != 1:
        return [f"expected the single fixed point z = 0, got {len(certs)} certificates"]
    c = certs[0]
    if not (abs(c["z"]) < 1e-9 and c["max_residual"] < 1e-9):
        return [f"fixed point z = {c['z']} with residual {c['max_residual']}"]
    return []


def _check_theorem(exp: dict, doc: dict) -> list[str]:
    rep = doc["report"]
    problems = []
    if exp.get("reproduce"):
        # x = y = t = 1 under k = 0.5: 0.5 - 0.5 * min(0.2, 1/3, 0.2)
        if not _near(rep["spot_margin_at_1_1_1"], 0.4):
            problems.append(f"spot margin {rep['spot_margin_at_1_1_1']} != 0.4")
        rep = rep["pipeline"]
    stages = {s["stage"]: s for s in rep["stages"]}
    if rep["certified"] != (exp["code"] == 0):
        problems.append(f"certified = {rep['certified']}")
    if exp["code"] == 0:
        if rep["uniqueness"] != "unique-on-grid":
            problems.append(f"uniqueness {rep['uniqueness']}")
        problems += _check_fixed_point(rep["search"])
        bad = [n for n, s in stages.items() if s["status"] != "pass"]
        if bad:
            problems.append(f"stages not passing: {bad}")
    # the contraction stage is a verify report on the theorem's scan grid
    grid = doc["parameters"]["grid"]
    scan = {"code": exp["code"], "grid": grid, "phi": "linear", "k": exp["k"],
            "variant": "pass" if exp["code"] == 0 else "fail"}
    stage = stages["contraction"]
    problems += _check_verify(scan, {
        "parameters": {"grid": grid, "t_grid": doc["parameters"]["t_grid"]},
        "report": stage["detail"], "verdict": stage["status"]}, None)[0]
    return problems


def _check_pairs(exp: dict, rep: dict) -> list[str]:
    # with g = 1 - x, B and G coincide at x = 0.8, do not commute there, and
    # the range of G leaves that of A
    passing = exp["code"] == 0
    bg = rep["coincidence"]["bg"]["points"]
    ok = (rep["coincidence"]["af"]["points"] == [0.0]
          and len(bg) == 1 and _near(bg[0], 0.0 if passing else 0.8)
          and rep["containment"]["status"] == ("pass" if passing else "fail")
          and rep["closedness"]["status"] == "closed"
          and (passing or rep["commutation"]["bg"]["status"] == "fail"))
    return [] if ok else ["pairs report differs from the known outcome"]


def _check_dp(exp: dict, doc: dict) -> tuple[list, dict]:
    rep = doc["report"]
    problems = []
    if not rep["common_solution"]:
        problems.append("common_solution is false")
    xs = np.asarray(rep["solution"]["x"])
    values = np.asarray(rep["solution"]["value"])
    if xs.size != exp["states"] or not np.array_equal(
            xs, np.linspace(0.0, 1.0, exp["states"])):
        problems.append("solution grid differs from the state grid")
    else:
        gap = float(np.max(np.abs(values - 2.0 * exp["c"] * xs)))
        bound = exp["beta"] / (1.0 - exp["beta"]) * exp["tol"] + 1e-12
        if not gap <= bound:
            problems.append(f"sup gap to 2c*x is {gap} > {bound}")
    sweeps = sum(r["iterations"] for r in rep["results"].values())
    sweeps += len(rep["cross_residuals"])
    return problems, {"cells": exp["states"] * exp["decisions"] * sweeps}


def check(exp: dict, code: int, doc: dict | None,
          recompute: Recompute | None = None) -> tuple[list, dict]:
    """Problems with one call's outcome, and the work it did."""
    if code != exp["code"]:
        return [f"exit code {code}, expected {exp['code']}"], {}
    if doc is None:
        return ["no report"], {}
    verdict = "pass" if exp["code"] == 0 else "fail"
    problems = [] if doc["verdict"] == verdict else [f"verdict {doc['verdict']}"]
    work: dict = {}
    kind = exp["check"]
    if kind == "verify":
        more, work = _check_verify(exp, doc, recompute)
    elif kind == "dp":
        more, work = _check_dp(exp, doc)
    elif kind == "theorem":
        more = _check_theorem(exp, doc)
    elif kind == "fixpoint":
        more = _check_fixed_point(doc["report"])
    elif kind == "pairs":
        more = _check_pairs(exp, doc["report"])
    elif kind == "axioms":
        rep = doc["report"]
        grid = doc["parameters"]["grid"]
        more = [] if rep["passed"] and all(
            c["status"] == "pass" for c in rep["checks"]) else ["axiom check failed"]
        more += [] if grid == exp["grid"] else [f"grid {grid}"]
    elif kind == "psi":
        rep = doc["report"]
        g = doc["parameters"]["grid"]
        psi1 = rep["conditions"][0]
        more = [] if (rep["passed"] and psi1["status"] == "holds" and g == exp["grid"]
                      and psi1["samples"] == (g - 1) * g ** 3) else [
            f"psi report differs from the known pass: {psi1}"]
    else:
        raise ValueError(f"unknown check {kind!r}")
    return problems + more, work
