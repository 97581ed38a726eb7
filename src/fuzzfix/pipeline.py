"""End-to-end checking of the common-fixed-point theorems.

The pipeline runs the hypotheses in proof order and never upgrades a stage
result: tail convergence (the shared-limit property), range containment,
range closedness, the contractive inequality, coincidence points, the
commutation requirement at those points, and finally a search for common
fixed points with a uniqueness verdict on the scanned grid.  Both searches,
for coincidence points and for fixed points, refine their brackets by
sectioning (``pairs._sections``): one evaluation per step samples every
open bracket at 16 sections.  Each stage reports pass/fail/inconclusive on
the evidence actually computed; a pipeline-level pass certifies the grid
scan, not the continuum statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .contraction import ContractionSpec, ScanPlan, verify_contraction
from .errors import InputError, NumericalError, require_positive
from .expr import EvalError
from .pairs import (MapPair, MapQuadruple, SequenceSpec,
                    check_commutation_variant, check_property_EA,
                    check_range_closed, check_range_containment,
                    find_coincidence_points, require_r_constant,
                    COMMUTATION_VARIANTS, _sections)

Array = np.ndarray

# direction -> the maps (inner, outer) of the range containment
_CONTAINMENT = {"b_in_f": ("b", "f"), "g_in_a": ("g", "a"),
                "f_in_b": ("f", "b"), "a_in_g": ("a", "g")}
# choice -> the pairs whose tails the shared-limit property reads
_EA = {"af": ("af",), "bg": ("bg",), "both": ("af", "bg")}

CONTAINMENT_DIRECTIONS = tuple(_CONTAINMENT)
CLOSEDNESS_TARGETS = ("a", "b", "f", "g")
EA_CHOICES = tuple(_EA)


@dataclass(frozen=True)
class Tolerances:
    coincidence: float = 1e-9
    fixed_point: float = 1e-9
    tail: float = 1e-3

    def __post_init__(self):
        for key, v in vars(self).items():
            require_positive(v, f"key {key!r}: tolerance")


@dataclass(frozen=True)
class TheoremConfig:
    """Which quadruple to check, under which variant of the hypotheses."""

    quad: MapQuadruple
    contraction: ContractionSpec | None
    plan: ScanPlan = ScanPlan()
    seq_af: SequenceSpec | None = None
    seq_bg: SequenceSpec | None = None
    ea_pairs: str = "af"
    containment_direction: str = "g_in_a"
    closedness_target: str = "a"
    commutation_variant: str = "weakly_compatible"
    r_constant: float = 1.0
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        for name, choices in (("ea_pairs", EA_CHOICES),
                              ("containment_direction", CONTAINMENT_DIRECTIONS),
                              ("closedness_target", CLOSEDNESS_TARGETS),
                              ("commutation_variant", COMMUTATION_VARIANTS)):
            if getattr(self, name) not in choices:
                raise InputError(f"{name} must be one of {choices}, "
                                 f"got {getattr(self, name)!r}")
        require_r_constant(self.commutation_variant, self.r_constant)
        for p in _EA[self.ea_pairs]:
            if getattr(self, f"seq_{p}") is None:
                raise InputError(f"ea_pairs includes {p!r} but no "
                                 f"({','.join(p.upper())}) sequence was given")


def residuals_on_grid(quad: MapQuadruple, xs: Array) -> Array:
    """r(x) = max over the four maps of |map(x) - x|."""
    return np.maximum.reduce([np.abs(quad.a(xs) - xs), np.abs(quad.b(xs) - xs),
                              np.abs(quad.f(xs) - xs), np.abs(quad.g(xs) - xs)])


def _certificates(quad: MapQuadruple, zs: Array, tol: float) -> list[dict]:
    """One certificate per point, each refusing a residual not below tol."""
    if zs.size == 0:
        return []
    images = {"a": quad.a(zs), "b": quad.b(zs), "f": quad.f(zs), "g": quad.g(zs)}
    certs = []
    for i, z in enumerate(zs.tolist()):
        residuals = {name: abs(float(img[i]) - z) for name, img in images.items()}
        worst = max(residuals.values())
        if not worst < tol:
            raise InputError(f"certificate residual {worst} is not below tolerance {tol}")
        certs.append({"z": z, "residuals": residuals, "max_residual": worst,
                      "tolerance": tol})
    return certs


def find_common_fixed_points(quad: MapQuadruple, tol: float = 1e-9,
                             grid_n: int | None = None) -> dict:
    """Scan the carrier grid for common fixed points of all four maps.

    Every local minimum of the residual on the grid, and both ends, seeds a
    bracket one grid spacing to each side; all brackets are refined by
    sectioning in lockstep, one residual evaluation per step on the brackets
    still narrowing.  A step samples 17 evenly spaced points (16 sections)
    of a bracket and keeps the two sections around its smallest sample,
    until the bracket's width is at most 1e-14 or a step leaves it
    unchanged (near a large z, adjacent floats are farther apart than
    1e-14); each bracket reports the best sample it took.  Refined hits and the seeds whose grid residual is already
    below tolerance are merged within one grid spacing, keeping the smallest
    residual.  When the residual is below tolerance everywhere the whole
    carrier is reported as fixed."""
    require_positive(tol, "fixed-point tolerance")
    carrier = quad.fm.carrier
    n = carrier.grid_n if grid_n is None else grid_n
    if n < 3:
        raise InputError(f"fixed-point search needs at least 3 grid points, got {n}")
    xs = carrier.points(n)
    r = residuals_on_grid(quad, xs)

    if (r < tol).all():
        return {"certificates": _certificates(quad, xs, tol), "all_points_fixed": True,
                "grid_n": n, "tolerance": tol}

    spacing = float(xs[1] - xs[0])
    interior = (r[1:-1] <= r[:-2]) & (r[1:-1] <= r[2:])
    seeds = np.unique(np.concatenate(([0], np.flatnonzero(interior) + 1, [xs.size - 1])))
    lo, hi = xs[np.maximum(seeds - 1, 0)], xs[np.minimum(seeds + 1, xs.size - 1)]
    z, rz = np.empty(seeds.size), np.full(seeds.size, np.inf)
    for live, pts, rs in _sections(lambda pts: residuals_on_grid(quad, pts), lo, hi,
                                   lambda lo, hi: hi - lo > 1e-14):
        rows, k = np.arange(live.size), np.argmin(rs, axis=1)
        x_k, r_k = pts[rows, k], rs[rows, k]
        better = r_k < rz[live]
        z[live[better]], rz[live[better]] = x_k[better], r_k[better]
        lo[live] = pts[rows, np.maximum(k - 1, 0)]
        hi[live] = pts[rows, np.minimum(k + 1, rs.shape[1] - 1)]
    # a seed already below tol stays a candidate: the samples of its bracket
    # need not include the grid point itself
    hit, on_grid = rz < tol, seeds[r[seeds] < tol]
    hits = sorted(zip(np.concatenate((z[hit], xs[on_grid])).tolist(),
                      np.concatenate((rz[hit], r[on_grid])).tolist()))

    merged: list[tuple[float, float]] = []
    for zi, ri in hits:
        if merged and zi - merged[-1][0] <= spacing:
            if ri < merged[-1][1]:
                merged[-1] = (zi, ri)
        else:
            merged.append((zi, ri))
    zs = np.array([zi for zi, _ in merged], dtype=float)
    return {"certificates": _certificates(quad, zs, tol), "all_points_fixed": False,
            "grid_n": n, "tolerance": tol}


def _commutation_stage(cfg: TheoremConfig, pair: MapPair, label: str,
                       points: Sequence[float]) -> dict:
    name, variant = f"commutation-{label}", cfg.commutation_variant
    if variant == "weakly_compatible" and len(points) == 0:
        return _stage(name, {"note": "no coincidence points found; nothing to check",
                             "status": "inconclusive", "variant": variant})
    return _stage(name, _guarded(name, lambda: check_commutation_variant(
        pair, variant, r_constant=cfg.r_constant, t_grid=cfg.plan.t_grid,
        points=points if variant == "weakly_compatible" else None)))


def _stage(name: str, detail: dict, status: str | None = None) -> dict:
    """One stage of the theorem report; its status is the check's own unless
    given."""
    return {"stage": name, "status": detail["status"] if status is None else status,
            "detail": detail}


def _guarded(stage: str, fn):
    """Run one stage; an error raised in it is re-raised, with its type kept,
    under a message that names the stage."""
    try:
        return fn()
    except InputError as exc:
        raise InputError(f"stage {stage!r}: {exc}") from exc
    except NumericalError as exc:
        raise NumericalError(f"stage {stage!r}: {exc}", exc.trace) from exc
    except EvalError as exc:
        raise EvalError(f"stage {stage!r}: {exc}") from exc


def run_stages(cfg: TheoremConfig) -> list[dict]:
    """Check every hypothesis of the configured theorem variant, in proof
    order.  Each stage is ``{"stage", "status", "detail"}``: the status is
    "pass", "fail" or "inconclusive" and the detail is the check's report.
    The contraction stage runs exactly when the config carries a spec."""
    quad = cfg.quad
    tols = cfg.tolerances
    pairs = {"af": quad.pair_af, "bg": quad.pair_bg}
    seqs = {"af": cfg.seq_af, "bg": cfg.seq_bg}
    chosen = _EA[cfg.ea_pairs]
    ea = _guarded("tail-convergence", lambda: check_property_EA(
        [pairs[p] for p in chosen], [seqs[p] for p in chosen], tol=tols.tail))
    stages = [_stage("tail-convergence", ea)]

    inner, outer = (getattr(quad, m) for m in _CONTAINMENT[cfg.containment_direction])
    cont = _guarded("containment", lambda: check_range_containment(inner, outer))
    cont["direction"] = cfg.containment_direction
    stages.append(_stage("containment", cont))

    target = getattr(quad, cfg.closedness_target)
    closed = _guarded("closedness", lambda: check_range_closed(target))
    closed["target"] = cfg.closedness_target
    stages.append(_stage("closedness", closed,
                         "pass" if closed["status"] == "closed" else "inconclusive"))

    if cfg.contraction is not None:
        contraction = _guarded("contraction", lambda: verify_contraction(
            quad, cfg.contraction, cfg.plan))
        stages.append(_stage("contraction", contraction))

    for label, pair in pairs.items():
        result = _guarded(f"coincidence-{label}", lambda p=pair: find_coincidence_points(
            p.first, p.second, tol=tols.coincidence))
        stages.append(_stage(f"coincidence-{label}", result,
                             "pass" if result["points"] else "fail"))
        stages.append(_commutation_stage(cfg, pair, label, result["points"]))
    return stages


def run_theorem_pipeline(cfg: TheoremConfig) -> dict:
    """Check every hypothesis of the configured theorem variant in order,
    then search for the common fixed points."""
    if cfg.contraction is None:  # a certificate needs the contraction scan
        raise InputError("the theorem pipeline needs a contraction spec")
    stages = run_stages(cfg)
    search = _guarded("fixed-points", lambda: find_common_fixed_points(
        cfg.quad, tol=cfg.tolerances.fixed_point))
    found = len(search["certificates"])
    if search["all_points_fixed"]:
        uniqueness = "all-points"
    elif found == 1:
        uniqueness = "unique-on-grid"
    elif found == 0:
        uniqueness = "none-found"
    else:
        uniqueness = "multiple"
    hypotheses_pass = all(s["status"] == "pass" for s in stages)
    return {"stages": stages, "search": search, "uniqueness": uniqueness,
            "hypotheses_pass": hypotheses_pass,
            "certified": hypotheses_pass and uniqueness == "unique-on-grid"}
