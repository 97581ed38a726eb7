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

A stage is one call of the ``stage`` helper in ``run_stages``: a name, a
check that returns the stage's detail, and, where the check's own status is
not the stage's, a rule that reads the status off the detail.  The helper
re-raises an error of the check under the stage's name, so adding a stage
takes one more call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contraction import ContractionSpec, ScanPlan, verify_contraction
from .errors import InputError, prefixed, require_positive
from .pairs import (MapQuadruple, SequenceSpec,
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


def in_stage(name: str):
    """A context in which an error is re-raised, with its type kept, under a
    message that names stage ``name``."""
    return prefixed(f"stage {name!r}: ")


def run_stages(cfg: TheoremConfig) -> list[dict]:
    """Check every hypothesis of the configured theorem variant, in proof
    order.  Each stage is ``{"stage", "status", "detail"}``: the detail is
    the check's report, and the status, "pass", "fail" or "inconclusive", is
    the check's own unless the stage reads it off the detail.  The
    contraction stage runs exactly when the config carries a spec."""
    quad, tols, stages = cfg.quad, cfg.tolerances, []

    def stage(name: str, check, status=lambda detail: detail["status"]) -> dict:
        with in_stage(name):
            detail = check()
        stages.append({"stage": name, "status": status(detail), "detail": detail})
        return detail

    pairs = {"af": quad.pair_af, "bg": quad.pair_bg}
    seqs = {"af": cfg.seq_af, "bg": cfg.seq_bg}
    chosen = _EA[cfg.ea_pairs]
    stage("tail-convergence", lambda: check_property_EA(
        [pairs[p] for p in chosen], [seqs[p] for p in chosen], tol=tols.tail))
    inner, outer = (getattr(quad, m) for m in _CONTAINMENT[cfg.containment_direction])
    stage("containment", lambda: {**check_range_containment(inner, outer),
                                  "direction": cfg.containment_direction})
    stage("closedness", lambda: {**check_range_closed(getattr(quad, cfg.closedness_target)),
                                 "target": cfg.closedness_target},
          lambda closed: "pass" if closed["status"] == "closed" else "inconclusive")
    if cfg.contraction is not None:
        stage("contraction", lambda: verify_contraction(quad, cfg.contraction, cfg.plan))

    variant = cfg.commutation_variant
    at_points = variant == "weakly_compatible"  # checked at the coincidence points
    for label, pair in pairs.items():
        points = stage(f"coincidence-{label}", lambda: find_coincidence_points(
            pair.first, pair.second, tol=tols.coincidence),
            lambda found: "pass" if found["points"] else "fail")["points"]
        stage(f"commutation-{label}", lambda: (
            {"note": "no coincidence points found; nothing to check",
             "status": "inconclusive", "variant": variant}
            if at_points and not points else
            check_commutation_variant(pair, variant, r_constant=cfg.r_constant,
                                      t_grid=cfg.plan.t_grid,
                                      points=points if at_points else None)))
    return stages


def run_theorem_pipeline(cfg: TheoremConfig) -> dict:
    """Check every hypothesis of the configured theorem variant in order,
    then search for the common fixed points."""
    if cfg.contraction is None:  # a certificate needs the contraction scan
        raise InputError("the theorem pipeline needs a contraction spec")
    stages = run_stages(cfg)
    with in_stage("fixed-points"):
        search = find_common_fixed_points(cfg.quad, tol=cfg.tolerances.fixed_point)
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
