"""Self-maps on interval carriers and the pairwise hypotheses between them.

Covers everything a common-fixed-point run needs to know about map pairs:
coincidence points, the seven commutation variants (plain, weak, R-weak,
R-weak of types A_g / A_f / P, and weak compatibility at coincidence points),
property (E.A.) for one or two pairs, and range containment and closedness
of ranges.

Limits are certified by Cauchy tails: a sequence tail converges when the
spread (max minus min) of its last ``tail_len`` terms is below tolerance, and
the reported limit is the tail hull midpoint.  This is the computable
surrogate for true limits and every report says so via the tail fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._parallel import fold_margins
from .errors import InputError
from .expr import expr_function, on_check_grid, parse, variables
from .metric import Carrier, FuzzyMetric

Array = np.ndarray

DEFAULT_T_GRID = (0.1, 0.5, 1.0, 2.0, 10.0)

COMMUTATION_VARIANTS = (
    "commuting",
    "weakly_commuting",
    "r_weak",
    "r_weak_Ag",
    "r_weak_Af",
    "r_weak_P",
    "weakly_compatible",
)

# the variants whose inequality rescales t by the constant R
R_VARIANTS = ("r_weak", "r_weak_Ag", "r_weak_Af", "r_weak_P")

# a refinement step samples _SECTIONS + 1 evenly spaced points of each bracket
_SECTIONS = 16
_MAX_REFINE_STEPS = 200

# the range checks: how far a hull endpoint may miss, and how many monotonicity
# sign changes still let a sampled range's hull be trusted
_RANGE_TOL = 1e-9
_MAX_SIGN_CHANGES = 16


@dataclass(frozen=True)
class SelfMap:
    """A map of the carrier into itself; sampled images are required to stay
    inside the carrier within 1e-9 at construction time."""

    carrier: Carrier
    fn: Callable[[Array], Array]
    label: str

    def __post_init__(self):
        imgs = on_check_grid(f"map {self.label!r}", self.fn, self.carrier.points())
        if not np.all(np.isfinite(imgs)):
            raise InputError(f"map {self.label!r} produces non-finite images")
        if not self.carrier.contains(imgs, tol=1e-9):
            worst = imgs[np.argmax(np.maximum(self.carrier.lo - imgs, imgs - self.carrier.hi))]
            raise InputError(
                f"map {self.label!r} leaves the carrier "
                f"[{self.carrier.lo}, {self.carrier.hi}]: image {float(worst)}"
            )

    def __call__(self, x) -> Array:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)


def selfmap_from_expr(carrier: Carrier, text: str, label: str | None = None) -> SelfMap:
    """Build a self-map from an expression in the single variable x."""
    tree = parse(text)
    extra = variables(tree) - {"x"}
    if extra:
        raise InputError(f"map expression may only use x, found {sorted(extra)}")
    return SelfMap(carrier, expr_function(tree, ("x",)), label or text)


@dataclass(frozen=True)
class MapPair:
    first: SelfMap
    second: SelfMap
    fm: FuzzyMetric

    def __post_init__(self):
        if not (self.first.carrier == self.second.carrier == self.fm.carrier):
            raise InputError("pair maps and fuzzy metric must share one carrier")


@dataclass(frozen=True)
class MapQuadruple:
    a: SelfMap
    b: SelfMap
    f: SelfMap
    g: SelfMap
    fm: FuzzyMetric

    def __post_init__(self):
        carriers = {m.carrier for m in (self.a, self.b, self.f, self.g)}
        if len(carriers) != 1 or self.fm.carrier not in carriers:
            raise InputError("quadruple maps and fuzzy metric must share one carrier")

    @property
    def pair_af(self) -> MapPair:
        return MapPair(self.a, self.f, self.fm)

    @property
    def pair_bg(self) -> MapPair:
        return MapPair(self.b, self.g, self.fm)

    @property
    def maps(self) -> tuple[SelfMap, SelfMap, SelfMap, SelfMap]:
        return (self.a, self.b, self.f, self.g)


@dataclass(frozen=True)
class SequenceSpec:
    """A carrier-valued sequence, examined over the window
    [tail_start, tail_start + tail_len)."""

    generator: Callable[[Array], Array]
    tail_start: int = 1000
    tail_len: int = 100

    def __post_init__(self):
        if self.tail_len < 10:
            raise InputError(f"tail_len must be >= 10, got {self.tail_len}")
        if self.tail_start < 1:
            raise InputError(f"tail_start must be >= 1, got {self.tail_start}")

    def tail(self, carrier: Carrier) -> Array:
        n = np.arange(self.tail_start, self.tail_start + self.tail_len, dtype=float)
        points = np.asarray(self.generator(n), dtype=float)
        if points.shape != n.shape:
            points = np.broadcast_to(points, n.shape).astype(float)
        if not np.all(np.isfinite(points)):
            raise InputError("sequence tail contains non-finite points")
        if not carrier.contains(points, tol=1e-9):
            raise InputError(
                f"sequence tail leaves the carrier [{carrier.lo}, {carrier.hi}]"
            )
        return np.clip(points, carrier.lo, carrier.hi)


def sequence_from_expr(text: str, tail_start: int = 1000, tail_len: int = 100) -> SequenceSpec:
    """Build a sequence from an expression in the single variable n."""
    tree = parse(text)
    extra = variables(tree) - {"n"}
    if extra:
        raise InputError(f"sequence expression may only use n, found {sorted(extra)}")
    return SequenceSpec(expr_function(tree, ("n",)), tail_start, tail_len)


def _tail_stats(values: Array, tol: float) -> dict:
    lo, hi = float(np.min(values)), float(np.max(values))
    spread = hi - lo
    return {"limit": (lo + hi) / 2.0, "spread": spread, "converged": spread < tol}


def _sections(fn, lo: Array, hi: Array, narrowing):
    """Sectioning steps on the brackets [lo[i], hi[i]], all in lockstep.

    Each step calls ``fn`` once, on ``_SECTIONS + 1`` evenly spaced points
    (ends included) of every bracket still open, and yields ``(live, xs,
    ys)``: the open brackets' indices, and their samples and values with one
    row per bracket.  The caller narrows ``lo`` and ``hi`` in place from
    them.  Every bracket takes a first step and takes another while
    ``narrowing(lo, hi)`` holds for it and its last step changed it, up to
    ``_MAX_REFINE_STEPS``, so each bracket takes exactly the steps it would
    take alone.  A step that leaves a bracket unchanged would repeat in
    every later step (``fn`` is deterministic), so ending the bracket there
    changes no result."""
    live, fractions = np.arange(lo.size), np.arange(_SECTIONS + 1) / _SECTIONS
    for _ in range(_MAX_REFINE_STEPS):
        if live.size == 0:
            return
        was_lo, was_hi = lo[live], hi[live]
        xs = was_lo[:, None] + (was_hi - was_lo)[:, None] * fractions
        xs[:, -1] = was_hi
        yield live, xs, fn(xs.ravel()).reshape(xs.shape)
        moved = (lo[live] != was_lo) | (hi[live] != was_hi)
        live = live[moved & narrowing(lo[live], hi[live])]


def find_coincidence_points(f: SelfMap, g: SelfMap, tol: float = 1e-9) -> dict:
    """Carrier points where f and g agree within tol.

    Grid hits are refined from sign changes of h = f - g by sectioning, every
    bracket in lockstep: each step evaluates h once, at ``_SECTIONS + 1``
    points of each bracket still open, and keeps the first section whose
    ends differ in sign.  A bracket narrows until its ends are adjacent
    floats or a step leaves it unchanged, or stops at a sample where h == 0;
    both ends of each bracket are
    candidates.  Candidates closer than one grid spacing are merged, keeping
    the one with the smallest |h|.  When the maps agree everywhere on the
    grid, every grid point is returned and the everywhere flag is set instead
    of merging.
    """
    if f.carrier != g.carrier:
        raise InputError("coincidence search needs a shared carrier")
    if not (math.isfinite(tol) and tol > 0.0):
        raise InputError(f"tolerance must be finite and positive, got {tol}")
    grid = f.carrier.points()
    h = f(grid) - g(grid)
    if (np.abs(h) < tol).all():
        return {"points": grid.tolist(), "coincide_everywhere": True, "tol": tol}

    change = np.flatnonzero(h[:-1] * h[1:] < 0.0)
    lo, hi = grid[change], grid[change + 1]
    for live, xs, hs in _sections(lambda x: f(x) - g(x), lo, hi,
                                  lambda lo, hi: np.nextafter(lo, hi) < hi):
        # the first sample whose sign differs from the left end's
        pos = hs > 0.0
        k = 1 + np.argmax((hs[:, 1:] == 0.0) | (pos[:, 1:] != pos[:, :1]), axis=1)
        rows = np.arange(live.size)
        hi[live] = xs[rows, k]
        lo[live] = np.where(hs[rows, k] == 0.0, hi[live], xs[rows, k - 1])

    candidates = sorted(grid[np.abs(h) < tol].tolist() + lo.tolist() + hi.tolist())
    if not candidates:
        return {"points": [], "coincide_everywhere": False, "tol": tol}

    xs = np.array(candidates)
    gap = np.abs(f(xs) - g(xs))
    starts = np.flatnonzero(np.concatenate(([True], np.diff(xs) > f.carrier.spacing)))
    merged = []
    for start, stop in zip(starts, np.append(starts[1:], xs.size)):
        best = start + int(np.argmin(gap[start:stop]))
        if gap[best] < tol:
            merged.append(candidates[best])
    return {"points": merged, "coincide_everywhere": False, "tol": tol}


def check_commutation_variant(
    pair: MapPair,
    variant: str,
    r_constant: float = 1.0,
    points: Sequence[float] | None = None,
    t_grid: Sequence[float] = DEFAULT_T_GRID,
) -> dict:
    """Check one commutation variant's defining inequality at every
    (point, t) sample, margin tolerance -1e-9.

    Variant inequalities for a pair (A, S), all for t > 0:

        commuting          M(ASx, SAx, t) = 1
        weakly_commuting   M(ASx, SAx, t) >= M(Ax, Sx, t)
        r_weak             M(ASx, SAx, t) >= M(Ax, Sx, t/R)
        r_weak_Ag          M(SAx, AAx, t) >= M(Ax, Sx, t/R)
        r_weak_Af          M(ASx, SSx, t) >= M(Ax, Sx, t/R)
        r_weak_P           M(AAx, SSx, t) >= M(Ax, Sx, t/R)
        weakly_compatible  M(ASu, SAu, t) = 1 at supplied coincidence points u
    """
    if variant not in COMMUTATION_VARIANTS:
        raise InputError(
            f"unknown commutation variant {variant!r}; expected one of "
            f"{COMMUTATION_VARIANTS}"
        )
    needs_r = variant in R_VARIANTS
    if needs_r and not r_constant > 0.0:
        raise InputError(f"R must be positive, got {r_constant}")
    if variant == "weakly_compatible":
        if points is None or len(points) == 0:
            raise InputError(
                "weakly_compatible requires the detected coincidence points"
            )
    ts = np.asarray(list(t_grid), dtype=float)
    if ts.size == 0 or np.any(ts <= 0.0):
        raise InputError(f"t_grid must be nonempty and positive: {t_grid}")
    xs = (np.asarray(list(points), dtype=float)
          if points is not None else pair.first.carrier.points())

    a, s, m = pair.first, pair.second, pair.fm.membership
    ax, sx = a(xs), s(xs)
    t_row = ts[None, :]

    def mm(u: Array, v: Array) -> Array:
        return np.asarray(m(u[:, None], v[:, None], t_row), dtype=float)

    if variant in ("commuting", "weakly_compatible"):
        margins = mm(a(sx), s(ax)) - 1.0
    elif variant == "weakly_commuting":
        margins = mm(a(sx), s(ax)) - np.asarray(m(ax[:, None], sx[:, None], t_row), dtype=float)
    else:
        rhs = np.asarray(m(ax[:, None], sx[:, None], t_row / r_constant), dtype=float)
        if variant == "r_weak":
            lhs = mm(a(sx), s(ax))
        elif variant == "r_weak_Ag":
            lhs = mm(s(ax), a(ax))
        elif variant == "r_weak_Af":
            lhs = mm(a(sx), s(sx))
        else:  # r_weak_P
            lhs = mm(a(ax), s(sx))
        margins = lhs - rhs

    tol = -1e-9
    fold = fold_margins(margins, tol)
    witness = None
    if fold.first_bad is not None:
        i, j = np.unravel_index(fold.first_bad, margins.shape)
        witness = {"x": float(xs[i]), "t": float(ts[j]), "margin": fold.bad_margin}
    return {"variant": variant, "r_constant": r_constant if needs_r else None,
            "status": "pass" if fold.passed else "fail",
            "worst_margin": fold.worst_margin, "tolerance": tol, "samples": fold.n,
            "witness": witness}


def check_property_EA(pairs, seqs, tol: float = 1e-3) -> dict:
    """Property (E.A.) for one pair, or its common form for two pairs.

    Each pair contributes the image tails of both its maps along its own
    sequence; the property holds when every tail converges and all limits
    agree within tol.  The reported limit is the midpoint of all tail hulls.
    """
    if isinstance(pairs, MapPair):
        pairs = (pairs,)
        seqs = (seqs,)
    pairs = tuple(pairs)
    seqs = tuple(seqs)
    if len(pairs) not in (1, 2) or len(seqs) != len(pairs):
        raise InputError("property (E.A.) takes one pair or two pairs, with "
                         "one sequence per pair")

    per_map = []
    all_lo, all_hi = math.inf, -math.inf
    converged = True
    for pair, seq in zip(pairs, seqs):
        xs = seq.tail(pair.fm.carrier)
        for sm in (pair.first, pair.second):
            imgs = sm(xs)
            stats = _tail_stats(imgs, tol)
            per_map.append({"map": sm.label, **stats})
            converged &= stats["converged"]
            all_lo = min(all_lo, float(np.min(imgs)))
            all_hi = max(all_hi, float(np.max(imgs)))
    spread = all_hi - all_lo
    limits_agree = spread < tol
    common = len(pairs) == 2
    if converged and limits_agree:
        return {"status": "pass", "limit": (all_lo + all_hi) / 2.0, "per_map": per_map,
                "common": common,
                "note": "all tails share one limit within tol (Cauchy-tail surrogate)"}
    note = ("some tail failed to converge" if not converged
            else f"tail limits disagree: joint spread {spread}")
    return {"status": "fail", "limit": None, "per_map": per_map, "common": common,
            "note": note}


def check_range_containment(inner: SelfMap, outer: SelfMap) -> dict:
    """Interval-hull containment of sampled ranges: inner(X) inside outer(X)
    within _RANGE_TOL.  Hulls of grid images are closed sets, so containment
    in the closure of outer(X) would differ only in labeling; the report's
    ``closure`` is false."""
    if inner.carrier != outer.carrier:
        raise InputError("containment check needs a shared carrier")
    grid = inner.carrier.points()
    in_imgs = inner(grid)
    out_imgs = outer(grid)
    inner_hull = [float(np.min(in_imgs)), float(np.max(in_imgs))]
    outer_hull = [float(np.min(out_imgs)), float(np.max(out_imgs))]
    witness = None
    if inner_hull[0] < outer_hull[0] - _RANGE_TOL:
        i = int(np.argmin(in_imgs))
        witness = {"x": float(grid[i]), "image": float(in_imgs[i]),
                   "outer_hull": outer_hull}
    elif inner_hull[1] > outer_hull[1] + _RANGE_TOL:
        i = int(np.argmax(in_imgs))
        witness = {"x": float(grid[i]), "image": float(in_imgs[i]),
                   "outer_hull": outer_hull}
    return {"status": "pass" if witness is None else "fail", "inner_hull": inner_hull,
            "outer_hull": outer_hull, "closure": False, "witness": witness}


def check_range_closed(f: SelfMap) -> dict:
    """Closedness surrogate for the sampled range.

    Validates that f looks piecewise monotone (finite-difference sign changes
    below the bound), then confirms the hull endpoints are attained by grid
    images within _RANGE_TOL.  The status is "closed" or "not-verifiable"; a wildly
    oscillating map gets "not-verifiable", never a wrong verdict."""
    grid = f.carrier.points()
    imgs = f(grid)
    hull = [float(np.min(imgs)), float(np.max(imgs))]
    diffs = np.diff(imgs)
    signs = np.sign(diffs[np.abs(diffs) > _RANGE_TOL])
    sign_changes = int(np.sum(signs[1:] != signs[:-1])) if signs.size > 1 else 0
    if sign_changes > _MAX_SIGN_CHANGES:
        status = "not-verifiable"
        note = (f"{sign_changes} monotonicity sign changes exceed the bound "
                f"{_MAX_SIGN_CHANGES}; hull endpoints untrusted")
    elif (np.any(np.abs(imgs - hull[0]) <= _RANGE_TOL)
          and np.any(np.abs(imgs - hull[1]) <= _RANGE_TOL)):
        status, note = "closed", "hull endpoints attained by grid images"
    else:
        status, note = "not-verifiable", "hull endpoint not attained on the grid"
    return {"status": status, "hull": hull, "sign_changes": sign_changes, "note": note}
