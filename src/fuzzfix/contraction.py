"""Grid verification of the contractive inequalities.

Every form is one composition psi(phi(m1), phi(m2), phi(m3), phi(m4)) >= 0
of the memberships m1 = M(Fx,Gy,t), m2 = M(Ax,By,t), m3 = M(Ax,Fx,t),
m4 = M(By,Gy,t), scanned over a grid of (x, y, t) samples with tolerance
-1e-9; the report carries the worst margin, the first violating sample in
grid order, a margin distribution summary, and (for pass verdicts) a
confirmation re-scan at twice the spatial resolution.  ``ContractionSpec``
resolves each form name to its pair (psi, phi) with the builtin gauges
ex2_* of ``implicit`` (the table ``FORM_GAUGES``); a gauge the table does
not name is the one given, and a gauge or ingredient the form does not
read is refused:

    main_411      psi and phi as given
    cor43_A..D    psi = ex2_1 (delta), ex2_2 (k), ex2_3 (delta3), ex2_4 (k)
    integral_511  phi = the integral altering distance of the density
    cor51_A/B     psi = ex2_5 (a), ex2_6 (delta) over the density; no phi

A scan is one coordinate segment (``_parallel.Segment``) over the (x, y, t)
grid: x, y and t, then Fx, Ax and u3 along x, then Gy, By and u4 along y.
M(Ax,Fx,t) depends only on (x, t) and M(By,Gy,t) only on (y, t), so each is
range-checked and phi-gauged once per scan as a grid_n x T table, u3 and u4
(u4 stored transposed, T x grid_n); a block of x-rows broadcasts against
every y and t to get M(Fx,Gy,t) and M(Ax,By,t), and hands psi the two
gauged tables as broadcast views.

A block is computed t-major, as rows x T x grid_n, so that t broadcasts in
an outer loop and every inner loop runs along y.  The gauges and psi take
the (x, y, t) view of that memory, a ``swapaxes`` that copies nothing, so
each message and sample index keeps its (x, y, t) meaning and each margin
its bits; the fold reads the block in memory order (``_parallel``).

M(Fx,Gy,t) and M(Ax,By,t) are gauged per block, and an integral phi sees
exactly the set of memberships of the elementwise block: that set is the
quadrature's knots, so each shortcut below keeps every margin's bits.  A map
whose images on the grid all have the same bits (g = 0 in the worked
example) enters as one point, a coordinate of length 1 that no block slices,
so a membership with that operand is evaluated, range-checked and gauged on
a rows x T x 1 (or 1 x T x grid_n) slab that psi broadcasts; the slab holds
the full block's set.  Under a standard metric M(u,v,t) = t / (t + d(u,v))
depends on (u, v) only through the crisp distance, so with an integral phi
the block's memberships are formed and gauged once per distinct distance, a
distances x T table gathered back to the block (affine maps on a uniform
grid give about a thousand distances for a block of some 13k pairs).  A
linear or expression gauge costs less per value than finding the distinct
distances, so it gauges the block elementwise.

Only the base scan materialises its margins, for the distribution summary:
``_parallel.map_concat`` fills one array, block by block in C order (the
scan's one strided copy), and the summary takes its max and mean before
``np.quantile`` partitions it in place.  The doubled-resolution recheck is
streamed through ``_parallel.scan``, which keeps just the minimum, its index
and the first bad sample with its margin and coordinates.

Scanning t > 0 on a finite grid is a documented soundness gap.  The
membership monotonicity checks of the axiom verifier mitigate it only when
``axioms`` is run: ``theorem`` and ``verify`` do not run that verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._parallel import Segment, block_step, fold_margins, map_concat, scan
from .distances import (AlteringDistance, Density, make_integral_altering,
                        require_altering)
from .errors import InputError, require_read
from .implicit import PSI_INGREDIENTS, PsiFunction, make_psi, psi_eval_on_arrays
from .metric import FuzzyMetric, require_t_grid, standard_membership
from .pairs import DEFAULT_T_GRID, MapQuadruple

Array = np.ndarray

# form -> (the psi example it fixes, or None for a given psi; its phi:
# "given", "integral" of the density, or None for the raw memberships)
FORM_GAUGES = {"main_411": (None, "given"), "cor43_A": ("ex2_1", "given"),
               "cor43_B": ("ex2_2", "given"), "cor43_C": ("ex2_3", "given"),
               "cor43_D": ("ex2_4", "given"), "integral_511": (None, "integral"),
               "cor51_A": ("ex2_5", None), "cor51_B": ("ex2_6", None)}
CONTRACTION_FORMS = tuple(FORM_GAUGES)

MARGIN_TOLERANCE = -1e-9


@dataclass(frozen=True)
class ScanPlan:
    """Sample layout for contraction scans: an x/y spatial grid on the
    carrier and a positive time grid."""

    grid_n: int = 51
    t_grid: tuple[float, ...] = DEFAULT_T_GRID
    jobs: int = 1

    def __post_init__(self):
        if self.grid_n < 2:
            raise InputError(f"scan plan grid_n must be >= 2, got {self.grid_n}")
        require_t_grid(self.t_grid, "scan plan")
        if self.jobs < 1:
            raise InputError(f"scan plan jobs must be >= 1, got {self.jobs}")


@dataclass(frozen=True)
class ContractionSpec:
    """One contractive condition, resolved at construction to the pair
    (psi, phi) it composes; phi is None when psi takes the raw memberships.
    Every gauge is validated here, once."""

    form: str
    psi: PsiFunction | None = None
    phi: AlteringDistance | None = None
    density: Density | None = None
    k: float | None = None
    a: float | None = None
    delta: Callable[..., np.ndarray] | None = None
    delta3: Callable[..., np.ndarray] | None = None
    quad_tol: float = 1e-10

    def __post_init__(self):
        if self.form not in FORM_GAUGES:
            raise InputError(f"unknown contraction form {self.form!r}; expected "
                             f"one of {CONTRACTION_FORMS}")
        alias, phi_kind = FORM_GAUGES[self.form]
        reads = (("psi",) if alias is None else PSI_INGREDIENTS[alias]) + {
            "given": ("phi",), "integral": ("density",), None: ()}[phi_kind]
        require_read(self.form, reads, psi=self.psi, phi=self.phi, k=self.k, a=self.a,
                     delta=self.delta, delta3=self.delta3, density=self.density)
        psi, phi = self.psi, self.phi
        if alias is not None:
            try:
                psi = make_psi(alias, k=self.k, a=self.a, delta=self.delta,
                               delta3=self.delta3, density=self.density,
                               quad_tol=self.quad_tol)
            except InputError as exc:  # name the form the caller wrote
                raise InputError(str(exc).replace(alias, self.form)) from None
        elif psi is None:
            raise InputError(f"{self.form} requires a psi gauge")

        if phi_kind == "integral":
            if self.density is None:
                raise InputError(f"{self.form} requires a density")
            try:
                phi = make_integral_altering(self.density, self.quad_tol)
            except InputError as exc:
                raise InputError(f"{self.form}: {exc}") from None
        elif phi_kind == "given" and phi is None:
            raise InputError(f"{self.form} requires an altering distance")
        if phi is not None:
            require_altering(phi, f"{self.form} [phi]")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi", phi)


def _gauged(spec: ContractionSpec, m, what: str) -> Array:
    """Membership values checked against [0,1] (up to rounding), clipped,
    and gauged by phi when the form has one."""
    m = np.asarray(m, dtype=float)
    # values in [0, 1] cost two reductions; np.clip keeps their bits (-0.0
    # too), so only a value outside, or a NaN, needs the masks and the clip
    if m.size and not (m.min() >= 0.0 and m.max() <= 1.0):
        if np.any(m < -1e-12) or np.any(m > 1.0 + 1e-12):
            i = int(np.argmax(np.maximum(-m, m - 1.0)))
            raise InputError(f"membership {what} left [0,1]: value {float(m.ravel()[i])}")
        m = np.clip(m, 0.0, 1.0)
    return m if spec.phi is None else spec.phi.on_array(m)


def _margins(spec: ContractionSpec, m1: Array, m2: Array, u3: Array, u4: Array) -> Array:
    """psi(phi(m1), phi(m2), u3, u4), where u3 = phi(M(Ax,Fx,t)) and
    u4 = phi(M(By,Gy,t)) arrive gauged, so a scan gauges them once."""
    # rebinding each name frees a raw membership before the next is gauged
    m1 = _gauged(spec, m1, "M(Fx,Gy,t)")
    m2 = _gauged(spec, m2, "M(Ax,By,t)")
    return psi_eval_on_arrays(spec.psi, m1, m2, u3, u4)


def _xyt(block) -> Array:
    """The (x, y, t) view of a t-major block, (rows, T, grid), or of a
    smaller array that broadcasts to one."""
    block = np.asarray(block, dtype=float)
    return block.reshape((1,) * (3 - block.ndim) + block.shape).swapaxes(1, 2)


def _gauged_block(spec: ContractionSpec, fm: FuzzyMetric, u: Array, v: Array,
                  t: Array, what: str) -> Array:
    """``_gauged`` of M(u,v,t) on a scan block, formed t-major, (rows, T,
    grid), and gauged as its (x, y, t) view: u and v broadcast over the
    (x, y) axes, each of length 1 on the t axis, and t spans that axis alone.

    A standard metric's membership depends on (u, v) only through the crisp
    distance, so when phi is an integral gauge the memberships are formed
    and gauged once per distinct distance, as a distances x T table, and
    gathered back into the block, one t at a time.  The table holds exactly
    the block's set of memberships, so the quadrature gets the same knots
    and every value keeps its bits; only the sort behind it shrinks."""
    u, v, t = u.swapaxes(1, 2), v.swapaxes(1, 2), t.swapaxes(1, 2)
    if fm.distance is None or spec.phi is None or spec.phi.provenance != "integral":
        return _gauged(spec, _xyt(fm.membership(u, v, t)), what)
    d = np.broadcast_to(np.asarray(fm.distance(u, v), dtype=float),
                        np.broadcast_shapes(u.shape, v.shape))
    dist, inverse = np.unique(d, return_inverse=True)
    table = _gauged(spec, standard_membership(t.reshape(-1), dist[:, None]), what)
    inverse = inverse.reshape(d.shape[0], d.shape[2])
    block = np.empty((d.shape[0], t.size, d.shape[2]))
    for j, column in enumerate(table.T):  # indices in range: "clip" needs no buffer
        np.take(column, inverse, out=block[:, j], mode="clip")
    return block.swapaxes(1, 2)


def margins_at(spec: ContractionSpec, quad: MapQuadruple, x, y, t) -> Array:
    """Margins at explicit sample arrays (broadcast together)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    m = quad.fm.membership
    ax, fx = quad.a(x), quad.f(x)
    by, gy = quad.b(y), quad.g(y)
    return _margins(spec, m(fx, gy, t), m(ax, by, t),
                    _gauged(spec, m(ax, fx, t), "M(Ax,Fx,t)"),
                    _gauged(spec, m(by, gy, t), "M(By,Gy,t)"))


def contraction_margin_at(spec: ContractionSpec, quad: MapQuadruple,
                          x: float, y: float, t: float) -> float:
    """Spot margin at a single (x, y, t)."""
    return float(margins_at(spec, quad, x, y, t))


def _point(v: Array) -> Array:
    """A map's images on the scan grid, as one point when they all have the
    same bits (the grid has at least two points, so only a constant map's
    array has one)."""
    bits = v.view(np.uint64)
    return v[:1] if np.all(bits == bits[0]) else v


def _segment(spec: ContractionSpec, quad: MapQuadruple, grid_n: int,
             t_grid: Sequence[float]) -> Segment:
    """The scan over the (x, y, t) grid as one segment, x, y and t its first
    three coordinates."""
    fm = quad.fm
    xs = fm.carrier.points(grid_n)
    ts = np.asarray(list(t_grid), dtype=float)
    shape = (xs.size, ts.size)
    ax, fx = quad.a(xs), quad.f(xs)
    by, gy = quad.b(xs), quad.g(xs)
    m = fm.membership
    # the two memberships that depend on one spatial index, gauged once as
    # g x T tables and broadcast over the other index; u4 is transposed once,
    # so that its (y, t) view lies t-major like the blocks
    u3 = _gauged(spec, np.broadcast_to(m(ax[:, None], fx[:, None], ts), shape), "M(Ax,Fx,t)")
    u4 = _gauged(spec, np.broadcast_to(m(by[:, None], gy[:, None], ts), shape), "M(By,Gy,t)")
    u4 = np.ascontiguousarray(u4.T).T
    # a constant map enters as one point, so M(Fx,Gy,t) or M(Ax,By,t) with a
    # constant operand is evaluated and gauged on a slab that psi broadcasts
    fx, ax, gy, by = _point(fx), _point(ax), _point(gy), _point(by)
    return Segment(
        (xs[:, None, None], xs[None, :, None], ts[None, None, :],
         fx[:, None, None], ax[:, None, None], u3[:, None, :],
         gy[None, :, None], by[None, :, None], u4[None, :, :]),
        lambda x, y, t, fx, ax, u3, gy, by, u4: psi_eval_on_arrays(
            spec.psi, _gauged_block(spec, fm, fx, gy, t, "M(Fx,Gy,t)"),
            _gauged_block(spec, fm, ax, by, t, "M(Ax,By,t)"), u3, u4))


def _scan(spec: ContractionSpec, quad: MapQuadruple, grid_n: int,
          t_grid: Sequence[float], jobs: int) -> tuple[Array, Segment]:
    """Margins of every grid sample, materialised, with the scan's segment."""
    segment = _segment(spec, quad, grid_n, t_grid)
    return map_concat(segment.n, segment.margins, jobs, block_step(segment)), segment


def _witness(coords: list, margin: float) -> dict:
    x, y, t = coords[:3]
    return {"x": float(x), "y": float(y), "t": float(t), "margin": float(margin)}


def verify_contraction(quad: MapQuadruple, spec: ContractionSpec, plan: ScanPlan) -> dict:
    """Scan the chosen form over the plan's grid; pass verdicts are
    re-checked at twice the spatial resolution before being reported."""
    margins, segment = _scan(spec, quad, plan.grid_n, plan.t_grid, plan.jobs)
    base = fold_margins(margins, MARGIN_TOLERANCE)
    worst = base.worst_margin
    # the max and the mean before np.quantile partitions the margins in
    # place: np.mean's pairwise sum depends on their order
    top, mean = float(np.max(margins)), float(np.mean(margins))
    q25, median, q75 = (float(q) for q in
                        np.quantile(margins, [0.25, 0.5, 0.75], overwrite_input=True))
    report = {
        "form": spec.form, "status": "fail", "worst_margin": worst, "witness": None,
        "samples": base.n, "tolerance": MARGIN_TOLERANCE,
        "margin_summary": {"min": worst, "q25": q25, "median": median, "q75": q75,
                           "max": top, "mean": mean},
        "worst_point": _witness(segment.at(base.worst_index), worst),
        "recheck": None,
    }

    if base.first_bad is not None:
        report["witness"] = _witness(segment.at(base.first_bad), base.bad_margin)
        return report
    del margins  # free the base scan before the recheck allocates its chunks

    re_n = 2 * plan.grid_n
    re, bad = scan([_segment(spec, quad, re_n, plan.t_grid)], MARGIN_TOLERANCE, plan.jobs)
    report["recheck"] = {"grid_n": re_n, "samples": re.n, "worst_margin": re.worst_margin}
    report["samples"] += re.n
    report["worst_margin"] = min(worst, re.worst_margin)

    if bad is not None:
        report["witness"] = _witness(bad, re.bad_margin)
    else:
        report["status"] = "pass"
    return report

