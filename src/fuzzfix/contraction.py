"""Grid verification of the contractive inequalities.

Every form is rewritten as margin(x,y,t) >= 0 and scanned over a grid of
(x, y, t) samples with tolerance -1e-9; the report carries the worst margin,
the first violating sample in grid order, a margin distribution summary, and
(for pass verdicts) a confirmation re-scan at twice the spatial resolution.

Forms, in terms of the four memberships m1 = M(Fx,Gy,t), m2 = M(Ax,By,t),
m3 = M(Ax,Fx,t), m4 = M(By,Gy,t), a gauge phi, and integrals
I(v) = integral of a density over [0, v]:

    main_411      psi(phi(m1), phi(m2), phi(m3), phi(m4))
    cor43_A       phi(m1) - delta(max{phi(m2), phi(m3), phi(m4)})
    cor43_B       phi(m1) - k min{phi(m2), phi(m3), phi(m4)}
    cor43_C       phi(m1) - delta3(phi(m2), phi(m3), phi(m4))
    cor43_D       phi(m1) - (k phi(m2) - min{phi(m3), phi(m4)})
    integral_511  psi(J(1-m1), J(1-m2), J(1-m3), J(1-m4)),  J = scale * I
    cor51_A       I(1-m1) - a max{I(1-m2), I(1-m3), I(1-m4)}
    cor51_B       I(1-m1) - delta(max{I(1-m2), I(1-m3), I(1-m4)})

A scan evaluates chunk by chunk (``_parallel``).  M(Ax,Fx,t) depends only on
(x, t) and M(By,Gy,t) only on (y, t), so each is evaluated once per scan as a
grid_n x T table and gathered per chunk.  Only the base scan materialises its
margins (the distribution summary needs them); the doubled-resolution recheck
is streamed through ``scan_segments``, which keeps just the minimum, its
index and the first bad sample with its margin.

integral_511 states its inequality through the induced altering distance, so
it uses the same mass normalization scale as that gauge; the corollary forms
compare raw integrals as printed (a positive scale would not change their
signs anyway).  Scanning t > 0 on a finite grid is a documented soundness
gap, mitigated by the membership monotonicity checks in the axiom verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._parallel import MarginFn, map_concat, scan_segments
from .distances import (AlteringDistance, Density, cumulative_integrals,
                        integrate_density, is_phi_class, require_altering)
from .errors import InputError
from .expr import array_fn
from .implicit import PsiFunction, psi_eval_on_arrays
from .pairs import DEFAULT_T_GRID, MapQuadruple

Array = np.ndarray

CONTRACTION_FORMS = (
    "main_411", "cor43_A", "cor43_B", "cor43_C", "cor43_D",
    "integral_511", "cor51_A", "cor51_B",
)

_PHI_FORMS = ("main_411", "cor43_A", "cor43_B", "cor43_C", "cor43_D")
_INTEGRAL_FORMS = ("integral_511", "cor51_A", "cor51_B")

MARGIN_TOLERANCE = -1e-9

_GAUGE_GRID_N = 101


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
        if not self.t_grid:
            raise InputError("scan plan t_grid must be nonempty")
        if any(not (math.isfinite(t) and t > 0.0) for t in self.t_grid):
            raise InputError(f"t_grid values must be finite and positive: {self.t_grid}")
        if self.jobs < 1:
            raise InputError(f"scan plan jobs must be >= 1, got {self.jobs}")


def _check_one_arg_delta(delta: Callable[[float], float], cap: float, what: str) -> None:
    for u in np.linspace(0.0, cap, _GAUGE_GRID_N)[1:]:
        v = float(delta(float(u)))
        if not 0.0 <= v < u:
            raise InputError(f"{what}: need 0 <= delta(u) < u for u > 0, "
                             f"got delta({float(u)}) = {v}")


@dataclass(frozen=True)
class ContractionSpec:
    """One contractive condition with exactly the ingredients its form needs."""

    form: str
    psi: PsiFunction | None = None
    phi: AlteringDistance | None = None
    density: Density | None = None
    k: float | None = None
    a: float | None = None
    delta: Callable[[float], float] | None = None
    delta3: Callable[[float, float, float], float] | None = None
    quad_tol: float = 1e-10
    scale: float = field(init=False, default=1.0)

    def __post_init__(self):
        if self.form not in CONTRACTION_FORMS:
            raise InputError(f"unknown contraction form {self.form!r}; expected "
                             f"one of {CONTRACTION_FORMS}")
        if self.form in _PHI_FORMS:
            if self.phi is None:
                raise InputError(f"{self.form} requires an altering distance")
        else:
            if self.density is None:
                raise InputError(f"{self.form} requires a density")
            if not is_phi_class(self.density, self.quad_tol):
                raise InputError(f"{self.form} density fails the positive-mass check")

        if self.form in ("main_411", "integral_511") and self.psi is None:
            raise InputError(f"{self.form} requires a psi gauge")
        if self.form in ("cor43_B", "cor43_D"):
            if self.k is None or not 0.0 < self.k < 1.0:
                raise InputError(f"{self.form} requires k in (0,1), got {self.k}")
        if self.form == "cor43_A":
            if self.delta is None:
                raise InputError("cor43_A requires a delta gauge")
            if abs(float(self.delta(0.0))) > 0.0:
                raise InputError(f"cor43_A delta gauge must vanish at 0, "
                                 f"got {float(self.delta(0.0))}")
            _check_one_arg_delta(self.delta, 1.0, "cor43_A delta gauge")
        if self.form == "cor43_C":
            if self.delta3 is None:
                raise InputError("cor43_C requires a three-argument delta gauge")
            for u in np.linspace(0.0, 1.0, _GAUGE_GRID_N)[1:]:
                u = float(u)
                vals = [float(self.delta3(0.0, u, 0.0)), float(self.delta3(0.0, 0.0, u)),
                        float(self.delta3(u, 0.0, 0.0))]
                if any(v < 0.0 for v in vals) or max(vals) >= u:
                    raise InputError("cor43_C gauge must keep its coordinate-axis "
                                     f"values below u; at u={u} they are {vals}")
        if self.form == "cor51_A":
            if self.a is None or not 0.0 <= self.a < 1.0:
                raise InputError(f"cor51_A requires a in [0,1), got {self.a}")
        if self.form == "integral_511":
            mass = integrate_density(self.density, 0.0, 1.0, self.quad_tol)
            object.__setattr__(self, "scale", 1.0 / mass if mass > 1.0 else 1.0)
        if self.form == "cor51_B":
            if self.delta is None:
                raise InputError("cor51_B requires a delta gauge")
            mass = integrate_density(self.density, 0.0, 1.0, self.quad_tol)
            _check_one_arg_delta(self.delta, max(1.0, mass), "cor51_B delta gauge")


@dataclass(frozen=True)
class VerificationReport:
    form: str
    status: str  # "pass" | "fail"
    worst_margin: float
    witness: dict | None
    samples: int
    tolerance: float
    margin_summary: dict
    worst_point: dict
    recheck: dict | None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {"form": self.form, "status": self.status,
                "worst_margin": self.worst_margin, "witness": self.witness,
                "samples": self.samples, "tolerance": self.tolerance,
                "margin_summary": self.margin_summary,
                "worst_point": self.worst_point, "recheck": self.recheck}


def _clip_unit(values: Array, what: str) -> Array:
    values = np.asarray(values, dtype=float)
    if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
        i = int(np.argmax(np.maximum(-values, values - 1.0)))
        raise InputError(f"{what} left [0,1]: value {float(values.ravel()[i])}")
    return np.clip(values, 0.0, 1.0)


def _margins(spec: ContractionSpec, m1: Array, m2: Array, m3: Array, m4: Array) -> Array:
    m1 = _clip_unit(m1, "membership M(Fx,Gy,t)")
    m2 = _clip_unit(m2, "membership M(Ax,By,t)")
    m3 = _clip_unit(m3, "membership M(Ax,Fx,t)")
    m4 = _clip_unit(m4, "membership M(By,Gy,t)")

    if spec.form in _PHI_FORMS:
        p1 = spec.phi.on_array(m1)
        p2 = spec.phi.on_array(m2)
        p3 = spec.phi.on_array(m3)
        p4 = spec.phi.on_array(m4)
        if spec.form == "main_411":
            return psi_eval_on_arrays(spec.psi, p1, p2, p3, p4)
        if spec.form == "cor43_A":
            return p1 - array_fn(spec.delta)(np.maximum(np.maximum(p2, p3), p4))
        if spec.form == "cor43_B":
            return p1 - spec.k * np.minimum(np.minimum(p2, p3), p4)
        if spec.form == "cor43_C":
            return p1 - array_fn(spec.delta3)(p2, p3, p4)
        # cor43_D
        return p1 - (spec.k * p2 - np.minimum(p3, p4))

    m1, m2, m3, m4 = np.broadcast_arrays(m1, m2, m3, m4)
    uppers = 1.0 - np.stack([m1, m2, m3, m4])
    ints = cumulative_integrals(spec.density, uppers.ravel(), spec.quad_tol)
    i1, i2, i3, i4 = ints.reshape(uppers.shape)
    if spec.form == "integral_511":
        s = spec.scale
        return psi_eval_on_arrays(spec.psi, s * i1, s * i2, s * i3, s * i4)
    inner = np.maximum(np.maximum(i2, i3), i4)
    if spec.form == "cor51_A":
        return i1 - spec.a * inner
    # cor51_B
    return i1 - array_fn(spec.delta)(inner)


def margins_at(spec: ContractionSpec, quad: MapQuadruple, x, y, t) -> Array:
    """Margins at explicit sample arrays (broadcast together)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    m = quad.fm.membership
    ax, fx = quad.a(x), quad.f(x)
    by, gy = quad.b(y), quad.g(y)
    return _margins(spec,
                    m(fx, gy, t), m(ax, by, t), m(ax, fx, t), m(by, gy, t))


def contraction_margin_at(spec: ContractionSpec, quad: MapQuadruple,
                          x: float, y: float, t: float) -> float:
    """Spot margin at a single (x, y, t)."""
    return float(margins_at(spec, quad, x, y, t))


def _kernel(spec: ContractionSpec, quad: MapQuadruple, grid_n: int,
            t_grid: Sequence[float]) -> tuple[MarginFn, tuple]:
    """Chunk function of the scan over the (x, y, t) grid, in C order, and
    its layout (xs, ts, shape)."""
    xs = quad.fm.carrier.points(grid_n)
    ts = np.asarray(list(t_grid), dtype=float)
    shape = (xs.size, xs.size, ts.size)
    ax, fx = quad.a(xs), quad.f(xs)
    by, gy = quad.b(xs), quad.g(xs)
    m = quad.fm.membership
    # the two memberships that depend on one spatial index, as g x T tables
    m_axfx = np.broadcast_to(m(ax[:, None], fx[:, None], ts[None, :]), shape[::2])
    m_bygy = np.broadcast_to(m(by[:, None], gy[:, None], ts[None, :]), shape[1:])

    def fn(lo: int, hi: int) -> Array:
        i, j, k = np.unravel_index(np.arange(lo, hi), shape)
        t = ts[k]
        return _margins(spec, m(fx[i], gy[j], t), m(ax[i], by[j], t),
                        m_axfx[i, k], m_bygy[j, k])

    return fn, (xs, ts, shape)


def _scan(spec: ContractionSpec, quad: MapQuadruple, grid_n: int,
          t_grid: Sequence[float], jobs: int) -> tuple[Array, tuple]:
    """Margins of every grid sample, materialised, with the scan layout."""
    fn, layout = _kernel(spec, quad, grid_n, t_grid)
    return map_concat(int(np.prod(layout[2])), fn, jobs=jobs), layout


def _witness_at(index: int, xs: Array, ts: Array, shape: tuple, margin: float) -> dict:
    i, j, k = np.unravel_index(index, shape)
    return {"x": float(xs[i]), "y": float(xs[j]), "t": float(ts[k]),
            "margin": float(margin)}


def verify_contraction(quad: MapQuadruple, spec: ContractionSpec,
                       plan: ScanPlan) -> VerificationReport:
    """Scan the chosen form over the plan's grid; pass verdicts are
    re-checked at twice the spatial resolution before being reported."""
    margins, (xs, ts, shape) = _scan(spec, quad, plan.grid_n, plan.t_grid, plan.jobs)
    worst_idx = int(np.argmin(margins))
    worst = float(margins[worst_idx])
    worst_point = _witness_at(worst_idx, xs, ts, shape, worst)
    below = margins < MARGIN_TOLERANCE
    quantiles = np.quantile(margins, [0.25, 0.5, 0.75])
    summary = {
        "min": worst,
        "q25": float(quantiles[0]),
        "median": float(quantiles[1]),
        "q75": float(quantiles[2]),
        "max": float(np.max(margins)),
        "mean": float(np.mean(margins)),
    }
    samples = int(margins.size)

    if below.any():
        first_bad = int(np.argmax(below))
        witness = _witness_at(first_bad, xs, ts, shape, margins[first_bad])
        return VerificationReport(spec.form, "fail", worst, witness, samples,
                                  MARGIN_TOLERANCE, summary, worst_point, None)
    del margins, below  # free the base scan before the recheck allocates its chunks

    re_n = 2 * plan.grid_n
    fn, (re_xs, re_ts, re_shape) = _kernel(spec, quad, re_n, plan.t_grid)
    re = scan_segments([(int(np.prod(re_shape)), fn)], MARGIN_TOLERANCE, jobs=plan.jobs)
    recheck = {"grid_n": re_n, "samples": re.n, "worst_margin": re.worst_margin}
    samples += re.n
    worst_all = min(worst, re.worst_margin)

    if re.first_bad is not None:
        witness = _witness_at(re.first_bad, re_xs, re_ts, re_shape, re.bad_margin)
        return VerificationReport(spec.form, "fail", worst_all, witness, samples,
                                  MARGIN_TOLERANCE, summary, worst_point, recheck)
    return VerificationReport(spec.form, "pass", worst_all, None, samples,
                              MARGIN_TOLERANCE, summary, worst_point, recheck)


def verify_main_contraction(quad: MapQuadruple, psi: PsiFunction,
                            phi: AlteringDistance, plan: ScanPlan) -> VerificationReport:
    """The quadruple-gauge inequality psi(phi(m1), ..., phi(m4)) >= 0."""
    require_altering(phi, "phi")
    spec = ContractionSpec("main_411", psi=psi, phi=phi)
    return verify_contraction(quad, spec, plan)


def verify_corollary_condition(
    quad: MapQuadruple, which: str, phi: AlteringDistance, plan: ScanPlan, *,
    k: float | None = None,
    delta: Callable[[float], float] | None = None,
    delta3: Callable[[float, float, float], float] | None = None,
) -> VerificationReport:
    """The four direct comparison forms (A)-(D), evaluated without a psi."""
    if which not in ("A", "B", "C", "D"):
        raise InputError(f"corollary condition must be A, B, C or D, got {which!r}")
    require_altering(phi, "phi")
    spec = ContractionSpec(f"cor43_{which}", phi=phi, k=k, delta=delta, delta3=delta3)
    return verify_contraction(quad, spec, plan)


def verify_integral_contraction(
    quad: MapQuadruple, psi: PsiFunction | None, density: Density, plan: ScanPlan,
    quad_tol: float = 1e-10, *,
    which: str = "integral_511",
    a: float | None = None,
    delta: Callable[[float], float] | None = None,
) -> VerificationReport:
    """The integral-transformed inequality (with psi), or the direct integral
    comparisons when ``which`` selects a corollary form."""
    if which not in _INTEGRAL_FORMS:
        raise InputError(f"integral form must be one of {_INTEGRAL_FORMS}, got {which!r}")
    spec = ContractionSpec(which, psi=psi, density=density, a=a, delta=delta,
                           quad_tol=quad_tol)
    return verify_contraction(quad, spec, plan)
