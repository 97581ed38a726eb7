"""Seeded workload generator.

A workload is a set of INI configs plus the fuzzfix CLI calls made on them,
each call carrying the outcome it must produce.  The seed varies only inputs
whose expected outcome is known in closed form:

- verify-*: the ex2_2 gauge constant k in [0.3, 0.7].  With f = x, g = 0,
  a = x/2 and b = x/4 the gauge of M(Ax,Fx,t) never exceeds that of
  M(Fx,Gy,t), so every k in (0,1) passes, with worst margin 0 at x = 0.
- dp-solve: the coefficient c in q = c*x*y, drawn from [1.5, 2.5].  The
  solution is 2c*x, and value iteration from zero stops after the same
  number of sweeps for every c in that range, so the work per call is fixed.
- checks-mix: k as above, the --seed of each axioms call, and the call order.
  A round has eleven calls, an odd number, so the median call time falls
  inside one kind of call (axioms at grid 21) instead of between two.

Standard library only: the parent process imports this without NumPy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify-linear", "verify-integral", "dp-solve", "checks-mix")

# the CLI's default time grid for contraction scans (pairs.DEFAULT_T_GRID)
SCAN_T_GRID = (0.1, 0.5, 1.0, 2.0, 10.0)

VERIFY_GRID = {"verify-linear": 401, "verify-integral": 201}
DP_STATES, DP_DECISIONS = 2001, 201
DP_WARM_STATES, DP_WARM_DECISIONS = 201, 21
DP_BETA, DP_TOL = 0.5, 1e-8


@dataclass(frozen=True)
class Call:
    """One CLI call: ``argv`` as typed after ``fuzzfix``, and what the
    oracle must find in its exit code and report."""

    argv: tuple[str, ...]
    expect: dict

    @property
    def label(self) -> str:
        return " ".join(a for a in self.argv if not a.endswith(".ini"))


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload.  ``unit`` is the fixed sequence of calls a
    measurement repeats (one call, or one round of the mix); ``warmup`` runs
    first in every fresh process and is kept out of the timings."""

    name: str
    configs: dict
    unit: tuple[Call, ...]
    warmup: tuple[Call, ...]
    # files whose components every CLI invocation builds (for setup_s)
    setup_configs: tuple[str, ...]

    def write(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.configs.items():
            (workdir / name).write_text(text)


def _example6(k: float, g: str = "0", phi: str = "kind = linear") -> str:
    return f"""\
[carrier]
lo = 0
hi = 1
grid_n = 101

[metric]
kind = standard
tnorm = product
distance = abs(x - y)

[maps]
a = x / 2
b = x / 4
f = x
g = {g}

[psi]
example = ex2_2
k = {k!r}

[phi]
{phi}

[contraction]
form = main_411
ea_pairs = af
containment = g_in_a
closedness = a
commutation = weakly_compatible

[sequences]
af = 1 / n
tail_start = 1000
tail_len = 100

[tolerances]
coincidence = 1e-9
fixed_point = 1e-9
tail = 1e-3
"""


INTEGRAL_PHI = "kind = integral\ndensity = 2*s + 0.1"


def _dp(c: float, states: int, decisions: int) -> str:
    ys = ", ".join(repr(round(j / (decisions - 1), 12)) for j in range(decisions))
    return f"""\
[carrier]
lo = 0
hi = 1
grid_n = {states}

[dp]
decisions = {ys}
q = {c!r} * x * y
tau = x * y
l1 = z / 2
l2 = z / 2
n1 = z / 2
n2 = z / 2
lam = 1
beta = {DP_BETA!r}
tol = {DP_TOL!r}
"""


def _k(rng: random.Random) -> float:
    return round(rng.uniform(0.3, 0.7), 3)


def _verify_call(cfg: str, grid: int, seed: int, *, variant: str, phi: str,
                 k: float, code: int) -> Call:
    return Call(("verify", "--config", cfg, "--grid", str(grid), "--seed", str(seed)),
                {"check": "verify", "code": code, "grid": grid, "variant": variant,
                 "phi": phi, "k": k})


def make_workload(name: str, seed: int) -> Workload:
    """The inputs of workload ``name`` for ``seed``; equal seeds give equal
    workloads."""
    rng = random.Random(f"fuzzfix-bench:{name}:{seed}")
    s = str(seed)
    if name in VERIFY_GRID:
        k = _k(rng)
        phi = "linear" if name == "verify-linear" else "integral"
        cfg = f"{name}.ini"
        text = _example6(k, phi="kind = linear" if phi == "linear" else INTEGRAL_PHI)
        call = _verify_call(cfg, VERIFY_GRID[name], seed, variant="pass", phi=phi,
                            k=k, code=0)
        warm = _verify_call(cfg, 21, seed, variant="pass", phi=phi, k=k, code=0)
        return Workload(name, {cfg: text}, (call,), (warm,) * 4, (cfg,))

    if name == "dp-solve":
        c = round(rng.uniform(1.5, 2.5), 4)
        configs = {"dp.ini": _dp(c, DP_STATES, DP_DECISIONS),
                   "dp-warm.ini": _dp(c, DP_WARM_STATES, DP_WARM_DECISIONS)}
        expect = {"check": "dp", "code": 0, "c": c, "beta": DP_BETA, "tol": DP_TOL}
        call = Call(("dp-solve", "--config", "dp.ini", "--seed", s),
                    dict(expect, states=DP_STATES, decisions=DP_DECISIONS))
        warm = Call(("dp-solve", "--config", "dp-warm.ini", "--seed", s),
                    dict(expect, states=DP_WARM_STATES, decisions=DP_WARM_DECISIONS))
        return Workload(name, configs, (call,), (warm,) * 4, ("dp.ini",))

    if name == "checks-mix":
        k = _k(rng)
        configs = {"pass.ini": _example6(k), "fail.ini": _example6(k, g="1 - x")}
        ax_seeds = [rng.randrange(2**31) for _ in range(2)]
        light = [
            Call(("reproduce-example6", "--seed", s),
                 {"check": "theorem", "code": 0, "k": 0.5, "reproduce": True}),
            Call(("theorem", "--config", "pass.ini", "--seed", s),
                 {"check": "theorem", "code": 0, "k": k}),
            Call(("pairs", "--config", "pass.ini", "--seed", s),
                 {"check": "pairs", "code": 0}),
            Call(("fixpoint", "--config", "pass.ini", "--seed", s),
                 {"check": "fixpoint", "code": 0}),
            Call(("axioms", "--config", "pass.ini", "--grid", "21",
                  "--seed", str(ax_seeds[0])), {"check": "axioms", "code": 0, "grid": 21}),
            Call(("psi-check", "--config", "pass.ini", "--grid", "21", "--seed", s),
                 {"check": "psi", "code": 0, "grid": 21}),
            Call(("theorem", "--config", "fail.ini", "--seed", s),
                 {"check": "theorem", "code": 1, "k": k}),
            Call(("pairs", "--config", "fail.ini", "--seed", s),
                 {"check": "pairs", "code": 1}),
            _verify_call("fail.ini", 51, seed, variant="fail", phi="linear", k=k,
                         code=1),
        ]
        heavy = [
            Call(("axioms", "--config", "pass.ini", "--grid", "41",
                  "--seed", str(ax_seeds[1])), {"check": "axioms", "code": 0, "grid": 41}),
            Call(("psi-check", "--config", "pass.ini", "--grid", "61", "--seed", s),
                 {"check": "psi", "code": 0, "grid": 61}),
        ]
        unit = light + heavy
        rng.shuffle(unit)
        return Workload(name, configs, tuple(unit), tuple(light),
                        ("pass.ini", "fail.ini"))

    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
