"""Command-line front end.

Every command loads one INI config (see config.py; ``reproduce-example6``
loads the bundled ``data/example6.ini``), runs its view of the staged
pipeline on it, and emits a JSON document with a fixed envelope::

    {"command": ..., "seed": ..., "parameters": {...},
     "report": {...}, "verdict": "pass" | "fail"}

validating against the published schema in ``data/reports_schema.json``.
Exit codes: 0 every check passed, 1 a verified violation (the report carries
a witness), 2 bad input or a numerical failure (diagnostics on stderr).
Reports never mention worker counts or timestamps, so a fixed --seed yields
byte-identical output for any --jobs value.  ``_COMMANDS`` gives each
command its help text, override flags and handler; a plan gets only the
flags the user gave, so ``SamplingPlan`` and ``ScanPlan`` own its defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from importlib import resources
from pathlib import Path

from .config import RunConfig, load_config
from .contraction import ScanPlan, contraction_margin_at, verify_contraction
from .dp import solve_system
from .errors import InputError, NumericalError
from .expr import EvalError
from .metric import SamplingPlan, verify_fm_axioms
from .implicit import DEFAULT_PSI_GRID, verify_psi
from .pipeline import (TheoremConfig, _guarded, find_common_fixed_points,
                       run_stages, run_theorem_pipeline)


def _t_grid(text: str) -> tuple[float, ...]:
    try:
        ts = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None
    if not all(math.isfinite(t) and t > 0.0 for t in ts):
        raise argparse.ArgumentTypeError(f"values must be finite and positive, got {text}")
    return ts


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {n}")
        return n
    return parse


def _tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzfix",
        description="Verify fuzzy-metric fixed-point hypotheses and solve the "
                    "associated dynamic programs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, reads, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        if name != "reproduce-example6":  # it always runs the bundled config
            cmd.add_argument("--config", help="path to the INI config")
        cmd.add_argument("--out", help="write the JSON report here instead of stdout")
        cmd.add_argument("--seed", type=int, default=0,
                         help="seed for randomized sampling (default 0)")
        cmd.add_argument("--jobs", type=_at_least(1), default=1,
                         help="worker threads (at least 1); output is identical for any value")
        if "grid" in reads:
            # the fixed-point search and the psi check need an interior point
            least = 3 if name in ("psi-check", "fixpoint") else 2
            cmd.add_argument("--grid", type=_at_least(least),
                             help=f"override the command's sampling grid size "
                                  f"(at least {least})")
        if "tol" in reads:
            cmd.add_argument("--tol", type=_tol, help="override the command's main "
                                                      "tolerance (finite and positive)")
        if "t_grid" in reads:
            cmd.add_argument("--t-grid", type=_t_grid,
                             help="comma-separated positive time samples")
        if name == "psi-check":
            cmd.add_argument("--variant", choices=("as_printed", "strict"),
                             default="as_printed",
                             help="read the implication conditions as printed, or "
                                  "with the strict consequent the proofs use")
        if name == "dp-solve":
            cmd.add_argument("--csv", help="also export the solution as CSV (x,value)")
    return parser


def _plan(kind, args, **fixed):
    """A ``kind`` plan from the grid flags given; the plan's defaults fill in."""
    given = {"grid_n": vars(args).get("grid"), "t_grid": vars(args).get("t_grid")}
    return kind(**{key: v for key, v in given.items() if v is not None},
                jobs=args.jobs, **fixed)


def _cmd_axioms(cfg: RunConfig, args) -> tuple[bool, dict, dict]:
    fm = cfg.fuzzy_metric()
    plan = _plan(SamplingPlan, args, seed=args.seed)
    report = verify_fm_axioms(fm, plan)
    params = {"grid": plan.grid_n, "t_grid": list(plan.t_grid),
              "n_random": plan.n_random}
    return report["passed"], report, params


def _cmd_psi_check(cfg: RunConfig, args) -> tuple[bool, dict, dict]:
    psi = cfg.psi()
    grid_n = args.grid if args.grid is not None else DEFAULT_PSI_GRID
    report = verify_psi(psi, variant=args.variant, grid_n=grid_n)
    return report["passed"], report, {"grid": grid_n, "variant": args.variant}


def _cmd_verify(cfg: RunConfig, args) -> tuple[bool, dict, dict]:
    quad = cfg.quadruple()
    spec = cfg.contraction_spec()
    plan = _plan(ScanPlan, args)
    # the contraction stage of theorem, reported as theorem reports it
    report = _guarded("contraction", lambda: verify_contraction(quad, spec, plan))
    params = {"grid": plan.grid_n, "t_grid": list(plan.t_grid)}
    return report["status"] == "pass", report, params


def _cmd_pairs(cfg: RunConfig, args) -> tuple[bool, dict, dict]:
    """Theorem's stages without the contraction, keyed by hypothesis."""
    tc = cfg.theorem_config(_plan(ScanPlan, args), contraction=False)
    if args.tol is not None:
        tc = dataclasses.replace(tc, tolerances=dataclasses.replace(
            tc.tolerances, tail=args.tol))
    stages = run_stages(tc)
    detail = {s["stage"]: s["detail"] for s in stages}
    report = {"coincidence": {p: detail[f"coincidence-{p}"] for p in ("af", "bg")},
              "commutation": {p: detail[f"commutation-{p}"] for p in ("af", "bg")},
              "property_ea": detail["tail-convergence"],
              "containment": detail["containment"],
              "closedness": detail["closedness"]}
    verdict = all(s["status"] != "fail" for s in stages)
    return verdict, report, dict(_stage_params(tc), tail_tol=tc.tolerances.tail)


def _cmd_fixpoint(cfg: RunConfig, args) -> tuple[bool, dict, dict]:
    quad = cfg.quadruple()
    tol = args.tol if args.tol is not None else cfg.tolerances().fixed_point
    # the fixed-points stage of theorem, reported as theorem reports it
    search = _guarded("fixed-points", lambda: find_common_fixed_points(
        quad, tol=tol, grid_n=args.grid))
    verdict = search["all_points_fixed"] or bool(search["certificates"])
    return verdict, search, {"tol": tol, "grid": search["grid_n"]}


def _stage_params(tc: TheoremConfig) -> dict:
    return {"t_grid": list(tc.plan.t_grid), "ea_pairs": tc.ea_pairs,
            "containment": tc.containment_direction,
            "closedness": tc.closedness_target,
            "commutation": tc.commutation_variant}


def _cmd_theorem(cfg: RunConfig, args) -> tuple[bool, dict, dict]:
    """The full pipeline; reproduce-example6 adds the margin at (1, 1, 1)."""
    tc = cfg.theorem_config(_plan(ScanPlan, args))
    report = run_theorem_pipeline(tc)
    verdict = report["certified"]
    if args.command == "reproduce-example6":
        spot = contraction_margin_at(tc.contraction, tc.quad, 1.0, 1.0, 1.0)
        report = {"pipeline": report, "spot_margin_at_1_1_1": spot}
    return verdict, report, dict(_stage_params(tc), grid=tc.plan.grid_n)


def _cmd_dp_solve(cfg: RunConfig, args) -> tuple[bool, dict, dict]:
    prob, tol, max_iter = cfg.dp_problem()
    if args.tol is not None:
        tol = args.tol
    system = solve_system(prob, tol=tol, max_iter=max_iter, jobs=args.jobs)
    rep = system.representative
    doc = system.to_dict()
    doc["solution"] = {"x": [float(v) for v in rep.xs],
                       "value": [float(v) for v in rep.values]}
    if args.csv:
        lines = ["x,value"]
        lines += [f"{float(x)!r},{float(v)!r}" for x, v in zip(rep.xs, rep.values)]
        Path(args.csv).write_text("\n".join(lines) + "\n")
    return system.common_solution, doc, {"tol": tol, "max_iter": max_iter}


# command -> (help text, the override flags it reads, handler)
_COMMANDS = {
    "axioms": ("check the configured membership against the space axioms",
               ("grid", "t_grid"), _cmd_axioms),
    "psi-check": ("check the configured quadruple gauge's family conditions",
                  ("grid",), _cmd_psi_check),
    "verify": ("scan the configured contractive inequality",
               ("grid", "t_grid"), _cmd_verify),
    "pairs": ("run the pairwise hypotheses for the configured maps",
              ("tol", "t_grid"), _cmd_pairs),
    "fixpoint": ("search for common fixed points of the configured maps",
                 ("grid", "tol"), _cmd_fixpoint),
    "theorem": ("run the full hypothesis pipeline", ("grid", "t_grid"), _cmd_theorem),
    "dp-solve": ("solve the configured dynamic-programming system", ("tol",),
                 _cmd_dp_solve),
    "reproduce-example6": ("run the bundled worked example end to end",
                           ("grid", "t_grid"), _cmd_theorem),
}
COMMANDS = tuple(_COMMANDS)


def run_command(args) -> tuple[int, str]:
    """Run one parsed command on its config; returns (exit code, JSON document)."""
    if args.command == "reproduce-example6":
        with resources.as_file(resources.files("fuzzfix") / "data" / "example6.ini") as path:
            cfg = load_config(path)
    elif args.config:
        cfg = load_config(args.config)
    else:
        raise InputError("this command needs --config PATH")
    passed, report, params = _COMMANDS[args.command][2](cfg, args)
    doc = {"command": args.command, "seed": args.seed, "parameters": params,
           "report": report, "verdict": "pass" if passed else "fail"}
    return (0 if passed else 1), json.dumps(doc, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text = run_command(args)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except (InputError, NumericalError, EvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
