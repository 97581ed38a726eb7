"""Command-line front end.

Every command loads one INI config (see config.py), runs one pipeline, and
emits a JSON document with a fixed envelope::

    {"command": ..., "seed": ..., "parameters": {...},
     "report": {...}, "verdict": "pass" | "fail"}

validating against the published schema in ``data/reports_schema.json``.
Exit codes: 0 every check passed, 1 a verified violation (the report carries
a witness), 2 bad input or a numerical failure (diagnostics on stderr).
Reports never mention worker counts or timestamps, so a fixed --seed yields
byte-identical output for any --jobs value.
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
from .implicit import verify_psi
from .pairs import DEFAULT_T_GRID
from .pipeline import (TheoremConfig, _guarded, find_common_fixed_points,
                       run_stages, run_theorem_pipeline)

COMMANDS = ("axioms", "psi-check", "verify", "pairs", "fixpoint", "theorem",
            "dp-solve", "reproduce-example6")
# the commands that read each overriding flag; argparse rejects it elsewhere
_GRID_COMMANDS = ("axioms", "psi-check", "verify", "fixpoint", "theorem",
                  "reproduce-example6")
_T_GRID_COMMANDS = ("axioms", "verify", "pairs", "theorem", "reproduce-example6")
_TOL_COMMANDS = ("pairs", "fixpoint", "dp-solve")


def _parse_t_grid(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise InputError(f"--t-grid must be comma-separated numbers, got {text!r}") from None
    if not values:
        raise InputError("--t-grid must be nonempty")
    return values


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


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
    for name, help_text in (
        ("axioms", "check the configured membership against the space axioms"),
        ("psi-check", "check the configured quadruple gauge's family conditions"),
        ("verify", "scan the configured contractive inequality"),
        ("pairs", "run the pairwise hypotheses for the configured maps"),
        ("fixpoint", "search for common fixed points of the configured maps"),
        ("theorem", "run the full hypothesis pipeline"),
        ("dp-solve", "solve the configured dynamic-programming system"),
        ("reproduce-example6", "run the bundled worked example end to end"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="path to the INI config")
        cmd.add_argument("--out", help="write the JSON report here instead of stdout")
        cmd.add_argument("--seed", type=int, default=0,
                         help="seed for randomized sampling (default 0)")
        cmd.add_argument("--jobs", type=_jobs, default=1,
                         help="worker threads (at least 1); output is identical for any value")
        if name in _GRID_COMMANDS:
            cmd.add_argument("--grid", type=int, default=None,
                             help="override the command's sampling grid size")
        if name in _TOL_COMMANDS:
            cmd.add_argument("--tol", type=_tol, default=None,
                             help="override the command's main tolerance "
                                  "(finite and positive)")
        if name in _T_GRID_COMMANDS:
            cmd.add_argument("--t-grid", dest="t_grid", default=None,
                             help="comma-separated positive time samples")
        if name == "psi-check":
            cmd.add_argument("--variant", choices=("as_printed", "strict"),
                             default="as_printed",
                             help="read the implication conditions as printed, or "
                                  "with the strict consequent the proofs use")
        if name == "dp-solve":
            cmd.add_argument("--csv", help="also export the solution as CSV (x,value)")
    return parser


def _require_config(args) -> RunConfig:
    if not args.config:
        raise InputError("this command needs --config PATH")
    return load_config(args.config)


def _t_grid(args, default: tuple[float, ...] = DEFAULT_T_GRID) -> tuple[float, ...]:
    return _parse_t_grid(args.t_grid) if args.t_grid else default


def _scan_plan(args, default_grid: int = 51) -> ScanPlan:
    return ScanPlan(grid_n=args.grid if args.grid is not None else default_grid,
                    t_grid=_t_grid(args), jobs=args.jobs)


def _cmd_axioms(args) -> tuple[bool, dict, dict]:
    cfg = _require_config(args)
    fm = cfg.fuzzy_metric()
    plan = SamplingPlan(
        grid_n=args.grid if args.grid is not None else 21,
        t_grid=_t_grid(args, (0.25, 0.5, 1.0, 2.0, 4.0)),
        n_random=1000, seed=args.seed, jobs=args.jobs)
    report = verify_fm_axioms(fm, plan)
    params = {"grid": plan.grid_n, "t_grid": list(plan.t_grid),
              "n_random": plan.n_random}
    return report["passed"], report, params


def _cmd_psi_check(args) -> tuple[bool, dict, dict]:
    cfg = _require_config(args)
    psi = cfg.psi()
    grid_n = args.grid if args.grid is not None else 21
    report = verify_psi(psi, variant=args.variant, grid_n=grid_n)
    return report["passed"], report, {"grid": grid_n, "variant": args.variant}


def _cmd_verify(args) -> tuple[bool, dict, dict]:
    cfg = _require_config(args)
    quad = cfg.quadruple()
    spec = cfg.contraction_spec()
    plan = _scan_plan(args)
    # the contraction stage of theorem, reported as theorem reports it
    report = _guarded("contraction", lambda: verify_contraction(quad, spec, plan))
    params = {"grid": plan.grid_n, "t_grid": list(plan.t_grid)}
    return report["status"] == "pass", report, params


def _cmd_pairs(args) -> tuple[bool, dict, dict]:
    """Theorem's stages without the contraction scan, keyed by hypothesis."""
    tc = _require_config(args).theorem_config(ScanPlan(t_grid=_t_grid(args)))
    if args.tol is not None:
        tc = dataclasses.replace(tc, tolerances=dataclasses.replace(
            tc.tolerances, tail=args.tol))
    stages = run_stages(tc, skip=("contraction",))
    detail = {s["stage"]: s["detail"] for s in stages}
    report = {"coincidence": {p: detail[f"coincidence-{p}"] for p in ("af", "bg")},
              "commutation": {p: detail[f"commutation-{p}"] for p in ("af", "bg")},
              "property_ea": detail["tail-convergence"],
              "containment": detail["containment"],
              "closedness": detail["closedness"]}
    verdict = all(s["status"] != "fail" for s in stages)
    return verdict, report, dict(_stage_params(tc), tail_tol=tc.tolerances.tail)


def _cmd_fixpoint(args) -> tuple[bool, dict, dict]:
    cfg = _require_config(args)
    quad = cfg.quadruple()
    tol = args.tol if args.tol is not None else cfg.tolerances().fixed_point
    search = find_common_fixed_points(quad, tol=tol, grid_n=args.grid)
    verdict = search["all_points_fixed"] or bool(search["certificates"])
    return verdict, search, {"tol": tol, "grid": search["grid_n"]}


def _stage_params(tc: TheoremConfig) -> dict:
    return {"t_grid": list(tc.plan.t_grid), "ea_pairs": tc.ea_pairs,
            "containment": tc.containment_direction,
            "closedness": tc.closedness_target,
            "commutation": tc.commutation_variant}


def _theorem_report(tc: TheoremConfig) -> tuple[bool, dict, dict]:
    report = run_theorem_pipeline(tc)
    params = dict(_stage_params(tc), grid=tc.plan.grid_n)
    return report["certified"], report, params


def _cmd_theorem(args) -> tuple[bool, dict, dict]:
    return _theorem_report(_require_config(args).theorem_config(_scan_plan(args)))


def _cmd_reproduce(args) -> tuple[bool, dict, dict]:
    with resources.as_file(resources.files("fuzzfix") / "data" / "example6.ini") as path:
        tc = load_config(path).theorem_config(_scan_plan(args))
    verdict, doc, params = _theorem_report(tc)
    spot = contraction_margin_at(tc.contraction, tc.quad, 1.0, 1.0, 1.0)
    report = {"pipeline": doc, "spot_margin_at_1_1_1": spot}
    return verdict, report, params


def _cmd_dp_solve(args) -> tuple[bool, dict, dict]:
    cfg = _require_config(args)
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


_HANDLERS = {
    "axioms": _cmd_axioms,
    "psi-check": _cmd_psi_check,
    "verify": _cmd_verify,
    "pairs": _cmd_pairs,
    "fixpoint": _cmd_fixpoint,
    "theorem": _cmd_theorem,
    "dp-solve": _cmd_dp_solve,
    "reproduce-example6": _cmd_reproduce,
}


def run_command(args) -> tuple[int, str]:
    """Run one parsed command; returns (exit code, JSON document)."""
    passed, report, params = _HANDLERS[args.command](args)
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
