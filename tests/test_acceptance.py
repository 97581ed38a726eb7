"""Acceptance gate: one checked, printed line per shipped guarantee."""

from __future__ import annotations

import json
import math
import time

import numpy as np

from conftest import named
from corpus_expr import CORPUS, MALFORMED
from fuzzfix import (
    ContractionSpec,
    Density,
    FuzzyMetric,
    ParseError,
    SamplingPlan,
    ScanPlan,
    builtin_altering,
    contraction_margin_at,
    eval_expr,
    make_integral_altering,
    make_psi,
    make_tnorm,
    parse,
    solve_system,
    value_iterate,
    verify_fm_axioms,
    verify_integral_contraction,
    verify_main_contraction,
    verify_psi,
)
from fuzzfix.cli import main
from test_cli import DP_CONFIG, FULL_CONFIG


def _report(n: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {n} ({desc}): {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_worked_example_certifies(tmp_path):
    out = tmp_path / "repro.json"
    start = time.perf_counter()
    code = main(["reproduce-example6", "--out", str(out)])
    elapsed = time.perf_counter() - start
    doc = json.loads(out.read_text())
    pipe = doc["report"]["pipeline"]
    contraction = next(s for s in pipe["stages"] if s["stage"] == "contraction")
    certs = pipe["search"]["certificates"]
    ok = (
        code == 0
        and all(s["status"] == "pass" for s in pipe["stages"])
        and contraction["detail"]["samples"] >= 10_000
        and contraction["detail"]["worst_margin"] >= -1e-9
        and len(certs) == 1
        and abs(certs[0]["z"]) < 1e-9
        and certs[0]["max_residual"] < 1e-9
        and pipe["uniqueness"] == "unique-on-grid"
        and pipe["certified"]
        and elapsed < 60.0
    )
    _report(1, "worked-example certification", ok, f"elapsed {elapsed:.2f}s")


def test_criterion_2_spot_margin(reference_quad):
    spec = ContractionSpec(
        form="main_411", psi=make_psi("ex2_2", k=0.5), phi=builtin_altering("linear")
    )
    margin = contraction_margin_at(spec, reference_quad, 1.0, 1.0, 1.0)
    ok = abs(margin - 0.4) <= 1e-9
    _report(2, "spot margin at (1,1,1)", ok, f"margin {margin!r}")


def test_criterion_3_axioms(reference_fm, unit_carrier):
    good = verify_fm_axioms(reference_fm, SamplingPlan(n_random=1000))
    flat = FuzzyMetric(
        unit_carrier,
        lambda x, y, t: np.full(np.broadcast(x, y, t).shape, 0.5),
        make_tnorm("product"),
    )
    bad = verify_fm_axioms(flat, SamplingPlan(n_random=1000))
    fm2 = named(bad["checks"], "FM-2-forward")
    ok = (
        good["passed"]
        and all(c["status"] == "pass" for c in good["checks"])
        and not bad["passed"]
        and fm2["status"] == "fail"
        and fm2["witness"] is not None
    )
    _report(3, "axiom verifier", ok)


def test_criterion_4_integral_route_equivalence(reference_quad):
    grid = np.linspace(0.0, 1.0, 101)
    phi_gap = float(
        np.max(
            np.abs(
                make_integral_altering(Density(lambda s: 1.0)).on_array(grid)
                - builtin_altering("linear").on_array(grid)
            )
        )
    )
    psi = make_psi("ex2_2", k=0.5)
    plan = ScanPlan()
    gauge_route = verify_main_contraction(
        reference_quad, psi, builtin_altering("linear"), plan
    )
    integral_route = verify_integral_contraction(
        reference_quad, psi, Density(lambda s: 1.0), plan
    )
    margin_gap = abs(gauge_route["worst_margin"] - integral_route["worst_margin"])
    ok = (
        phi_gap <= 1e-9
        and gauge_route["status"] == integral_route["status"] == "pass"
        and margin_gap <= 1e-9
    )
    _report(
        4,
        "integral route equivalence",
        ok,
        f"phi gap {phi_gap!r}, margin gap {margin_gap!r}",
    )


def test_criterion_5_psi_conditions():
    psis = {
        "ex2_1": make_psi("ex2_1", delta=lambda u: u / 2),
        "ex2_2": make_psi("ex2_2", k=0.5),
        "ex2_3": make_psi("ex2_3", delta3=lambda u2, u3, u4: (u2 + u3 + u4) / 4),
        "ex2_4": make_psi("ex2_4", k=0.5),
        "ex2_5": make_psi("ex2_5", a=0.5, density=Density(lambda s: 1.0)),
        "ex2_6": make_psi(
            "ex2_6", delta=lambda u: u / 2, density=Density(lambda s: 2.0 * s)
        ),
    }
    ok = True
    for psi in psis.values():
        rep = verify_psi(psi, variant="as_printed")
        statuses = {c["name"]: c["status"] for c in rep["conditions"]}
        ok = ok and statuses["psi1"] == "holds"
        ok = ok and all(
            statuses[name] == "holds-vacuously" for name in ("psi2", "psi3", "psi4")
        )
    strict = verify_psi(psis["ex2_2"], variant="strict")
    psi3 = next(c for c in strict["conditions"] if c["name"] == "psi3")
    ok = ok and psi3["status"] == "fails" and psi3["witness"] is not None
    _report(5, "implicit-relation verifier", ok)


def test_criterion_6_dp_solver(control_problem):
    start = time.perf_counter()
    res = value_iterate(control_problem, "U1")
    system = solve_system(control_problem)
    elapsed = time.perf_counter() - start
    xs = res.value.xs
    sup_error = float(np.max(np.abs(res.value.values - 2.0 * xs)))
    trace = res.residual_trace
    envelope = all(
        r <= trace[0] * 0.5**k + 1e-9 for k, r in enumerate(trace)
    )
    ok = (
        sup_error < 1e-6
        and res.iterations <= 40
        and envelope
        and res.envelope_ok
        and all(g <= 2e-8 for g in system.pairwise_gaps.values())
        and system.common_solution
        and elapsed < 5.0
    )
    _report(6, "value-iteration solver", ok, f"sup error {sup_error!r}")


def test_criterion_7_expression_corpus():
    worst = 0.0
    ok = True
    for text, binding, expected in CORPUS:
        got = eval_expr(parse(text), binding)
        ok = ok and math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12)
        worst = max(worst, abs(got - expected))
    for text, position in MALFORMED:
        try:
            parse(text)
        except ParseError as exc:
            ok = ok and exc.position == position
        else:
            ok = False
    _report(7, "expression corpus", ok, f"worst abs err {worst!r}")


def test_criterion_8_determinism(tmp_path):
    full = tmp_path / "full.ini"
    full.write_text(FULL_CONFIG)
    dp = tmp_path / "dp.ini"
    dp.write_text(DP_CONFIG)
    runs = [
        ("axioms", ["--config", str(full)]),
        ("psi-check", ["--config", str(full)]),
        ("verify", ["--config", str(full)]),
        ("pairs", ["--config", str(full)]),
        ("fixpoint", ["--config", str(full)]),
        ("theorem", ["--config", str(full)]),
        ("dp-solve", ["--config", str(dp)]),
        ("reproduce-example6", []),
    ]
    ok = True
    for command, extra in runs:
        blobs = []
        for jobs in ("1", "4"):
            out = tmp_path / f"{command}-{jobs}.json"
            code = main(
                [command, *extra, "--seed", "0", "--jobs", jobs, "--out", str(out)]
            )
            ok = ok and code in (0, 1)
            blobs.append(out.read_bytes())
        ok = ok and blobs[0] == blobs[1]
    _report(8, "cross-jobs determinism", ok)
