"""Shared fixtures: the bundled reference system and a small solvable control problem."""

from __future__ import annotations

import pytest

from fuzzfix import (
    Carrier,
    DPProblem,
    MapQuadruple,
    make_tnorm,
    problem_from_exprs,
    selfmap_from_expr,
    standard_fuzzy_metric,
)


@pytest.fixture(scope="session")
def unit_carrier() -> Carrier:
    return Carrier(0.0, 1.0, 101)


@pytest.fixture(scope="session")
def reference_fm(unit_carrier: Carrier):
    """Membership t / (t + |x - y|) under the product t-norm."""
    return standard_fuzzy_metric(
        lambda x, y: abs(x - y), make_tnorm("product"), unit_carrier
    )


@pytest.fixture(scope="session")
def reference_quad(unit_carrier: Carrier, reference_fm) -> MapQuadruple:
    """Halving/quartering pair against identity and the zero map; z = 0 is the
    unique common fixed point."""
    return MapQuadruple(
        a=selfmap_from_expr(unit_carrier, "x / 2", label="A"),
        b=selfmap_from_expr(unit_carrier, "x / 4", label="B"),
        f=selfmap_from_expr(unit_carrier, "x", label="F"),
        g=selfmap_from_expr(unit_carrier, "0", label="G"),
        fm=reference_fm,
    )


@pytest.fixture(scope="session")
def control_problem() -> DPProblem:
    """Symmetric control problem whose common solution is P(x) = 2x."""
    return problem_from_exprs(
        w=Carrier(0.0, 1.0, 201),
        decisions=[i / 10 for i in range(11)],
        q="x * y",
        l1="z / 2",
        l2="z / 2",
        n1="z / 2",
        n2="z / 2",
        tau="x * y",
        lam=1.0,
        beta=0.5,
    )


def named(entries: list[dict], name: str) -> dict:
    """The entry of a report's ``checks``, ``conditions`` or ``stages`` list
    called ``name``."""
    for entry in entries:
        if entry.get("name", entry.get("stage")) == name:
            return entry
    raise KeyError(name)
