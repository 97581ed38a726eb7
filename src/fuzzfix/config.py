"""INI-backed run configuration.

One file format drives every command.  Sections and keys:

    [carrier]      lo, hi, grid_n
    [metric]       kind (standard | expr), tnorm (minimum | product |
                   lukasiewicz), distance (expr in x,y), membership
                   (expr in x,y,t)
    [maps]         a, b, f, g (exprs in x)
    [psi]          example (ex2_1..ex2_6 or custom), k, a, delta (expr in u),
                   delta3 (expr in u1,u2,u3), density (expr in s), quad_tol
    [phi]          kind (linear | expr | integral), expr (in s),
                   density (expr in s), quad_tol
    [contraction]  form, k, a, delta, delta3, density, quad_tol, plus the
                   theorem-run switches ea_pairs, containment, closedness,
                   commutation, r_constant
    [sequences]    af, bg (exprs in n), tail_start, tail_len
    [dp]           decisions (comma-separated), q, tau (exprs in x,y),
                   l1, l2, n1, n2 (exprs in x,y,z), lam, beta, tol, max_iter
    [tolerances]   coincidence, fixed_point, tail

Unknown sections or keys are rejected, and every expression is parsed at
load time, before any computation, so syntax errors carry their file,
section, key and byte offset.

``quad_tol`` (default 1e-10) bounds the quadrature error of a density's
gauge.  An integral phi of mass above 1 is rescaled by 1/mass, so its
tables of integrals are built within quad_tol * max(1, mass) and phi is
within quad_tol; the integrals inside ex2_5 and ex2_6 are not rescaled,
and for them quad_tol is absolute.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .contraction import CONTRACTION_FORMS, ContractionSpec, ScanPlan
from .distances import (AlteringDistance, Density, builtin_altering,
                        make_integral_altering)
from .dp import DPProblem, problem_from_exprs
from .errors import InputError
from .expr import expr_function, parse, variables
from .implicit import PSI_EXAMPLE_IDS, PsiFunction, make_psi
from .metric import Carrier, FuzzyMetric, make_tnorm, standard_fuzzy_metric
from .pairs import (COMMUTATION_VARIANTS, MapQuadruple, SequenceSpec,
                    selfmap_from_expr, sequence_from_expr)
from .pipeline import (CLOSEDNESS_TARGETS, CONTAINMENT_DIRECTIONS, EA_CHOICES,
                       TheoremConfig, Tolerances)

_EXPR_VARS = {
    ("metric", "distance"): ("x", "y"),
    ("metric", "membership"): ("x", "y", "t"),
    ("maps", "a"): ("x",), ("maps", "b"): ("x",),
    ("maps", "f"): ("x",), ("maps", "g"): ("x",),
    ("psi", "delta"): ("u",),
    ("psi", "delta3"): ("u1", "u2", "u3"),
    ("psi", "density"): ("s",),
    ("phi", "expr"): ("s",),
    ("phi", "density"): ("s",),
    ("contraction", "delta"): ("u",),
    ("contraction", "delta3"): ("u1", "u2", "u3"),
    ("contraction", "density"): ("s",),
    ("sequences", "af"): ("n",), ("sequences", "bg"): ("n",),
    ("dp", "q"): ("x", "y"), ("dp", "tau"): ("x", "y"),
    ("dp", "l1"): ("x", "y", "z"), ("dp", "l2"): ("x", "y", "z"),
    ("dp", "n1"): ("x", "y", "z"), ("dp", "n2"): ("x", "y", "z"),
}

_FLOAT_KEYS = (
    ("carrier", "lo"), ("carrier", "hi"),
    ("psi", "k"), ("psi", "a"), ("psi", "quad_tol"),
    ("phi", "quad_tol"),
    ("contraction", "k"), ("contraction", "a"), ("contraction", "quad_tol"),
    ("contraction", "r_constant"),
    ("dp", "lam"), ("dp", "beta"), ("dp", "tol"),
    ("tolerances", "coincidence"), ("tolerances", "fixed_point"),
    ("tolerances", "tail"),
)

_INT_KEYS = (
    ("carrier", "grid_n"),
    ("sequences", "tail_start"), ("sequences", "tail_len"),
    ("dp", "max_iter"),
)

_CHOICE_KEYS = {
    ("metric", "kind"): ("standard", "expr"),
    ("metric", "tnorm"): ("minimum", "product", "lukasiewicz"),
    ("psi", "example"): PSI_EXAMPLE_IDS,
    ("phi", "kind"): ("linear", "expr", "integral"),
    ("contraction", "form"): CONTRACTION_FORMS,
    ("contraction", "ea_pairs"): EA_CHOICES,
    ("contraction", "containment"): CONTAINMENT_DIRECTIONS,
    ("contraction", "closedness"): CLOSEDNESS_TARGETS,
    ("contraction", "commutation"): COMMUTATION_VARIANTS,
}

_SECTIONS = {
    "carrier": {"lo", "hi", "grid_n"},
    "metric": {"kind", "tnorm", "distance", "membership"},
    "maps": {"a", "b", "f", "g"},
    "psi": {"example", "k", "a", "delta", "delta3", "density", "quad_tol"},
    "phi": {"kind", "expr", "density", "quad_tol"},
    "contraction": {"form", "k", "a", "delta", "delta3", "density", "quad_tol",
                    "ea_pairs", "containment", "closedness", "commutation",
                    "r_constant"},
    "sequences": {"af", "bg", "tail_start", "tail_len"},
    "dp": {"decisions", "q", "l1", "l2", "n1", "n2", "tau", "lam", "beta",
           "tol", "max_iter"},
    "tolerances": {"coincidence", "fixed_point", "tail"},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated key-value view of one config file, with builders for every
    component a command can need."""

    path: str
    data: dict

    # -- raw access -------------------------------------------------------

    def _section(self, name: str) -> dict:
        if name not in self.data:
            raise InputError(f"{self.path}: missing section [{name}]")
        return self.data[name]

    def has(self, section: str, key: str | None = None) -> bool:
        if key is None:
            return section in self.data
        return section in self.data and key in self.data[section]

    def _raw(self, section: str, key: str, default: str | None = None) -> str:
        sec = self._section(section)
        if key not in sec:
            if default is None:
                raise InputError(f"{self.path}: section [{section}] needs key {key!r}")
            return default
        return sec[key]

    def _float(self, section: str, key: str, default: float | None = None) -> float:
        sec = self.data.get(section, {})
        if key not in sec:
            if default is None:
                raise InputError(f"{self.path}: section [{section}] needs key {key!r}")
            return default
        return float(sec[key])

    def _int(self, section: str, key: str, default: int | None = None) -> int:
        sec = self.data.get(section, {})
        if key not in sec:
            if default is None:
                raise InputError(f"{self.path}: section [{section}] needs key {key!r}")
            return default
        return int(sec[key])

    def _fn(self, section: str, key: str):
        return expr_function(parse(self._raw(section, key)), _EXPR_VARS[(section, key)])

    def _density(self, section: str, key: str) -> Density:
        # an array function like every other gauge: quadrature asks for all its nodes at once
        return Density(self._fn(section, key), description=self._raw(section, key))

    # -- component builders ------------------------------------------------

    def carrier(self, grid_n: int | None = None) -> Carrier:
        return Carrier(self._float("carrier", "lo"), self._float("carrier", "hi"),
                       grid_n if grid_n is not None else self._int("carrier", "grid_n", 101))

    def fuzzy_metric(self, carrier: Carrier | None = None) -> FuzzyMetric:
        carrier = carrier or self.carrier()
        tnorm = make_tnorm(self._raw("metric", "tnorm", "product"))
        kind = self._raw("metric", "kind", "standard")
        if kind == "standard":
            dist = parse(self._raw("metric", "distance", "abs(x - y)"))
            return standard_fuzzy_metric(expr_function(dist, ("x", "y")), tnorm, carrier)
        return FuzzyMetric(carrier, self._fn("metric", "membership"), tnorm)

    def quadruple(self, fm: FuzzyMetric | None = None) -> MapQuadruple:
        fm = fm or self.fuzzy_metric()
        built = {key: selfmap_from_expr(fm.carrier, self._raw("maps", key), key.upper())
                 for key in ("a", "b", "f", "g")}
        return MapQuadruple(built["a"], built["b"], built["f"], built["g"], fm)

    def psi(self) -> PsiFunction:
        example = self._raw("psi", "example")
        kwargs: dict = {"quad_tol": self._float("psi", "quad_tol", 1e-10)}
        if self.has("psi", "k"):
            kwargs["k"] = self._float("psi", "k")
        if self.has("psi", "a"):
            kwargs["a"] = self._float("psi", "a")
        if self.has("psi", "delta"):
            kwargs["delta"] = self._fn("psi", "delta")
        if self.has("psi", "delta3"):
            kwargs["delta3"] = self._fn("psi", "delta3")
        if self.has("psi", "density"):
            kwargs["density"] = self._density("psi", "density")
        return make_psi(example, **kwargs)

    def phi(self) -> AlteringDistance:
        """The configured gauge.  An integral gauge is admitted by
        ``make_integral_altering`` (class-Phi density); ``ContractionSpec``
        checks the linear and expression gauges."""
        kind = self._raw("phi", "kind", "linear")
        if kind == "integral":
            return make_integral_altering(self._density("phi", "density"),
                                          self._float("phi", "quad_tol", 1e-10))
        if kind == "linear":
            return builtin_altering("linear")
        return AlteringDistance(self._fn("phi", "expr"), "custom")

    def contraction_spec(self) -> ContractionSpec:
        form = self._raw("contraction", "form")
        kwargs: dict = {"quad_tol": self._float("contraction", "quad_tol", 1e-10)}
        if form in ("main_411", "integral_511"):
            kwargs["psi"] = self.psi()
        if form.startswith(("main", "cor43")):
            kwargs["phi"] = self.phi()
        if self.has("contraction", "k"):
            kwargs["k"] = self._float("contraction", "k")
        if self.has("contraction", "a"):
            kwargs["a"] = self._float("contraction", "a")
        if self.has("contraction", "delta"):
            kwargs["delta"] = self._fn("contraction", "delta")
        if self.has("contraction", "delta3"):
            kwargs["delta3"] = self._fn("contraction", "delta3")
        if self.has("contraction", "density"):
            kwargs["density"] = self._density("contraction", "density")
        try:
            return ContractionSpec(form, **kwargs)
        except InputError as exc:
            raise InputError(f"{self.path}: {exc}") from None

    def sequence(self, key: str) -> SequenceSpec | None:
        if not self.has("sequences", key):
            return None
        return sequence_from_expr(self._raw("sequences", key),
                                  self._int("sequences", "tail_start", 1000),
                                  self._int("sequences", "tail_len", 100))

    def tolerances(self) -> Tolerances:
        try:
            return Tolerances(
                coincidence=self._float("tolerances", "coincidence", 1e-9),
                fixed_point=self._float("tolerances", "fixed_point", 1e-9),
                tail=self._float("tolerances", "tail", 1e-3))
        except InputError as exc:
            raise InputError(f"{self.path}: section [tolerances], {exc}") from None

    def theorem_config(self, plan: ScanPlan) -> TheoremConfig:
        parts = dict(
            quad=self.quadruple(),
            contraction=self.contraction_spec(),
            plan=plan,
            seq_af=self.sequence("af"),
            seq_bg=self.sequence("bg"),
            ea_pairs=self._raw("contraction", "ea_pairs", "af"),
            containment_direction=self._raw("contraction", "containment", "g_in_a"),
            closedness_target=self._raw("contraction", "closedness", "a"),
            commutation_variant=self._raw("contraction", "commutation",
                                          "weakly_compatible"),
            r_constant=self._float("contraction", "r_constant", 1.0),
            tolerances=self.tolerances())
        try:
            return TheoremConfig(**parts)
        except InputError as exc:  # what TheoremConfig checks comes from [contraction]
            raise InputError(f"{self.path}: [contraction] {exc}") from None

    def dp_problem(self) -> tuple[DPProblem, float, int]:
        """The configured problem plus its iteration tolerance and budget."""
        decisions_text = self._raw("dp", "decisions")
        try:
            decisions = tuple(float(part) for part in decisions_text.split(","))
        except ValueError as exc:
            raise InputError(f"{self.path}: section [dp], key 'decisions': {exc}") from None
        prob = problem_from_exprs(
            w=self.carrier(), decisions=decisions,
            q=self._raw("dp", "q"),
            l1=self._raw("dp", "l1"), l2=self._raw("dp", "l2"),
            n1=self._raw("dp", "n1"), n2=self._raw("dp", "n2"),
            tau=self._raw("dp", "tau"),
            lam=self._float("dp", "lam"), beta=self._float("dp", "beta"))
        return prob, self._float("dp", "tol", 1e-8), self._int("dp", "max_iter", 500)


def load_config(path: str | Path) -> RunConfig:
    """Read, structure-check and expression-check one config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from None

    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise InputError(f"malformed config: {exc}") from None

    data: dict = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise InputError(f"{path}: unknown section [{section}]; expected one "
                             f"of {sorted(_SECTIONS)}")
        data[section] = {}
        for key, value in parser.items(section):
            if key not in _SECTIONS[section]:
                raise InputError(f"{path}: unknown key {key!r} in section "
                                 f"[{section}]; expected one of "
                                 f"{sorted(_SECTIONS[section])}")
            data[section][key] = value.strip()
    if not data:
        raise InputError(f"{path}: config defines no sections")

    for (section, key), _vars in _EXPR_VARS.items():
        if section in data and key in data[section]:
            try:
                tree = parse(data[section][key])
            except InputError as exc:
                raise InputError(f"{path}: section [{section}], key {key!r}: "
                                 f"{exc}") from None
            extra = variables(tree) - set(_vars)
            if extra:
                raise InputError(f"{path}: section [{section}], key {key!r}: "
                                 f"expression may only use {list(_vars)}, found "
                                 f"{sorted(extra)}")
    for section, key in _FLOAT_KEYS:
        if section in data and key in data[section]:
            try:
                float(data[section][key])
            except ValueError:
                raise InputError(f"{path}: section [{section}], key {key!r}: "
                                 f"not a number: {data[section][key]!r}") from None
    for section, key in _INT_KEYS:
        if section in data and key in data[section]:
            try:
                int(data[section][key])
            except ValueError:
                raise InputError(f"{path}: section [{section}], key {key!r}: "
                                 f"not an integer: {data[section][key]!r}") from None
    for (section, key), choices in _CHOICE_KEYS.items():
        if section in data and key in data[section]:
            if data[section][key] not in choices:
                raise InputError(f"{path}: section [{section}], key {key!r}: "
                                 f"{data[section][key]!r} is not one of {list(choices)}")
    return RunConfig(str(path), data)
