"""INI-backed run configuration.

One file format drives every command.  Sections and keys:

    [carrier]      lo, hi, grid_n
    [metric]       kind (standard | expr), tnorm (minimum | product |
                   lukasiewicz), distance (expr in x,y), membership
                   (expr in x,y,t)
    [maps]         a, b, f, g (exprs in x)
    [psi]          example (ex2_1..ex2_6), k, a, delta (expr in u),
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

The table ``_KEYS`` types every key.  Unknown sections or keys are
rejected, and every key a file sets is typed once at load time, before any
computation, so a bad number, choice or expression is reported with its
file, section and key (and a syntax error with its byte offset).  An error
a builder raises keeps its type and names the file and section (a map
also names its key; the contraction spec, built from three sections, names
the file only).  A key the component's kind, form or example does not read
is refused where the component is built; a key the file leaves out takes
the default of the library parameter it feeds.

``quad_tol`` bounds the quadrature error of a density's gauge.  An
integral phi of mass above 1 is rescaled by 1/mass, so its tables of
integrals are built within quad_tol * max(1, mass) and phi is within
quad_tol; the integrals inside ex2_5 and ex2_6 are not rescaled, and for
them quad_tol is absolute.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .contraction import CONTRACTION_FORMS, FORM_GAUGES, ContractionSpec, ScanPlan
from .distances import (AlteringDistance, Density, builtin_altering,
                        make_integral_altering)
from .dp import DEFAULT_MAX_ITER, DEFAULT_TOL, DPProblem, problem_from_exprs
from .errors import InputError, prefixed, require_read
from .expr import expr_function, parse
from .implicit import PSI_EXAMPLE_IDS, PsiFunction, make_psi
from .metric import (TNORM_KINDS, Carrier, FuzzyMetric, TNorm,
                     standard_fuzzy_metric)
from .pairs import (COMMUTATION_VARIANTS, MapQuadruple, SequenceSpec,
                    selfmap_from_expr, sequence_from_expr)
from .pipeline import (CLOSEDNESS_TARGETS, CONTAINMENT_DIRECTIONS, EA_CHOICES,
                       TheoremConfig, Tolerances)


class _Expr(tuple):
    """Type of an expression key: the variables it may use."""

    def __new__(cls, *names: str):
        return super().__new__(cls, names)


def _floats(text: str) -> tuple[float, ...]:
    """Type of a comma-separated list of numbers."""
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(str(exc)) from None


_GAUGE_KEYS = {"k": float, "a": float, "delta": _Expr("u"),
               "delta3": _Expr("u1", "u2", "u3"), "density": _Expr("s"),
               "quad_tol": float}

# section -> key -> type: an expression's variables, float, int, a tuple of
# choices, or _floats; errors are reported in this order
_KEYS = {
    "carrier": {"lo": float, "hi": float, "grid_n": int},
    "metric": {"kind": ("standard", "expr"),
               "tnorm": TNORM_KINDS,
               "distance": _Expr("x", "y"), "membership": _Expr("x", "y", "t")},
    "maps": dict.fromkeys(("a", "b", "f", "g"), _Expr("x")),
    "psi": {"example": PSI_EXAMPLE_IDS, **_GAUGE_KEYS},
    "phi": {"kind": ("linear", "expr", "integral"), "expr": _Expr("s"),
            "density": _Expr("s"), "quad_tol": float},
    "contraction": {"form": CONTRACTION_FORMS, **_GAUGE_KEYS,
                    "ea_pairs": EA_CHOICES, "containment": CONTAINMENT_DIRECTIONS,
                    "closedness": CLOSEDNESS_TARGETS,
                    "commutation": COMMUTATION_VARIANTS, "r_constant": float},
    "sequences": {"af": _Expr("n"), "bg": _Expr("n"), "tail_start": int,
                  "tail_len": int},
    "dp": {"decisions": _floats, "q": _Expr("x", "y"),
           **dict.fromkeys(("l1", "l2", "n1", "n2"), _Expr("x", "y", "z")),
           "tau": _Expr("x", "y"), "lam": float, "beta": float, "tol": float,
           "max_iter": int},
    "tolerances": dict.fromkeys(("coincidence", "fixed_point", "tail"), float),
}

# phi kind -> the [phi] keys it reads; quad_tol is not refused, since a file
# may write its default out under any kind
_PHI_READS = {"linear": (), "expr": ("expr",), "integral": ("density",)}

_REQUIRED = object()
_ABS_DIFF = parse("abs(x - y)")


def _typed(kind, text: str):
    """``text`` as a value of ``kind``; an expression becomes its tree."""
    if isinstance(kind, _Expr):
        tree = parse(text)
        expr_function(tree, kind)  # refuses a variable the key does not take
        return tree
    if isinstance(kind, tuple):
        if text not in kind:
            raise InputError(f"{text!r} is not one of {list(kind)}")
        return text
    try:
        return kind(text)
    except InputError:
        raise
    except ValueError:
        raise InputError(f"not {'a number' if kind is float else 'an integer'}: "
                         f"{text!r}") from None


@dataclass(frozen=True)
class RunConfig:
    """One config file: the text of every key it sets and that key's typed
    value, with builders for every component a command can need.  A builder
    passes on only the keys the file sets, so the library's defaults apply."""

    path: str
    data: dict    # section -> key -> text
    values: dict  # section -> key -> typed value

    def has(self, section: str, key: str | None = None) -> bool:
        if key is None:
            return section in self.data
        return section in self.data and key in self.data[section]

    def _get(self, section: str, key: str, default=_REQUIRED, text: bool = False):
        """One key's typed value (its text with ``text``): an expression as its
        array function, a density as a Density.  A number key needs no
        section; any other key needs its section even when it has a default."""
        kind = _KEYS[section][key]
        if kind not in (float, int) and section not in self.data:
            raise InputError(f"{self.path}: missing section [{section}]")
        value = self.values.get(section, {}).get(key, default)
        if value is _REQUIRED:
            raise InputError(f"{self.path}: section [{section}] needs key {key!r}")
        if text:
            return self.data[section][key]
        if isinstance(kind, _Expr):
            value = expr_function(value, kind)
            if key == "density":  # quadrature asks for all its nodes at once
                return self._build(f"section [{section}], key {key!r}: ", Density,
                                   value, description=self.data[section][key])
        return value

    def _set(self, section: str, *keys: str, **renamed: str) -> dict:
        """The typed values of those keys the file sets, as library keywords:
        each under its own name or the one ``renamed`` gives it."""
        names = {**dict(zip(keys, keys)), **renamed}
        return {name: self._get(section, key) for key, name in names.items()
                if self.has(section, key)}

    def _build(self, where: str, build, *args, **kwargs):
        """``build(*args, **kwargs)``; an error it raises is re-raised, with
        its type kept, under the file's path and ``where``."""
        with prefixed(f"{self.path}: {where}"):
            return build(*args, **kwargs)

    # -- component builders ------------------------------------------------

    def carrier(self) -> Carrier:
        return self._build("section [carrier]: ", Carrier, self._get("carrier", "lo"),
                           self._get("carrier", "hi"), **self._set("carrier", "grid_n"))

    def fuzzy_metric(self) -> FuzzyMetric:
        carrier = self.carrier()
        tnorm = TNorm(self._get("metric", "tnorm", "product"))
        if self._get("metric", "kind", "standard") == "standard":
            return self._build("section [metric]: ", standard_fuzzy_metric,
                               self._get("metric", "distance", _ABS_DIFF), tnorm, carrier)
        return self._build("section [metric]: ", FuzzyMetric, carrier,
                           self._get("metric", "membership"), tnorm)

    def quadruple(self) -> MapQuadruple:
        fm = self.fuzzy_metric()
        maps = (self._build(f"section [maps], key {key!r}: ", selfmap_from_expr, fm.carrier,
                            self._get("maps", key, text=True), key.upper())
                for key in "abfg")
        return MapQuadruple(*maps, fm)

    def psi(self) -> PsiFunction:
        """The configured example; ``make_psi`` refuses a key it does not read."""
        return self._build("section [psi]: ", make_psi, self._get("psi", "example"),
                           **self._set("psi", *_GAUGE_KEYS))

    def phi(self) -> AlteringDistance:
        """The configured gauge; a key its kind does not read is refused.  An
        integral gauge is admitted by ``make_integral_altering`` (class-Phi
        density); ``ContractionSpec`` checks the linear and expression gauges."""
        kind = self._get("phi", "kind", "linear")
        gauge_keys = dict.fromkeys(key for reads in _PHI_READS.values() for key in reads)
        self._build("section [phi]: ", require_read, kind, _PHI_READS[kind],
                    **{key: self.data["phi"].get(key) for key in gauge_keys})
        if kind == "linear":
            return builtin_altering("linear")
        if kind == "expr":
            return AlteringDistance(self._get("phi", "expr"), "custom")
        return self._build("section [phi]: ", make_integral_altering,
                           self._get("phi", "density"), **self._set("phi", quad_tol="tol"))

    def contraction_spec(self) -> ContractionSpec:
        """The form with the gauges it takes; ``ContractionSpec`` refuses a key
        the form does not read."""
        form = self._get("contraction", "form")
        fixed_psi, phi = FORM_GAUGES[form]
        kwargs: dict = {}
        if fixed_psi is None:
            kwargs["psi"] = self.psi()
        if phi == "given":
            kwargs["phi"] = self.phi()
        kwargs.update(self._set("contraction", *_GAUGE_KEYS))
        return self._build("", ContractionSpec, form, **kwargs)

    def sequence(self, key: str) -> SequenceSpec | None:
        if not self.has("sequences", key):
            return None
        return self._build("section [sequences]: ", sequence_from_expr,
                           self._get("sequences", key, text=True),
                           **self._set("sequences", "tail_start", "tail_len"))

    def tolerances(self) -> Tolerances:
        return self._build("section [tolerances], ", Tolerances,
                           **self._set("tolerances", "coincidence", "fixed_point", "tail"))

    def theorem_config(self, plan: ScanPlan, contraction: bool = True) -> TheoremConfig:
        # what TheoremConfig checks comes from [contraction]
        return self._build(
            "[contraction] ", TheoremConfig,
            quad=self.quadruple(),
            contraction=self.contraction_spec() if contraction else None,
            plan=plan,
            seq_af=self.sequence("af"),
            seq_bg=self.sequence("bg"),
            **self._set("contraction", "ea_pairs", "r_constant",
                        containment="containment_direction",
                        closedness="closedness_target",
                        commutation="commutation_variant"),
            tolerances=self.tolerances())

    def dp_problem(self) -> tuple[DPProblem, float, int]:
        """The configured problem plus its iteration tolerance and budget."""
        decisions = self._get("dp", "decisions")
        prob = self._build(
            "section [dp]: ", problem_from_exprs, w=self.carrier(), decisions=decisions,
            **{key: self._get("dp", key, text=True)
               for key in ("q", "l1", "l2", "n1", "n2", "tau")},
            lam=self._get("dp", "lam"), beta=self._get("dp", "beta"))
        return (prob, self._get("dp", "tol", DEFAULT_TOL),
                self._get("dp", "max_iter", DEFAULT_MAX_ITER))


def load_config(path: str | Path) -> RunConfig:
    """Read one config file, reject unknown sections and keys, and type
    every key it sets, in ``_KEYS`` order."""
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
        if section not in _KEYS:
            raise InputError(f"{path}: unknown section [{section}]; expected one "
                             f"of {sorted(_KEYS)}")
        data[section] = {}
        for key, value in parser.items(section):
            if key not in _KEYS[section]:
                raise InputError(f"{path}: unknown key {key!r} in section "
                                 f"[{section}]; expected one of "
                                 f"{sorted(_KEYS[section])}")
            data[section][key] = value.strip()
    if not data:
        raise InputError(f"{path}: config defines no sections")

    values: dict = {section: {} for section in data}
    for section, keys in _KEYS.items():
        for key, kind in keys.items():
            if key in data.get(section, {}):
                try:
                    values[section][key] = _typed(kind, data[section][key])
                except InputError as exc:
                    raise InputError(f"{path}: section [{section}], key {key!r}: "
                                     f"{exc}") from None
    return RunConfig(str(path), data, values)
