"""Numerical certification of common-fixed-point hypotheses on fuzzy metric
spaces, with a Bellman functional-equation solver for the associated dynamic
programs.

The public surface groups into layers:

- expr: the small expression language configs use for maps and gauges
- metric: t-norms, carriers, fuzzy metrics, and the space-axiom verifier
- distances: quadrature-backed altering distances (gauges)
- implicit: the quadruple-gauge family and its condition verifier
- pairs: self-maps, commutation variants, coincidence and range checks
- contraction: grid verification of the contractive inequalities
- pipeline: the staged theorem checker and fixed-point search
- dp: the two intertwined dynamic programs and their joint solve
- config / cli: INI-driven runs with JSON reports
"""

from .errors import EvalError, InputError, NumericalError
from .expr import ParseError, eval_expr, eval_on_arrays, parse, variables
from .metric import (Carrier, FuzzyMetric, SamplingPlan, TNorm,
                     standard_fuzzy_metric, verify_fm_axioms)
from .distances import (AlteringDistance, Density, builtin_altering,
                        cumulative_integrals, integrate_density, is_phi_class,
                        make_integral_altering, verify_altering)
from .implicit import (PSI_EXAMPLE_IDS, PsiFunction, make_psi,
                       psi_eval_on_arrays, verify_psi)
from .pairs import (COMMUTATION_VARIANTS, DEFAULT_T_GRID, MapPair, MapQuadruple,
                    SelfMap, SequenceSpec, check_commutation_variant,
                    check_property_EA, check_range_closed,
                    check_range_containment, find_coincidence_points,
                    selfmap_from_expr, sequence_from_expr)
from .contraction import (CONTRACTION_FORMS, ContractionSpec, ScanPlan,
                          contraction_margin_at, margins_at, verify_contraction)
from .pipeline import (TheoremConfig, Tolerances, find_common_fixed_points,
                       residuals_on_grid, run_theorem_pipeline)
from .dp import (DPProblem, OPERATORS, ValueFunction, apply_bellman_operator,
                 problem_from_exprs, solve_system, sup_metric, value_iterate,
                 zero_value)
from .config import RunConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "AlteringDistance", "COMMUTATION_VARIANTS", "CONTRACTION_FORMS",
    "Carrier", "ContractionSpec", "DEFAULT_T_GRID", "DPProblem", "Density",
    "EvalError", "FuzzyMetric", "InputError", "MapPair", "MapQuadruple",
    "NumericalError", "OPERATORS", "PSI_EXAMPLE_IDS", "ParseError",
    "PsiFunction", "RunConfig", "SamplingPlan", "ScanPlan", "SelfMap",
    "SequenceSpec", "TNorm", "TheoremConfig", "Tolerances", "ValueFunction",
    "apply_bellman_operator", "builtin_altering", "check_commutation_variant",
    "check_property_EA", "check_range_closed", "check_range_containment",
    "contraction_margin_at", "cumulative_integrals",
    "eval_expr", "eval_on_arrays", "find_coincidence_points",
    "find_common_fixed_points", "integrate_density", "is_phi_class",
    "load_config", "make_integral_altering", "make_psi",
    "margins_at", "parse", "problem_from_exprs", "psi_eval_on_arrays",
    "residuals_on_grid", "run_theorem_pipeline", "selfmap_from_expr",
    "sequence_from_expr", "solve_system", "standard_fuzzy_metric",
    "sup_metric", "value_iterate", "variables",
    "verify_altering", "verify_contraction", "verify_fm_axioms", "verify_psi",
    "zero_value",
]
