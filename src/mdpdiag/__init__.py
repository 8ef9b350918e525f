"""Verification and counterexample diagnosis for MDP safety properties.

The pipeline: model an MDP (directly, from the explicit text format, or
from a guarded-command program), check an upper-bounded until property
against it, and when the property is violated build a small set of
highest-probability offending paths, then rank the states, labels and
actions that carry the violation.
"""

from .checker import (DEFAULT_EPSILON, ValueVector, Verdict, check_property,
                      compute_pmax, extract_max_scheduler, mass_exceeds)
from .counterexample import (DEFAULT_MAX_PATHS, DEFAULT_MIN_PROB,
                             Counterexample, PathForest, build_mipcx,
                             counterexample_from_dict,
                             counterexample_from_json, counterexample_to_dict,
                             counterexample_to_json,
                             enumerate_satisfying_paths, verify_counterexample)
from .diagnosis import (BlameEntry, Cause, DiagnosisReport,
                        TransitionDiagnosis, collect_causes, find_causes,
                        generate_diagnoses, render_text_report)
from .errors import BudgetError, DomainError, MdpDiagError, ParseError
from .mdp import (PROB_SUM_TOL, Dtmc, FinitePath, Mdp, Scheduler, Violation,
                  WeightedPath, induce_dtmc, parse_explicit_model,
                  parse_labels_text, path_probability, validate_mdp)
from .pctl import (FALSE, TRUE, And, Atom, FalseFormula, Not, Or, PathFormula,
                   PropertySpec, TrueFormula, eval_state_formula,
                   parse_property, to_nnf)
from .program import (DEFAULT_STATE_CAP, Program, build_mdp, fold_constants,
                      parse_program)

__version__ = "0.1.0"

__all__ = [
    "And", "Atom", "BlameEntry", "BudgetError", "Cause", "Counterexample",
    "DEFAULT_EPSILON", "DEFAULT_MAX_PATHS", "DEFAULT_MIN_PROB",
    "DEFAULT_STATE_CAP", "DiagnosisReport", "DomainError", "Dtmc", "FALSE",
    "FalseFormula", "FinitePath", "Mdp", "MdpDiagError", "Not", "Or",
    "PROB_SUM_TOL", "ParseError", "PathForest", "PathFormula", "Program",
    "PropertySpec", "Scheduler", "TRUE", "TransitionDiagnosis", "TrueFormula",
    "ValueVector", "Verdict", "Violation", "WeightedPath",
    "build_mdp", "build_mipcx", "check_property", "collect_causes",
    "compute_pmax", "counterexample_from_dict", "counterexample_from_json",
    "counterexample_to_dict", "counterexample_to_json",
    "enumerate_satisfying_paths", "eval_state_formula",
    "extract_max_scheduler", "find_causes", "fold_constants",
    "generate_diagnoses", "induce_dtmc", "mass_exceeds",
    "parse_explicit_model", "parse_labels_text", "parse_program",
    "parse_property", "path_probability", "render_text_report",
    "to_nnf", "validate_mdp", "verify_counterexample",
]
