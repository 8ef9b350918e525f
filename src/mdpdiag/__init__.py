"""Verification and counterexample diagnosis for MDP safety properties.

The pipeline: model an MDP (directly, from the explicit text format, or
from a guarded-command program), check an upper-bounded until property
against it, and when the property is violated build a small set of
highest-probability offending paths, then rank the states, labels and
actions that carry the violation.

Each submodule is in `sys.modules` and an attribute of the package from
the start, but is read and run only on its first attribute access, so a
query runs only the modules it uses. The names below are looked up in
their module on first access.
"""

import importlib.util
import sys

from .defaults import (DEFAULT_EPSILON, DEFAULT_MAX_PATHS, DEFAULT_MIN_PROB,
                       DEFAULT_STATE_CAP)

_EXPORTS = {
    "checker": ("ValueVector", "Verdict", "check_property", "compute_pmax",
                "extract_max_scheduler"),
    "counterexample": ("Counterexample", "PathForest", "build_mipcx",
                       "counterexample_from_dict", "counterexample_from_json",
                       "counterexample_to_dict", "counterexample_to_json",
                       "enumerate_satisfying_paths", "verify_counterexample"),
    "diagnosis": ("BlameEntry", "Cause", "DiagnosisReport",
                  "TransitionDiagnosis", "collect_causes", "find_causes",
                  "generate_diagnoses", "render_text_report"),
    "errors": ("BudgetError", "DomainError", "MdpDiagError", "ParseError"),
    "mdp": ("PROB_SUM_TOL", "Dtmc", "FinitePath", "Mdp", "Scheduler",
            "WeightedPath", "induce_dtmc", "parse_explicit_model",
            "parse_labels_text", "path_probability", "validate_mdp"),
    "pctl": ("FALSE", "TRUE", "And", "Atom", "FalseFormula", "Not", "Or",
             "PathFormula", "PropertySpec", "TrueFormula",
             "eval_state_formula", "mass_exceeds", "parse_property"),
    "program": ("Program", "build_mdp", "fold_constants", "parse_program"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}


def _lazy(name):
    """The submodule `name`, registered but not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


for _name in ("errors", "records", "pctl", "mdp", "graph", "bounded",
              "checker", "counterexample", "diagnosis", "program"):
    globals()[_name] = _lazy(_name)
del _name


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_ORIGIN[name]], name)
    return value


__version__ = "0.1.0"

__all__ = sorted([*_ORIGIN, "DEFAULT_EPSILON", "DEFAULT_MAX_PATHS",
                  "DEFAULT_MIN_PROB", "DEFAULT_STATE_CAP"])
