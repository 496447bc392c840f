"""Numerical laboratory for exhaustion functions on flag domains.

Builds matrix models of the two low-rank scenarios, the cycle spaces
and Schubert data attached to them, and the three exhaustions (cell,
cycle space, domain) together with finite-difference Levi analysis and
pseudoconvexity certificates.

The names below load their module on first access (PEP 562), so
importing the package, or one command of the CLI, loads only what it
uses.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "errors": ("CycleLabError", "EigenvectorAmbiguity", "InvalidInput",
               "MinorantFailure", "NotInDomain", "NumericalDegeneracy",
               "OptimizerStall"),
    "scenarios": ("SCENARIO_NAMES", "get_scenario"),
    "liecore": ("GroupElement", "RealFormSpec", "cartan_involution",
                "is_member", "iwasawa_decompose"),
    "flags": ("FlagPoint", "ScenarioConfig", "act", "in_domain"),
    "cycles": ("Cycle", "base_cycle", "cycle_from_dual", "cycle_from_point",
               "cycle_in_domain", "translate_cycle"),
    "schubert": ("IncidenceRecord", "SchubertDatum", "SliceDatum",
                 "intersect_base_cycle", "intersect_slice", "make_schubert",
                 "schubert_slice", "translate_schubert", "translate_slice"),
    "sections": ("HermitianMetric", "SectionVector", "cell_exhaustion",
                 "gu_invariant_metric", "highest_weight_section"),
    "optimize": ("aligned_domain_values", "fiber_infimum", "maximize_branch"),
    "catalog": ("TARGETS",),
    "exhaust": ("divergence_path", "evaluate_grid", "seeded_cycles",
                "seeded_domain_points", "translation_branch_pair"),
    "levi": ("CertificateReport", "certificates", "levi_form_fd"),
    "verify": ("VerificationReport", "run_verification"),
}.items() for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
