"""Numerical laboratory for exhaustion functions on flag domains.

Builds matrix models of the two low-rank scenarios, the cycle spaces
and Schubert data attached to them, and the three exhaustions (cell,
cycle space, domain) together with finite-difference Levi analysis and
pseudoconvexity certificates.
"""

from .errors import (CycleLabError, EigenvectorAmbiguity, InvalidInput,
                     MinorantFailure, NotInDomain, NumericalDegeneracy,
                     OptimizerStall)
from .scenarios import SCENARIO_NAMES, get_scenario
from .liecore import (GroupElement, RealFormSpec, cartan_involution,
                      is_member, iwasawa_decompose)
from .flags import FlagPoint, ScenarioConfig, act, in_domain
from .cycles import (Cycle, base_cycle, cycle_from_dual, cycle_from_point,
                     cycle_in_domain, translate_cycle)
from .schubert import (IncidenceRecord, SchubertDatum, SliceDatum,
                       intersect_base_cycle, intersect_slice, make_schubert,
                       schubert_slice, translate_schubert, translate_slice)
from .sections import (HermitianMetric, SectionVector, cell_exhaustion,
                       gu_invariant_metric, highest_weight_section)
from .optimize import aligned_domain_values, fiber_infimum, maximize_branch
from .exhaust import (TARGETS, divergence_path, evaluate_grid, seeded_cycles,
                      seeded_domain_points, translation_branch_pair)
from .levi import CertificateReport, certificates, levi_form_fd
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "CycleLabError", "EigenvectorAmbiguity", "InvalidInput",
    "MinorantFailure", "NotInDomain", "NumericalDegeneracy", "OptimizerStall",
    "SCENARIO_NAMES", "get_scenario",
    "GroupElement", "RealFormSpec", "cartan_involution",
    "is_member", "iwasawa_decompose",
    "FlagPoint", "ScenarioConfig", "act", "in_domain",
    "Cycle", "base_cycle", "cycle_from_dual", "cycle_from_point",
    "cycle_in_domain", "fiber_infimum", "translate_cycle",
    "IncidenceRecord", "SchubertDatum", "SliceDatum", "intersect_base_cycle",
    "intersect_slice", "make_schubert", "schubert_slice", "translate_schubert",
    "translate_slice",
    "HermitianMetric", "SectionVector", "cell_exhaustion",
    "gu_invariant_metric", "highest_weight_section",
    "aligned_domain_values", "maximize_branch",
    "TARGETS", "divergence_path", "evaluate_grid", "seeded_cycles",
    "seeded_domain_points", "translation_branch_pair",
    "CertificateReport", "certificates", "levi_form_fd",
    "VerificationReport", "run_verification",
    "__version__",
]
