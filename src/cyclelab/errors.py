"""Exception taxonomy for cyclelab.

Every failure mode raised by the library derives from CycleLabError so
callers can catch one base class at the CLI boundary.
"""


class CycleLabError(Exception):
    """Base class for all cyclelab errors."""


class InvalidInput(CycleLabError):
    """Malformed argument: non-finite entries, wrong shape, bad tag."""


class NotInRealForm(CycleLabError):
    """Group element fails the defining relations of the requested real form."""


class NumericalDegeneracy(CycleLabError):
    """An intermediate quantity collapsed below representable tolerance."""


class IntersectionFailure(CycleLabError):
    """Intersection solver residual above tolerance."""


class InvalidSlicePoint(CycleLabError):
    """Slice base point is not an intersection point of the base cycle."""


class IncidenceMiss(CycleLabError):
    """No slice intersection found; cycle likely outside the cycle space."""


class UniquenessViolation(CycleLabError):
    """A cycle meets the Schubert variety in more than a point."""


class OnCellBoundary(CycleLabError):
    """Point lies on the Schubert-cell boundary where the exhaustion diverges."""


class EigenvectorAmbiguity(CycleLabError):
    """Common eigenspace of the triangular generators is not one-dimensional."""


class NotInDomain(CycleLabError):
    """Point is outside the open orbit the scenario works in."""


class StencilFailure(CycleLabError):
    """Function evaluation failed inside a finite-difference stencil."""


class MinorantFailure(CycleLabError):
    """Candidate smooth minorant exceeds the exhaustion beyond tolerance."""


class OptimizerStall(CycleLabError):
    """Iterative refinement did not reach its step tolerance."""
