"""Metrics, highest weight sections, and the cell exhaustion.

The exhaustion of a Schubert cell is -log of the squared pointwise norm
of a distinguished section of the ample generator restricted to the
variety: the B-eigenvector of the restricted section space vanishing
exactly on the cell boundary.  With the compactly invariant metric the
squared norm of a dual-vector section at [v] is |sigma . v|^2 / (v* G v).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (EigenvectorAmbiguity, InvalidInput, NumericalDegeneracy,
                     OnCellBoundary)
from .utils import gauge_vector, hermitize

VANISHING_TOL = 1e-10
EIGEN_RESIDUAL = 1e-9
# exhaustion_values: |sigma . p| below 1e-15 ||p|| is rounding, the pole
POLE_RATIO = 1e-30


@dataclass(eq=False)
class HermitianMetric:
    """Positive definite Hermitian form on the ambient vector space."""

    gram: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=complex)
        if np.max(np.abs(g - hermitize(g))) > 1e-12:
            raise InvalidInput("metric gram matrix must be Hermitian")
        if np.min(np.linalg.eigvalsh(hermitize(g))) <= 0:
            raise InvalidInput("metric gram matrix must be positive definite")
        self.gram = hermitize(g)

    def pairing(self, v, w):
        return complex(np.conj(v) @ self.gram @ w)


def gu_invariant_metric(sc):
    """The metric invariant under the compact form (unique up to scale)."""
    return HermitianMetric(gram=np.eye(sc.n))


@dataclass(eq=False)
class SectionVector:
    """Dual vector inducing a section of the ample generator on S."""

    row: np.ndarray

    def value(self, z):
        return complex(self.row @ z.homogeneous)


def _restriction_frame(s, sc):
    # the first dim_S + 1 columns of the Borel conjugator span S
    return s.borel.matrix[:, :s.dim_S + 1]


def highest_weight_section(s, sc, validate=True):
    """The B-eigenvector section of the restricted space, gauge fixed.

    Computed as the common kernel of the raising operators acting on
    restricted dual vectors; a kernel of dimension other than one is an
    EigenvectorAmbiguity.  The vanishing locus and the eigenvector
    property under a basis of the Borel's Lie algebra are checked when
    validate is set.
    """
    n = sc.n
    w = _restriction_frame(s, sc)
    k = w.shape[1]
    blocks = []
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            blk = e[:k, :k]
            if np.max(np.abs(blk)) > 0:
                blocks.append(blk)
    stacked = np.vstack([b.T for b in blocks])
    _, sv, vh = np.linalg.svd(stacked)
    sv = np.concatenate([sv, np.zeros(k - sv.shape[0])])
    null = [vh[i].conj() for i in range(k) if sv[i] < 1e-12 * max(1.0, sv[0])]
    if len(null) != 1:
        raise EigenvectorAmbiguity(f"highest weight space has dimension {len(null)}")
    sigma_w = null[0]
    sigma = gauge_vector(sigma_w @ w.conj().T)
    sec = SectionVector(row=sigma)
    if validate:
        if abs(sec.value(s.boundary_point)) > VANISHING_TOL:
            raise NumericalDegeneracy("section does not vanish on the cell boundary")
        if abs(sec.value(s.cell_base)) < 1e-6:
            raise NumericalDegeneracy("section vanishes at the cell base point")
        _check_eigenvector(sec, s, w)
    return sec


def _check_eigenvector(sec, s, w):
    """NumericalDegeneracy unless sigma . X . w is parallel to sigma . w for
    X = C E_ij C^-1, i <= j: a basis of the Borel's Lie algebra, and B is
    connected, so this is the B-eigenvector condition itself."""
    sigma_w = sec.row @ w
    sigma_w = sigma_w / np.linalg.norm(sigma_w)
    cmat = s.borel.matrix
    i, j = np.triu_indices(cmat.shape[0])
    # sigma . C E_ij C^-1 . w = (sigma . C)_i (C^-1 w)_j
    tau_w = (sec.row @ cmat)[i, None] * (np.linalg.inv(cmat) @ w)[j]
    off = tau_w - (tau_w @ np.conj(sigma_w))[:, None] * sigma_w
    scale = np.maximum(1.0, np.linalg.norm(tau_w, axis=1))
    if np.any(np.linalg.norm(off, axis=1) > EIGEN_RESIDUAL * scale):
        raise NumericalDegeneracy("restricted section is not a B-eigenvector")


def exhaustion_values(sec, rows):
    """r_S = log ||p||^2 - log |sigma . p|^2 at unnormalized homogeneous
    vectors p, the rows of an (..., n) array: -log of the squared section
    norm.  +inf where |sigma . p|^2 <= POLE_RATIO ||p||^2: there the
    section vanishes to working precision and p is on the cell boundary.
    """
    den = np.abs(np.einsum("...a,a->...", rows, sec.row)) ** 2
    num = (np.abs(rows) ** 2).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.log(num) - np.log(den)
    return np.where(den <= POLE_RATIO * num, np.inf, v)


def cell_exhaustion(z, s, sc, section=None):
    """Value of the cell exhaustion at a variety point off the boundary:
    exhaustion_values at z, OnCellBoundary where that is +inf."""
    if not s.on_variety(z):
        raise InvalidInput("point does not lie on the Schubert variety")
    if section is None:
        section = highest_weight_section(s, sc, validate=False)
    value = float(exhaustion_values(section, z.homogeneous))
    if value == np.inf:
        raise OnCellBoundary("section vanishes here; the exhaustion diverges")
    return value
