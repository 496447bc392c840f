"""Metrics, highest weight sections, and the cell exhaustion.

The exhaustion of a Schubert cell is -log of the squared pointwise norm
of a distinguished section of the ample generator restricted to the
variety: the B-eigenvector of the restricted section space vanishing
exactly on the cell boundary.  With the compactly invariant metric the
squared norm of a dual-vector section at [v] is |sigma . v|^2 / (v* G v).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (EigenvectorAmbiguity, InvalidInput, NumericalDegeneracy,
                     OnCellBoundary)
from .utils import gauge_vector, hermitize

VANISHING_TOL = 1e-10
BOUNDARY_NORM_TOL = 1e-12
EIGEN_RESIDUAL = 1e-9


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
    property under sampled Borel elements are checked when validate is
    set.
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
    sigma_w = sec.row @ w
    sigma_w = sigma_w / np.linalg.norm(sigma_w)
    cmat = s.borel.matrix
    cinv = np.linalg.inv(cmat)
    n = cmat.shape[0]
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = cmat @ scipy.linalg.expm(0.3 * np.triu(z)) @ cinv
        tau_w = (sec.row @ np.linalg.inv(b)) @ w
        off = tau_w - (tau_w @ np.conj(sigma_w)) * sigma_w
        if np.linalg.norm(off) > EIGEN_RESIDUAL * max(1.0, np.linalg.norm(tau_w)):
            raise NumericalDegeneracy("restricted section is not a B-eigenvector")


def section_norm_sq(sec, z):
    """Squared pointwise norm |sigma . v|^2 / (v* v) at z = [v], in the
    compactly invariant metric."""
    v = z.homogeneous
    return abs(sec.value(z)) ** 2 / float(np.real(np.conj(v) @ v))


def exhaustion_values(sec, rows):
    """Batched -log section_norm_sq over unnormalized row vectors.

    Rows where the section vanishes to working precision return +inf.
    """
    rows = np.atleast_2d(rows)
    num = np.abs(rows @ sec.row) ** 2
    den = np.sum(np.abs(rows) ** 2, axis=1)
    with np.errstate(divide="ignore"):
        vals = np.log(den) - np.log(num)
    return np.where(num <= 1e-24 * den, np.inf, vals)


def cell_exhaustion(z, s, sc, section=None):
    """Value of the cell exhaustion at a variety point off the boundary."""
    if not s.on_variety(z):
        raise InvalidInput("point does not lie on the Schubert variety")
    if section is None:
        section = highest_weight_section(s, sc, validate=False)
    nsq = section_norm_sq(section, z)
    if nsq <= BOUNDARY_NORM_TOL**2:
        raise OnCellBoundary("section vanishes here; the exhaustion diverges")
    return float(-math.log(nsq))
