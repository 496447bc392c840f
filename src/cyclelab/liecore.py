"""Matrix Lie group core: real forms, membership tests, Iwasawa factors.

The complex group is SL(n, C) acting on C^n.  A real form is cut out by a
Hermitian form J via g* J g = J; the compact form G_u is SU(n).  All
decompositions are done in a fixed "adapted" unitary frame P in which the
split torus A_0 is diagonal and N_0 is strictly upper triangular, so the
Iwasawa factorization reduces to a Cholesky factorization and is therefore
deterministic and exactly reproducible.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import InvalidInput, NotInRealForm, NumericalDegeneracy
from .utils import check_finite, expm_antihermitian, sobol_points

DET_TOLERANCE = 1e-10
MEMBERSHIP_TOLERANCE = 1e-10
IWASAWA_RESIDUAL = 1e-9

MEMBER_TAGS = ("G0", "K0", "Gu", "A0N0")
# K0 samples at most, counted by k0_sample_count.  The optimizer keeps a
# coarse stack with its two real (n^2, K) screen forms, about 0.3 KB a
# sample for su21, so 40 MB at the cap (su21 resolution 19; su11 131072);
# it screens and rescores the stack K_BLOCK samples at a time, so its
# scoring temporaries do not grow with K
MAX_K0_SAMPLES = 2 ** 17


@dataclass(eq=False)
class GroupElement:
    """Element of SL(n, C) as an explicit matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        check_finite(m, "group element")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInput("group element must be a square matrix")
        if abs(np.linalg.det(m) - 1.0) > DET_TOLERANCE:
            raise InvalidInput("determinant differs from 1 beyond tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __matmul__(self, other):
        return GroupElement(self.matrix @ other.matrix)

    def inverse(self):
        return GroupElement(np.linalg.inv(self.matrix))

    def distance_to(self, other):
        return float(np.max(np.abs(self.matrix - other.matrix)))


@dataclass(eq=False)
class RealFormSpec:
    """Data defining G0 = {g : g* J g = J} inside SL(n, C).

    cartan_matrix implements the holomorphic extension of the Cartan
    involution, theta(g) = T g T^{-1}; for the built-in forms T = J and
    T^2 = I.  adapted_frame is the unitary change of basis in which A_0
    is diagonal with the listed eigenvalue pattern and N_0 is unit upper
    triangular; the algebra bases are real bases of the corresponding
    real subalgebras in standard coordinates.
    """

    name: str
    form_matrix: np.ndarray
    cartan_matrix: np.ndarray
    adapted_frame: np.ndarray
    k0_basis: np.ndarray = field(repr=False)
    a_basis: np.ndarray = field(repr=False)
    n0_basis: np.ndarray = field(repr=False)
    s0_basis: np.ndarray = field(repr=False)

    @property
    def n(self):
        return self.form_matrix.shape[0]

    @property
    def g0_basis(self):
        """Real basis of the full real-form algebra, k0 followed by s0."""
        return np.concatenate([self.k0_basis, self.s0_basis], axis=0)


def exp_map(x):
    """Matrix exponential into the group."""
    mat = check_finite(np.asarray(x, complex), "exponent")
    return GroupElement(scipy.linalg.expm(mat))


def cartan_involution(g, rf):
    """theta(g) = T g T^{-1}; involutive and fixing K0 pointwise."""
    t = rf.cartan_matrix
    return GroupElement(t @ g.matrix @ np.linalg.inv(t))


def _is_g0(mat, rf, tol):
    j = rf.form_matrix
    return np.max(np.abs(np.conj(mat.T) @ j @ mat - j)) < tol


def _adapted(mat, rf):
    p = rf.adapted_frame
    return np.conj(p.T) @ mat @ p


def is_member(g, rf, which, tol=MEMBERSHIP_TOLERANCE):
    """Membership predicate for the subgroup factors.

    G0: g* J g = J.  K0: additionally theta(g) = g.  Gu: g* g = I.
    A0N0: in G0, upper triangular with positive real diagonal in the
    adapted frame (the A0 eigenvalue relations then hold automatically).
    """
    if which not in MEMBER_TAGS:
        raise InvalidInput(f"unknown subgroup tag {which!r}")
    mat = g.matrix
    if which == "Gu":
        return bool(np.max(np.abs(np.conj(mat.T) @ mat - np.eye(rf.n))) < tol)
    if not _is_g0(mat, rf, tol):
        return False
    if which == "G0":
        return True
    if which == "K0":
        theta = cartan_involution(g, rf)
        return bool(np.max(np.abs(theta.matrix - mat)) < tol)
    # A0N0
    ad = _adapted(mat, rf)
    if np.max(np.abs(np.tril(ad, -1))) >= tol:
        return False
    d = np.diagonal(ad)
    return bool(np.max(np.abs(d.imag)) < tol and np.min(d.real) > tol)


def iwasawa_decompose(g, rf):
    """g = k a n with k in K0, a in A0, n in N0.

    In the adapted frame H = g*g equals (an)*(an) with (an) upper
    triangular and positive diagonal, so (an) is the unique Cholesky-type
    factor of H; uniqueness makes the round trip exactly reproducible.
    """
    if not is_member(g, rf, "G0"):
        raise NotInRealForm("iwasawa_decompose requires g in G0")
    p = rf.adapted_frame
    h_ad = _adapted(np.conj(g.matrix.T) @ g.matrix, rf)
    h_ad = 0.5 * (h_ad + np.conj(h_ad.T))
    try:
        lower = np.linalg.cholesky(h_ad)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracy("g*g lost positive definiteness") from exc
    u = np.conj(lower.T)
    d = np.diagonal(u).real
    if np.min(d) <= 0:
        raise NumericalDegeneracy("non-positive Cholesky diagonal")
    a_ad = np.diag(d.astype(complex))
    n_ad = u / d[:, None]
    a = GroupElement(p @ a_ad @ np.conj(p.T))
    n = GroupElement(p @ n_ad @ np.conj(p.T))
    an_inv = p @ (np.linalg.inv(n_ad) @ np.diag(1.0 / d)) @ np.conj(p.T)
    k = GroupElement(g.matrix @ an_inv)
    residual = np.max(np.abs(g.matrix - k.matrix @ a.matrix @ n.matrix))
    if residual > IWASAWA_RESIDUAL or not is_member(k, rf, "K0", tol=IWASAWA_RESIDUAL):
        raise NumericalDegeneracy(f"iwasawa residual {residual:.2e} above tolerance")
    return k, a, n


def k0_sample_count(rf, resolution, extras=None):
    """resolution^dim + extras, the size of the K0 sample (the identity,
    prepended to a grid that misses it, is not counted); InvalidInput
    past MAX_K0_SAMPLES, before anything is built."""
    if resolution < 1:
        raise InvalidInput("resolution must be >= 1")
    dim = len(rf.k0_basis)
    if extras is None:
        extras = 0 if dim == 1 else resolution**2
    count = resolution**dim + extras
    if count > MAX_K0_SAMPLES:
        raise InvalidInput(f"resolution {resolution} with {extras} extras exceeds "
                           f"{MAX_K0_SAMPLES} K0 samples of {rf.name}")
    return count


def _k0_coefficients(rf, resolution, seed, extras=None):
    """Exponential coordinates of the coarse K0 sample.

    One-dimensional K0 (a circle) gets the forced uniform grid pi*j/res.
    Higher dimension gets the product grid on [-pi, pi)^dim, the identity,
    and scrambled-Sobol extras (default resolution^2).  Grids are nested
    under doubling of the resolution, which is what makes the optimizer's
    coarse stage monotone under refinement.
    """
    k0_sample_count(rf, resolution, extras)
    dim = len(rf.k0_basis)
    if dim == 1:
        coeffs = (np.pi * np.arange(resolution) / resolution)[:, None]
        n_extra = 0 if extras is None else int(extras)
    else:
        axis = -np.pi + 2.0 * np.pi * np.arange(resolution) / resolution
        mesh = np.meshgrid(*([axis] * dim), indexing="ij")
        coeffs = np.stack([m.ravel() for m in mesh], axis=1)
        n_extra = resolution**2 if extras is None else int(extras)
    blocks = [coeffs]
    if not np.any(np.all(coeffs == 0.0, axis=1)):
        blocks.insert(0, np.zeros((1, dim)))
    if n_extra > 0:
        blocks.append(-np.pi + 2.0 * np.pi * sobol_points(dim, n_extra, seed))
    return np.concatenate(blocks, axis=0)


def k0_sample_matrices(rf, resolution, seed, extras=None):
    """Raw (N, n, n) stack of K0 sample matrices; fast path for optimizers."""
    coeffs = _k0_coefficients(rf, resolution, seed, extras)
    x = np.einsum("cd,dij->cij", coeffs, rf.k0_basis)
    mats = expm_antihermitian(x)
    j = rf.form_matrix
    res_u = np.max(np.abs(np.einsum("cji,cjk->cik", np.conj(mats), mats) - np.eye(rf.n)))
    res_j = np.max(np.abs(np.einsum("cji,jl,clk->cik", np.conj(mats), j, mats) - j))
    if max(res_u, res_j) > MEMBERSHIP_TOLERANCE:
        raise NumericalDegeneracy("K0 sample failed membership validation")
    return mats

def k0_sample(rf, resolution, seed, extras=None):
    """Deterministic seeded sample of K0 as GroupElements."""
    return [GroupElement(m) for m in k0_sample_matrices(rf, resolution, seed, extras)]
