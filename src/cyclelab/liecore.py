"""Matrix Lie group core: real forms, membership tests, Iwasawa factors.

The complex group is SL(n, C) acting on C^n.  A real form is cut out by a
Hermitian form J via g* J g = J; the compact form G_u is SU(n).  All
decompositions are done in a fixed "adapted" unitary frame P in which the
split torus A_0 is diagonal and N_0 is strictly upper triangular, so the
Iwasawa factorization reduces to a Cholesky factorization and is therefore
deterministic and exactly reproducible.
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInput, NotInRealForm, NumericalDegeneracy
from .utils import check_finite

DET_TOLERANCE = 1e-10
MEMBERSHIP_TOLERANCE = 1e-10
IWASAWA_RESIDUAL = 1e-9

MEMBER_TAGS = ("G0", "K0", "Gu", "A0N0")
# K0 samples at most, counted by k0_sample_count.  The optimizer keeps a
# coarse grid's coordinates and two real (K, n^2) screen forms, 176 B a
# sample for su21, so 22 MB at su21 resolution 50 (su11: 131072).  Its
# screen keeps 8 B per row and K_BLOCK samples, 8 KB a row at the cap;
# the rest of its temporaries do not grow with K
MAX_K0_SAMPLES = 2 ** 17
# k0_log: an angle within LOG_BRANCH_SNAP of -pi takes +pi; angles closer
# than LOG_TIE are tied
LOG_BRANCH_SNAP = 1e-14
LOG_TIE = 1e-12
# k0_exp: stands in for y = 0 in sin(y) / y, as in np.sinc, so that sinc 0 = 1
EPS = np.finfo(float).eps


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


@dataclass(eq=False)
class RealFormSpec:
    """Data defining G0 = {g : g* J g = J} inside SL(n, C).

    Both built-in forms have J = diag(+-1), so the holomorphic extension
    of the Cartan involution is theta(g) = J g J^{-1}.  adapted_frame is
    the unitary change of basis in which A_0 is diagonal with the listed
    eigenvalue pattern and N_0 is unit upper triangular; the algebra
    bases are real bases of the corresponding real subalgebras in
    standard coordinates.
    """

    name: str
    form_matrix: np.ndarray
    adapted_frame: np.ndarray
    k0_basis: np.ndarray = field(repr=False)
    a_basis: np.ndarray = field(repr=False)
    n0_basis: np.ndarray = field(repr=False)
    s0_basis: np.ndarray = field(repr=False)

    @property
    def n(self):
        return self.form_matrix.shape[0]

    @cached_property
    def blocks(self):
        """Indices of J's +1 and -1 eigenspaces, K0's diagonal blocks."""
        sign = np.diagonal(self.form_matrix).real
        return np.flatnonzero(sign > 0), np.flatnonzero(sign < 0)

    @property
    def g0_basis(self):
        """Real basis of the full real-form algebra, k0 followed by s0."""
        return np.concatenate([self.k0_basis, self.s0_basis], axis=0)


def cartan_involution(g, rf):
    """theta(g) = J g J^{-1}; involutive and fixing K0 pointwise."""
    t = rf.form_matrix
    return GroupElement(t @ g.matrix @ np.linalg.inv(t))


def _is_g0(mat, rf, tol):
    j = rf.form_matrix
    return np.max(np.abs(np.conj(mat.T) @ j @ mat - j)) < tol


def _adapted(mat, rf):
    p = rf.adapted_frame
    return np.conj(p.T) @ mat @ p


def a0_matrix(rf, t):
    """exp(sum_d t_d a_d): real diagonal in the adapted frame, so P diag(e^d) P*."""
    p = rf.adapted_frame
    d = np.diagonal(_adapted(np.einsum("d,dij->ij", t, rf.a_basis), rf)).real
    return (p * np.exp(d)) @ np.conj(p.T)


def n0_matrix(rf, u):
    """exp(N), N = sum_i u_i n_i: nilpotent, so sum_{j<n} N^j / j! is exact."""
    x = np.einsum("d,dij->ij", u, rf.n0_basis)
    return sum(np.linalg.matrix_power(x, j) / math.factorial(j) for j in range(rf.n))


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
    n_ad = u / d[:, None]
    a = GroupElement((p * d) @ np.conj(p.T))
    n = GroupElement(p @ n_ad @ np.conj(p.T))
    an_inv = p @ (np.linalg.inv(n_ad) @ np.diag(1.0 / d)) @ np.conj(p.T)
    k = GroupElement(g.matrix @ an_inv)
    residual = np.max(np.abs(g.matrix - k.matrix @ a.matrix @ n.matrix))
    if residual > IWASAWA_RESIDUAL or not is_member(k, rf, "K0", tol=IWASAWA_RESIDUAL):
        raise NumericalDegeneracy(f"iwasawa residual {residual:.2e} above tolerance")
    return k, a, n


def k0_sample_count(rf, resolution, dropped):
    """len(k0_coefficients(rf, resolution, dropped)): resolution^d over the
    d grid axes (the K0 basis less the dropped ones), plus the identity
    that a product grid of odd resolution lacks; InvalidInput for a
    resolution that is no integer >= 1, or a count past MAX_K0_SAMPLES,
    before anything is built."""
    if (not isinstance(resolution, numbers.Integral) or isinstance(resolution, bool)
            or resolution < 1):
        raise InvalidInput(f"K0 sample resolution must be an integer >= 1, "
                           f"not {resolution!r}")
    axes = len(rf.k0_basis) - len(dropped)
    count = resolution**axes + (len(rf.k0_basis) > 1 and resolution % 2)
    if count > MAX_K0_SAMPLES:
        raise InvalidInput(f"resolution {resolution} exceeds {MAX_K0_SAMPLES} "
                           f"K0 samples of {rf.name}")
    return count


def k0_coefficients(rf, resolution, dropped):
    """Exponential coordinates of the coarse K0 grid.

    One-dimensional K0 (a circle) gets the forced uniform grid pi*j/res.
    Higher dimension gets the product grid on [-pi, pi) along each basis
    vector not in dropped, 0 along the dropped ones, and the identity.
    Grids are nested under doubling of the resolution, which is what
    makes the optimizer's coarse stage monotone under refinement.
    """
    k0_sample_count(rf, resolution, dropped)
    dim = len(rf.k0_basis)
    if dim == 1:
        return (np.pi * np.arange(resolution) / resolution)[:, None]
    axis = -np.pi + 2.0 * np.pi * np.arange(resolution) / resolution
    mesh = np.meshgrid(*[np.zeros(1) if d in dropped else axis for d in range(dim)],
                       indexing="ij")
    coeffs = np.stack([m.ravel() for m in mesh], axis=1)
    if np.any(np.all(coeffs == 0.0, axis=1)):
        return coeffs
    return np.concatenate([np.zeros((1, dim)), coeffs], axis=0)


def k0_exp(rf, x):
    """exp of an (m, n, n) stack of k0 elements, in closed form per row.

    K0 = S(U(p) x U(q)) is block diagonal along the +1 and -1 eigenspaces
    of the diagonal form J (rf.blocks), and here p, q <= 2.  A 1x1 block
    i theta exponentiates to e^{i theta}.  A 2x2 block is i tau I + Y0
    with Y0 traceless anti-Hermitian, so Y0^2 = -r^2 I and its exponential
    is e^{i tau} (cos r I + sinc r Y0), divided by sqrt(cos^2 r + sinc^2 r
    r^2) so that the rounding of r does not leave the unitary group.
    sinc r is sin(y) / y at y = pi (r / pi), the arithmetic of
    np.sinc(r / pi), and 1 at y = 0.  Every operation is elementwise, and
    none is left to numpy's elision of temporaries, so a row's result does
    not depend on the rows that share its stack.
    """
    out = np.zeros(x.shape, complex)
    for block in rf.blocks:
        if block.size == 1:
            i = block[0]
            out[:, i, i] = np.exp(1j * x[:, i, i].imag)
            continue
        i, j = block
        xii, xjj = x[:, i, i].imag, x[:, j, j].imag
        tau, h, b = 0.5 * (xii + xjj), 0.5 * (xii - xjj), x[:, i, j]
        r = np.hypot(h, np.abs(b))
        y = np.pi * (r / np.pi)
        y = np.where(y, y, EPS)
        cos, sinc = np.cos(r), np.sin(y) / y
        scale = np.exp(1j * tau) / np.sqrt(cos ** 2 + (sinc * r) ** 2)
        # named, so that numpy cannot elide them into scale * (...): from
        # 256 KiB on it would compute (...) * scale in place, and with fused
        # multiply-adds the complex product rounds differently that way round
        turn = 1j * sinc * h
        up, down, edge = cos + turn, cos - turn, scale * sinc
        out[:, i, i], out[:, j, j] = scale * up, scale * down
        out[:, i, j], out[:, j, i] = edge * b, edge * x[:, j, i]
    return out


def _flip(part, shift):
    """A 2x2 block's [tau, r, a, b] with the angle tau - shift r moved by
    2 pi shift, shift in {-1, 0, 1} per row: tau + shift pi, pi - r, -D."""
    tau, r, a, b = part
    on, sign = shift != 0, np.where(shift != 0, -1.0, 1.0)
    return [np.where(on, tau + np.pi * shift, tau), np.where(on, np.pi - r, r),
            sign * a, sign * b]


def _block_log(ks, block):
    """Principal log data of a diagonal block of a K0 stack: [theta] of a
    1x1 block e^{i theta}, or [tau, r, a, b] of a 2x2 block B with log
    i tau I + r D, D = [[i a, b], [-conj b, -i a]]: tau = arg(det B) / 2 and
    e^{-i tau} B = cos r I + s D, s = sin r >= 0.  D = i diag(1, -1) where
    s <= LOG_BRANCH_SNAP (a scalar block; the log moves by at most 2 s)."""
    if block.size == 1:
        theta = np.angle(ks[:, block[0], block[0]])
        return [np.where(theta < -np.pi + LOG_BRANCH_SNAP, np.pi, theta)]
    i, j = block
    tau = 0.5 * np.angle(ks[:, i, i] * ks[:, j, j] - ks[:, i, j] * ks[:, j, i])
    turn = np.exp(-1j * tau)
    vii, vjj = turn * ks[:, i, i], turn * ks[:, j, j]
    a, b = 0.5 * (vii - vjj).imag, 0.5 * (turn * ks[:, i, j] - np.conj(turn * ks[:, j, i]))
    s = np.hypot(a, np.abs(b))
    r = np.arctan2(s, 0.5 * (vii + vjj).real)
    scalar = s <= LOG_BRANCH_SNAP
    s = np.where(scalar, 1.0, s)
    a, b = np.where(scalar, 1.0, a / s), np.where(scalar, 0.0, b / s)
    up, down = tau - r < -np.pi + LOG_BRANCH_SNAP, tau + r >= np.pi + LOG_BRANCH_SNAP
    return _flip([tau, r, a, b], 1.0 * up - down)


def k0_log(rf, ks):
    """Traceless log of each matrix of an (m, n, n) K0 stack, in closed
    form per row: the inverse of k0_exp, block by block along J.

    Eigen-angles are principal, in (-pi, pi], one within LOG_BRANCH_SNAP
    of -pi taking +pi.  det k = 1 then puts the trace at 2 pi i t; for
    t != 0 the angle nearest t pi moves by -2 pi t, and a tie within
    LOG_TIE moves the last block's (an exact -1 pair split across the
    blocks logs to +i pi on the first, -i pi on the last).  Elementwise,
    so a row's log does not depend on the rows that share its stack.
    """
    blocks = rf.blocks
    parts = [_block_log(ks, block) for block in blocks]
    # the block traces are i theta and 2 i tau
    t = np.rint(sum(p[0] * b.size for p, b in zip(parts, blocks)) / (2 * np.pi))
    # t times each block's angle nearest t pi; ties go to the last block
    tops = [t * p[0] + (p[1] if len(p) > 1 else 0.0) for p in parts]
    last = tops[1] >= tops[0] - LOG_TIE
    out = np.zeros(ks.shape, complex)
    for moves, block, part in zip(((t != 0) & ~last, (t != 0) & last), blocks, parts):
        if block.size == 1:
            out[:, block[0], block[0]] = 1j * np.where(moves, part[0] - 2 * np.pi * t, part[0])
            continue
        (tau, r, a, b), (i, j) = _flip(part, np.where(moves, -t, 0.0)), block
        out[:, i, i], out[:, j, j] = 1j * (tau + r * a), 1j * (tau - r * a)
        out[:, i, j], out[:, j, i] = r * b, -np.conj(r * b)
    return out


def k0_from_coefficients(rf, coeffs):
    """(N, n, n) stack exp(sum_d coeffs[:, d] kappa_d) over the K0 basis
    (k0_exp), row by row: any subset of the rows gives the same bits.  The
    sum is two real einsums, on the basis' real and imaginary parts."""
    x = np.empty((coeffs.shape[0], rf.n, rf.n), complex)
    np.einsum("cd,dij->cij", coeffs, rf.k0_basis.real, out=x.real)
    np.einsum("cd,dij->cij", coeffs, rf.k0_basis.imag, out=x.imag)
    return k0_exp(rf, x)


def k0_matrices(rf, coeffs):
    """k0_from_coefficients validated as unitary and J-preserving."""
    mats = k0_from_coefficients(rf, coeffs)
    j = rf.form_matrix
    res_u = np.max(np.abs(np.einsum("cji,cjk->cik", np.conj(mats), mats) - np.eye(rf.n)))
    res_j = np.max(np.abs(np.einsum("cji,jl,clk->cik", np.conj(mats), j, mats) - j))
    if max(res_u, res_j) > MEMBERSHIP_TOLERANCE:
        raise NumericalDegeneracy("K0 sample failed membership validation")
    return mats
