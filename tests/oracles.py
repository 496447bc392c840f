"""Independent closed-form oracles, frozen spot values, frozen kernels,
and the comparisons, maps and samplers that only tests need.

The oracles are derived by hand from the defining formulas (Mobius
geometry of the disk, the dual-ball radius for lines, the fiber radius
for points) and kept free of package code, so tests compare two
independent paths.  The frozen kernels are the plain forms of the
optimizer's K0 exponential, its coefficient sum and the branch value's
derivatives, one einsum per term and np.sinc: the package's lean
kernels must equal them bit for bit.
"""

import numpy as np

from cyclelab import FlagPoint, exhaust

LOG2 = 0.6931471805599453
LOG10 = 2.302585092994046
LOG362 = 5.8916442118257715
TANH1 = 0.7615941559557649


def rs_disk(w):
    """Cell exhaustion on the disk: -log(|w - 1|^2 / (2 (1 + |w|^2)))."""
    w = np.asarray(w, complex)
    return -np.log(np.abs(w - 1.0) ** 2 / (2.0 * (1.0 + np.abs(w) ** 2)))


def rmd_disk(w):
    """Cycle-space exhaustion on the disk (cycles are points)."""
    aw = np.abs(np.asarray(w, complex))
    return -2.0 * np.log1p(-aw) + np.log1p(aw**2) + np.log(2.0)


def rmd_dual_ball(beta):
    """Cycle-space exhaustion for a line with dual (beta_1, beta_2, 1)."""
    rho_sq = np.sum(np.abs(np.asarray(beta, complex)) ** 2, axis=-1)
    return np.log((1.0 + rho_sq) / (1.0 - rho_sq))


def rd_ball(v):
    """Domain exhaustion at a positive line [v] via the fiber radius."""
    v = np.asarray(v, complex)
    rho_sq = np.abs(v[..., 2]) ** 2 / (np.abs(v[..., 0]) ** 2
                                       + np.abs(v[..., 1]) ** 2)
    return np.log((1.0 + rho_sq) / (1.0 - rho_sq))


def restricted_form_eigenvalues(duals, form):
    """Eigenvalues of the Hermitian form on ker l = {v : l . v = 0} for
    each dual l of (..., n) duals (1 x 1 for su11), on the orthonormal
    basis of ker l that the SVD of l gives: the conjugated right singular
    vectors past the first."""
    duals = np.asarray(duals, complex)
    _, _, vh = np.linalg.svd(duals[..., None, :])
    basis = np.conj(vh[..., 1:, :])
    f = np.conj(basis) @ form @ np.swapaxes(basis, -1, -2)
    return np.linalg.eigvalsh(0.5 * (f + np.conj(np.swapaxes(f, -1, -2))))


def fubini_study_levi(z):
    """Levi form of log(1 + ||z||^2) at z, any dimension."""
    z = np.atleast_1d(np.asarray(z, complex))
    d = z.shape[0]
    s = 1.0 + np.sum(np.abs(z) ** 2)
    return (np.eye(d) * s - np.conj(z)[:, None] * z[None, :]) / s**2


def expm_antihermitian(x):
    """exp of (stacks of) anti-Hermitian matrices by eigh: x = i h with h
    Hermitian, so exp(x) = V diag(e^{i w}) V* for h = V diag(w) V*."""
    h = -1j * np.asarray(x, complex)
    w, vec = np.linalg.eigh(0.5 * (h + np.conj(np.swapaxes(h, -1, -2))))
    return np.einsum("...ij,...j,...kj->...ik", vec, np.exp(1j * w), np.conj(vec))


def is_close(a, b, tol=1e-10):
    """Two points (FlagPoint) or two cycles (Cycle) agree to tol entrywise;
    their vectors are gauge-fixed, so each has one representative."""
    key = "homogeneous" if hasattr(a, "homogeneous") else "dual"
    return bool(np.max(np.abs(getattr(a, key) - getattr(b, key))) < tol)


def distance(g, h):
    """Largest entrywise distance between two GroupElements."""
    return float(np.max(np.abs(g.matrix - h.matrix)))


def chart_lift(ch, c):
    """Un-normalized homogeneous vectors of a flags.Chart for a batch of
    coordinates c: the chart's base plus c on its free indices."""
    c = np.atleast_2d(np.asarray(c, complex))
    w = np.tile(ch.base, (c.shape[0], 1))
    w[:, ch.free] += c
    return w


def cell_point(sl, c):
    """The point conj . (c, 1, 0, ...) of a SliceDatum's cell at cell
    coordinate c."""
    v = np.zeros(sl.sc.n, complex)
    v[:2] = c, 1.0
    return FlagPoint(sl.parent.borel.matrix @ v)


def submeanvalue_discs(sc, target, count, seed=42):
    """Center values and circle means over count seeded discs
    (exhaust.seeded_disc_rows), evaluated in one exhaust.batch_values call."""
    rows = exhaust.seeded_disc_rows(sc, target, count, seed)
    vals = exhaust.batch_values(rows, sc, target).reshape(count, -1)
    return vals[:, 0], np.array([float(np.mean(v[1:])) for v in vals])


def k0_exp_plain(form_matrix, x):
    """liecore.k0_exp written plainly: blocks found per call, np.sinc."""
    out = np.zeros(x.shape, complex)
    sign = np.diagonal(form_matrix).real
    for block in (np.flatnonzero(sign > 0), np.flatnonzero(sign < 0)):
        if block.size == 1:
            i = block[0]
            out[:, i, i] = np.exp(1j * x[:, i, i].imag)
            continue
        i, j = block
        tau = 0.5 * (x[:, i, i].imag + x[:, j, j].imag)
        h, b = 0.5 * (x[:, i, i].imag - x[:, j, j].imag), x[:, i, j]
        r = np.hypot(h, np.abs(b))
        cos, sinc = np.cos(r), np.sinc(r / np.pi)
        scale = np.exp(1j * tau) / np.sqrt(cos ** 2 + (sinc * r) ** 2)
        up, down = cos + 1j * sinc * h, cos - 1j * sinc * h
        out[:, i, i], out[:, j, j] = scale * up, scale * down
        out[:, i, j] = scale * sinc * b
        out[:, j, i] = scale * sinc * x[:, j, i]
    return out


def k0_from_coefficients_plain(form_matrix, k0_basis, coeffs):
    """liecore.k0_from_coefficients written plainly: one real-by-complex
    einsum over the K0 basis, then k0_exp_plain."""
    return k0_exp_plain(form_matrix, np.einsum("cd,dij->cij", coeffs, k0_basis))


def branch_derivatives_plain(slice_maps, sigma, d, moved):
    """BranchEngine.derivatives written plainly, one einsum per term:
    gradient and Hessian of log ||p||^2 - log |sigma . p|^2 from the maps
    (1 + d + d^2, n, n) of a moved subject to p and its d first and d^2
    second derivatives."""
    ps = np.einsum("kab,mb->mka", slice_maps, moved)
    p, p1, p2 = ps[:, 0], ps[:, 1:d + 1], ps[:, d + 1:].reshape(-1, d, d, ps.shape[-1])
    cp = np.conj(p)
    num = np.einsum("ma,ma->m", cp, p).real[:, None]
    n1 = 2.0 * np.einsum("ma,mia->mi", cp, p1).real / num
    n2 = 2.0 * (np.einsum("mia,mja->mij", np.conj(p1), p1)
                + np.einsum("ma,mija->mij", cp, p2)).real / num[:, :, None]
    s = np.einsum("ma,a->m", p, sigma)[:, None]
    r1 = np.einsum("mia,a->mi", p1, sigma) / s
    r2 = np.einsum("mija,a->mij", p2, sigma) / s[:, :, None]
    grad = n1 - 2.0 * r1.real
    hess = (n2 - n1[:, :, None] * n1[:, None, :]
            - 2.0 * (r2 - r1[:, :, None] * r1[:, None, :]).real)
    return grad, hess
