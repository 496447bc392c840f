"""Small numeric helpers shared across modules."""

import numpy as np
import scipy.linalg

from .errors import InvalidInput, NumericalDegeneracy

# Relative threshold deciding which coordinate counts as "first nonzero"
# when gauge-fixing a homogeneous vector.
GAUGE_REL_TOL = 1e-9
# logm_unitary: rotation angle of the Hermitian combination whose
# eigenvectors it uses, the first-order error in a logarithm above which
# a matrix goes to scipy.linalg.logm instead, and the angular distance
# from -1 within which an eigenvalue takes the angle +pi.
LOG_AXIS = 2.0
LOG_GUARD = 1e-12
LOG_BRANCH_SNAP = 1e-14
# run_chunked: rows per block
CHUNK = 256


def check_finite(a, name="array"):
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


def gauge_vector(v):
    """Canonical representative of a projective vector.

    Unit Euclidean norm, and the first coordinate whose modulus exceeds
    GAUGE_REL_TOL * max|v_i| is rotated to be real positive.  The result
    is the unique such representative, so equality of projective points
    becomes equality of arrays.
    """
    v = np.asarray(v, dtype=complex)
    nrm = np.linalg.norm(v)
    if nrm < 1e-14:
        raise NumericalDegeneracy("cannot gauge a numerically zero vector")
    v = v / nrm
    mags = np.abs(v)
    lead = int(np.argmax(mags > GAUGE_REL_TOL * mags.max()))
    phase = v[lead] / mags[lead]
    return v * np.conj(phase)


def hermitize(m):
    m = np.asarray(m)
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def expm_antihermitian(x):
    """Matrix exponential of (stacks of) anti-Hermitian matrices via eigh.

    x satisfies x* = -x, so x = i h with h Hermitian and
    exp(x) = V diag(exp(i w)) V*.  Much faster than scipy expm for the
    small stacked matrices used in group-orbit sampling.
    """
    x = np.asarray(x, dtype=complex)
    h = -1j * x
    w, vec = np.linalg.eigh(hermitize(h))
    phase = np.exp(1j * w)
    return np.einsum("...ij,...j,...kj->...ik", vec, phase, np.conj(vec))


def logm_unitary(u):
    """Principal logarithm of an (m, n, n) stack of unitary matrices.

    The inverse of expm_antihermitian: the result is anti-Hermitian and
    agrees with scipy.linalg.logm to 1e-12 (away from an eigenvalue -1,
    see the branch rule).  A unitary U shares its
    eigenvectors V with H = (e^{-ia} U + e^{ia} U*) / 2, a = LOG_AXIS,
    whose eigenvalues cos(theta - a) separate the eigen-angles theta
    unless two of them are symmetric about a.  D = V* U V is diagonal up
    to the eigenvector error of eigh; its diagonal gives the angles, and
    log U = V (i diag(theta) + first-order correction for the rest of D) V*.

    Branch rule: angles lie in (-pi, pi], and an eigenvalue within
    LOG_BRANCH_SNAP of -1 takes +pi, so an exact -1 pair logs to i pi on
    its whole eigenspace.  (scipy.linalg.logm may split such a pair into
    +-i pi, depending on rounding.)

    Guard: a matrix whose first-order correction exceeds LOG_GUARD goes
    to scipy.linalg.logm instead.  That happens for angle pairs
    symmetric about a (H is degenerate, D is not diagonal) and for pairs
    straddling -1 (log is ill-conditioned there).
    """
    u = np.asarray(u, dtype=complex)
    _, vec = np.linalg.eigh(hermitize(np.exp(-1j * LOG_AXIS) * u))
    d = np.einsum("mji,mjk,mkl->mil", np.conj(vec), u, vec)
    theta = np.angle(np.diagonal(d, axis1=-2, axis2=-1))
    theta = np.where(theta < -np.pi + LOG_BRANCH_SNAP, np.pi, theta)
    # D's off-diagonal part E is first-order eigenvector error; the log
    # of D to first order adds E_ij times the divided difference of log,
    # i (theta_i - theta_j) / (e^{i theta_i} - e^{i theta_j}), i.e.
    # e^{-i (theta_i + theta_j) / 2} / sinc((theta_i - theta_j) / 2 pi)
    half = 0.5 * (theta[:, :, None] + theta[:, None, :])
    sinc = np.sinc((theta[:, :, None] - theta[:, None, :]) / (2 * np.pi))
    # theta_i - theta_j lies in (-2 pi, 2 pi), so sinc never vanishes
    eye = np.eye(u.shape[-1], dtype=bool)
    corr = np.where(eye, 0.0, d * np.exp(-1j * half) / sinc)
    log_d = corr + 1j * theta[:, :, None] * eye
    x = np.einsum("mij,mjk,mlk->mil", vec, log_d, np.conj(vec))
    for i in np.flatnonzero(np.max(np.abs(corr), axis=(1, 2)) > LOG_GUARD):
        x[i] = scipy.linalg.logm(u[i])
    return 0.5 * (x - np.conj(np.swapaxes(x, -1, -2)))


def sobol_points(dim, count, seed):
    """Deterministic scrambled-Sobol sample of [0,1)^dim.

    The sequence is extensible: the first k points of a longer draw with
    the same seed equal the shorter draw, which makes refinement of the
    coarse optimizer stage monotone.
    """
    if count <= 0:
        return np.zeros((0, dim))
    # scipy.stats takes most of the package's import time; load it only
    # when a sample is drawn
    from scipy.stats import qmc

    eng = qmc.Sobol(d=dim, scramble=True, seed=seed)
    # drawing a power-of-two block and slicing keeps the balance warning
    # quiet without changing the points of the common prefix
    block = 1 << max(0, int(np.ceil(np.log2(count))))
    return eng.random(block)[:count]


def thread_count():
    """Worker count from CYCLELAB_THREADS; 1 (serial) when unset or bad."""
    import os

    raw = os.environ.get("CYCLELAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_chunked(fn, rows):
    """Apply fn to blocks of CHUNK rows and concatenate the results.

    The block boundaries never depend on the worker count, so the
    concatenated output is byte-identical whether the blocks run serially
    or on a thread pool; the fixed size also bounds each block's
    temporaries.  fn may return an array or a tuple of arrays.
    """
    rows = np.asarray(rows)
    if rows.shape[0] == 0:
        raise InvalidInput("run_chunked needs at least one row")
    blocks = [rows[i:i + CHUNK] for i in range(0, rows.shape[0], CHUNK)]
    workers = thread_count()
    if workers == 1 or len(blocks) == 1:
        results = [fn(b) for b in blocks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(fn, blocks))
    if isinstance(results[0], tuple):
        return tuple(np.concatenate(parts, axis=0) for parts in zip(*results))
    return np.concatenate(results, axis=0)
