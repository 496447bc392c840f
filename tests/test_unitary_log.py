"""The batched principal logarithm of unitary matrices."""

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import logm

from cyclelab.exhaust import LOG_TIE, k0_log_coordinates
from cyclelab.liecore import k0_sample_matrices
from cyclelab.optimize import maximize_branch
from cyclelab.utils import LOG_AXIS, logm_unitary
from cyclelab.verify import _group_elements

from oracles import expm_antihermitian


def reference_log(u):
    """Anti-Hermitian part of scipy's logm, matrix by matrix."""
    x = np.array([logm(m) for m in u])
    return 0.5 * (x - np.conj(np.swapaxes(x, -1, -2)))


def loop_log_coordinates(ks, rf):
    """k0_log_coordinates with its turned-row correction one row at a time."""
    x = logm_unitary(ks)
    turns = np.rint(np.trace(x, axis1=1, axis2=2).imag / (2 * np.pi))
    signs = np.diagonal(rf.cartan_matrix).real
    blocks = [np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)]
    for i in np.flatnonzero(turns):
        pairs = [np.linalg.eigh(-1j * turns[i] * x[i][np.ix_(b, b)]) for b in blocks]
        tops = [w[-1] for w, _ in pairs]
        j = max(j for j, top in enumerate(tops) if top >= max(tops) - LOG_TIE)
        v = pairs[j][1][:, -1]
        x[i][np.ix_(blocks[j], blocks[j])] -= 2j * np.pi * turns[i] * np.outer(v, np.conj(v))
    basis = np.asarray(rf.k0_basis)
    gram = np.einsum("aij,bij->ab", np.conj(basis), basis).real
    rhs = np.einsum("aij,mij->am", np.conj(basis), x).real
    return np.linalg.solve(gram, rhs).T


def _grid_and_seeded(sc):
    """The resolution-4 K0 grid and 64 seeded K0 elements."""
    return np.concatenate([k0_sample_matrices(sc.rf, 4),
                           [k.matrix for k in _group_elements(sc, 64, 5)]])


def haar_unitaries(count, n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def with_angles(angles, count=20, seed=0):
    """Stack of V diag(e^{i angles}) V* over Haar-random V."""
    v = haar_unitaries(count, len(angles), seed)
    return np.einsum("mij,j,mkj->mik", v, np.exp(1j * np.asarray(angles)),
                     np.conj(v)), v


@pytest.fixture
def logm_calls(count_calls):
    return count_calls(scipy.linalg, "logm")


def assert_log_of(x, u, tol=1e-12):
    assert np.max(np.abs(x + np.conj(np.swapaxes(x, -1, -2)))) == 0.0
    assert np.max(np.abs(expm_antihermitian(x) - u)) < tol


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_seeded_k0_stacks_match_logm(name, su11, su21, logm_calls):
    sc = {"su11": su11, "su21": su21}[name]
    u = _grid_and_seeded(sc)
    x = logm_unitary(u)
    assert not logm_calls
    # an anti-Hermitian log of u with every eigen-angle in (-pi, pi] is
    # the principal one, an eigenvalue -1 included
    assert_log_of(x, u)
    angles = np.linalg.eigvalsh(-1j * x)
    assert np.all(angles > -np.pi + 1e-9) and np.all(angles <= np.pi + 1e-12)
    # logm is a reference only away from -1: at an exact -1 pair it can
    # return a log whose anti-Hermitian part is off by 1e-2.  su21's grid
    # of K0 coordinates hits such pairs.
    at_minus_one = np.any(np.abs(np.linalg.eigvals(u) + 1.0) < 1e-12, axis=1)
    assert np.any(at_minus_one) == (name == "su21")
    assert np.max(np.abs(x - reference_log(u))[~at_minus_one]) < 1e-12


def test_random_unitaries_match_logm(logm_calls):
    u = haar_unitaries(400, 3, seed=1)
    x = logm_unitary(u)
    assert len(logm_calls) < 4
    assert np.max(np.abs(x - reference_log(u))) < 1e-12
    assert_log_of(x, u)


def test_identity_and_repeated_eigenvalues(logm_calls):
    eye = np.broadcast_to(np.eye(3, dtype=complex), (2, 3, 3))
    assert np.array_equal(logm_unitary(eye), np.zeros((2, 3, 3)))
    for angles in ([0.4, 0.4, -0.8], [-2.0, -2.0, -2.0], [1.1, 1.1, 1.1]):
        u, _ = with_angles(angles)
        x = logm_unitary(u)
        assert np.max(np.abs(x - reference_log(u))) < 1e-12
        assert_log_of(x, u)
    assert not logm_calls


@pytest.mark.parametrize("offset", [0.0, 1e-9])
def test_guard_catches_pairs_symmetric_about_the_axis(offset, logm_calls):
    # eigen-angles a +- 0.7 make the Hermitian combination degenerate
    u, _ = with_angles([LOG_AXIS + 0.7 + offset, LOG_AXIS - 0.7, 0.3])
    x = logm_unitary(u)
    assert len(logm_calls) == len(u)
    assert np.max(np.abs(x - reference_log(u))) < 1e-12
    assert_log_of(x, u)


def test_eigenvalues_straddling_minus_one(logm_calls):
    eps = 1e-9
    u, _ = with_angles([np.pi - eps, -(np.pi - eps), 0.0])
    x = logm_unitary(u)
    assert len(logm_calls) == len(u)
    assert np.max(np.abs(x - reference_log(u))) < 1e-12
    assert_log_of(x, u)


def test_exact_minus_one_pair_takes_plus_i_pi(logm_calls):
    u, v = with_angles([np.pi, np.pi, 0.0])
    x = logm_unitary(u)
    assert not logm_calls
    # branch rule: i pi on the whole -1 eigenspace
    want = np.einsum("mij,j,mkj->mik", v, [1j * np.pi, 1j * np.pi, 0.0], np.conj(v))
    assert np.max(np.abs(x - want)) < 1e-12
    assert_log_of(x, u)
    diag = np.diag([-1.0, -1.0, 1.0]).astype(complex)[None]
    assert np.max(np.abs(logm_unitary(diag) - reference_log(diag))) < 1e-12


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_k0_coordinates_give_back_the_element(name, su11, su21):
    sc = {"su11": su11, "su21": su21}[name]
    u = _grid_and_seeded(sc)
    basis = np.asarray(sc.rf.k0_basis)
    coords = k0_log_coordinates(u, sc.rf)
    x = np.einsum("ma,aij->mij", coords, basis)
    assert np.max(np.abs(expm_antihermitian(x) - u)) < 1e-12
    # where the principal log is traceless, it is the log used
    principal = logm_unitary(u)
    keep = np.abs(np.trace(principal, axis1=1, axis2=2)) < 1e-9
    # for su21 about a quarter of them have trace +-2 pi i
    assert (0 < np.sum(~keep) < len(u) // 2) == (name == "su21")
    assert np.max(np.abs(x - principal)[keep]) < 1e-12


def test_k0_coordinates_of_a_split_minus_one_pair(su11, su21):
    # the -1 pair of exp(+-pi b) sits in both diagonal blocks of J; the
    # first block logs to +i pi, the last to -i pi
    for sc in (su11, su21):
        b = np.asarray(sc.rf.k0_basis)[0]
        want = np.zeros(len(sc.rf.k0_basis))
        want[0] = np.pi
        for sign in (1, -1):
            k = expm_antihermitian(sign * np.pi * b)[None]
            assert np.max(np.abs(k0_log_coordinates(k, sc.rf)[0] - want)) < 1e-12


def test_k0_coordinates_match_the_row_loop(su11, su21):
    # the turned rows are corrected in one batch per Cartan block; the
    # per-row loop gives the same coordinates bit for bit on the K0 grid,
    # seeded elements, r_md argmaxes of a chart grid and split -1 pairs
    # (a tie), and so does a batch without turned rows (su11's grid)
    axis = np.linspace(-0.9, 0.9, 9)
    for sc in (su11, su21):
        chart = sc.geometry.chart_rows("r_md", (axis[:, None] + 1j * axis[None, :]).ravel(),
                                       sc.rf)
        argmaxes = maximize_branch(chart[sc.geometry.admissible("r_md", chart)], sc)[1]
        b = np.asarray(sc.rf.k0_basis)[0]
        split = expm_antihermitian(np.pi * np.array([b, -b]))
        u = np.concatenate([argmaxes, split, _grid_and_seeded(sc)])
        got = k0_log_coordinates(u, sc.rf)
        assert got.tobytes() == loop_log_coordinates(u, sc.rf).tobytes()
        tail = slice(len(argmaxes) + 2, None)
        assert got[tail].tobytes() == k0_log_coordinates(u[tail], sc.rf).tobytes()
