"""The closed-form logarithm of K0 elements (liecore.k0_log) and its
coordinates in the compact algebra basis."""

import numpy as np
import pytest
from scipy.linalg import logm

from cyclelab.exhaust import k0_log_coordinates
from cyclelab.liecore import (LOG_BRANCH_SNAP, LOG_TIE, k0_coefficients, k0_exp, k0_log,
                              k0_matrices)
from cyclelab.verify import _group_elements

from oracles import expm_antihermitian

EPS = np.finfo(float).eps


def reference_log(u):
    """Anti-Hermitian part of scipy's logm, matrix by matrix."""
    x = np.array([logm(m) for m in u])
    return 0.5 * (x - np.conj(np.swapaxes(x, -1, -2)))


def _grid_and_seeded(sc):
    """The resolution-4 K0 grid and 64 seeded K0 elements."""
    return np.concatenate([k0_matrices(sc.rf, k0_coefficients(sc.rf, 4, ())),
                           [k.matrix for k in _group_elements(sc, 64, 5)]])


def haar_unitaries(count, n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_k0(sc, count, seed):
    """Haar-random elements of K0 = S(U(p) x U(q)): a Haar unitary on the
    +1 block of J, the conjugate of its determinant on the 1x1 -1 block."""
    p = int(np.sum(np.diagonal(sc.rf.form_matrix).real > 0))
    u = np.zeros((count, sc.n, sc.n), complex)
    u[:, :p, :p] = haar_unitaries(count, p, seed)
    u[:, p, p] = np.conj(np.linalg.det(u[:, :p, :p]))
    return u


def near_scalar_k0(sc):
    """su21 elements whose U(2) block is scalar or within 1e-12 / 1e-13 of
    a scalar, at phases that do and do not move one of its angles by the
    trace rule; su11 has no 2x2 block and gets none."""
    if sc.n == 2:
        return np.zeros((0, 2, 2), complex)
    rng = np.random.default_rng(3)
    basis = np.asarray(sc.rf.k0_basis)
    coeffs = []
    for tau in (0.0, 0.4, -1.3, np.pi / 2, 2.5, np.pi, -np.pi):
        for size in (0.0, 1e-13, 1e-12):
            c = size * rng.standard_normal(4)
            # diag(i tau, i tau, -2 i tau) plus a rotation of the given size
            c[0] += tau
            c[1] += tau
            coeffs.append(c)
    return k0_exp(sc.rf, np.einsum("ma,aij->mij", np.array(coeffs), basis))


def _stacks(sc):
    """The grid over the whole K0 basis at the default resolution too
    (su21's holds 20 elements with a U(2) block -I), Haar-random and
    near-scalar elements."""
    grid = k0_matrices(sc.rf, k0_coefficients(sc.rf, sc.k0_resolution, ()))
    return np.concatenate([_grid_and_seeded(sc), grid, haar_k0(sc, 400, 1), near_scalar_k0(sc)])


def assert_log_of(x, u, rf):
    """x is an anti-Hermitian, traceless, J-block-diagonal log of u, whose
    exponential is u within 8 eps (1 + rho), rho its largest eigen-angle."""
    assert np.array_equal(x, -np.conj(np.swapaxes(x, -1, -2)))
    assert np.max(np.abs(np.trace(x, axis1=1, axis2=2))) < 1e-14
    sign = np.diagonal(rf.form_matrix).real
    assert np.all(x[:, sign[:, None] != sign[None, :]] == 0)
    rho = np.max(np.abs(np.linalg.eigvalsh(-1j * x)), axis=1)
    back = np.max(np.abs(expm_antihermitian(x) - u), axis=(1, 2))
    assert np.all(back <= 8 * EPS * (1 + rho))


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_seeded_k0_stacks_match_logm(name, su11, su21):
    # where scipy's principal log is traceless and no eigenvalue is near
    # -1 (logm is ill-conditioned there), k0_log is that log
    sc = {"su11": su11, "su21": su21}[name]
    u = np.concatenate([_grid_and_seeded(sc), near_scalar_k0(sc)])
    x = k0_log(sc.rf, u)
    assert_log_of(x, u, sc.rf)
    ref = reference_log(u)
    keep = ((np.abs(np.trace(ref, axis1=1, axis2=2)) < 1e-9)
            & np.all(np.abs(np.linalg.eigvals(u) + 1.0) > 1e-6, axis=1))
    assert np.sum(keep) > len(u) // 3
    assert np.max(np.abs(x - ref)[keep]) < 1e-12


def test_random_unitaries_match_logm(su21):
    # Haar-random K0 elements: a quarter of them or so have a principal
    # log of trace +-2 pi i, which k0_log turns traceless
    u = haar_k0(su21, 400, 2)
    x = k0_log(su21.rf, u)
    assert_log_of(x, u, su21.rf)
    ref = reference_log(u)
    keep = np.abs(np.trace(ref, axis1=1, axis2=2)) < 1e-9
    assert 0 < np.sum(~keep) < len(u) // 2
    assert np.max(np.abs(x - ref)[keep]) < 1e-12


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_k0_log_angles_are_principal(name, su11, su21):
    # every eigen-angle lies in (-pi, pi], an angle within LOG_BRANCH_SNAP
    # of -pi taking +pi, except where the principal angles sum to 2 pi t,
    # t = +-1: there the angle nearest t pi has moved by -2 pi t
    sc = {"su11": su11, "su21": su21}[name]
    u = _stacks(sc)
    w = np.linalg.eigvalsh(-1j * k0_log(sc.rf, u))
    low = w[:, 0] < -np.pi + 0.5 * LOG_BRANCH_SNAP
    high = w[:, -1] > np.pi + 0.5 * LOG_BRANCH_SNAP
    assert not np.any(low & high)
    assert np.all(w[low, 1:] > -np.pi + 0.5 * LOG_BRANCH_SNAP)
    assert np.all(w[high, :-1] <= np.pi + 0.5 * LOG_BRANCH_SNAP)
    # moved back, the angle is the largest (smallest) of its row
    assert np.all(w[low, 0] + 2 * np.pi >= w[low, -1] - LOG_TIE)
    assert np.all(w[high, -1] - 2 * np.pi <= w[high, 0] + LOG_TIE)
    assert np.all(w[low, 0] + 2 * np.pi <= np.pi + 1e-14)
    assert np.all(w[high, -1] - 2 * np.pi > -np.pi)
    # su21's stacks have moved angles; su11's +-theta sum to 2 pi only at -1
    assert np.any(low | high) == (name == "su21")


def test_identity_and_repeated_eigenvalues(su11, su21):
    for sc in (su11, su21):
        eye = np.broadcast_to(np.eye(sc.n, dtype=complex), (2, sc.n, sc.n))
        assert np.array_equal(k0_log(sc.rf, eye), np.zeros((2, sc.n, sc.n)))
    # scalar U(2) blocks e^{i tau} I: the log is i tau I on the block, a
    # moved angle aside
    u = near_scalar_k0(su21)
    x = k0_log(su21.rf, u)
    assert_log_of(x, u, su21.rf)
    w = np.linalg.eigvalsh(-1j * x[:, :2, :2])
    scalar = np.max(np.abs(u[:, :2, :2] - u[:, :1, :1] * np.eye(2)), axis=(1, 2)) == 0
    unmoved = np.abs(np.trace(reference_log(u), axis1=1, axis2=2)) < 1e-9
    assert np.any(scalar & unmoved) and np.any(scalar & ~unmoved)
    assert np.max(np.abs(w[:, 1] - w[:, 0])[scalar & unmoved]) < 1e-14


def test_eigenvalues_straddling_minus_one(su21):
    # eigen-angles +-(pi - eps) in the U(2) block: the log's eigenvectors
    # are ill-conditioned there (condition about pi / eps), its angles and
    # its exponential are not
    eps = 1e-9
    v = haar_unitaries(20, 2, 0)
    u = np.zeros((20, 3, 3), complex)
    u[:, :2, :2] = np.einsum("mij,j,mkj->mik", v, np.exp(1j * np.array([np.pi - eps,
                                                                        -(np.pi - eps)])),
                             np.conj(v))
    u[:, 2, 2] = 1.0
    x = k0_log(su21.rf, u)
    assert_log_of(x, u, su21.rf)
    w = np.linalg.eigvalsh(-1j * x)
    assert np.max(np.abs(w - [-(np.pi - eps), 0.0, np.pi - eps])) < 1e-14


def test_scalar_minus_one_block_logs_to_plus_and_minus_i_pi(su21):
    # diag(-1, -1, 1): the principal angles pi, pi, 0 sum to 2 pi, and the
    # U(2) block, whose direction is free, flips to i diag(pi, -pi)
    k = np.diag([-1.0, -1.0, 1.0]).astype(complex)[None]
    assert np.array_equal(k0_log_coordinates(k, su21.rf), [[np.pi, -np.pi, 0.0, 0.0]])
    assert_log_of(k0_log(su21.rf, k), k, su21.rf)


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_k0_coordinates_give_back_the_element(name, su11, su21):
    sc = {"su11": su11, "su21": su21}[name]
    u = _stacks(sc)
    basis = np.asarray(sc.rf.k0_basis)
    x = np.einsum("ma,aij->mij", k0_log_coordinates(u, sc.rf), basis)
    rho = np.max(np.abs(np.linalg.eigvalsh(-1j * x)), axis=1)
    back = np.max(np.abs(expm_antihermitian(x) - u), axis=(1, 2))
    assert np.all(back <= 8 * EPS * (1 + rho))
    assert np.max(np.abs(x - k0_log(sc.rf, u))) < 1e-14


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
    # a batch equals its rows one at a time and in blocks of 7 (the last
    # holds one row), bit for bit, at 16801 rows: past numpy's 256 KiB
    # elision size
    for sc in (su11, su21):
        u = np.concatenate([_stacks(sc), haar_k0(sc, 16801, 4)])[:16801]
        got = k0_log_coordinates(u, sc.rf)
        blocks = np.concatenate([k0_log_coordinates(u[i:i + 7], sc.rf)
                                 for i in range(0, len(u), 7)])
        assert got.tobytes() == blocks.tobytes()
        for i in range(0, len(u), 997):
            assert got[i].tobytes() == k0_log_coordinates(u[i:i + 1], sc.rf)[0].tobytes()
