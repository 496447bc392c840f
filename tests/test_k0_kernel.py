"""The Newton step kernel on K0: the closed-form exponential, the reduced
step basis, the branch value's derivatives and the iteration count on
deep boundary paths; the lean kernels against their plain forms, bit for
bit."""

import numpy as np
import pytest

import cyclelab.optimize as optimize
from cyclelab.exhaust import boundary_depths, divergence_path
from cyclelab.liecore import k0_coefficients, k0_exp, k0_from_coefficients, k0_matrices

from conftest import seeded_subjects
from oracles import (branch_derivatives_plain, expm_antihermitian, k0_exp_plain,
                     k0_from_coefficients_plain)

EPS = np.finfo(float).eps
SU21_INVARIANT = np.diag([-2j, 1j, 1j])


def _k0_elements(sc, rng, count):
    """Seeded k0 elements: coefficients uniform on [-pi, pi)^dim, then
    the same directions rescaled to spectral radius near 0, pi and 2 pi."""
    basis = np.asarray(sc.rf.k0_basis)
    x = np.einsum("cd,dij->cij", rng.uniform(-np.pi, np.pi, (count, len(basis))), basis)
    rho = np.max(np.abs(np.linalg.eigvalsh(-1j * x)), axis=1)
    near = [x * ((t + rng.uniform(-1e-7, 1e-7, count)) / rho)[:, None, None]
            for t in (0.0, np.pi, 2 * np.pi)]
    return np.concatenate([x, np.zeros_like(x[:1])] + near)


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_k0_exp_matches_the_eigh_exponential(name, su11, su21):
    sc = {"su11": su11, "su21": su21}[name]
    x = _k0_elements(sc, np.random.default_rng(61), 200)
    got = k0_exp(sc.rf, x)
    # the eigh oracle's eigen-angles carry about eps |x| each, so the
    # bound grows with the spectral radius rho
    rho = np.max(np.abs(np.linalg.eigvalsh(-1j * x)), axis=1)
    err = np.max(np.abs(got - expm_antihermitian(x)), axis=(1, 2))
    assert np.all(err <= 8 * EPS * (1.0 + rho))
    # unitary, J-preserving and of determinant 1, to rounding
    j, eye = sc.rf.form_matrix, np.eye(sc.n)
    adj = np.conj(np.swapaxes(got, 1, 2))
    assert np.max(np.abs(adj @ got - eye)) <= 8 * EPS
    assert np.max(np.abs(adj @ j @ got - j)) <= 8 * EPS
    assert np.max(np.abs(np.linalg.det(got) - 1.0)) <= 8 * EPS


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_k0_exp_rows_do_not_depend_on_their_batch(name, su11, su21):
    sc = {"su11": su11, "su21": su21}[name]
    x = _k0_elements(sc, np.random.default_rng(62), 50)
    got = k0_exp(sc.rf, x)
    order = np.random.default_rng(63).permutation(len(x))
    assert k0_exp(sc.rf, x[order]).tobytes() == got[order].tobytes()
    for i in (0, 7, len(x) - 1):
        assert k0_exp(sc.rf, x[i:i + 1]).tobytes() == got[i:i + 1].tobytes()
    # numpy elides temporaries of 256 KiB (16384 complex entries) and more,
    # and may then swap a complex product's operands: a stack past that
    # size equals its 256-row pieces
    x = _k0_elements(sc, np.random.default_rng(64), 4200)
    assert len(x) > 16384
    pieces = [k0_exp(sc.rf, x[i:i + 256]) for i in range(0, len(x), 256)]
    assert k0_exp(sc.rf, x).tobytes() == np.concatenate(pieces).tobytes()


def test_su21_drops_exactly_its_invariant_direction(su21):
    engine = optimize.get_engine(su21)
    c = su21.geometry.slice_vectors(np.eye(3, dtype=complex), engine.duals).T
    null = optimize._invariant_directions(su21, c, engine.sigma)
    assert null.shape == (1, 4)
    y = np.einsum("d,dij->ij", null[0], np.asarray(su21.rf.k0_basis))
    # y = lambda diag(-2i, i, i) for a real lambda
    lam = np.vdot(SU21_INVARIANT, y).real / np.vdot(SU21_INVARIANT, SU21_INVARIANT).real
    assert abs(lam) > 0.1
    assert np.max(np.abs(y - lam * SU21_INVARIANT)) <= 1e-15
    # the kept vectors are kappa_2, kappa_3, kappa_4
    assert engine.step_basis.tobytes() == np.asarray(su21.rf.k0_basis)[1:].tobytes()


def test_su11_keeps_its_whole_basis(su11):
    engine = optimize.get_engine(su11)
    c = su11.geometry.slice_vectors(np.eye(2, dtype=complex), engine.duals).T
    assert optimize._invariant_directions(su11, c, engine.sigma).shape == (0, 1)
    assert engine.step_basis.tobytes() == np.asarray(su11.rf.k0_basis).tobytes()


def test_su21_branch_values_are_invariant_along_the_dropped_direction(su21):
    engine = optimize.get_engine(su21)
    rng = np.random.default_rng(64)
    ks = k0_matrices(su21.rf, rng.uniform(-np.pi, np.pi, (40, 4)))
    subjects = seeded_subjects(su21, 40, seed=66)
    base = engine.values_own(subjects, ks[:, None])[:, 0]
    for s in (0.3, -1.7, 2.9, 2 * np.pi / 3):
        moved = np.einsum("ab,mbc->mac", k0_exp(su21.rf, (s * SU21_INVARIANT)[None])[0], ks)
        vals = engine.values_own(subjects, moved[:, None])[:, 0]
        assert np.max(np.abs(vals - base)) <= 16 * EPS * np.max(np.abs(base))


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_derivatives_match_central_differences(name, su11, su21):
    sc = {"su11": su11, "su21": su21}[name]
    engine = optimize.get_engine(sc)
    rng = np.random.default_rng(65)
    m, d = 12, len(engine.step_basis)
    ks = k0_matrices(sc.rf, rng.uniform(-np.pi, np.pi, (m, len(sc.rf.k0_basis))))
    subjects = seeded_subjects(sc, m, seed=67)

    def value(x):
        # the branch value at exp(sum x_i b_i) k, x (d,) the same for every row
        step = k0_exp(sc.rf, np.broadcast_to(np.einsum("i,iab->ab", x, engine.step_basis),
                                              ks.shape))
        return engine.values_own(subjects, (step @ ks)[:, None])[:, 0]

    moved = np.einsum("mab,mb->ma", sc.geometry.move_matrices(ks), subjects)
    grad, hess = engine.derivatives(moved)
    assert grad.shape == (m, d) and hess.shape == (m, d, d)
    eye = np.eye(d)
    h = 1e-5
    fd_grad = np.stack([(value(h * e) - value(-h * e)) / (2 * h) for e in eye], axis=1)
    h = 1e-4
    fd_hess = np.stack([np.stack(
        [(value(h * (a + b)) - value(h * (a - b)) - value(h * (b - a)) + value(-h * (a + b)))
         / (4 * h * h) for b in eye], axis=1) for a in eye], axis=1)
    # truncation h^2 and rounding eps / h^2 leave about 1e-9 and 2e-6
    assert np.max(np.abs(grad - fd_grad)) <= 1e-8
    assert np.max(np.abs(hess - fd_hess)) <= 2e-5


def test_deep_su21_boundary_rows_take_few_newton_steps(su21, monkeypatch):
    # 16 seeded r_md paths to depth 5e-15: 240 rows, one Newton ascent,
    # one derivatives call per step
    steps = []
    original = optimize.BranchEngine.derivatives

    def counted(self, moved):
        steps.append(moved.shape[0])
        return original(self, moved)

    monkeypatch.setattr(optimize.BranchEngine, "derivatives", counted)
    depths, paths = divergence_path(su21, "r_md", range(16), seed=1)
    assert depths[-1] == 5e-15 and steps[0] == paths.size
    assert len(steps) <= 60
    assert np.all(np.isfinite(paths))


@pytest.mark.parametrize("seed", [2, 6, 77, 103, 108, 144])
def test_deep_su21_boundary_paths_climb_past_the_verify_floor(su21, seed, monkeypatch):
    # at these seeds the deepest row of a path (depth 5e-15) nears the
    # point where its slice vector vanishes, where the Newton model fails
    # and the curvature floor grows; r_md still rises along every path's
    # tail, past boundary_divergence's floor of 30, in one short ascent
    steps = []
    original = optimize.BranchEngine.derivatives

    def counted(self, moved):
        steps.append(moved.shape[0])
        return original(self, moved)

    monkeypatch.setattr(optimize.BranchEngine, "derivatives", counted)
    _, paths = divergence_path(su21, "r_md", range(16), seed=seed)
    assert len(steps) <= 60
    assert np.all(np.diff(paths[:, -5:], axis=1) > 0)
    assert np.min(paths[:, -1]) > 30.0


def _same_derivatives(engine, moved):
    with np.errstate(all="ignore"):
        got = engine.derivatives(moved)
        want = branch_derivatives_plain(engine.slice_maps, engine.sigma,
                                        len(engine.step_basis), moved)
    return all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("name", ["su11", "su21"])
@pytest.mark.parametrize("rows", [1, 8, 461])
def test_lean_kernels_equal_their_plain_forms_on_seeded_batches(name, rows, su11, su21):
    # k0_exp (block indices cached on the real form, np.sinc inlined),
    # k0_from_coefficients (two real einsums) and derivatives (two einsums
    # over p and its derivatives) against one einsum per term and np.sinc
    sc = {"su11": su11, "su21": su21}[name]
    engine = optimize.get_engine(sc)
    rng = np.random.default_rng(70 + rows)
    coeffs = rng.uniform(-np.pi, np.pi, (rows, len(sc.rf.k0_basis)))
    coeffs[::3] *= rng.choice([0.0, 1e-17, 1e-8], (len(coeffs[::3]), 1))
    got = k0_from_coefficients(sc.rf, coeffs)
    plain = k0_from_coefficients_plain(sc.rf.form_matrix, sc.rf.k0_basis, coeffs)
    assert got.tobytes() == plain.tobytes()
    x = _k0_elements(sc, rng, rows)
    assert k0_exp(sc.rf, x).tobytes() == k0_exp_plain(sc.rf.form_matrix, x).tobytes()
    moved = np.einsum("mab,mb->ma", sc.geometry.move_matrices(got),
                      seeded_subjects(sc, rows, seed=rows))
    assert _same_derivatives(engine, moved)


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_lean_kernels_equal_their_plain_forms_on_deep_rows(name, su11, su21, monkeypatch):
    # every derivatives and k0_exp call of the searches on boundary paths
    # to depth 5e-15, where the su21 slice vector nears 0, against the
    # plain forms at the same arguments
    sc = {"su11": su11, "su21": su21}[name]
    engine = optimize.get_engine(sc)
    depths = boundary_depths(15)
    assert depths[-1] == 5e-15
    rows = np.concatenate([sc.geometry.divergence_rows("r_md", depths,
                                                       np.random.default_rng(s), sc.rf)
                           for s in range(8)])
    moved, xs = [], []
    derivatives = optimize.BranchEngine.derivatives

    def recorded_derivatives(self, m):
        moved.append(m.copy())
        return derivatives(self, m)

    def recorded_exp(rf, x):
        xs.append(x.copy())
        return k0_exp(rf, x)

    monkeypatch.setattr(optimize.BranchEngine, "derivatives", recorded_derivatives)
    monkeypatch.setattr(optimize, "k0_exp", recorded_exp)
    optimize.maximize_branch(rows, sc)
    monkeypatch.undo()
    assert len(moved) >= 3 and len(xs) >= len(moved) - 1
    assert all(_same_derivatives(engine, m) for m in moved)
    assert all(k0_exp(sc.rf, x).tobytes() == k0_exp_plain(sc.rf.form_matrix, x).tobytes()
               for x in xs)


@pytest.mark.parametrize("name,resolution", [("su21", 6), ("su21", 10), ("su21", 19),
                                             ("su11", 1024)])
def test_k0_from_coefficients_equals_its_plain_form_on_coarse_grids(name, resolution,
                                                                    su11, su21):
    # the basis entries are 0 and +-1, so the two real einsums round as
    # the real-by-complex one does
    sc = {"su11": su11, "su21": su21}[name]
    coeffs = k0_coefficients(sc.rf, resolution, optimize.get_engine(sc).dropped)
    got = k0_from_coefficients(sc.rf, coeffs)
    plain = k0_from_coefficients_plain(sc.rf.form_matrix, sc.rf.k0_basis, coeffs)
    assert got.tobytes() == plain.tobytes()


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_values_own_on_one_matrix_per_row_equals_one_sample_per_row(name, su11, su21):
    sc = {"su11": su11, "su21": su21}[name]
    engine = optimize.get_engine(sc)
    rng = np.random.default_rng(71)
    ks = k0_matrices(sc.rf, rng.uniform(-np.pi, np.pi, (461, len(sc.rf.k0_basis))))
    subjects = seeded_subjects(sc, 461, seed=72)
    got = engine.values_own(subjects, ks)
    assert got.shape == (461,)
    assert got.tobytes() == engine.values_own(subjects, ks[:, None])[:, 0].tobytes()

