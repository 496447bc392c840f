"""Cycles, domain containment, the mu fiber, and the fiber infimum."""

import numpy as np
import pytest

from cyclelab import (FlagPoint, InvalidInput, act, cycle_from_dual,
                      cycle_from_point, cycle_in_domain, base_cycle,
                      fiber_infimum, translate_cycle)
from cyclelab.cycles import (annihilator_basis, cycle_in_domain_rows, cycle_points,
                             sphere_grid)
from cyclelab.errors import NotInDomain, NumericalDegeneracy
from cyclelab.exhaust import batch_values, seeded_domain_points
from cyclelab.flags import SIGN_MARGIN

from conftest import group_expm
from oracles import is_close, restricted_form_eigenvalues


def test_base_cycle_data(su11, su21):
    c1 = base_cycle(su11)
    assert su11.cycle_dim == 0
    assert np.allclose(c1.dual, [1.0, 0.0])
    # the point cycle is the kernel of its dual: the base point
    assert c1.contains(su11.base_point)
    assert is_close(FlagPoint(su11.geometry.subject_row(c1)), su11.base_point)
    c2 = base_cycle(su21)
    assert su21.cycle_dim == 1
    assert np.allclose(c2.dual, [0.0, 0.0, 1.0])


def test_annihilator_and_plane_basis():
    v = np.array([1.0, 2.0j, -0.5])
    basis = annihilator_basis(v)
    assert basis.shape == (2, 3)
    assert np.max(np.abs(basis @ v)) < 1e-12
    gram = np.conj(basis) @ basis.T
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12
    dual = np.array([0.3, -1.0j, 2.0])
    rows = annihilator_basis(dual)
    assert np.max(np.abs(rows @ dual)) < 1e-12


def test_cycle_needs_exactly_one_datum(su21):
    # the single datum is the dual; a cycle without a usable one is refused
    from cyclelab.cycles import Cycle

    with pytest.raises(TypeError):
        Cycle()
    with pytest.raises(InvalidInput):
        Cycle(dual=np.array([np.nan, 0.0, 1.0]))
    with pytest.raises(NumericalDegeneracy):
        Cycle(dual=np.zeros(3))
    with pytest.raises(InvalidInput):
        cycle_from_dual(np.array([0.0, 0.0, 1.0, 0.0]), su21)


def test_cycle_constructors_respect_scenario(su11, su21):
    with pytest.raises(InvalidInput):
        cycle_from_dual(np.array([0.0, 0.0, 1.0]), su11)
    with pytest.raises(InvalidInput):
        cycle_from_point(su21.base_point, su21)


def test_cycle_in_domain_ball(su21):
    assert cycle_in_domain(cycle_from_dual([0.2, 0.1j, 1.0], su21), su21)
    assert not cycle_in_domain(cycle_from_dual([1.2, 0.0, 1.0], su21), su21)
    assert not cycle_in_domain(cycle_from_dual([1.0, 0.0, 0.0], su21), su21)


def test_cycle_in_domain_disk(su11):
    assert cycle_in_domain(cycle_from_point(su11.base_point, su11), su11)
    edge = cycle_from_point(FlagPoint(np.array([1.0, 1.0])), su11)
    assert not cycle_in_domain(edge, su11)


def test_boundary_crossing_flips_once(su21):
    # walking the dual radius through 1 leaves the cycle space exactly
    # once, and at the crossing the restricted form develops a null
    # direction
    ts = np.linspace(0.5, 1.5, 201)
    flags = [cycle_in_domain(cycle_from_dual([t, 0.0, 1.0], su21), su21)
             for t in ts]
    flips = np.flatnonzero(np.diff(np.asarray(flags, int)))
    assert len(flips) == 1
    assert ts[flips[0]] < 1.0 <= ts[flips[0] + 1]
    eigs = restricted_form_eigenvalues(cycle_from_dual([1.0, 0.0, 1.0], su21).dual,
                                       su21.rf.form_matrix)
    assert np.min(np.abs(eigs)) < 1e-6


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_cycle_in_domain_rows_is_the_restricted_form_test(name, su11, su21):
    # the sign of the form at the dual decides as the eigenvalues of the
    # form on ker l do, on seeded duals inside and outside the cycle space
    # from 0.9 down to 1e-13 from its boundary, unnormalized
    sc = {"su11": su11, "su21": su21}[name]
    rng = np.random.default_rng(29)
    m = 2000
    gap = 10.0 ** rng.uniform(-13.0, np.log10(0.9), m) * rng.choice([-1.0, 1.0], m)
    # the unit dual's signed form value is -gap: inside iff gap > SIGN_MARGIN
    positive = np.diagonal(sc.rf.form_matrix).real > 0
    want_sq = np.where(positive, 1.0 - sc.domain_sign * gap[:, None],
                       1.0 + sc.domain_sign * gap[:, None]) / 2.0
    duals = rng.standard_normal((m, sc.n)) + 1j * rng.standard_normal((m, sc.n))
    for part in (positive, ~positive):
        duals[:, part] *= np.sqrt(want_sq[:, part] / np.sum(
            np.abs(duals[:, part]) ** 2, axis=1, keepdims=True))
    duals *= 10.0 ** rng.uniform(-3.0, 3.0, (m, 1))
    eigs = restricted_form_eigenvalues(duals, sc.rf.form_matrix)
    want = np.min(sc.domain_sign * eigs, axis=1) > SIGN_MARGIN
    assert 0 < np.sum(want) < m
    assert np.array_equal(cycle_in_domain_rows(duals, sc), want)
    assert [cycle_in_domain(cycle_from_dual(d, sc), sc) for d in duals[:200]] == \
        want[:200].tolist()


def test_translate_cycle_composition(su21):
    rng = np.random.default_rng(4)
    c = cycle_from_dual([0.3, -0.2j, 1.0], su21)
    xs = [np.einsum("d,dij->ij", rng.uniform(-0.4, 0.4, 8), su21.rf.g0_basis)
          for _ in range(2)]
    g, h = group_expm(xs[0]), group_expm(xs[1])
    lhs = translate_cycle(g, translate_cycle(h, c, su21), su21)
    rhs = translate_cycle(g @ h, c, su21)
    assert is_close(lhs, rhs)
    # the translate is the set g h . C: it carries the moved points of C
    for z in cycle_points(c, 5, seed=3):
        assert lhs.contains(act(g @ h, z))


def test_cycle_points_lie_on_cycle(su21):
    c = cycle_from_dual([0.4, 0.1, 1.0], su21)
    for z in cycle_points(c, 7, seed=13):
        assert c.contains(z)
    with pytest.raises(InvalidInput):
        cycle_points(c, 0, seed=13)


def test_restricted_form_of_base_cycle(su21):
    eigs = restricted_form_eigenvalues(base_cycle(su21).dual, su21.rf.form_matrix)
    assert np.allclose(eigs, [1.0, 1.0])


def test_mu_fiber_members_pass_through_point(su21):
    y = seeded_domain_points(su21, 1, seed=8)[0]
    basis = annihilator_basis(y.homogeneous)
    assert basis.shape == (2, 3)
    duals = sphere_grid(16) @ basis
    assert np.max(np.abs(duals @ y.homogeneous)) < 1e-12
    c = cycle_from_dual(np.array([0.6, 0.8j]) @ basis, su21)
    assert c.contains(y)


def test_mu_fiber_disk_is_single_point(su11):
    basis = annihilator_basis(su11.base_point.homogeneous)
    # one coefficient: the fiber is the single cycle at the point
    assert basis.shape == (1, 2)
    c = cycle_from_dual(np.array([1.0]) @ basis, su11)
    assert c.contains(su11.base_point)
    assert is_close(c, cycle_from_point(su11.base_point, su11))


def test_mu_fiber_outside_domain(su11, su21):
    with pytest.raises(NotInDomain):
        fiber_infimum(FlagPoint(np.array([0.0, 0.0, 1.0])), su21)
    # su11's fiber is one point cycle, outside D too: [2 : 1] is refused,
    # not scored as its mirror image [1/2 : 1]
    with pytest.raises(NotInDomain):
        fiber_infimum(FlagPoint(np.array([2.0, 1.0])), su11)


def test_fiber_infimum_bounds_members(su21):
    # the infimum over cycles through y can exceed no member's value; the
    # members in the cycle space are scored in one batch
    for cap in (0.5, 0.9, 0.99):
        y = seeded_domain_points(su21, 1, seed=21, cap=cap)[0]
        inf_v, _ = fiber_infimum(y, su21)
        duals = sphere_grid(64) @ annihilator_basis(y.homogeneous)
        duals = duals[cycle_in_domain_rows(duals, su21)]
        assert len(duals) > 4
        assert np.all(inf_v <= batch_values(duals, su21, "r_md") + 1e-9)


def test_fiber_infimum_makes_two_optimizer_calls(su21, count_calls):
    # one call scores the sphere grid and the radial dual, one the compass
    # probes of the incumbent at every step size
    from cyclelab import optimize

    calls = count_calls(optimize, "maximize_branch")
    y = seeded_domain_points(su21, 1, seed=21)[0]
    fiber_infimum(y, su21)
    assert len(calls) == 2
