"""Cycles, domain containment, the mu fiber, and the fiber infimum."""

import numpy as np
import pytest

from cyclelab import (FlagPoint, InvalidInput, act, cycle_from_dual,
                      cycle_from_point, cycle_in_domain, base_cycle, exp_map,
                      fiber_infimum, mu_fiber, translate_cycle)
from cyclelab.cycles import (annihilator_basis, cycle_points,
                             restricted_form_eigenvalues)
from cyclelab.errors import NotInDomain, NumericalDegeneracy
from cyclelab.exhaust import batch_values, seeded_domain_points


def test_base_cycle_data(su11, su21):
    c1 = base_cycle(su11)
    assert c1.dim == 0
    assert np.allclose(c1.dual, [1.0, 0.0])
    # the point cycle is the kernel of its dual: the base point
    assert c1.contains(su11.base_point)
    assert FlagPoint(su11.geometry.subject_row(c1)).is_close(su11.base_point)
    c2 = base_cycle(su21)
    assert c2.dim == 1
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
    eigs = restricted_form_eigenvalues(cycle_from_dual([1.0, 0.0, 1.0], su21),
                                       su21)
    assert np.min(np.abs(eigs)) < 1e-6


def test_translate_cycle_composition(su21):
    rng = np.random.default_rng(4)
    c = cycle_from_dual([0.3, -0.2j, 1.0], su21)
    xs = [np.einsum("d,dij->ij", rng.uniform(-0.4, 0.4, 8), su21.rf.g0_basis)
          for _ in range(2)]
    g, h = exp_map(xs[0]), exp_map(xs[1])
    lhs = translate_cycle(g, translate_cycle(h, c, su21), su21)
    rhs = translate_cycle(g @ h, c, su21)
    assert lhs.is_close(rhs)
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
    eigs = restricted_form_eigenvalues(base_cycle(su21), su21)
    assert np.allclose(eigs, [1.0, 1.0])


def test_mu_fiber_members_pass_through_point(su21):
    y = seeded_domain_points(su21, 1, seed=8)[0]
    fib = mu_fiber(y, su21)
    assert fib.basis.shape == (2, 3)
    duals = fib.member_duals(fib.sphere_grid(16))
    assert np.max(np.abs(duals @ y.homogeneous)) < 1e-12
    c = fib.member([0.6, 0.8j])
    assert c.contains(y)


def test_mu_fiber_disk_is_single_point(su11):
    fib = mu_fiber(su11.base_point, su11)
    # one coefficient: the fiber is the single cycle at the point
    assert fib.basis.shape == (1, 2)
    c = fib.member([1.0])
    assert c.contains(su11.base_point)
    assert c.is_close(cycle_from_point(su11.base_point, su11))


def test_mu_fiber_outside_domain(su21):
    with pytest.raises(NotInDomain):
        mu_fiber(FlagPoint(np.array([0.0, 0.0, 1.0])), su21)


def test_fiber_infimum_bounds_members(su21):
    # the infimum over cycles through y can exceed no member's value
    y = seeded_domain_points(su21, 1, seed=21)[0]
    inf_v, _ = fiber_infimum(y, su21)
    fib = mu_fiber(y, su21)
    checked = 0
    for ab in fib.sphere_grid(24):
        c = fib.member(ab)
        if not cycle_in_domain(c, su21):
            continue
        v = batch_values(c.dual, su21, "r_md")[0]
        assert inf_v <= v + 1e-9
        checked += 1
    assert checked > 4
