"""Flag points, gauge fixing, domain membership, charts, open orbits."""

import numpy as np
import pytest

from cyclelab import FlagPoint, act, in_domain
from cyclelab.errors import NumericalDegeneracy
from cyclelab.flags import Chart, orbit_is_open

from conftest import group_expm
from oracles import chart_lift, is_close


def test_gauge_fixed_representative():
    z = FlagPoint(np.array([0.0, 2.0j]))
    assert np.allclose(z.homogeneous, [0.0, 1.0])
    z2 = FlagPoint(np.array([-3.0, 3.0]))
    # unit norm, leading coordinate rotated to the positive real axis
    assert np.allclose(z2.homogeneous, [np.sqrt(0.5), -np.sqrt(0.5)])


def test_gauge_rejects_zero_vector():
    with pytest.raises(NumericalDegeneracy):
        FlagPoint(np.zeros(2))


def test_points_compare_by_representative():
    a = FlagPoint(np.array([1.0, 1.0j]))
    b = FlagPoint(np.array([-2.0j, 2.0]))
    assert is_close(a, b)
    assert not is_close(a, FlagPoint(np.array([1.0, 0.0])))


def test_domain_membership_disk(su11):
    assert in_domain(FlagPoint(np.array([0.5, 1.0])), su11)
    assert in_domain(su11.base_point, su11)
    assert not in_domain(FlagPoint(np.array([1.0, 1.0])), su11)
    assert not in_domain(FlagPoint(np.array([2.0, 1.0])), su11)


def test_domain_membership_ball(su21):
    assert in_domain(su21.base_point, su21)
    assert in_domain(FlagPoint(np.array([1.0, 0.3j, 0.5])), su21)
    assert not in_domain(FlagPoint(np.array([0.0, 0.0, 1.0])), su21)
    assert not in_domain(FlagPoint(np.array([1.0, 0.0, 1.0])), su21)


def test_action_matches_matrix(su21):
    rng = np.random.default_rng(2)
    coeff = rng.uniform(-0.5, 0.5, len(su21.rf.g0_basis))
    g = group_expm(np.einsum("d,dij->ij", coeff, su21.rf.g0_basis))
    z = FlagPoint(np.array([1.0, 0.2, 0.1j]))
    w = act(g, z)
    assert is_close(w, FlagPoint(g.matrix @ z.homogeneous))


def test_open_orbit_detection(su11, su21):
    assert orbit_is_open(su11.base_point, su11)
    assert orbit_is_open(su21.base_point, su21)
    # null lines sit on the orbit boundary
    assert not orbit_is_open(FlagPoint(np.array([1.0, 1.0])), su11)
    assert not orbit_is_open(FlagPoint(np.array([1.0, 0.0, 1.0])), su21)


def test_chart_round_trip(su21):
    z = FlagPoint(np.array([1.0, 0.2 - 0.1j, 0.3j]))
    ch = Chart(z)
    assert ch.dim == 2
    c = np.array([0.05 + 0.02j, -0.01j])
    back = ch.coords(ch.point(c))
    assert np.max(np.abs(back - c)) < 1e-12
    assert is_close(ch.point(np.zeros(2)), z)


def test_chart_lift_batch(su11):
    ch = Chart(su11.base_point)
    cs = np.array([[0.1], [0.2j], [-0.3]])
    lifted = chart_lift(ch, cs)
    assert lifted.shape == (3, 2)
    for row, c in zip(lifted, cs[:, 0]):
        assert is_close(FlagPoint(row), ch.point([c]))


def test_chart_coords_reject_off_chart(su11):
    ch = Chart(su11.base_point)
    with pytest.raises(NumericalDegeneracy):
        ch.coords(FlagPoint(np.array([1.0, 0.0])))
