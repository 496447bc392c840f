"""Group core: memberships, involution, Iwasawa factors, K0 sampling."""

import numpy as np
import pytest
import scipy.linalg

from cyclelab import (GroupElement, InvalidInput, cartan_involution,
                      is_member, iwasawa_decompose)
from cyclelab.errors import NotInRealForm
from cyclelab.flags import act
from cyclelab.liecore import (MAX_K0_SAMPLES, a0_matrix, k0_coefficients, k0_matrices,
                              k0_sample_count, n0_matrix)
from cyclelab.optimize import get_engine
from cyclelab.verify import _group_elements

from conftest import group_expm
from oracles import TANH1, distance


def _k0_grid(rf, resolution, dropped=()):
    """The validated coarse K0 grid as GroupElements."""
    return [GroupElement(m) for m in k0_matrices(rf, k0_coefficients(rf, resolution, dropped))]


def test_group_element_rejects_bad_determinant():
    with pytest.raises(InvalidInput):
        GroupElement(np.diag([2.0, 1.0]))


def test_group_element_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        GroupElement(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_a0_n0_closed_forms_match_expm(name, su11, su21):
    # A0 is diagonal in the adapted frame and N0 nilpotent: both closed
    # forms agree with the general exponential to rounding, and give the
    # identity at zero
    rf = {"su11": su11, "su21": su21}[name].rf
    rng = np.random.default_rng(7)
    for _ in range(200):
        t = rng.uniform(-1.5, 1.5, len(rf.a_basis))
        u = rng.uniform(-1.5, 1.5, len(rf.n0_basis))
        for got, x in ((a0_matrix(rf, t), np.einsum("d,dij->ij", t, rf.a_basis)),
                       (n0_matrix(rf, u), np.einsum("d,dij->ij", u, rf.n0_basis))):
            want = scipy.linalg.expm(x)
            assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))
    assert np.max(np.abs(a0_matrix(rf, np.zeros(len(rf.a_basis))) - np.eye(rf.n))) < 1e-15
    assert np.array_equal(n0_matrix(rf, np.zeros(len(rf.n0_basis))), np.eye(rf.n))


def test_split_torus_element_memberships(su11):
    a1 = GroupElement(a0_matrix(su11.rf, [1.0]))
    c, s = np.cosh(1.0), np.sinh(1.0)
    assert np.allclose(a1.matrix, [[c, s], [s, c]], atol=1e-14)
    assert is_member(a1, su11.rf, "G0")
    assert is_member(a1, su11.rf, "A0N0")
    assert not is_member(a1, su11.rf, "K0")
    assert not is_member(a1, su11.rf, "Gu")


def test_unknown_membership_tag(su11):
    with pytest.raises(InvalidInput):
        is_member(GroupElement(np.eye(2)), su11.rf, "P0")


def test_disk_action_of_split_torus(su11):
    # exp(a_1) acts on the disk center as a Mobius map with value tanh(1)
    a1 = GroupElement(a0_matrix(su11.rf, [1.0]))
    z = act(a1, su11.base_point)
    w = z.homogeneous[0] / z.homogeneous[1]
    assert abs(w - TANH1) < 1e-14


def test_cartan_involution_inverts_split_part(su11):
    a1 = GroupElement(a0_matrix(su11.rf, [1.0]))
    theta = cartan_involution(a1, su11.rf)
    assert distance(theta, a1.inverse()) < 1e-12


def test_cartan_involution_is_adjoint_inverse(su21):
    # on the real form theta(g) = (g*)^{-1}
    rng = np.random.default_rng(3)
    coeff = rng.uniform(-0.7, 0.7, len(su21.rf.g0_basis))
    g = group_expm(np.einsum("d,dij->ij", coeff, su21.rf.g0_basis))
    assert is_member(g, su21.rf, "G0")
    theta = cartan_involution(g, su21.rf)
    want = np.linalg.inv(np.conj(g.matrix.T))
    assert np.max(np.abs(theta.matrix - want)) < 1e-12
    again = cartan_involution(theta, su21.rf)
    assert distance(again, g) < 1e-12


def test_cartan_involution_fixes_compact_factor(su21):
    for k in _k0_grid(su21.rf, 2)[:8]:
        assert distance(cartan_involution(k, su21.rf), k) < 1e-12


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_iwasawa_roundtrip(name, su11, su21):
    sc = {"su11": su11, "su21": su21}[name]
    rf = sc.rf
    rng = np.random.default_rng(11)
    ks = _k0_grid(rf, 3) + _group_elements(sc, 12, 11)
    worst = 0.0
    for k in ks:
        ta = rng.uniform(-1.5, 1.5, len(rf.a_basis))
        tn = rng.uniform(-1.5, 1.5, len(rf.n0_basis))
        a = GroupElement(a0_matrix(rf, ta))
        n = GroupElement(n0_matrix(rf, tn))
        g = GroupElement(k.matrix @ a.matrix @ n.matrix)
        k2, a2, n2 = iwasawa_decompose(g, rf)
        assert is_member(k2, rf, "K0")
        assert is_member(GroupElement(a2.matrix @ n2.matrix), rf, "A0N0")
        worst = max(worst,
                    distance(k2, k), distance(a2, a), distance(n2, n),
                    float(np.max(np.abs(
                        k2.matrix @ a2.matrix @ n2.matrix - g.matrix))))
    assert worst < 4e-12


def test_iwasawa_rejects_outside_real_form(su11):
    # a plain rotation preserves the Euclidean form, not J = diag(1, -1)
    r = GroupElement(np.array([[np.cos(0.3), -np.sin(0.3)],
                               [np.sin(0.3), np.cos(0.3)]]))
    assert not is_member(r, su11.rf, "G0")
    with pytest.raises(NotInRealForm):
        iwasawa_decompose(r, su11.rf)


def test_k0_sample_circle_grid(su11):
    ks = _k0_grid(su11.rf, 8)
    assert len(ks) == 8
    assert distance(ks[0], GroupElement(np.eye(2))) < 1e-14
    for j, k in enumerate(ks):
        want = np.diag(np.exp([1j * np.pi * j / 8, -1j * np.pi * j / 8]))
        assert np.max(np.abs(k.matrix - want)) < 1e-13
        assert is_member(k, su11.rf, "K0")


def test_k0_sample_product_grid(su21):
    # the 2^4 grid on [-pi, pi)^4 already contains the zero row, so no
    # identity is prepended; resolution 3 lacks it and gets one
    ks = _k0_grid(su21.rf, 2)
    assert len(ks) == 16
    ks3 = _k0_grid(su21.rf, 3)
    assert len(ks3) == 1 + 81
    assert distance(ks3[0], GroupElement(np.eye(3))) < 1e-14
    for k in ks[:6] + ks3[:3]:
        assert is_member(k, su21.rf, "K0")


def test_k0_sample_grid_cap(su11, su21):
    dropped = get_engine(su21).dropped
    with pytest.raises(InvalidInput):
        _k0_grid(su21.rf, 60, dropped)
    # one count for every caller: resolution^3 over su21's step basis, plus
    # the identity; the circle of su11 is capped too
    assert k0_sample_count(su21.rf, 19, dropped) == 19**3 + 1
    assert k0_sample_count(su11.rf, MAX_K0_SAMPLES, ()) == MAX_K0_SAMPLES
    # past the cap, or a resolution that is no integer in range
    for rf, res in ((su21.rf, 51), (su11.rf, MAX_K0_SAMPLES + 1),
                    (su21.rf, 0), (su21.rf, 2.5), (su21.rf, True)):
        with pytest.raises(InvalidInput):
            k0_sample_count(rf, res, dropped if rf is su21.rf else ())
        with pytest.raises(InvalidInput):
            _k0_grid(rf, res, dropped if rf is su21.rf else ())


def test_k0_sample_count_is_the_grid_length(su11, su21):
    # su21's grid spans the step basis: resolution^3 samples, and the
    # identity prepended where the product grid lacks it (odd resolutions);
    # su11's K0 is a circle with nothing to drop: resolution samples
    engine = get_engine(su21)
    for res in range(1, 13):
        assert (engine.sample_count(res) == res**3 + res % 2
                == k0_coefficients(su21.rf, res, engine.dropped).shape[0])
        assert get_engine(su11).sample_count(res) == res == get_engine(su11).coarse(res)[0].shape[0]
    assert engine.coarse(6)[0].shape[0] == 216 and engine.coarse(9)[0].shape[0] == 730
    # the CLI's cap: su21 resolution 50 is 125000 samples, 51 is 132652
    assert engine.sample_count(50) == 125000
    assert k0_coefficients(su21.rf, 50, engine.dropped).shape == (125000, 4)
    with pytest.raises(InvalidInput):
        engine.sample_count(51)


def test_k0_sample_is_seed_deterministic(su21):
    # the grid takes no seed; the seeded draw repeats for its seed only
    a, b = _k0_grid(su21.rf, 2), _k0_grid(su21.rf, 2)
    assert all(distance(x, y) == 0.0 for x, y in zip(a, b))
    a, b = _group_elements(su21, 4, 9), _group_elements(su21, 4, 9)
    assert all(distance(x, y) == 0.0 for x, y in zip(a, b))
    assert all(distance(x, y) > 0.0 for x, y in zip(a, _group_elements(su21, 4, 10)))
