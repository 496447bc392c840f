"""Group core: memberships, involution, Iwasawa factors, K0 sampling."""

import numpy as np
import pytest

from cyclelab import (GroupElement, InvalidInput, cartan_involution, exp_map,
                      is_member, iwasawa_decompose, k0_sample)
from cyclelab.errors import NotInRealForm
from cyclelab.flags import act
from cyclelab.liecore import MAX_K0_SAMPLES, k0_sample_count

from oracles import TANH1


def test_group_element_rejects_bad_determinant():
    with pytest.raises(InvalidInput):
        GroupElement(np.diag([2.0, 1.0]))


def test_group_element_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        GroupElement(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_exp_map_at_zero_is_identity(su11):
    g = exp_map(np.zeros((2, 2)))
    assert g.distance_to(GroupElement(np.eye(2))) < 1e-14


def test_split_torus_element_memberships(su11):
    a1 = exp_map(su11.rf.a_basis[0])
    c, s = np.cosh(1.0), np.sinh(1.0)
    assert np.allclose(a1.matrix, [[c, s], [s, c]], atol=1e-14)
    assert is_member(a1, su11.rf, "G0")
    assert is_member(a1, su11.rf, "A0N0")
    assert not is_member(a1, su11.rf, "K0")
    assert not is_member(a1, su11.rf, "Gu")


def test_unknown_membership_tag(su11):
    with pytest.raises(InvalidInput):
        is_member(exp_map(np.zeros((2, 2))), su11.rf, "P0")


def test_disk_action_of_split_torus(su11):
    # exp(a_1) acts on the disk center as a Mobius map with value tanh(1)
    a1 = exp_map(su11.rf.a_basis[0])
    z = act(a1, su11.base_point)
    w = z.homogeneous[0] / z.homogeneous[1]
    assert abs(w - TANH1) < 1e-14


def test_cartan_involution_inverts_split_part(su11):
    a1 = exp_map(su11.rf.a_basis[0])
    theta = cartan_involution(a1, su11.rf)
    assert theta.distance_to(a1.inverse()) < 1e-12


def test_cartan_involution_is_adjoint_inverse(su21):
    # on the real form theta(g) = (g*)^{-1}
    rng = np.random.default_rng(3)
    coeff = rng.uniform(-0.7, 0.7, len(su21.rf.g0_basis))
    g = exp_map(np.einsum("d,dij->ij", coeff, su21.rf.g0_basis))
    assert is_member(g, su21.rf, "G0")
    theta = cartan_involution(g, su21.rf)
    want = np.linalg.inv(np.conj(g.matrix.T))
    assert np.max(np.abs(theta.matrix - want)) < 1e-12
    again = cartan_involution(theta, su21.rf)
    assert again.distance_to(g) < 1e-12


def test_cartan_involution_fixes_compact_factor(su21):
    for k in k0_sample(su21.rf, 2, seed=5, extras=6)[:8]:
        assert cartan_involution(k, su21.rf).distance_to(k) < 1e-12


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_iwasawa_roundtrip(name, su11, su21):
    sc = {"su11": su11, "su21": su21}[name]
    rf = sc.rf
    rng = np.random.default_rng(11)
    ks = k0_sample(rf, 3, seed=11, extras=12)
    worst = 0.0
    for k in ks:
        ta = rng.uniform(-1.5, 1.5, len(rf.a_basis))
        tn = rng.uniform(-1.5, 1.5, len(rf.n0_basis))
        a = exp_map(np.einsum("d,dij->ij", ta, np.asarray(rf.a_basis)))
        n = exp_map(np.einsum("d,dij->ij", tn, np.asarray(rf.n0_basis)))
        g = GroupElement(k.matrix @ a.matrix @ n.matrix)
        k2, a2, n2 = iwasawa_decompose(g, rf)
        assert is_member(k2, rf, "K0")
        assert is_member(GroupElement(a2.matrix @ n2.matrix), rf, "A0N0")
        worst = max(worst,
                    k2.distance_to(k), a2.distance_to(a), n2.distance_to(n),
                    float(np.max(np.abs(
                        k2.matrix @ a2.matrix @ n2.matrix - g.matrix))))
    assert worst < 1e-9


def test_iwasawa_rejects_outside_real_form(su11):
    # a plain rotation preserves the Euclidean form, not J = diag(1, -1)
    r = GroupElement(np.array([[np.cos(0.3), -np.sin(0.3)],
                               [np.sin(0.3), np.cos(0.3)]]))
    assert not is_member(r, su11.rf, "G0")
    with pytest.raises(NotInRealForm):
        iwasawa_decompose(r, su11.rf)


def test_k0_sample_circle_grid(su11):
    ks = k0_sample(su11.rf, 8, seed=0)
    assert len(ks) == 8
    assert ks[0].distance_to(GroupElement(np.eye(2))) < 1e-14
    for j, k in enumerate(ks):
        want = np.diag(np.exp([1j * np.pi * j / 8, -1j * np.pi * j / 8]))
        assert np.max(np.abs(k.matrix - want)) < 1e-13
        assert is_member(k, su11.rf, "K0")


def test_k0_sample_product_grid(su21):
    # the 2^4 grid on [-pi, pi)^4 already contains the zero row, so no
    # identity is prepended; resolution 3 lacks it and gets one
    ks = k0_sample(su21.rf, 2, seed=1, extras=5)
    assert len(ks) == 16 + 5
    ks3 = k0_sample(su21.rf, 3, seed=1, extras=0)
    assert len(ks3) == 1 + 81
    assert ks3[0].distance_to(GroupElement(np.eye(3))) < 1e-14
    for k in ks[:6] + ks3[:3]:
        assert is_member(k, su21.rf, "K0")


def test_k0_sample_grid_cap(su11, su21):
    with pytest.raises(InvalidInput):
        k0_sample(su21.rf, 25, seed=0)
    # one count for every caller: the grid plus the extras, default
    # resolution^2 for su21; the circle of su11 is capped too
    assert k0_sample_count(su21.rf, 19) == 19**4 + 19**2
    assert k0_sample_count(su11.rf, MAX_K0_SAMPLES) == MAX_K0_SAMPLES
    for rf, res, extras in ((su21.rf, 19, MAX_K0_SAMPLES - 19**4 + 1),
                            (su11.rf, MAX_K0_SAMPLES + 1, 0),
                            (su11.rf, 2, MAX_K0_SAMPLES - 1)):
        with pytest.raises(InvalidInput):
            k0_sample_count(rf, res, extras)
        with pytest.raises(InvalidInput):
            k0_sample(rf, res, seed=0, extras=extras)


def test_k0_sample_is_seed_deterministic(su21):
    a = k0_sample(su21.rf, 2, seed=9, extras=4)
    b = k0_sample(su21.rf, 2, seed=9, extras=4)
    assert all(x.distance_to(y) == 0.0 for x, y in zip(a, b))
