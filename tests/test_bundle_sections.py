"""Metrics, the distinguished section, and the cell exhaustion."""

import numpy as np
import pytest

from cyclelab import (FlagPoint, HermitianMetric, InvalidInput,
                      cell_exhaustion, get_scenario, gu_invariant_metric,
                      highest_weight_section, make_schubert)
from cyclelab.errors import NumericalDegeneracy, OnCellBoundary
from cyclelab.exhaust import batch_values, evaluate_grid
from cyclelab.sections import (SectionVector, _check_eigenvector, _restriction_frame,
                               exhaustion_values)

from oracles import LOG2, LOG10, LOG362, rs_disk


def test_metric_validation():
    with pytest.raises(InvalidInput):
        HermitianMetric(gram=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInput):
        HermitianMetric(gram=np.diag([1.0, -1.0]))


def test_metric_pairing_sesquilinear():
    m = HermitianMetric(gram=np.diag([2.0, 1.0]))
    v = np.array([1.0, 1.0j])
    w = np.array([0.5, -1.0])
    assert m.pairing(1j * v, w) == pytest.approx(-1j * m.pairing(v, w))
    assert m.pairing(v, 1j * w) == pytest.approx(1j * m.pairing(v, w))
    assert m.pairing(v, w) == pytest.approx(np.conj(m.pairing(w, v)))


def test_invariant_metric_is_standard(su11, su21):
    assert np.allclose(gu_invariant_metric(su11).gram, np.eye(2))
    assert np.allclose(gu_invariant_metric(su21).gram, np.eye(3))


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_eigenvector_check_rejects_a_perturbed_section(name):
    sc = get_scenario(name)
    s = make_schubert(sc)
    sec = highest_weight_section(s, sc)
    w = _restriction_frame(s, sc)
    _check_eigenvector(sec, s, w)
    # the restricted row picks up a second weight: no longer a B-eigenvector,
    # down to a weight of 1e-8 (EIGEN_RESIDUAL is 1e-9)
    for eps in (1e-3, 1e-6, 1e-8):
        bent = SectionVector(row=sec.row + eps * np.conj(w[:, 0]))
        with pytest.raises(NumericalDegeneracy):
            _check_eigenvector(bent, s, w)


def test_disk_section_vector(su11):
    s = make_schubert(su11)
    sec = highest_weight_section(s, su11)
    r = np.sqrt(0.5)
    assert np.allclose(sec.row, [r, -r])
    # vanishes exactly on the cell boundary point
    assert abs(sec.value(s.boundary_point)) < 1e-12
    # squared norm 1/2 at the base point
    assert exhaustion_values(sec, su11.base_point.homogeneous) == pytest.approx(LOG2)


def test_ball_section_vector(su21):
    s = make_schubert(su21)
    sec = highest_weight_section(s, su21)
    assert np.allclose(sec.row, [1.0, 0.0, 0.0])
    assert abs(sec.value(s.boundary_point)) < 1e-12
    assert abs(sec.value(s.cell_base)) == pytest.approx(1.0)


def test_cell_exhaustion_spot_values(su11):
    s = make_schubert(su11)
    assert cell_exhaustion(su11.base_point, s, su11) == pytest.approx(
        LOG2, abs=1e-12)
    z = FlagPoint(np.array([0.5, 1.0]))
    assert cell_exhaustion(z, s, su11) == pytest.approx(
        float(rs_disk(0.5)), abs=1e-12)
    z9 = FlagPoint(np.array([0.9, 1.0]))
    assert cell_exhaustion(z9, s, su11) == pytest.approx(LOG362, abs=1e-12)


def test_cell_exhaustion_diverges_on_boundary(su11):
    s = make_schubert(su11)
    with pytest.raises(OnCellBoundary):
        cell_exhaustion(s.boundary_point, s, su11)


def test_cell_exhaustion_requires_variety_point(su21):
    s = make_schubert(su21)
    with pytest.raises(InvalidInput):
        cell_exhaustion(FlagPoint(np.array([0.0, 1.0, 0.0])), s, su21)


def test_exhaustion_values_batch(su11):
    s = make_schubert(su11)
    sec = highest_weight_section(s, su11)
    ws = np.array([0.0, 0.5, 0.9])
    rows = np.stack([ws, np.ones_like(ws)], axis=1)
    vals = exhaustion_values(sec, rows)
    assert np.max(np.abs(vals - rs_disk(ws))) < 1e-12
    assert np.isclose(vals[1], LOG10)
    # the boundary row diverges
    b = s.boundary_point.homogeneous
    assert exhaustion_values(sec, b[None, :])[0] == np.inf


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_cell_exhaustion_is_the_kernel_at_cell_points(name):
    # seeded cell points conj . (c, 1, 0...) and points conj . (1, t, 0...)
    # closing in on the boundary point conj . e_0, past the pole rule
    sc = get_scenario(name)
    s = make_schubert(sc)
    sec = highest_weight_section(s, sc)
    rng = np.random.default_rng(3)
    coords = [(c, 1.0) for c in 2.0 * (rng.standard_normal(40)
                                       + 1j * rng.standard_normal(40))]
    coords += [(1.0, t) for t in 10.0 ** -np.linspace(10.0, 18.0, 33)] + [(1.0, 0.0)]
    poles = 0
    for a, b in coords:
        v = np.zeros(sc.n, complex)
        v[:2] = a, b
        z = FlagPoint(s.borel.matrix @ v)
        want = exhaustion_values(sec, z.homogeneous)
        if want == np.inf:
            poles += 1
            with pytest.raises(OnCellBoundary):
                cell_exhaustion(z, s, sc, section=sec)
        else:
            assert cell_exhaustion(z, s, sc, section=sec) == want
    assert 0 < poles < len(coords)


def test_ball_cell_exhaustion_far_out_in_the_chart(su21):
    # sigma . v is exact in the r_s chart of su21: the value stays
    # log(1 + |c|^2) up to |c| = 1e13 and more, and |c| >= 1e16 is the pole
    c, got, *_ = evaluate_grid(su21, "r_s", (-1e13, 1e13, 9), levi_mode="off")
    want = np.log1p(np.abs(c) ** 2)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, want))
    far = su21.geometry.chart_rows("r_s", np.array([1e16, -1e16j, 3e17]), su21.rf)
    assert np.all(batch_values(far, su21, "r_s") == np.inf)
