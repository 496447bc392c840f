"""Metrics, the distinguished section, and the cell exhaustion."""

import numpy as np
import pytest

from cyclelab import (FlagPoint, HermitianMetric, InvalidInput,
                      cell_exhaustion, gu_invariant_metric,
                      highest_weight_section, make_schubert, section_norm_sq)
from cyclelab.errors import OnCellBoundary
from cyclelab.sections import exhaustion_values

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


def test_disk_section_vector(su11):
    s = make_schubert(su11)
    sec = highest_weight_section(s, su11)
    r = np.sqrt(0.5)
    assert np.allclose(sec.row, [r, -r])
    # vanishes exactly on the cell boundary point
    assert abs(sec.value(s.boundary_point)) < 1e-12
    assert section_norm_sq(sec, su11.base_point) == pytest.approx(0.5)


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

