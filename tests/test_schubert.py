"""Schubert data, slices, the incidence map, and its equivariance."""

import numpy as np
import pytest

from cyclelab import (FlagPoint, GroupElement, SliceDatum, base_cycle,
                      cycle_from_dual, cycle_from_point, intersect_base_cycle,
                      intersect_slice, k0_sample, make_schubert, schubert_slice,
                      seeded_cycles, translate_cycle, translate_schubert,
                      translate_slice)
from cyclelab.errors import (IncidenceMiss, IntersectionFailure, InvalidSlicePoint,
                             UniquenessViolation)
from cyclelab.flags import act, in_domain
from cyclelab.optimize import get_engine
from cyclelab.schubert import meets_cell_boundary, schubert_from_borel


def test_schubert_datum_disk(su11):
    s = make_schubert(su11)
    # S = P^1: no dual cuts it out
    assert s.duals.shape == (0, 2)
    assert s.dim_S == 1
    r = np.sqrt(0.5)
    assert np.allclose(s.boundary_point.homogeneous, [r, r])
    assert np.allclose(s.cell_base.homogeneous, [r, -r])
    assert s.on_variety(FlagPoint(np.array([0.3, 1.0])))


def test_schubert_datum_ball(su21):
    s = make_schubert(su21)
    r = np.sqrt(0.5)
    # one dual cuts S out: the unique B-fixed line of duals, gauge fixed
    assert s.duals.shape == (1, 3)
    assert np.allclose(s.duals[0], [0.0, r, -r])
    assert np.allclose(s.boundary_point.homogeneous, [0.0, r, r])
    assert s.cell_base.is_close(FlagPoint(np.array([1.0, 0.0, 0.0])))
    assert s.on_variety(su21.base_point)
    assert not s.on_variety(FlagPoint(np.array([0.0, 1.0, 0.0])))


def test_base_intersection_is_the_base_point(su11, su21):
    for sc in (su11, su21):
        s = make_schubert(sc)
        pts = intersect_base_cycle(s, sc)
        assert len(pts) == 1
        assert pts[0].is_close(sc.base_point)
        assert in_domain(pts[0], sc)


def test_slice_base_point_is_validated(su21):
    s = make_schubert(su21)
    with pytest.raises(InvalidSlicePoint):
        schubert_slice(s, FlagPoint(np.array([1.0, 0.1, 0.0])), su21)


def test_slice_cell_coordinates(su21):
    s = make_schubert(su21)
    z_j = intersect_base_cycle(s, su21)[0]
    sl = schubert_slice(s, z_j, su21)
    c = 0.3 - 0.2j
    z = sl.cell_point(c)
    assert s.on_variety(z)
    assert sl.cell_coord(z) == pytest.approx(c, abs=1e-12)
    assert sl.cell_coord(s.boundary_point) is None


def test_an_orbit_stays_on_slice(su21):
    s = make_schubert(su21)
    z_j = intersect_base_cycle(s, su21)[0]
    sl = schubert_slice(s, z_j, su21)
    rng = np.random.default_rng(6)
    for _ in range(10):
        coords = rng.uniform(-1.2, 1.2, 4)
        z = sl.an_point(coords)
        assert s.on_variety(z)
        assert in_domain(z, su21)
        assert sl.path_contains(z)


def test_disk_slice_fills_the_disk(su11):
    # Sigma is the component of S cap D through the base point; with
    # S = P^1 that component is all of D, so A0 N0 orbit points cover
    # every disk point and the path test accepts exactly the disk
    s = make_schubert(su11)
    sl = schubert_slice(s, su11.base_point, su11)
    ts = np.linspace(-2.5, 2.5, 61)
    us = np.linspace(-8.0, 8.0, 61)
    ws = []
    for t in ts:
        for u in us:
            v = sl.an_point([t, u]).homogeneous
            assert in_domain(FlagPoint(v), su11)
            ws.append(v[0] / v[1])
    ws = np.asarray(ws)
    targets = [r * np.exp(2j * np.pi * a) for r in (0.0, 0.45, 0.9)
               for a in np.linspace(0, 1, 12, endpoint=False)]
    for tgt in targets:
        assert np.min(np.abs(ws - tgt)) < 0.05
        assert sl.path_contains(FlagPoint(np.array([tgt, 1.0])))
    assert not sl.path_contains(FlagPoint(np.array([1.2, 1.0])))


def test_point_cycle_intersection(su11):
    s = make_schubert(su11)
    sl = schubert_slice(s, su11.base_point, su11)
    z = FlagPoint(np.array([0.2 + 0.1j, 1.0]))
    c = cycle_from_point(z, su11)
    rec = intersect_slice(sl, c)
    assert rec.residual == 0.0
    # the point cycle meets the slice in its own point, the kernel of its dual
    assert rec.point.is_close(z)
    assert c.contains(rec.point)


def test_line_cycle_intersection_unique(su21):
    s = make_schubert(su21)
    sl = schubert_slice(s, intersect_base_cycle(s, su21)[0], su21)
    c = cycle_from_dual([0.4, 0.3j, 1.0], su21)
    rec = intersect_slice(sl, c)
    assert rec.residual < 1e-10
    assert abs(c.dual @ rec.point.homogeneous) < 1e-10
    assert s.on_variety(rec.point)
    assert sl.path_contains(rec.point)


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_incidence_point_is_the_engine_kernel(name, su11, su21):
    # C cap Sigma is the point of the slice vector the optimizer's branch
    # values use: the same bits for point cycles, within 1e-15 for lines
    sc = {"su11": su11, "su21": su21}[name]
    geo, engine = sc.geometry, get_engine(sc)
    sl = schubert_slice(engine.schubert, intersect_base_cycle(engine.schubert, sc)[0], sc)
    tol = 0.0 if name == "su11" else 1e-15
    for c in seeded_cycles(sc, 50, seed=4):
        kernel = FlagPoint(geo.slice_vectors(geo.subject_row(c), engine.duals))
        got = intersect_slice(sl, c).point.homogeneous
        assert np.max(np.abs(got - kernel.homogeneous)) <= tol


def test_cycle_sharing_the_schubert_line_is_refused(su21):
    # the identity Borel gives S = P(ker (0, 0, 1)), the base cycle itself:
    # C cap S is a whole line, not one point
    s = schubert_from_borel(GroupElement(np.eye(3)), su21)
    with pytest.raises(IntersectionFailure):
        intersect_base_cycle(s, su21)
    sl = SliceDatum(parent=s, base_point=su21.base_point, sc=su21)
    with pytest.raises(UniquenessViolation):
        intersect_slice(sl, base_cycle(su21))


def test_intersection_rejects_outside_cycle(su21):
    s = make_schubert(su21)
    sl = schubert_slice(s, intersect_base_cycle(s, su21)[0], su21)
    with pytest.raises(IncidenceMiss):
        intersect_slice(sl, cycle_from_dual([1.4, 0.0, 1.0], su21))


def test_incidence_equivariance(su21):
    # k(C cap Sigma) = (k C) cap (k Sigma) for compact translations
    s = make_schubert(su21)
    sl = schubert_slice(s, intersect_base_cycle(s, su21)[0], su21)
    c = cycle_from_dual([0.2, -0.5j, 1.0], su21)
    base_pt = intersect_slice(sl, c).point
    for k in k0_sample(su21.rf, 2, seed=3, extras=4)[-4:]:
        moved = intersect_slice(translate_slice(k, sl),
                                translate_cycle(k, c, su21))
        assert moved.point.is_close(act(k, base_pt), tol=1e-10)


def test_translated_borel_matches_translated_datum(su21):
    # building from the conjugated Borel and translating the datum agree
    s = make_schubert(su21)
    for k in k0_sample(su21.rf, 2, seed=14, extras=3)[-3:]:
        direct = schubert_from_borel(k @ s.borel, su21)
        moved = translate_schubert(k, s, su21)
        assert np.max(np.abs(direct.duals - moved.duals)) < 1e-10
        assert direct.cell_base.is_close(moved.cell_base, tol=1e-10)
        assert direct.boundary_point.is_close(moved.boundary_point, tol=1e-10)


def test_meets_cell_boundary(su11, su21):
    s1 = make_schubert(su11)
    assert meets_cell_boundary(cycle_from_point(s1.boundary_point, su11), s1)
    assert not meets_cell_boundary(base_cycle(su11), s1)
    s2 = make_schubert(su21)
    assert not meets_cell_boundary(base_cycle(su21), s2)
    # a line whose dual kills the boundary point passes through it
    grazing = cycle_from_dual(s2.duals[0], su21)
    assert meets_cell_boundary(grazing, s2)
