"""Property tests of the hyperplane cycle model over both scenarios, and of
the projective gauge and affine charts beneath it."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from cyclelab import (FlagPoint, cycle_from_dual, cycle_from_point,  # noqa: E402
                      cycle_in_domain, get_scenario, in_domain,
                      translate_cycle)
from cyclelab.flags import SIGN_MARGIN, Chart, in_domain_rows  # noqa: E402
from cyclelab.cycles import cycle_points  # noqa: E402
from cyclelab.optimize import aligned_domain_values  # noqa: E402
from cyclelab.utils import GAUGE_REL_TOL, gauge_vector  # noqa: E402

from conftest import group_expm  # noqa: E402
from oracles import is_close, rd_ball  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
SCENARIOS = ("su11", "su21")
unit = st.floats(-1.0, 1.0)


def _cycle(sc, parts):
    dual = np.array(parts[:sc.n]) + 1j * np.array(parts[3:3 + sc.n])
    assume(np.linalg.norm(dual) > 0.1)
    return cycle_from_dual(dual, sc)


def _group_element(sc, coeffs):
    basis = np.asarray(sc.rf.g0_basis)
    return group_expm(np.einsum("d,dij->ij", np.array(coeffs[:len(basis)]), basis))


@pytest.mark.parametrize("name", SCENARIOS)
@PROPERTY
@given(parts=st.lists(unit, min_size=6, max_size=6),
       gc=st.lists(st.floats(-0.5, 0.5), min_size=8, max_size=8),
       hc=st.lists(st.floats(-0.5, 0.5), min_size=8, max_size=8))
def test_translation_composes(name, parts, gc, hc):
    sc = get_scenario(name)
    c = _cycle(sc, parts)
    g, h = _group_element(sc, gc), _group_element(sc, hc)
    lhs = translate_cycle(g, translate_cycle(h, c, sc), sc)
    assert is_close(lhs, translate_cycle(g @ h, c, sc), tol=1e-9)


@pytest.mark.parametrize("name", SCENARIOS)
@PROPERTY
@given(parts=st.lists(unit, min_size=6, max_size=6),
       count=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_cycle_points_lie_on_their_cycle(name, parts, count, seed):
    sc = get_scenario(name)
    c = _cycle(sc, parts)
    pts = cycle_points(c, count, seed)
    assert len(pts) == count
    assert all(c.contains(z) for z in pts)


@PROPERTY
@given(radius=st.floats(0.0, 2.0), angle=st.floats(0.0, 2 * np.pi))
def test_point_cycle_in_domain_is_point_in_domain(radius, angle):
    sc = get_scenario("su11")
    z = FlagPoint(np.array([radius * np.exp(1j * angle), 1.0]))
    # off the band where the margin test could go either way by rounding
    v = z.homogeneous
    form = np.real(np.conj(v) @ sc.rf.form_matrix @ v)
    assume(abs(sc.domain_sign * form - SIGN_MARGIN) > 1e-10)
    assert cycle_in_domain(cycle_from_point(z, sc), sc) == in_domain(z, sc)


@pytest.mark.parametrize("name", SCENARIOS)
@PROPERTY
@given(parts=st.lists(unit, min_size=6, max_size=6), decades=st.floats(0.5, 8.0),
       outside=st.booleans(), scale=st.floats(-3.0, 3.0))
def test_in_domain_rows_is_in_domain_near_the_boundary(name, parts, decades, outside,
                                                       scale):
    # a row whose unit form value sits 10^-decades (at least 1e-8) inside
    # or outside the margin, at any scale: the batched test on the raw row
    # decides as in_domain on its gauge-fixed FlagPoint
    sc = get_scenario(name)
    signs = np.real(np.diag(sc.rf.form_matrix)) * sc.domain_sign
    v = np.array(parts[:sc.n]) + 1j * np.array(parts[3:3 + sc.n])
    pos, neg = np.where(signs > 0, v, 0), np.where(signs < 0, v, 0)
    assume(np.linalg.norm(pos) > 0.1 and np.linalg.norm(neg) > 0.1)
    # sign * unit form = |a|^2 - |b|^2 with |a|^2 + |b|^2 = 1
    f = SIGN_MARGIN + (-1.0 if outside else 1.0) * 10.0 ** -decades
    row = (np.sqrt((1.0 + f) / 2.0) * pos / np.linalg.norm(pos)
           + np.sqrt((1.0 - f) / 2.0) * neg / np.linalg.norm(neg)) * 10.0 ** scale
    want = in_domain(FlagPoint(row), sc)
    assert want is not outside
    assert in_domain_rows(row[None, :], sc).tolist() == [want]
    assert in_domain_rows(np.stack([row, 2.0 * row]), sc).tolist() == [want, want]


@PROPERTY
@given(parts=st.lists(unit, min_size=4, max_size=4), angle=st.floats(0.0, 2 * np.pi),
       decades=st.floats(0.0, 12.0))
def test_line_alignment_closed_form(parts, angle, decades):
    # a point of D at boundary depth 1 - |v3| / |v12| = 10^-decades, and
    # its mirror image outside D
    sc = get_scenario("su21")
    v12 = np.array(parts[:2]) + 1j * np.array(parts[2:])
    assume(np.linalg.norm(v12) > 0.1)
    v12 = v12 / np.linalg.norm(v12)
    depth = 10.0 ** -decades
    v = np.concatenate([v12, [(1.0 - depth) * np.exp(1j * angle)]])
    v = v / np.linalg.norm(v)
    ks, aligned = sc.geometry.align(v[None, :])
    k = ks[0]
    # k = diag(u, 1) with u in SU(2)
    assert np.max(np.abs(k @ np.conj(k.T) - np.eye(3))) <= 1e-14
    assert abs(np.linalg.det(k) - 1.0) <= 1e-14
    assert np.max(np.abs(k[:2, 2])) == np.max(np.abs(k[2, :2])) == 0.0
    assert abs(k[2, 2] - 1.0) <= 1e-14
    ell_s = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
    assert abs(ell_s @ (k @ v)) <= 1e-15
    assert np.max(np.abs(k @ v - aligned[0])) <= 1e-15
    vals, _ = aligned_domain_values(v[None, :], sc)
    assert abs(vals[0] - rd_ball(v)) <= 10 * 1e-16 / depth
    outside = np.concatenate([v12, [(1.0 + depth) * np.exp(1j * angle)]])
    assert aligned_domain_values(outside[None, :], sc)[0][0] == np.inf


@PROPERTY
@given(parts=st.lists(st.one_of(st.just(0.0), unit, unit.map(lambda x: 1e-12 * x)),
                      min_size=6, max_size=6),
       scale=st.floats(-6.0, 6.0), angle=st.floats(0.0, 2 * np.pi))
def test_gauge_vector_is_unique(parts, scale, angle):
    # v and c e^{i theta} v (c > 0) gauge to the same unit array, whose
    # first coordinate above GAUGE_REL_TOL of the largest is real positive
    v = np.array(parts[:3]) + 1j * np.array(parts[3:])
    mags = np.abs(v)
    assume(mags.max() > 0.1)
    # off the band where rounding could move a coordinate across the threshold
    ratio = mags / mags.max()
    assume(not np.any((ratio > 0.5 * GAUGE_REL_TOL) & (ratio < 2.0 * GAUGE_REL_TOL)))
    g = gauge_vector(v)
    assert abs(np.linalg.norm(g) - 1.0) <= 1e-15
    lead = g[np.argmax(ratio > GAUGE_REL_TOL)]
    assert lead.real > 0.0 and abs(lead.imag) <= 1e-15
    moved = gauge_vector(10.0 ** scale * np.exp(1j * angle) * v)
    assert np.max(np.abs(moved - g)) <= 1e-14


@PROPERTY
@given(parts=st.lists(unit, min_size=6, max_size=6),
       coords=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
       n=st.integers(2, 3))
def test_chart_coords_invert_point(parts, coords, n):
    # coordinates c of a chart at any centre: coords(point(c)) gives c back
    v = np.array(parts[:n]) + 1j * np.array(parts[3:3 + n])
    assume(np.linalg.norm(v) > 0.1)
    ch = Chart(FlagPoint(v))
    c = np.array(coords[:n - 1]) + 1j * np.array(coords[2:n + 1])
    back = ch.coords(ch.point(c))
    assert np.max(np.abs(back - c)) <= 1e-13 * (1.0 + np.max(np.abs(c)))
    assert is_close(ch.point(np.zeros(n - 1)), FlagPoint(v))
