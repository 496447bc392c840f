"""Property tests of the hyperplane cycle model over both scenarios."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from cyclelab import (FlagPoint, cycle_from_dual, cycle_from_point,  # noqa: E402
                      cycle_in_domain, exp_map, get_scenario, in_domain,
                      translate_cycle)
from cyclelab.cycles import cycle_points  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
SCENARIOS = ("su11", "su21")
unit = st.floats(-1.0, 1.0)


def _cycle(sc, parts):
    dual = np.array(parts[:sc.n]) + 1j * np.array(parts[3:3 + sc.n])
    assume(np.linalg.norm(dual) > 0.1)
    return cycle_from_dual(dual, sc)


def _group_element(sc, coeffs):
    basis = np.asarray(sc.rf.g0_basis)
    return exp_map(np.einsum("d,dij->ij", np.array(coeffs[:len(basis)]), basis))


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
    assert lhs.is_close(translate_cycle(g @ h, c, sc), tol=1e-9)


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
    assume(abs(sc.domain_sign * sc.form_value(z.homogeneous) - sc.tol.sign_margin) > 1e-10)
    assert cycle_in_domain(cycle_from_point(z, sc), sc) == in_domain(z, sc)
