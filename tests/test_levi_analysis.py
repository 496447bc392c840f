"""Finite-difference Levi forms and pseudoconvexity certificates."""

import numpy as np
import pytest

from cyclelab import (FlagPoint, get_scenario, levi_form_fd,
                      q_pseudoconvex_certificate, seeded_domain_points)
from cyclelab.errors import NotInDomain, StencilFailure
from cyclelab.flags import in_domain, in_domain_rows
from cyclelab.levi import eig_signature, levi_refinement_ratio

from oracles import fubini_study_levi


def _fs(zeta):
    zeta = np.atleast_2d(zeta)
    return np.log1p(np.sum(np.abs(zeta) ** 2, axis=1))


def test_levi_fd_matches_exact_dim1():
    z0 = np.array([0.3 + 0.1j])
    lev = levi_form_fd(_fs, z0, h=1e-3)
    assert np.max(np.abs(lev - fubini_study_levi(z0))) < 1e-8


def test_levi_fd_matches_exact_dim2():
    z0 = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    lev = levi_form_fd(_fs, z0, h=1e-3)
    want = fubini_study_levi(z0)
    assert lev.shape == (2, 2)
    assert np.max(np.abs(lev - np.conj(lev.T))) == 0.0
    assert np.max(np.abs(lev - want)) < 1e-8


def test_levi_fd_stencil_rejects_nonfinite():
    def bad(zeta):
        zeta = np.atleast_2d(zeta)
        out = np.sum(np.abs(zeta) ** 2, axis=1)
        out[np.abs(zeta[:, 0]) > 0.001] = np.inf
        return out

    with pytest.raises(StencilFailure):
        levi_form_fd(bad, np.array([0.0 + 0.0j]), h=1e-2)


def test_refinement_ratio_second_order():
    ratio = levi_refinement_ratio(_fs, np.array([0.3 + 0.1j]), h=0.05)
    assert 3.5 <= ratio <= 4.5


def test_refinement_ratio_degenerate_function():
    def lin(zeta):
        return np.atleast_2d(zeta)[:, 0].real

    with pytest.raises(StencilFailure):
        levi_refinement_ratio(lin, np.array([0.0 + 0.0j]), h=0.05)


def test_eig_signature_banding():
    lev = np.diag([2.0, -1.0, 1e-9])
    assert eig_signature(lev, zero_band=1e-6) == (1, 1, 1)
    assert eig_signature(lev, zero_band=1e-12) == (2, 0, 1)


def test_certificate_disk(su11):
    y = seeded_domain_points(su11, 3, seed=6)[2]
    rep = q_pseudoconvex_certificate(y, su11, seed=6)
    assert rep.q_convex_ok
    assert rep.required_pos == 1
    assert rep.n_pos == 1
    # a fixed branch of the supremum touches exactly at the point
    assert rep.touch_gap <= 1e-10
    assert rep.probe_gap_min >= -1e-9
    assert rep.padding == 0.0
    assert rep.notes["soundness_gap_min"] >= -1e-8
    assert rep.levi_eigenvalues.shape == (1,)


def test_certificate_ball(su21):
    y = seeded_domain_points(su21, 2, seed=15)[0]
    rep = q_pseudoconvex_certificate(y, su21, seed=15)
    assert rep.q_convex_ok
    assert rep.required_pos == su21.ambient_dim - su21.cycle_dim
    assert rep.n_pos >= 1
    assert rep.touch_gap <= 1e-10
    assert rep.probe_gap_min >= -1e-9
    # off the slice the minorant needs a strict transverse drop
    assert rep.padding > 0.0
    assert rep.notes["transverse_decay"] > 0.0
    assert rep.notes["soundness_gap_min"] >= -1e-8
    assert rep.levi_eigenvalues.shape == (2,)
    assert rep.slice_coord is not None


def test_certificate_aligns_each_probe_set_once(su21, count_calls):
    # one alignment per probe set feeds both the family feasibility check
    # and the gaps: the probes, the touch point, the soundness probes and
    # the two Levi stencils, five calls for an attempt that does not shrink
    # (six when the gaps aligned the probes a second time)
    from cyclelab import scenarios

    calls = count_calls(scenarios, "aligned_values_from")
    y = seeded_domain_points(su21, 2, seed=15)[0]
    rep = q_pseudoconvex_certificate(y, su21, seed=15)
    assert rep.notes["shrinks"] == 0
    assert len(calls) == 5
    # the record of the two-call path
    assert rep.value == pytest.approx(1.8293926655506612, rel=1e-12)
    assert rep.padding == pytest.approx(2.6141059239082054, rel=1e-12)
    assert rep.touch_gap <= 1e-13
    assert rep.probe_gap_min == pytest.approx(2.8119023445238867e-06, abs=1e-13)
    assert rep.notes["soundness_gap_min"] == pytest.approx(6.85785398646388e-06,
                                                           abs=1e-13)
    assert rep.levi_eigenvalues == pytest.approx(
        [-8.291817394189, 0.6081207376981757], rel=1e-9)


def test_certificate_value_matches_exhaustion(su21):
    from cyclelab.exhaust import batch_values

    y = seeded_domain_points(su21, 1, seed=33)[0]
    rep = q_pseudoconvex_certificate(y, su21, seed=33)
    assert rep.value == pytest.approx(batch_values(y.homogeneous, su21, "r_d")[0],
                                      abs=1e-9)


def test_certificate_rejects_boundary(su11, su21):
    with pytest.raises(NotInDomain):
        q_pseudoconvex_certificate(FlagPoint(np.array([1.0, 1.0])), su11)
    with pytest.raises(NotInDomain):
        q_pseudoconvex_certificate(FlagPoint(np.array([0.0, 0.0, 1.0])), su21)


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_in_domain_rows_matches_flag_points(name, su11, su21):
    sc = {"su11": su11, "su21": su21}[name]
    rng = np.random.default_rng(12)
    seeded = 3.0 * (rng.standard_normal((200, sc.n))
                    + 1j * rng.standard_normal((200, sc.n)))
    # on the boundary |v_1|^2 + ... = |v_n|^2 exactly, and just inside it
    edge = {2: [[1.0, 1.0], [1j, -1.0], [-2.0, 2j], [0.999, 1.0]],
            3: [[1.0, 0.0, 1.0], [0.0, 1j, -1.0], [0.0, 0.0, 1.0],
                [1.0, 0.0, 0.2], [0.5, 0.5j, -0.5], [1.0, 0.0, 0.999]]}[sc.n]
    rows = np.concatenate([seeded, np.array(edge, complex)])
    want = [in_domain(FlagPoint(r), sc) for r in rows]
    got = in_domain_rows(rows, sc)
    assert got.dtype == bool and got.tolist() == want
    assert 0 < sum(want) < len(want)
