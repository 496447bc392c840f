"""Finite-difference Levi forms and pseudoconvexity certificates."""

import dataclasses

import numpy as np
import pytest

from cyclelab import FlagPoint, certificates, levi_form_fd, seeded_domain_points
from cyclelab.errors import CycleLabError, NotInDomain, OptimizerStall, StencilFailure
from cyclelab.flags import in_domain, in_domain_rows
from cyclelab.levi import GROUP, eig_signature, levi_refinement_ratio

from oracles import fubini_study_levi


def _single(y, sc, seed):
    """The certificate of y alone: its report or its error."""
    return next(certificates([y], sc, seed=seed))


def _fs(zeta):
    zeta = np.atleast_2d(zeta)
    return np.log1p(np.sum(np.abs(zeta) ** 2, axis=1))


def test_levi_fd_matches_exact_dim1():
    z0 = np.array([0.3 + 0.1j])
    lev = levi_form_fd(_fs, z0[None, :], h=1e-3)[0]
    assert np.max(np.abs(lev - fubini_study_levi(z0))) < 1e-8


def test_levi_fd_matches_exact_dim2():
    z0 = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    lev = levi_form_fd(_fs, z0[None, :], h=1e-3)[0]
    want = fubini_study_levi(z0)
    assert lev.shape == (2, 2)
    assert np.max(np.abs(lev - np.conj(lev.T))) == 0.0
    assert np.max(np.abs(lev - want)) < 1e-8


def _skewed(zeta):
    # not unitarily invariant, so every entry of the form differs
    return _fs(zeta) + np.real(zeta[:, 0] * np.conj(zeta[:, -1]) ** 2) \
        + np.abs(zeta[:, 0]) ** 4


def _levi_reference(fn, z0, h):
    # the single-centre loop the batched stencil replaced: the same
    # points, sums and differences, one fn call per centre and step size
    d = z0.shape[0]
    steps = (1, -1, 1j, -1j)

    def raw(step):
        pts, slots = [z0], {}
        for a in range(d):
            for u in steps:
                slots[a, u] = len(pts)
                pts.append(z0 + u * step * np.eye(d)[a])
        for a in range(d):
            for b in range(a + 1, d):
                for ua in steps:
                    for ub in steps:
                        slots[a, b, ua, ub] = len(pts)
                        pts.append(z0 + ua * step * np.eye(d)[a]
                                   + ub * step * np.eye(d)[b])
        vals = fn(np.stack(pts))
        lev = np.zeros((d, d), complex)
        for a in range(d):
            s = sum(vals[slots[a, u]] for u in steps)
            lev[a, a] = (s - 4 * vals[0]) / (4 * step**2)

        def d2(a, b, ua, ub):
            return (vals[slots[a, b, ua, ub]] - vals[slots[a, b, ua, -ub]]
                    - vals[slots[a, b, -ua, ub]]
                    + vals[slots[a, b, -ua, -ub]]) / (4 * step**2)

        for a in range(d):
            for b in range(a + 1, d):
                real = d2(a, b, 1, 1) + d2(a, b, 1j, 1j)
                imag = d2(a, b, 1, 1j) - d2(a, b, 1j, 1)
                lev[a, b] = 0.25 * (real + 1j * imag)
                lev[b, a] = np.conj(lev[a, b])
        return lev

    lev = (4.0 * raw(h / 2) - raw(h)) / 3.0
    return 0.5 * (lev + np.conj(lev.T))


@pytest.mark.parametrize("dim", [1, 2])
def test_levi_fd_batch_matches_single_centres(dim):
    rng = np.random.default_rng(dim)
    z0 = 0.5 * (rng.standard_normal((7, dim)) + 1j * rng.standard_normal((7, dim)))
    calls = []

    def fn(zeta):
        calls.append(len(zeta))
        return _skewed(zeta)

    lev = levi_form_fd(fn, z0, h=1e-2)
    # one call per step size over the stencil rows of every centre; the
    # centre rows go in the first call only
    assert calls == [7 * (1 + 4 * dim + 8 * dim * (dim - 1)),
                     7 * (4 * dim + 8 * dim * (dim - 1))]
    assert lev.shape == (7, dim, dim)
    single = np.concatenate([levi_form_fd(_skewed, z0[i:i + 1], h=1e-2)
                             for i in range(7)])
    assert np.array_equal(lev, single)
    assert np.array_equal(lev, [_levi_reference(_skewed, z, 1e-2) for z in z0])
    assert np.all(np.isfinite(lev))


def test_levi_fd_nonfinite_stencil_marks_its_centre():
    def bad(zeta):
        out = _fs(zeta)
        out[np.abs(zeta[:, 0] - 1.0) < 0.005] = np.inf
        return out

    # only the +h steps in the first coordinate of the middle centre's
    # stencil (h = 1e-2) reach the bad disc; its whole form is NaN
    z0 = np.array([[0.0, 0.1], [0.986, 0.2j], [0.3 + 0.1j, -0.2]])
    lev = levi_form_fd(bad, z0, h=1e-2)
    assert np.all(np.isnan(lev[1]))
    good = [0, 2]
    assert np.array_equal(lev[good], levi_form_fd(_fs, z0[good], h=1e-2))
    assert np.all(np.isfinite(lev[good]))


def test_refinement_ratio_second_order():
    ratio = levi_refinement_ratio(_fs, np.array([0.3 + 0.1j]), h=0.05)
    assert 3.5 <= ratio <= 4.5


def test_refinement_ratio_degenerate_function():
    def lin(zeta):
        return np.atleast_2d(zeta)[:, 0].real

    with pytest.raises(StencilFailure):
        levi_refinement_ratio(lin, np.array([0.0 + 0.0j]), h=0.05)


def test_eig_signature_banding(monkeypatch):
    from cyclelab import levi

    lev = np.diag([2.0, -1.0, 1e-9])
    assert eig_signature(lev) == (1, 1, 1)
    # a stack gives the counts of each form
    pos, zero, neg = eig_signature(np.stack([lev, np.eye(3)]))
    assert pos.tolist() == [1, 3] and zero.tolist() == [1, 0] and neg.tolist() == [1, 0]
    monkeypatch.setattr(levi, "ZERO_BAND", 1e-12)
    assert eig_signature(lev) == (2, 0, 1)


def test_certificate_disk(su11):
    y = seeded_domain_points(su11, 3, seed=6)[2]
    rep = _single(y, su11, 6)
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
    rep = _single(y, su21, 15)
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
    # one closed-form alignment per probe set feeds both the family
    # feasibility check and the gaps.  An attempt that does not shrink
    # aligns six times: the exhaustion at y, the transverse probes, the
    # probes and the soundness probes, and the family at the two Levi
    # stencils; the family at the probes, the soundness probes and y
    # reuses the exhaustion's values
    from cyclelab import scenarios

    calls = count_calls(scenarios.LineCycles, "align")
    y = seeded_domain_points(su21, 2, seed=15)[0]
    rep = _single(y, su21, 15)
    assert rep.notes["shrinks"] == 0
    assert len(calls) == 6
    # the record of the closed-form path
    assert rep.value == pytest.approx(1.829392665550663, rel=1e-12)
    assert rep.padding == pytest.approx(2.614105923915977, rel=1e-12)
    assert rep.touch_gap <= 1e-13
    assert rep.probe_gap_min == pytest.approx(9.498852500122723e-07, abs=1e-13)
    assert rep.notes["soundness_gap_min"] == pytest.approx(1.5410872242105356e-05,
                                                           abs=1e-13)
    assert rep.levi_eigenvalues == pytest.approx(
        [-8.291817388640936, 0.6081207377752429], rel=1e-9)
    # the points of a group share each of those calls
    calls.clear()
    reps = list(certificates(seeded_domain_points(su21, 6, seed=15), su21, seed=15))
    assert [r.notes["shrinks"] for r in reps] == [0] * 6
    assert len(calls) == 6


def test_certificate_group_maximizes_each_probe_set_once(su11, count_calls):
    # su11's minorant is a frozen branch: only the value at y, the probes
    # and the soundness probes run the optimizer, once for the group
    from cyclelab import optimize

    calls = count_calls(optimize, "maximize_branch")
    reps = list(certificates(seeded_domain_points(su11, 6, seed=15), su11, seed=15))
    assert [r.notes["shrinks"] for r in reps] == [0] * 6
    assert len(calls) == 3


def _report_fields(rep):
    """Every field of a report, or the type and message of an error, with
    arrays and floats as bytes so that equal means bit for bit."""
    if isinstance(rep, CycleLabError):
        return type(rep).__name__, str(rep)
    fields = {}
    for f in dataclasses.fields(rep):
        val = getattr(rep, f.name)
        fields[f.name] = (repr(val) if f.name == "notes" or val is None
                          else np.asarray(val).tobytes())
    return fields


# su11 at cap 0.999 and seed 6 has points that shrink (the ninth twice over)
@pytest.mark.parametrize("name,cap,seed", [("su11", 0.999, 6), ("su21", 0.99, 3)])
def test_certificates_equal_single_point_calls(name, cap, seed, su11, su21):
    sc = {"su11": su11, "su21": su21}[name]
    pts = seeded_domain_points(sc, GROUP + 4, seed=seed, cap=cap)
    # a point outside the domain, inside the first group
    pts.insert(5, FlagPoint(np.array([1.0, 0.5]) if sc.n == 2 else np.array([0.1, 0.0, 1.0])))
    reps = list(certificates(pts, sc, seed=seed))
    want = [_single(y, sc, seed) for y in pts]
    assert isinstance(reps[5], NotInDomain)
    assert [_report_fields(r) for r in reps] == [_report_fields(r) for r in want]
    if name == "su11":
        assert max(r.notes["shrinks"] for r in reps if not isinstance(r, CycleLabError)) > 0


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_certificates_stall_fails_one_point(name, su11, su21, monkeypatch):
    # a shared call that raises runs again point by point: only the point
    # whose probe rows stall fails, and the others keep their reports
    from cyclelab import levi

    sc = {"su11": su11, "su21": su21}[name]
    pts = seeded_domain_points(sc, 8, seed=4)
    want = [_report_fields(_single(y, sc, 4)) for y in pts]
    bad = pts[3].homogeneous
    real = levi.aligned_domain_values

    def stalling(rows, sc):
        dist = np.linalg.norm(np.asarray(rows) - bad, axis=1)
        if np.any((dist > 0) & (dist < 0.05)):
            raise OptimizerStall("stalled on the probes of one point")
        return real(rows, sc)

    monkeypatch.setattr(levi, "aligned_domain_values", stalling)
    got = [_report_fields(r) for r in certificates(pts, sc, seed=4)]
    assert got[3] == ("OptimizerStall", "stalled on the probes of one point")
    assert got[:3] + got[4:] == want[:3] + want[4:]


def test_certificate_value_matches_exhaustion(su21):
    from cyclelab.exhaust import batch_values

    y = seeded_domain_points(su21, 1, seed=33)[0]
    rep = _single(y, su21, 33)
    assert rep.value == pytest.approx(batch_values(y.homogeneous, su21, "r_d")[0],
                                      abs=1e-9)


def test_certificate_rejects_boundary(su11, su21):
    assert isinstance(_single(FlagPoint(np.array([1.0, 1.0])), su11, 42), NotInDomain)
    assert isinstance(_single(FlagPoint(np.array([0.0, 0.0, 1.0])), su21, 42), NotInDomain)


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
