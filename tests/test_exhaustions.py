"""The three exhaustions: closed forms, invariance, divergence, grids."""

import dataclasses

import numpy as np
import pytest

from cyclelab import (TARGETS, FlagPoint, InvalidInput,
                      cycle_from_point, cycle_in_domain, divergence_path,
                      evaluate_grid, in_domain, seeded_cycles,
                      seeded_domain_points,
                      translation_branch_pair)
from cyclelab.cycles import cycle_in_domain_rows
from cyclelab.flags import in_domain_rows
from cyclelab.exhaust import batch_values, boundary_depths, grid_axis
from cyclelab.liecore import k0_coefficients, k0_from_coefficients, k0_matrices
from cyclelab.optimize import (ASCENT_ROWS, BranchEngine, aligned_domain_values,
                               fiber_infimum, get_engine, maximize_branch)
from cyclelab.verify import _group_elements

from conftest import seeded_subjects
from oracles import (LOG2, LOG10, expm_antihermitian, is_close, rd_ball, rmd_disk,
                     rmd_dual_ball, submeanvalue_discs)


def test_disk_cycle_space_closed_form(su11):
    rng = np.random.default_rng(1)
    w = 0.95 * np.sqrt(rng.uniform(size=12)) * np.exp(
        2j * np.pi * rng.uniform(size=12))
    rows = np.stack([w, np.ones_like(w)], axis=1)
    vals = batch_values(rows, su11, "r_md")
    assert np.max(np.abs(vals - rmd_disk(w))) < 1e-9


def test_disk_spot_values(su11):
    c0 = cycle_from_point(su11.base_point, su11)
    c5 = cycle_from_point(FlagPoint(np.array([0.5, 1.0])), su11)
    rows = [su11.geometry.subject_row(c) for c in (c0, c5)]
    vals = batch_values(rows, su11, "r_md")
    assert vals[0] == pytest.approx(LOG2, abs=1e-9)
    assert vals[1] == pytest.approx(LOG10, abs=1e-9)


@pytest.mark.parametrize("target", ["r_md", "r_d"])
def test_disk_values_outside_the_domain_are_infinite(su11, target):
    # maximize_branch (r_md) and aligned_domain_values (r_d): a point outside
    # D scores +inf, not the value of its mirror image inside ([2 : 1] mirrors
    # [1/2 : 1]); a row 5e-15 inside keeps its finite value
    outside = np.array([[2.0, 1.0], [1 + 1e-7, 1.0]])
    assert np.all(batch_values(outside, su11, target) == np.inf)
    inside = np.array([[0.5, 1.0], [1 - 5e-15, 1.0]])
    vals = batch_values(inside, su11, target)
    assert np.all(np.isfinite(vals))
    assert vals[0] == pytest.approx(float(rmd_disk(0.5)), abs=1e-9)


def test_ball_cycle_space_values_outside_are_infinite(su21):
    # maximize_branch on duals: a dual outside the cycle space scores +inf by
    # the exact sign of its form, however near the boundary, while duals
    # 5e-15 and 1e-9 inside keep finite values
    rng = np.random.default_rng(5)
    h = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
    h /= np.linalg.norm(h, axis=1, keepdims=True)
    for radius in (1 + 1e-12, 1 + 1e-7, 1.01, 2.0, 1 - 5e-15, 1 - 1e-9):
        duals = np.concatenate([radius * h, np.ones((200, 1))], axis=1)
        vals = batch_values(duals, su21, "r_md")
        assert np.all(vals == np.inf if radius > 1 else np.isfinite(vals)), radius


def test_ball_cycle_space_closed_form(su21):
    rng = np.random.default_rng(2)
    beta = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    beta *= (0.9 * np.sqrt(rng.uniform(size=10))
             / np.linalg.norm(beta, axis=1))[:, None]
    rows = np.concatenate([beta, np.ones((10, 1))], axis=1)
    vals = batch_values(rows, su21, "r_md")
    assert np.max(np.abs(vals - rmd_dual_ball(beta))) < 1e-9


def test_ball_domain_closed_form(su21):
    for y in seeded_domain_points(su21, 8, seed=5):
        got = batch_values(y.homogeneous, su21, "r_d")[0]
        assert got == pytest.approx(float(rd_ball(y.homogeneous)), abs=1e-9)


def test_domain_exhaustion_cross_check(su21):
    # the alignment shortcut against the explicit infimum over the fiber
    # of cycles through y, at the default cap and nearer the boundary
    for cap in (0.9, 0.5, 0.99, 0.999):
        y = seeded_domain_points(su21, 1, seed=3, cap=cap)[0]
        vals, _ = aligned_domain_values(y.homogeneous[None, :], su21)
        inf_v, _ = fiber_infimum(y, su21)
        assert abs(inf_v - vals[0]) < 1e-12


def test_disk_domain_equals_cycle_space(su11):
    # q = 0: cycles are points, so the two exhaustions coincide
    w = np.array([0.1, 0.4 + 0.2j, -0.7j])
    rows = np.stack([w, np.ones_like(w)], axis=1)
    diff = batch_values(rows, su11, "r_d") - batch_values(rows, su11, "r_md")
    assert np.max(np.abs(diff)) < 1e-12


def test_translation_identity(su11, su21):
    for sc in (su11, su21):
        cycles = seeded_cycles(sc, 4, seed=11)
        ks = _group_elements(sc, 4, 12)
        for k, c in zip(ks, cycles):
            lhs, rhs = translation_branch_pair(k, c, sc)
            assert abs(lhs - rhs) < 1e-9


def test_compact_invariance(su21):
    c = seeded_cycles(su21, 1, seed=9)[0]
    base = batch_values(c.dual, su21, "r_md")[0]
    from cyclelab import translate_cycle

    for k in _group_elements(su21, 3, 10):
        moved = batch_values(translate_cycle(k, c, su21).dual, su21, "r_md")[0]
        assert abs(moved - base) < 1e-6


def test_boundary_depths_schedule():
    d = boundary_depths(5, decade=1.0)
    assert np.allclose(d, [0.5, 0.05, 0.005, 5e-4, 5e-5])
    assert np.allclose(boundary_depths(3, decade=0.5),
                       [0.5, 0.5 * 10**-0.5, 0.05])


@pytest.mark.parametrize("target", ["r_s", "r_md", "r_d"])
@pytest.mark.parametrize("name", ["su11", "su21"])
def test_divergence_along_boundary_paths(name, target, su11, su21):
    sc = {"su11": su11, "su21": su21}[name]
    depths, (vals,) = divergence_path(sc, target, [0], seed=42)
    assert np.all(np.isfinite(vals))
    assert np.max(vals) > 30.0
    assert np.all(np.diff(vals[-5:]) > 0)
    assert np.all(np.diff(depths) < 0)


def test_submeanvalue_margins(su11, su21):
    for sc in (su11, su21):
        centers, means = submeanvalue_discs(sc, "r_md", 12, seed=42)
        assert np.min(np.asarray(means) - np.asarray(centers)) > -1e-6


def test_batch_values_rejects_unknown_target(su11):
    with pytest.raises(InvalidInput):
        batch_values(np.array([[0.0, 1.0]]), su11, "r_x")


def test_grid_rows_and_error_strings(su11):
    cs, values, ok, argmax, npos, errors = evaluate_grid(
        su11, "r_md", (-1.2, 1.2, 5), levi_mode="off")
    assert cs.shape == values.shape == ok.shape == npos.shape == errors.shape == (25,)
    assert argmax.shape == (25, 1)
    assert ok.any() and not ok.all()
    assert set(errors[~ok]) == {"outside the domain"}
    assert set(errors[ok]) == {""}
    assert np.isnan(values[~ok]).all() and np.isnan(argmax[~ok]).all()
    assert np.all(npos == -1)
    assert np.isfinite(values[ok]).all() and np.isfinite(argmax[ok]).all()
    assert np.max(np.abs(values[ok] - rmd_disk(cs[ok]))) < 1e-9


def test_grid_error_strings_ball(su21):
    for target, outside in (("r_d", "outside the domain"),
                            ("r_md", "outside the cycle space")):
        _, _, ok, _, _, errors = evaluate_grid(su21, target, (-1.5, 1.5, 3), levi_mode="off")
        assert set(errors[~ok]) == {outside}


def test_grid_center_value(su11):
    cs, values, *_ = evaluate_grid(su11, "r_md", (-0.9, 0.9, 3), levi_mode="off")
    assert cs[4] == 0
    assert values[4] == pytest.approx(LOG2, abs=1e-9)


def test_grid_count_must_be_an_integer(su21):
    # a library caller's grid spec meets the CLI's rule: 2.5 points per
    # axis is no 2 x 2 grid, and True no 1 x 1 grid
    for n in (2.5, True, 3.0):
        with pytest.raises(InvalidInput):
            evaluate_grid(su21, "r_md", (-0.9, 0.9, n))
    assert evaluate_grid(su21, "r_s", (-0.9, 0.9, np.int64(2)))[0].shape == (4,)


def test_grid_window_must_span_finite_floats(su21):
    # -1.7e308:1.7e308 spans past the float range: linspace would give NaN
    # and inf coordinates; a window just inside it gives finite ones
    for spec in ((-1.7e308, 1.7e308, 3), (-1e308, 1e308, 1), (-1e308, np.float64(1e308), 2)):
        with pytest.raises(InvalidInput, match="float range"):
            grid_axis(spec)
    assert np.isfinite(grid_axis((-8.9e307, 8.9e307, 401))).all()
    with pytest.raises(InvalidInput):
        evaluate_grid(su21, "r_s", (-1.7e308, 1.7e308, 3))


def test_grid_levi_column(su11):
    npos = evaluate_grid(su11, "r_s", (-0.4, 0.4, 3), levi_mode="auto")[4]
    assert np.all(npos == 1)
    npos_off = evaluate_grid(su11, "r_s", (-0.4, 0.4, 3), levi_mode="off")[4]
    assert np.all(npos_off == -1)


@pytest.mark.parametrize("target", TARGETS)
def test_grid_levi_is_one_batched_stencil(su11, target, count_calls):
    # every admissible point's Levi form comes from one levi_form_fd call,
    # which evaluates the target once per step size; r_s also takes its
    # values through batch_values
    from cyclelab import exhaust, levi

    stencils = count_calls(levi, "levi_form_fd")
    values = count_calls(exhaust, "batch_values")
    _, _, ok, _, npos, _ = evaluate_grid(su11, target, (-0.9, 0.9, 5), levi_mode="on")
    assert len(stencils) == 1
    assert len(values) == 2 + (target == "r_s")
    assert np.all(npos[ok] == 1)


def test_seeded_samplers_are_deterministic(su21):
    a = seeded_domain_points(su21, 5, seed=99)
    b = seeded_domain_points(su21, 5, seed=99)
    assert all(is_close(x, y, tol=0.0) or is_close(x, y) for x, y in zip(a, b))
    ca = seeded_cycles(su21, 5, seed=98)
    cb = seeded_cycles(su21, 5, seed=98)
    assert all(np.array_equal(x.dual, y.dual) for x, y in zip(ca, cb))
    c2 = seeded_cycles(su21, 5, seed=97)
    assert not all(np.array_equal(x.dual, y.dual) for x, y in zip(ca, c2))


def _in_chart_set(sc, target, rows):
    """The set a target's chart rows must lie in, decided without the
    geometry: cycles inside D for su21 duals, the whole cell for su21 r_s,
    points of D otherwise (su11 cycles are points)."""
    if sc.name == "su21" and target == "r_md":
        return cycle_in_domain_rows(rows, sc)
    if sc.name == "su21" and target == "r_s":
        return np.ones(len(rows), bool)
    return in_domain_rows(rows, sc)


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_geometry_contract(name, su11, su21, monkeypatch):
    import cyclelab.exhaust as exhaust

    sc = {"su11": su11, "su21": su21}[name]
    geo = sc.geometry
    assert all(in_domain(p, sc) for p in seeded_domain_points(sc, 200, seed=5))
    assert all(cycle_in_domain(c, sc) for c in seeded_cycles(sc, 200, seed=6))
    window = (-1.3, 1.3, 14)  # no point within 1e-2 of the unit circle
    axis = np.linspace(*window)
    cs = (axis[:, None] + 1j * axis[None, :]).ravel()
    for target in TARGETS:
        discs = []

        def capture(rows, *args, **kwargs):
            discs.append(rows)
            return np.zeros(len(rows))

        monkeypatch.setattr(exhaust, "batch_values", capture)
        submeanvalue_discs(sc, target, 50, seed=7)
        monkeypatch.undo()
        assert np.all(_in_chart_set(sc, target, discs[0]))
        assert np.all(geo.admissible(target, discs[0]))
        rows = geo.chart_rows(target, cs, sc.rf)
        inside = _in_chart_set(sc, target, rows)
        assert np.array_equal(geo.admissible(target, rows), inside)
        _, _, ok, _, _, errors = evaluate_grid(sc, target, window, levi_mode="off")
        assert np.array_equal(ok, inside)
        assert np.array_equal(errors == "", inside)
        # the window straddles the boundary of every set but the su21 cell
        assert inside.any()
        assert inside.all() == (name == "su21" and target == "r_s")


@pytest.mark.parametrize("seed", [3, 17, 21, 23, 25, 33, 36])
def test_ball_domain_divergence_tail_is_monotone(su21, seed):
    # the closed-form alignment resolves depths down to 5e-15: the last
    # decades still climb
    _, paths = divergence_path(su21, "r_d", [0, 1], seed=seed)
    assert paths.shape == (2, 15)
    assert np.all(np.diff(paths[:, -5:], axis=1) > 0)


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_grid_runs_the_optimizer_once(name, su11, su21, count_calls):
    import cyclelab.exhaust as exhaust

    sc = {"su11": su11, "su21": su21}[name]
    calls = {f: count_calls(exhaust, f)
             for f in ("maximize_branch", "aligned_domain_values", "batch_values")}
    evaluate_grid(sc, "r_md", (-0.9, 0.9, 5), levi_mode="off")
    assert [len(c) for c in calls.values()] == [1, 0, 0]
    evaluate_grid(sc, "r_d", (-0.9, 0.9, 5), levi_mode="off")
    assert [len(c) for c in calls.values()] == [1, 1, 0]


@pytest.mark.parametrize("target", ["r_md", "r_d"])
@pytest.mark.parametrize("name", ["su11", "su21"])
def test_grid_values_and_argmaxes_match_per_point(name, target, su11, su21):
    import scipy.linalg

    sc = {"su11": su11, "su21": su21}[name]
    cs, values, ok, argmax, _, _ = evaluate_grid(sc, target, (-0.9, 0.9, 9), levi_mode="off")
    subjects = sc.geometry.chart_rows(target, cs[ok], sc.rf)
    assert np.array_equal(values[ok], batch_values(subjects, sc, target))
    solve = maximize_branch if target == "r_md" else aligned_domain_values
    _, ks = solve(subjects, sc)
    basis = np.asarray(sc.rf.k0_basis)
    gram = np.einsum("aij,bij->ab", np.conj(basis), basis).real
    coords = argmax[ok]
    # every row's coordinates exponentiate back to its argmax
    back = expm_antihermitian(np.einsum("ma,aij->mij", coords, basis))
    assert np.max(np.abs(back - ks)) < 1e-12
    if (name, target) == ("su21", "r_d"):
        # r_d reports the closed-form aligning element: it still aligns
        unit = subjects / np.linalg.norm(subjects, axis=1, keepdims=True)
        residual = np.einsum("a,mab,mb->m", get_engine(sc).duals[0], back, unit)
        assert np.max(np.abs(residual)) <= 1e-14
    # and equal the coordinates of the per-point logm wherever those give
    # back the argmax too; elsewhere that log has trace +-2 pi i
    checked = 0
    for c, k in zip(coords, ks):
        x = scipy.linalg.logm(k)
        x = 0.5 * (x - np.conj(x.T))
        ref = np.linalg.solve(gram, np.einsum("aij,ij->a", np.conj(basis), x).real)
        if np.max(np.abs(expm_antihermitian(np.einsum("a,aij->ij", ref, basis)) - k)) < 1e-12:
            assert np.max(np.abs(c - ref)) < 1e-12
            checked += 1
    assert checked > len(coords) // 2


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_maximize_branch_batch_equals_disc_sized_calls(name, su11, su21):
    # submeanvalue_discs evaluates 24 discs of 17 rows in one call; that
    # is only sound if a row's result does not depend on its batch
    sc = {"su11": su11, "su21": su21}[name]
    rows = seeded_subjects(sc, 24 * 17, seed=8)
    vals, ks = maximize_branch(rows, sc)
    parts = [maximize_branch(rows[i:i + 17], sc) for i in range(0, len(rows), 17)]
    assert np.array_equal(vals, np.concatenate([v for v, _ in parts]))
    assert np.array_equal(ks, np.concatenate([k for _, k in parts]))
    # past ASCENT_ROWS the ascent runs in batches of that many rows; one
    # call, deep boundary rows included, still equals calls of one screen
    # tile each, bit for bit
    depths = boundary_depths(15, decade=1.0)
    rows = np.concatenate([seeded_subjects(sc, ASCENT_ROWS, seed=9)] + [
        sc.geometry.divergence_rows("r_md", depths, np.random.default_rng(s), sc.rf)
        for s in range(7)])
    vals, ks = maximize_branch(rows, sc)
    parts = [maximize_branch(rows[i:i + 256], sc) for i in range(0, len(rows), 256)]
    assert vals.tobytes() == np.concatenate([v for v, _ in parts]).tobytes()
    assert ks.tobytes() == np.concatenate([k for _, k in parts]).tobytes()


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_aligned_domain_values_batch_equals_part_calls(name, su11, su21):
    # a verify suite evaluates the r_d rows of all its checks in one call;
    # that is only sound if a point's value and argmax do not depend on
    # the points that share its call, deep boundary rows included
    sc = {"su11": su11, "su21": su21}[name]
    points = np.stack([y.homogeneous for y in seeded_domain_points(sc, 115, seed=12)])
    depths = boundary_depths(15, decade=1.0)
    parts = [points[:1], points[1:18], points[18:]] + [
        sc.geometry.divergence_rows("r_d", depths, np.random.default_rng(s), sc.rf)
        for s in range(3)]
    vals, ks = aligned_domain_values(np.concatenate(parts), sc)
    alone = [aligned_domain_values(part, sc) for part in parts]
    assert vals.tobytes() == np.concatenate([v for v, _ in alone]).tobytes()
    assert ks.tobytes() == np.concatenate([k for _, k in alone]).tobytes()


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_maximize_branch_never_below_the_coarse_maximum(name, su11, su21):
    import cyclelab.optimize as optimize

    sc = {"su11": su11, "su21": su21}[name]
    # interior subjects and a path to the boundary, where the ascent is longest
    depths = boundary_depths(15, decade=1.0)
    rows = np.concatenate([
        seeded_subjects(sc, 300, seed=10),
        sc.geometry.divergence_rows("r_md", depths, np.random.default_rng(11), sc.rf)])
    engine = optimize.get_engine(sc)
    vals, ks = maximize_branch(rows, sc)
    # bounded below by the maximum over the grid on every K0 axis (dropping
    # the invariant axis loses no basin) and over the engine's own grid
    for dropped in {(), engine.dropped}:
        stack = k0_matrices(sc.rf, k0_coefficients(sc.rf, sc.k0_resolution, dropped))
        assert np.all(vals >= np.max(_stack_values(engine, rows, stack), axis=1))
    # the argmax gives back the value
    assert np.array_equal(vals, engine.values_own(rows, ks[:, None])[:, 0])


def test_maximize_branch_argmax_stays_on_the_group(su21):
    # the ascent's accepted steps drift off the unitary group by a few eps;
    # the polished argmax is unitary to rounding
    depths = boundary_depths(15, decade=1.0)
    rows = np.concatenate([su21.geometry.divergence_rows(
        "r_md", depths, np.random.default_rng(s), su21.rf) for s in range(8)])
    _, ks = maximize_branch(rows, su21)
    defect = np.max(np.abs(np.conj(np.swapaxes(ks, 1, 2)) @ ks - np.eye(3)))
    assert defect <= 1e-15


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_maximize_branch_is_k0_invariant(name, su11, su21):
    # r_md(k C) = r_md(C): the supremum over K0 of a k-moved subject equals
    # that of the subject, within twice the sweep's 10x of the conditioning
    # floor 1e-16 / depth (K0 keeps the depth 1 - |head| / |last|)
    sc = {"su11": su11, "su21": su21}[name]
    rng = np.random.default_rng(21)
    depths = np.repeat(10.0 ** -np.arange(1, 13), 8)
    head = (rng.standard_normal((depths.size, sc.n - 1))
            + 1j * rng.standard_normal((depths.size, sc.n - 1)))
    head *= ((1.0 - depths) / np.linalg.norm(head, axis=1))[:, None]
    rows = np.concatenate([head, np.ones((depths.size, 1))], axis=1)
    ks = np.stack([k.matrix for k in _group_elements(sc, depths.size, 22)])
    moved = np.einsum("mab,mb->ma", sc.geometry.move_matrices(ks), rows)
    err = np.abs(maximize_branch(moved, sc)[0] - maximize_branch(rows, sc)[0])
    assert np.max(err * depths / 1e-16) <= 20.0


def _stack_values(engine, rows, ks, block=16):
    """Branch values (m, K) of every row against the whole stack ks
    (K, n, n), by values_own, block rows at a time."""
    return np.concatenate([
        engine.values_own(part, np.broadcast_to(ks, (part.shape[0],) + ks.shape))
        for part in np.array_split(rows, -(-rows.shape[0] // block))])


@pytest.mark.parametrize("resolution", [None, 10])
def test_screened_start_blocks_match_one_block(su21, resolution, monkeypatch):
    import cyclelab.optimize as optimize

    sc = su21 if resolution is None else dataclasses.replace(su21, k0_resolution=resolution)
    engine = optimize.get_engine(sc)
    coarse = engine.coarse(sc.k0_resolution)
    assert coarse[0].shape[0] == {None: 216, 10: 1000}[resolution]
    rows = seeded_subjects(su21, 40, seed=9)
    blocked = optimize._screened_start(engine, rows, *coarse)
    monkeypatch.setattr(optimize, "K_BLOCK", coarse[0].shape[0])
    whole = optimize._screened_start(engine, rows, *coarse)
    for got, want in zip(blocked, whole):
        assert got.tobytes() == want.tobytes()


def test_screened_start_row_without_candidates_keeps_sample_0(su21):
    # NaN screen ratios put no sample in any row's window: every row keeps
    # sample 0 at -inf, and the matrix of sample 0 as its start
    import cyclelab.optimize as optimize

    engine = optimize.get_engine(su21)
    coeffs, num_forms, den_forms = engine.coarse(su21.k0_resolution)
    rows = seeded_subjects(su21, 5, seed=9)
    best, value, start = optimize._screened_start(engine, rows, coeffs,
                                                  np.full_like(num_forms, np.nan), den_forms)
    assert np.all(best == 0) and np.all(value == -np.inf)
    want = k0_from_coefficients(su21.rf, coeffs[:1])
    assert all(k.tobytes() == want[0].tobytes() for k in start)


@pytest.mark.parametrize("name,resolution", [("su21", 6), ("su21", 10),
                                             ("su11", 32), ("su11", 1024)])
def test_screened_start_is_the_coarse_argmax(name, resolution, su11, su21):
    # the Gram-form screen only picks which samples values_own scores: the
    # start index and value are np.argmax over the whole stack, and the
    # start matrix that sample's, bit for bit
    import cyclelab.optimize as optimize

    sc = dataclasses.replace({"su11": su11, "su21": su21}[name], k0_resolution=resolution)
    geo = sc.geometry
    engine = get_engine(sc)
    ks = k0_matrices(sc.rf, k0_coefficients(sc.rf, resolution, engine.dropped))
    # a symmetric grid has exact ties; at its origin every sample ties
    # (su11 only to rounding: the moved point keeps a phase)
    axis = np.linspace(-0.9, 0.9, 9)
    chart = geo.chart_rows("r_md", (axis[:, None] + 1j * axis[None, :]).ravel(), sc.rf)
    chart = chart[geo.admissible("r_md", chart)]
    paths = [geo.divergence_rows("r_md", boundary_depths(15), np.random.default_rng(s),
                                 sc.rf) for s in (1, 2)]
    assert boundary_depths(15)[-1] == 5e-15
    rows = np.concatenate([chart, seeded_subjects(sc, 40, seed=12)] + paths)
    origin = np.flatnonzero(np.all(rows[:, :-1] == 0, axis=1))
    # scaled rows; at 1e-160 the branch terms are subnormal and every
    # sample is rescored (SCREEN_LOG_SCALE)
    rows = np.concatenate([rows, 1e100 * rows, 1e-100 * rows, 1e-160 * rows])
    want = _stack_values(engine, rows, ks)
    idx = np.argmax(want, axis=1)
    spread = np.ptp(want[origin], axis=1)
    assert origin.size == 1 and np.all(spread <= (0.0 if name == "su21" else 1e-15))
    got_idx, got_val, got_k = optimize._screened_start(engine, rows,
                                                       *engine.coarse(resolution))
    assert np.array_equal(got_idx, idx)
    assert got_val.tobytes() == want[np.arange(rows.shape[0]), idx].tobytes()
    assert got_k.tobytes() == ks[idx].tobytes()


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_screened_start_scores_every_sample_of_a_row_at_a_pole(name, su11, su21,
                                                               monkeypatch):
    # s = (b_1, -b_0, 0, ...) has b_k . s = 0 for b_k = A_k^T sigma: the row
    # sits at sample k's pole, where the Gram-form den rounds to 0 or below.
    # Such a row's block top is +inf, so every sample of the row is scored,
    # and the start is still the exact argmax
    import cyclelab.optimize as optimize

    sc = {"su11": su11, "su21": su21}[name]
    geo, engine = sc.geometry, get_engine(sc)
    coarse = engine.coarse(sc.k0_resolution)
    stack = k0_matrices(sc.rf, k0_coefficients(sc.rf, sc.k0_resolution, engine.dropped))
    ks = stack[:64]
    b = geo.slice_vectors(np.swapaxes(geo.move_matrices(ks), 1, 2), engine.duals) @ engine.sigma
    poles = np.zeros((ks.shape[0], sc.n), complex)
    poles[:, 0], poles[:, 1] = b[:, 1], -b[:, 0]
    rows = np.concatenate([seeded_subjects(sc, 40, seed=13), poles])
    unit = rows / np.linalg.norm(rows, axis=1)[:, None]
    feats = optimize._gram_split(np.conj(unit)[:, :, None] * unit[:, None, :])
    k = coarse[0].shape[0]
    den = np.concatenate([coarse[2][j:j + optimize.K_BLOCK] @ feats.T
                          for j in range(0, k, optimize.K_BLOCK)])
    at_pole = np.min(den, axis=0) <= 0
    assert np.any(at_pole) and not np.any(at_pole[:40])
    keys = [row.tobytes() for row in rows[at_pole]]
    scored = []
    values_own = optimize.BranchEngine.values_own

    def counted(self, subjects, samples):
        scored.extend(row.tobytes() for row in subjects)
        return values_own(self, subjects, samples)

    monkeypatch.setattr(optimize.BranchEngine, "values_own", counted)
    got_idx, got_val, got_k = optimize._screened_start(engine, rows, *coarse)
    assert all(scored.count(key) == k for key in keys)
    monkeypatch.undo()
    want = _stack_values(engine, rows, stack)
    idx = np.argmax(want, axis=1)
    assert np.array_equal(got_idx, idx)
    assert got_val.tobytes() == want[np.arange(rows.shape[0]), idx].tobytes()
    assert got_k.tobytes() == stack[idx].tobytes()
    assert np.all(np.isinf(got_val[at_pole]))


@pytest.mark.parametrize("name,resolution", [("su21", 6), ("su21", 10), ("su21", 19),
                                             ("su11", 32), ("su11", 1024)])
@pytest.mark.parametrize("build_rows", [None, 1000, 100])
def test_coarse_forms_built_in_blocks_match_one_build(name, resolution, build_rows,
                                                      su11, su21, monkeypatch):
    # the forms from the whole (K, n, n) K0 stack at once against the
    # engine's samples-major forms, built a block of samples at a time
    import cyclelab.optimize as optimize

    sc = {"su11": su11, "su21": su21}[name]
    if build_rows is not None:
        monkeypatch.setattr(optimize, "BUILD_ROWS", build_rows)
    engine = optimize.BranchEngine(sc)
    coeffs, num_forms, den_forms = engine.coarse(resolution)
    geo, n = sc.geometry, sc.n
    ks = k0_matrices(sc.rf, k0_coefficients(sc.rf, resolution, engine.dropped))
    assert coeffs.shape == (ks.shape[0], len(sc.rf.k0_basis))
    cols = geo.slice_vectors(np.swapaxes(geo.move_matrices(ks), 1, 2), engine.duals)
    b = np.einsum("kca,a->kc", cols, engine.sigma)
    weight = np.repeat([1.0, 2.0, -2.0], [n, n * (n - 1) // 2, n * (n - 1) // 2])
    for got, q in ((num_forms, np.einsum("kca,kda->kcd", np.conj(cols), cols)),
                   (den_forms, np.conj(b)[:, :, None] * b[:, None, :])):
        assert got.flags.c_contiguous and got.shape == (ks.shape[0], n * n)
        assert got.tobytes() == (optimize._gram_split(q) * weight).tobytes()


def _same_coset(ks, others):
    """(len ks, len others) bool: others[j] lies in the coset exp(RY) ks[i],
    Y = diag(-2i, i, i).  exp(sY) scales rows 1 and 2 of k by one phase,
    and unitarity with det k = 1 fixes row 0 from them, so the cosets meet
    where those rows, as one vector of norm sqrt(2), agree up to a phase."""
    v, w = (x[:, 1:].reshape(x.shape[0], -1) for x in (ks, others))
    return np.abs(v.conj() @ w.T) > 2.0 - 1e-9


def _coset_repeats(ks, block=512):
    """How many samples lie in the coset exp(RY) k of an earlier sample."""
    return sum(int(np.sum(np.any(np.tril(_same_coset(ks[i:i + block], ks[:i + block]), i - 1),
                                 axis=1)))
               for i in range(0, ks.shape[0], block))


@pytest.mark.parametrize("resolution", [6, 9, 10])
def test_su21_grid_repeats_samples_only_within_one_invariant_coset(resolution, su21):
    # every su21 branch value is constant along k -> exp(sY) k, and on the
    # step-basis grid two samples share their values on seeded subjects
    # exactly when they lie in one such coset.  The exponential chart still
    # puts a few samples in one coset (kappa_2's axis at x and x + pi, and
    # the U(2) block's sphere of radius pi); the grid over every K0 axis
    # repeats a larger share of its samples
    engine = get_engine(su21)
    ks = k0_matrices(su21.rf, engine.coarse(resolution)[0])
    assert ks.shape[0] == resolution**3 + resolution % 2
    rows = seeded_subjects(su21, 4, seed=0)
    vals = engine.values_own(rows, np.broadcast_to(ks, (4,) + ks.shape)).T
    same_vals = np.max(np.abs(vals[:, None] - vals[None]), axis=2) <= 1e-9
    assert np.array_equal(same_vals, _same_coset(ks, ks))
    full = k0_matrices(su21.rf, k0_coefficients(su21.rf, resolution, ()))
    assert _coset_repeats(ks) / ks.shape[0] < _coset_repeats(full) / full.shape[0]


@pytest.mark.parametrize("name,resolution", [("su21", 6), ("su21", 10), ("su21", 19),
                                             ("su11", 32), ("su11", 1024)])
def test_starts_rebuilt_from_coefficients_match_the_stack(name, resolution, su11, su21):
    # maximize_branch and the screen rebuild sample matrices from coefficient
    # rows: bit for bit the rows of the validated stack, whatever the subset
    sc = {"su11": su11, "su21": su21}[name]
    engine = BranchEngine(sc)
    coeffs = engine.coarse(resolution)[0]
    stack = k0_matrices(sc.rf, k0_coefficients(sc.rf, resolution, engine.dropped))
    idx = np.random.default_rng(resolution).integers(0, stack.shape[0], 300)
    for part in (idx, idx[:1], np.arange(stack.shape[0])):
        assert k0_from_coefficients(sc.rf, coeffs[part]).tobytes() == stack[part].tobytes()


def test_screened_start_scores_in_bounded_batches(su21, monkeypatch):
    # 1e-160-scaled rows rescore every sample (SCREEN_LOG_SCALE); the
    # candidates still reach values_own in the fewest batches of at most
    # SCORE_PAIRS pairs, so no temporary holds rows x K
    import cyclelab.optimize as optimize

    sc = dataclasses.replace(su21, k0_resolution=10)
    geo = sc.geometry
    engine = get_engine(sc)
    coarse = engine.coarse(sc.k0_resolution)
    axis = np.linspace(-0.9, 0.9, 9)
    chart = geo.chart_rows("r_md", (axis[:, None] + 1j * axis[None, :]).ravel(), sc.rf)
    paths = [geo.divergence_rows("r_md", boundary_depths(15), np.random.default_rng(s),
                                 sc.rf) for s in (1, 2)]
    rows = 1e-160 * np.concatenate([chart[geo.admissible("r_md", chart)],
                                    seeded_subjects(sc, 40, seed=12)] + paths)
    sizes = []
    values_own = optimize.BranchEngine.values_own

    def counted(self, subjects, samples):
        sizes.append(subjects.shape[0] * samples.shape[1])
        return values_own(self, subjects, samples)

    monkeypatch.setattr(optimize.BranchEngine, "values_own", counted)
    optimize._screened_start(engine, rows, *coarse)
    bound = optimize.SCORE_PAIRS
    total = rows.shape[0] * coarse[0].shape[0]
    assert max(sizes) <= bound and sum(sizes) == total
    assert len(sizes) == -(-total // bound)


def test_psh_suite_builds_each_k0_stack_once(su11, su21, count_calls,
                                             monkeypatch):
    import cyclelab.optimize as optimize
    from cyclelab.verify import COUNTS, run_suite

    monkeypatch.setattr(optimize, "_ENGINES", {})
    calls = count_calls(optimize, "k0_coefficients")
    counts = dict(COUNTS["quick"], discs=4, levi_points=2)
    run_suite("psh", counts, 3, ("su11", "su21"))
    # one default coarse grid per scenario, however many discs
    assert len(calls) == 2
    run_suite("psh", counts, 4, ("su11", "su21"))
    assert len(calls) == 2
    for sc in (su11, su21):
        for part in optimize.get_engine(sc).coarse(sc.k0_resolution):
            with pytest.raises(ValueError):
                part[0, 0] = 0.0
    assert len(calls) == 2


def test_one_engine_per_scenario(su11, su21):
    # the coarse stacks are keyed by the resolution, not the engine
    k0 = dataclasses.replace(su21, k0_resolution=2)
    assert get_engine(k0) is get_engine(su21)
    assert get_engine(su11) is not get_engine(su21)
