"""The three exhaustions: closed forms, invariance, divergence, grids."""

import os

import numpy as np
import pytest

from cyclelab import (TARGETS, FlagPoint, InvalidInput, cycle_from_dual,
                      cycle_from_point, cycle_in_domain, divergence_path,
                      evaluate_grid, in_domain, k0_sample, seeded_cycles,
                      seeded_domain_points,
                      translation_branch_pair)
from cyclelab.flags import in_domain_rows
from cyclelab.exhaust import batch_values, boundary_depths, submeanvalue_discs
from cyclelab.optimize import (OptimizerSettings, aligned_domain_values,
                               aligned_values_from, fiber_infimum, get_engine,
                               maximize_branch)

from oracles import LOG2, LOG10, rd_ball, rmd_disk, rmd_dual_ball


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
    # of cycles through y, and the aligned value is the same from the
    # second-nearest coarse start
    y = seeded_domain_points(su21, 1, seed=3)[0]
    v = y.homogeneous[None, :]
    vals, _ = aligned_domain_values(v, su21)
    inf_v, _ = fiber_infimum(y, su21)
    assert abs(inf_v - vals[0]) < 1e-6
    engine = get_engine(su21)
    resolution, extras, seed = OptimizerSettings().resolved(su21)
    coarse = engine.k0_stack(resolution, seed, extras)
    gap = np.abs(np.einsum("a,kab,mb->mk", engine.duals[0], coarse, v))
    second = coarse[np.argsort(gap, axis=1)[:, 1]]
    vals2, _, _ = aligned_values_from(v, su21, second)
    assert abs(vals2[0] - vals[0]) <= 1e-9


def test_disk_domain_equals_cycle_space(su11):
    # q = 0: cycles are points, so the two exhaustions coincide
    w = np.array([0.1, 0.4 + 0.2j, -0.7j])
    rows = np.stack([w, np.ones_like(w)], axis=1)
    diff = batch_values(rows, su11, "r_d") - batch_values(rows, su11, "r_md")
    assert np.max(np.abs(diff)) < 1e-12


def test_translation_identity(su11, su21):
    for sc in (su11, su21):
        cycles = seeded_cycles(sc, 4, seed=11)
        ks = k0_sample(sc.rf, 2, seed=12, extras=4)[-4:]
        for k, c in zip(ks, cycles):
            lhs, rhs = translation_branch_pair(k, c, sc)
            assert abs(lhs - rhs) < 1e-9


def test_compact_invariance(su21):
    c = seeded_cycles(su21, 1, seed=9)[0]
    base = batch_values(c.dual, su21, "r_md")[0]
    from cyclelab import translate_cycle

    for k in k0_sample(su21.rf, 2, seed=10, extras=3)[-3:]:
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
    depths, vals = divergence_path(sc, target, index=0, seed=42)
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
    rows = evaluate_grid(su11, "r_md", (-1.2, 1.2, 5), levi_mode="off")
    assert len(rows) == 25
    bad = [r for r in rows if r.error]
    good = [r for r in rows if not r.error]
    assert bad and good
    assert {r.error for r in bad} == {"outside the domain"}
    for r in bad:
        assert r.value is None and r.argmax is None and r.n_pos == -1
    for r in good:
        assert np.isfinite(r.value)
        assert r.argmax is not None
        assert abs(r.value - float(rmd_disk(r.re + 1j * r.im))) < 1e-9


def test_grid_error_strings_ball(su21):
    rows = evaluate_grid(su21, "r_d", (-1.5, 1.5, 3), levi_mode="off")
    assert {r.error for r in rows if r.error} == {"outside the domain"}
    rows_md = evaluate_grid(su21, "r_md", (-1.5, 1.5, 3), levi_mode="off")
    assert {r.error for r in rows_md if r.error} == {"outside the cycle space"}


def test_grid_center_value(su11):
    rows = evaluate_grid(su11, "r_md", (-0.9, 0.9, 3), levi_mode="off")
    center = min(rows, key=lambda r: abs(r.re) + abs(r.im))
    assert center.value == pytest.approx(LOG2, abs=1e-9)


def test_grid_levi_column(su11):
    rows = evaluate_grid(su11, "r_s", (-0.4, 0.4, 3), levi_mode="auto")
    assert all(r.n_pos == 1 for r in rows)
    rows_off = evaluate_grid(su11, "r_s", (-0.4, 0.4, 3), levi_mode="off")
    assert all(r.n_pos == -1 for r in rows_off)


def test_thread_cap_does_not_change_values(su21, monkeypatch):
    y = seeded_domain_points(su21, 6, seed=4)
    rows = np.stack([p.homogeneous for p in y])
    monkeypatch.setenv("CYCLELAB_THREADS", "1")
    serial = batch_values(rows, su21, "r_d")
    monkeypatch.setenv("CYCLELAB_THREADS", "4")
    threaded = batch_values(rows, su21, "r_d")
    assert np.array_equal(serial, threaded)


def test_seeded_samplers_are_deterministic(su21):
    a = seeded_domain_points(su21, 5, seed=99)
    b = seeded_domain_points(su21, 5, seed=99)
    assert all(x.is_close(y, tol=0.0) or x.is_close(y) for x, y in zip(a, b))
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
        return np.array([cycle_in_domain(cycle_from_dual(r, sc), sc) for r in rows])
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
        grid = evaluate_grid(sc, target, window, levi_mode="off")
        assert np.array_equal([r.error == "" for r in grid], inside)
        # the window straddles the boundary of every set but the su21 cell
        assert inside.any()
        assert inside.all() == (name == "su21" and target == "r_s")


@pytest.mark.parametrize("seed", [3, 17, 21, 23, 25, 33, 36])
def test_ball_domain_divergence_tail_is_monotone(su21, seed):
    # alignment must keep polishing while the residual shrinks: near the
    # boundary its steps converge only linearly
    for index in (0, 1):
        _, vals = divergence_path(su21, "r_d", index=index, seed=seed)
        assert np.all(np.diff(vals[-5:]) > 0)


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

    from cyclelab.utils import expm_antihermitian

    sc = {"su11": su11, "su21": su21}[name]
    rows = [r for r in evaluate_grid(sc, target, (-0.9, 0.9, 9), levi_mode="off")
            if not r.error]
    cs = np.array([r.re + 1j * r.im for r in rows])
    subjects = sc.geometry.chart_rows(target, cs, sc.rf)
    assert np.array_equal([r.value for r in rows],
                          batch_values(subjects, sc, target))
    solve = maximize_branch if target == "r_md" else aligned_domain_values
    _, ks = solve(subjects, sc)
    basis = np.asarray(sc.rf.k0_basis)
    gram = np.einsum("aij,bij->ab", np.conj(basis), basis).real
    coords = np.array([r.argmax for r in rows])
    # every row's coordinates exponentiate back to its argmax
    back = expm_antihermitian(np.einsum("ma,aij->mij", coords, basis))
    assert np.max(np.abs(back - ks)) < 1e-12
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
    assert checked > len(rows) // 2


def _seeded_subjects(sc, count, seed):
    """Cycle subjects (su11 points, su21 duals) well inside the cycle space."""
    rng = np.random.default_rng(seed)
    if sc.n == 2:
        w = 0.95 * np.sqrt(rng.uniform(size=count)) * np.exp(
            2j * np.pi * rng.uniform(size=count))
        return np.stack([w, np.ones_like(w)], axis=1)
    beta = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    beta *= (0.95 * np.sqrt(rng.uniform(size=count))
             / np.linalg.norm(beta, axis=1))[:, None]
    return np.concatenate([beta, np.ones((count, 1))], axis=1)


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_maximize_branch_batch_equals_disc_sized_calls(name, su11, su21):
    # submeanvalue_discs evaluates 24 discs of 17 rows in one call; that
    # is only sound if a row's result does not depend on its batch
    sc = {"su11": su11, "su21": su21}[name]
    rows = _seeded_subjects(sc, 24 * 17, seed=8)
    vals, ks = maximize_branch(rows, sc)
    parts = [maximize_branch(rows[i:i + 17], sc) for i in range(0, len(rows), 17)]
    assert np.array_equal(vals, np.concatenate([v for v, _ in parts]))
    assert np.array_equal(ks, np.concatenate([k for _, k in parts]))


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_maximize_branch_never_below_the_coarse_maximum(name, su11, su21):
    import cyclelab.optimize as optimize

    sc = {"su11": su11, "su21": su21}[name]
    # interior subjects and a path to the boundary, where the ascent is longest
    depths = boundary_depths(15, decade=1.0)
    rows = np.concatenate([
        _seeded_subjects(sc, 300, seed=10),
        sc.geometry.divergence_rows("r_md", depths, np.random.default_rng(11), sc.rf)])
    res, extras, seed = optimize.OptimizerSettings().resolved(sc)
    engine = optimize.get_engine(sc)
    coarse_max = np.max(engine.values_shared(rows, engine.k0_stack(res, seed, extras)),
                        axis=1)
    vals, ks = maximize_branch(rows, sc)
    assert np.all(vals >= coarse_max)
    # the argmax gives back the value
    assert np.array_equal(vals, engine.values_own(rows, ks[:, None])[:, 0])


@pytest.mark.parametrize("resolution", [None, 10])
def test_values_shared_blocks_match_one_block(su21, resolution, monkeypatch):
    import cyclelab.optimize as optimize

    settings = optimize.OptimizerSettings(resolution=resolution)
    res, extras, seed = settings.resolved(su21)
    engine = optimize.get_engine(su21)
    ks = engine.k0_stack(res, seed, extras)
    assert ks.shape[0] == {None: 1332, 10: 10036}[resolution]
    rows = _seeded_subjects(su21, 40, seed=9)
    blocked = engine.values_shared(rows, ks)
    monkeypatch.setattr(optimize, "K_BLOCK", ks.shape[0])
    assert np.array_equal(blocked, engine.values_shared(rows, ks))


@pytest.mark.parametrize("name,resolution", [("su21", 6), ("su21", 10),
                                             ("su11", 32), ("su11", 1024)])
def test_screened_start_is_the_coarse_argmax(name, resolution, su11, su21):
    # the Gram-form screen only picks which samples values_shared rescores:
    # the start index and value are np.argmax over the whole stack, bit for bit
    import cyclelab.optimize as optimize

    sc = {"su11": su11, "su21": su21}[name]
    geo = sc.geometry
    res, extras, seed = OptimizerSettings(resolution=resolution).resolved(sc)
    engine = get_engine(sc)
    ks, num_forms, den_forms = engine.coarse(res, seed, extras)
    # a symmetric grid has exact ties; at its origin every sample ties
    # (su11 only to rounding: the moved point keeps a phase)
    axis = np.linspace(-0.9, 0.9, 9)
    chart = geo.chart_rows("r_md", (axis[:, None] + 1j * axis[None, :]).ravel(), sc.rf)
    chart = chart[geo.admissible("r_md", chart)]
    paths = [geo.divergence_rows("r_md", boundary_depths(15), np.random.default_rng(s),
                                 sc.rf) for s in (1, 2)]
    assert boundary_depths(15)[-1] == 5e-15
    rows = np.concatenate([chart, _seeded_subjects(sc, 40, seed=12)] + paths)
    origin = np.flatnonzero(np.all(rows[:, :-1] == 0, axis=1))
    # scaled rows; at 1e-160 the branch terms are subnormal and every
    # sample is rescored (SCREEN_LOG_SCALE)
    rows = np.concatenate([rows, 1e100 * rows, 1e-100 * rows, 1e-160 * rows])
    want = engine.values_shared(rows, ks)
    idx = np.argmax(want, axis=1)
    spread = np.ptp(want[origin], axis=1)
    assert origin.size == 1 and np.all(spread <= (0.0 if name == "su21" else 1e-15))
    got_idx, got_val = optimize._screened_start(engine, rows, ks, num_forms, den_forms)
    assert np.array_equal(got_idx, idx)
    assert got_val.tobytes() == want[np.arange(rows.shape[0]), idx].tobytes()


def test_aligned_start_blocks_match_one_block(su21, monkeypatch):
    # the r_d start search scans the stack K_BLOCK samples at a time; the
    # first of equal residuals still wins (the symmetric grid has ties)
    import cyclelab.optimize as optimize

    settings = OptimizerSettings(resolution=10)
    res, extras, seed = settings.resolved(su21)
    axis = np.linspace(-0.9, 0.9, 9)
    rows = su21.geometry.chart_rows("r_d", (axis[:, None] + 1j * axis[None, :]).ravel(),
                                    su21.rf)
    rows = rows[su21.geometry.admissible("r_d", rows)]
    blocked = aligned_domain_values(rows, su21, settings)
    monkeypatch.setattr(optimize, "K_BLOCK", get_engine(su21).k0_stack(res, seed, extras).shape[0])
    whole = aligned_domain_values(rows, su21, settings)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(blocked, whole))


def test_psh_suite_builds_each_k0_stack_once(su11, su21, count_calls,
                                             monkeypatch):
    import cyclelab.optimize as optimize
    from cyclelab.verify import COUNTS, run_suite

    monkeypatch.setattr(optimize, "_ENGINES", {})
    calls = count_calls(optimize, "k0_sample_matrices")
    counts = dict(COUNTS["quick"], discs=4, levi_points=2)
    run_suite("psh", counts, 3, ("su11", "su21"))
    # one default coarse stack per scenario, however many discs
    assert len(calls) == 2
    run_suite("psh", counts, 4, ("su11", "su21"))
    assert len(calls) == 2
    for sc in (su11, su21):
        res, extras, seed = optimize.OptimizerSettings().resolved(sc)
        stack = optimize.get_engine(sc).k0_stack(res, seed, extras)
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 0.0
    assert len(calls) == 2


def test_engine_is_keyed_by_tolerances(su21):
    import dataclasses

    from cyclelab.optimize import get_engine

    same = dataclasses.replace(su21, tol=dataclasses.replace(su21.tol))
    assert get_engine(same) is get_engine(su21)
    coarse = dataclasses.replace(su21, tol=dataclasses.replace(su21.tol, fd_step=1e-2))
    assert get_engine(coarse) is not get_engine(su21)
    assert get_engine(coarse).sc.tol.fd_step == 1e-2
