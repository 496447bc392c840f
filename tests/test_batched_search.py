"""Batched kernels against the one-at-a-time computations they replace:
the Newton line search, boundary paths, the line-cycle cross product and
the slice path test, each bit for bit."""

import math

import numpy as np
import pytest

import cyclelab.optimize as optimize
from cyclelab import FlagPoint, divergence_path, in_domain
from cyclelab.exhaust import boundary_depths, grid_axis
from cyclelab.schubert import PATH_SAMPLES, make_schubert, schubert_slice
from cyclelab.liecore import k0_coefficients, k0_exp, k0_matrices

from oracles import cell_point


def _newton_reference(engine, subjects, ks, vals, calls_per_step):
    """_newton_ascent with one halving per values_own call; appends each
    step's number of calls to calls_per_step."""
    geo = engine.sc.geometry
    ks, vals = ks.copy(), vals.copy()
    live = np.flatnonzero(np.isfinite(vals))
    poor = np.zeros(vals.shape, bool)
    for _ in range(optimize.NEWTON_ITERS):
        if live.size == 0:
            return vals, ks
        moved = np.einsum("mab,mb->ma", geo.move_matrices(ks[live]), subjects[live])
        with np.errstate(all="ignore"):
            grad, hess = engine.derivatives(moved)
            curv = hess - grad[:, :, None] * grad[:, None, :]
        fine = np.all(np.isfinite(curv), axis=(1, 2))
        live, grad, curv = live[fine], grad[fine], curv[fine]
        lam, vec = np.linalg.eigh(curv)
        top = np.max(np.abs(lam), axis=1)
        curvature = np.where(poor[live][:, None], -lam, np.abs(lam))
        scale = np.maximum(curvature, optimize.CURVATURE_FLOOR * top[:, None])
        coef = np.einsum("mij,mi->mj", vec, grad) / np.maximum(scale, np.finfo(float).tiny)
        step = np.einsum("mij,mj->mi", vec, coef)
        length = np.sqrt(np.einsum("mi,mi->m", step, step))
        step *= (optimize.MAX_STEP / np.maximum(length, optimize.MAX_STEP))[:, None]
        slope = np.einsum("mi,mi->m", grad, step)
        bend = 0.5 * np.einsum("mi,mij,mj->m", step, curv, step)
        rounding = optimize.GAIN_FLOOR * np.maximum(1.0, np.abs(vals[live]))
        floor = np.maximum(rounding, optimize.RESOLVED_STEP ** 2 * top)
        t = np.ones(live.size)
        todo = np.arange(live.size)
        going = np.zeros(live.size, bool)
        calls_per_step.append(0)
        while True:
            todo = todo[t[todo] * slope[todo] + t[todo] ** 2 * bend[todo] > floor[todo]]
            if todo.size == 0:
                break
            rows = live[todo]
            trial = np.einsum("mab,mbc->mac", k0_exp(engine.sc.rf, np.einsum(
                "m,mi,iab->mab", t[todo], step[todo], engine.step_basis)), ks[rows])
            tv = engine.values_own(subjects[rows], trial[:, None])[:, 0]
            calls_per_step[-1] += 1
            up = tv >= vals[rows]
            win, gained = todo[up], tv[up] - vals[rows[up]]
            poor[live[win]] = gained < optimize.POOR_MODEL * (
                t[win] * slope[win] + t[win] ** 2 * bend[win])
            going[win] = gained > np.where(poor[live[win]], rounding[win], floor[win])
            ks[rows[up]], vals[rows[up]] = trial[up], tv[up]
            todo = todo[~up]
            t[todo] *= 0.5
        live = live[going]
    raise optimize.OptimizerStall("reference ascent still gaining")


def _chart_rows(sc, spec):
    axis = grid_axis(spec)
    rows = sc.geometry.chart_rows("r_md", (axis[:, None] + 1j * axis[None, :]).ravel(),
                                  sc.rf)
    return rows[sc.geometry.admissible("r_md", rows)]


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_newton_ascent_matches_one_halving_per_call(name, su11, su21, monkeypatch):
    sc = {"su11": su11, "su21": su21}[name]
    engine = optimize.get_engine(sc)
    stack = k0_matrices(sc.rf, k0_coefficients(sc.rf, sc.k0_resolution, engine.dropped))
    depths = boundary_depths(15)
    assert depths[-1] == 5e-15
    rows = np.concatenate(
        [_chart_rows(sc, (-0.9, 0.9, 23)), _chart_rows(sc, (-0.999999, 0.999999, 21))]
        + [sc.geometry.divergence_rows("r_md", depths, np.random.default_rng(s), sc.rf)
           for s in range(4)])
    best, value, start = optimize._screened_start(engine, rows,
                                                  *engine.coarse(sc.k0_resolution))
    assert start.tobytes() == stack[best].tobytes()
    want_calls = []
    want = _newton_reference(engine, rows, stack[best], value, want_calls)
    # one "step" mark per Newton step (one derivatives call each), then
    # one "value" mark per values_own call
    log = []
    for method, mark in (("derivatives", "step"), ("values_own", "value")):
        original = getattr(optimize.BranchEngine, method)

        def logged(self, *args, _original=original, _mark=mark):
            log.append(_mark)
            return _original(self, *args)

        monkeypatch.setattr(optimize.BranchEngine, method, logged)
    got = optimize._newton_ascent(engine, rows, stack[best], value)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    got_calls = [part.count("value") for part in " ".join(log).split("step")[1:]]
    assert len(got_calls) == len(want_calls)
    # J halvings take J + 1 calls one at a time, 1 + ceil(log2(J + 1)) at most here
    for n_got, n_want in zip(got_calls, want_calls):
        assert n_got <= (1 + math.ceil(math.log2(n_want)) if n_want else 0)
    assert max(want_calls) >= 8 and sum(got_calls) < sum(want_calls)


@pytest.mark.parametrize("name,target", [("su11", "r_md"), ("su11", "r_d"),
                                         ("su21", "r_md"), ("su21", "r_d")])
def test_divergence_paths_batch_equals_single_paths(name, target, su11, su21):
    sc = {"su11": su11, "su21": su21}[name]
    depths, paths = divergence_path(sc, target, [0, 1, 2], seed=5)
    assert paths.shape == (3, depths.size)
    for i in range(3):
        single_depths, single = divergence_path(sc, target, [i], seed=5)
        assert single_depths.tobytes() == depths.tobytes()
        assert single[0].tobytes() == paths[i].tobytes()


@pytest.mark.parametrize("shape", [(7, 3), (5, 4, 3), (3, 4, 4, 3)])
def test_line_slice_vectors_equal_np_cross(su21, shape):
    rng = np.random.default_rng(sum(shape))
    moved = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    duals = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
    engine_duals = optimize.get_engine(su21).duals
    # also a strided view, as BranchEngine.coarse passes its moved basis
    for m in (moved, np.swapaxes(moved, 0, -2)):
        for d in (duals, engine_duals):
            got = su21.geometry.slice_vectors(m, d)
            assert got.shape == m.shape
            assert got.tobytes() == np.cross(m, d[0]).tobytes()


def _path_contains_per_sample(sl, z):
    """The slice path test with one FlagPoint and in_domain per sample."""
    if not sl.parent.on_variety(z):
        return False
    c1 = sl.cell_coord(z)
    if c1 is None:
        return False
    c0 = sl.cell_coord(sl.base_point)
    return all(in_domain(cell_point(sl, c0 + t * (c1 - c0)), sl.sc)
               for t in np.linspace(0.0, 1.0, PATH_SAMPLES))


@pytest.mark.parametrize("name", ["su11", "su21"])
def test_path_contains_matches_per_sample_test(name, su11, su21):
    sc = {"su11": su11, "su21": su21}[name]
    s = make_schubert(sc)
    sl = schubert_slice(s, sc)
    rng = np.random.default_rng(8)
    # cell points out to |c| = 3 (su11 paths that leave the disk fail;
    # the su21 cell lies in D), slice points of the A0 N0 orbit, the
    # cell's boundary point and a random point (off the su21 variety)
    cs = 3.0 * np.sqrt(rng.uniform(size=40)) * np.exp(2j * np.pi * rng.uniform(size=40))
    points = [cell_point(sl, c) for c in cs]
    dim = len(sc.rf.a_basis) + len(sc.rf.n0_basis)
    points += [sl.an_point(rng.uniform(-1.2, 1.2, dim)) for _ in range(10)]
    points.append(s.boundary_point)
    points.append(FlagPoint(rng.standard_normal(sc.n) + 1j * rng.standard_normal(sc.n)))
    got = [sl.path_contains(z) for z in points]
    assert got == [_path_contains_per_sample(sl, z) for z in points]
    assert all(isinstance(g, bool) for g in got)
    assert sum(got[:40]) == 40 if name == "su21" else 5 <= sum(got[:40]) <= 35
    assert all(got[40:50]) and got[50] is False
    if name == "su21":
        assert not s.on_variety(points[-1]) and got[-1] is False
