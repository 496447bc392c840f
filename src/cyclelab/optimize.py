"""Deterministic optimizers behind the exhaustion values.

The quantity maximized over the compact group is the branch value

    branch(k; subject) = r_S(slice intersection of the k-moved subject)
                       = log ||p||^2 - log |sigma . p|^2

with p the homogeneous vector of (k.C) cap Sigma, computed in closed
form (the subject is a point for su11 and the cross product of two dual
vectors for su21).  Moving the subject by k and evaluating the base
machinery gives the same supremum as moving the Schubert machinery by
k^{-1}, since the compact group is a group.

The supremum is a seeded coarse search over a K0 stack followed by a
monotone Newton ascent from the best sample.  The coarse search screens
before it scores: p = A_k s is linear in the subject s, so ||p||^2 and
|sigma . p|^2 are Hermitian forms in s, and on the n^2 real features of
s (|s_c|^2 and conj(s_c) s_d for c < d) the pair of every sample is two
real matrix products against coefficients cached with the stack.  Only
the samples whose screened ratio lies within a rounding window of the
row's best are scored exactly, by values_shared, so the start is the
first exact argmax bit for bit.  p is also linear in the moved
subject, so its derivatives in left exponential coordinates on K0 are
closed form, and so are the gradient and Hessian of the branch value
(Absil, Mahony and Sepulchre, Optimization Algorithms on Matrix
Manifolds, 2008, ch. 6-7).  Each row's search depends on that row
alone: identical settings give identical results bit for bit, whatever
rows share a batch; CYCLELAB_THREADS only parallelizes over fixed
subject blocks and never changes the output.
"""

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidInput, NumericalDegeneracy, OptimizerStall
from .liecore import k0_sample_count, k0_sample_matrices
from .schubert import make_schubert
from .sections import highest_weight_section
from .utils import expm_antihermitian, run_chunked

# slice alignment: Gauss-Newton iteration cap, the residual it polishes
# toward, and the residual above which it has stalled
ALIGN_ITERS = 60
ALIGN_TOL = 1e-15
ALIGN_STALL = 1e-10
# Newton ascent: iteration cap; a gain below GAIN_FLOOR * max(1, |value|)
# is rounding; curvatures are floored at CURVATURE_FLOOR of the row's
# largest, and steps are at most MAX_STEP long in K0 coordinates
NEWTON_ITERS = 200
GAIN_FLOOR = 4e-16
CURVATURE_FLOOR = 1e-13
MAX_STEP = 1.0
# values_shared, the coarse screen and the r_d start scan take this many
# K0 samples at a time, so their temporaries stay at CHUNK x K_BLOCK
# (x n) whatever the coarse resolution
K_BLOCK = 128
# coarse screen: the start search rescores exactly the samples whose
# Gram-form ratio lies within a window of SCREEN_SLACK (max(r_max, 1) /
# nu + |log ||s||^2|) below the row's screened maximum (_screened_start
# derives it); rows with |log ||s||^2| above SCREEN_LOG_SCALE, where a
# branch value's num or den nears the ends of the float range, rescore all
SCREEN_SLACK = 1e3 * np.finfo(float).eps
SCREEN_LOG_SCALE = 500.0
# fiber_infimum: sphere-grid candidates on the pencil of cycles through y
FIBER_GRID = 32


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs for the compact-group search; None fields fall back to the
    scenario defaults."""

    resolution: int = None
    extras: int = None
    seed: int = 42

    def __post_init__(self):
        for f in fields(self):
            v, low = getattr(self, f.name), 0 if f.name in ("extras", "seed") else 1
            if v is None and f.default is None:
                continue
            if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < low:
                raise InvalidInput(f"optimizer setting {f.name} must be an "
                                   f"integer >= {low}, not {v!r}")

    def resolved(self, sc):
        """(resolution, extras, seed) for a scenario; InvalidInput when the
        coarse K0 stack would exceed liecore.MAX_K0_SAMPLES."""
        res = self.resolution if self.resolution is not None else sc.k0_resolution
        extras = self.extras if self.extras is not None else sc.k0_extras
        k0_sample_count(sc.rf, res, extras)
        return res, extras, self.seed


_ENGINES = {}


class BranchEngine:
    """Vectorized branch evaluation for one scenario.

    Subjects are rows (the scenario geometry's subject_row of a cycle),
    moved and cut with the slice by the geometry's branch kernel.  The engine
    also holds the coarse K0 stacks it has built, read-only and filled on
    first use, and the move matrices of the K0 basis and their
    symmetrized products, which give the branch value's derivatives.
    """

    def __init__(self, sc):
        self.sc = sc
        self.schubert = make_schubert(sc)
        self.section = highest_weight_section(self.schubert, sc)
        self.sigma = self.section.row
        self.duals = self.schubert.duals
        self.k0_basis = np.asarray(sc.rf.k0_basis)
        # exp(X) k moves a subject by exp(sum x_i G_i) after k, so the moved
        # subject has first derivatives G_i and second (G_i G_j + G_j G_i) / 2
        self.move_basis = sc.geometry.move_matrices(self.k0_basis)
        prod = np.einsum("iab,jbc->ijac", self.move_basis, self.move_basis)
        self.move_sym = 0.5 * (prod + np.swapaxes(prod, 0, 1))
        self._stacks = {}

    def _value_from_p(self, p):
        den = np.abs(np.einsum("...a,a->...", p, self.sigma)) ** 2
        num = np.sum(np.abs(p) ** 2, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.log(num) - np.log(den)
        # |sigma . p| below 1e-15 |p| is rounding: the point is at the pole
        return np.where(den <= 1e-30 * num, np.inf, v)

    def values_shared(self, subjects, ks):
        """branch values, subjects (m, n) against a common stack ks (K, n, n).

        Scored K_BLOCK samples at a time; every value is computed as in a
        single pass over the whole stack.
        """
        geo = self.sc.geometry
        out = np.empty((subjects.shape[0], ks.shape[0]))
        for j in range(0, ks.shape[0], K_BLOCK):
            moved = np.einsum("kab,mb->mka", geo.move_matrices(ks[j:j + K_BLOCK]),
                              subjects)
            p = geo.slice_vectors(moved, self.duals)
            out[:, j:j + K_BLOCK] = self._value_from_p(p)
        return out

    def values_own(self, subjects, ks):
        """branch values, subjects (m, n) each against its own ks (m, s, n, n)."""
        geo = self.sc.geometry
        moved = np.einsum("msab,mb->msa", geo.move_matrices(ks), subjects)
        return self._value_from_p(geo.slice_vectors(moved, self.duals))

    def k0_stack(self, resolution, seed, extras):
        """Coarse K0 sample (K, n, n), built once per (resolution, seed,
        extras) and shared read-only by every caller."""
        return self.coarse(resolution, seed, extras)[0]

    def coarse(self, resolution, seed, extras):
        """(stack, num forms, den forms): the coarse K0 stack and the real
        (n^2, K) coefficients of ||p||^2 and |sigma . p|^2 on the Gram
        features of a subject (_gram_split).

        p = A_k s is linear in the subject, so both are Hermitian forms in
        s: A_k* A_k and conj(b_k) b_k^T with b_k = A_k^T sigma.  A_k comes
        from the geometry's branch kernel applied to the identity.
        """
        key = (resolution, seed, extras)
        if key not in self._stacks:
            ks = k0_sample_matrices(self.sc.rf, resolution, seed, extras)
            # cols[k, c] = A_k e_c, the slice vector of the moved basis vector
            cols = self.sc.geometry.slice_vectors(
                np.swapaxes(self.sc.geometry.move_matrices(ks), 1, 2), self.duals)
            b = np.einsum("kca,a->kc", cols, self.sigma)
            forms = (np.einsum("kca,kda->kcd", np.conj(cols), cols),
                     np.conj(b)[:, :, None] * b[:, None, :])
            n = ks.shape[-1]
            t = n * (n - 1) // 2
            # s* Q s = sum_c Q_cc |s_c|^2 + 2 sum_{c<d} Re(Q_cd conj(s_c) s_d)
            weight = np.repeat([1.0, 2.0, -2.0], [n, t, t])
            entry = (ks,) + tuple(np.ascontiguousarray((_gram_split(q) * weight).T)
                                  for q in forms)
            for a in entry:
                a.setflags(write=False)
            self._stacks[key] = entry
        return self._stacks[key]

    def derivatives(self, moved):
        """Gradient (m, d) and Hessian (m, d, d) of the branch value in left
        exponential coordinates on K0, at moved subjects (m, n)."""
        geo, ld = self.sc.geometry, self.duals
        p = geo.slice_vectors(moved, ld)
        p1 = geo.slice_vectors(np.einsum("iab,mb->mia", self.move_basis, moved), ld)
        p2 = geo.slice_vectors(np.einsum("ijab,mb->mija", self.move_sym, moved), ld)
        # log ||p||^2
        cp = np.conj(p)
        num = np.einsum("ma,ma->m", cp, p).real[:, None]
        n1 = 2.0 * np.einsum("ma,mia->mi", cp, p1).real / num
        n2 = 2.0 * (np.einsum("mia,mja->mij", np.conj(p1), p1)
                    + np.einsum("ma,mija->mij", cp, p2)).real / num[:, :, None]
        # log |sigma . p|^2
        s = np.einsum("ma,a->m", p, self.sigma)[:, None]
        r1 = np.einsum("mia,a->mi", p1, self.sigma) / s
        r2 = np.einsum("mija,a->mij", p2, self.sigma) / s[:, :, None]
        grad = n1 - 2.0 * r1.real
        hess = (n2 - n1[:, :, None] * n1[:, None, :]
                - 2.0 * (r2 - r1[:, :, None] * r1[:, None, :]).real)
        return grad, hess


def get_engine(sc):
    """The engine of a scenario config; configs that differ in their
    tolerances get engines (and caches) of their own."""
    key = (sc.name, sc.tol)
    if key not in _ENGINES:
        _ENGINES[key] = BranchEngine(sc)
    return _ENGINES[key]


def _gram_split(q):
    """Real parts (..., n^2) of (..., n, n) complex matrices: the diagonal,
    then the real and imaginary parts of the strict upper triangle.  Of
    the Gram matrices conj(s_c) s_d they are the screen's features."""
    iu = np.triu_indices(q.shape[-1], 1)
    upper = q[..., iu[0], iu[1]]
    return np.concatenate([np.diagonal(q, axis1=-2, axis2=-1).real,
                           upper.real, upper.imag], axis=-1)


def _screened_start(engine, subjects, ks, num_forms, den_forms):
    """(index, value) of the best coarse sample per subject row, the first
    of equal ones: np.argmax of values_shared over the stack, bit for bit.

    Pass 1 screens every sample by the ratio r = ||p||^2 / |sigma . p|^2
    of two real products on the Gram features of the unit rows (+inf where
    the denominator is not positive) and keeps each row's largest ratio
    r_max and smallest numerator nu.  Pass 2 recomputes the ratios and
    rescores with values_shared, one K_BLOCK at a time, only the rows with
    a sample within the window below r_max; the others are -inf there.
    Both passes hold CHUNK x K_BLOCK temporaries only.
    """
    m = subjects.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.einsum("ma,ma->m", np.conj(subjects), subjects).real
        unit = subjects / np.sqrt(sq)[:, None]
        feats = _gram_split(np.conj(unit)[:, :, None] * unit[:, None, :])
        scale = np.abs(np.log(sq))
    blocks = [slice(j, j + K_BLOCK) for j in range(0, ks.shape[0], K_BLOCK)]

    def screen(b):
        num, den = feats @ num_forms[:, b], feats @ den_forms[:, b]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = num / den
        return np.where((den > 0) & ~np.isnan(r), r, np.inf), num

    r_max, nu = np.full(m, -np.inf), np.full(m, np.inf)
    for b in blocks:
        r, num = screen(b)
        r_max = np.maximum(r_max, np.max(r, axis=1))
        nu = np.minimum(nu, np.min(num, axis=1))
    # The window.  On a unit row the moved subjects and sigma have norm 1
    # (unitary moves; a cross product with a unit dual), so num and den
    # are sums of n^2 terms of size at most 1: the products round them by
    # a few n^2 eps, relatively n^2 eps / num and n^2 eps r / num, and
    # num >= nu (nu = 1 for points; small where a moved dual nears the
    # slice's own).  The exact score's p carries no more relative error,
    # and its two logarithms round by about eps |log ||s||^2| each.  The
    # exact winner and the screened maximum each carry these errors, so
    # the winner's ratio lies above r_max (1 - w) with
    #     w = SCREEN_SLACK (max(r_max, 1) / nu + |log ||s||^2|).
    # A row whose w is not below 1/2 keeps every sample.
    with np.errstate(divide="ignore", invalid="ignore"):
        w = SCREEN_SLACK * (np.maximum(r_max, 1.0) / np.maximum(nu, 0.0) + scale)
    keep_all = ~((w < 0.5) & (scale < SCREEN_LOG_SCALE))
    floor = np.where(keep_all, -np.inf, r_max * (1.0 - w))
    best, value = np.zeros(m, int), np.full(m, -np.inf)
    for b in blocks:
        cand = screen(b)[0] >= floor[:, None]
        hit = np.flatnonzero(np.any(cand, axis=1))
        if hit.size == 0:
            continue
        v = np.where(cand[hit], engine.values_shared(subjects[hit], ks[b]), -np.inf)
        i = np.argmax(v, axis=1)
        bv, cur = v[np.arange(hit.size), i], value[hit]
        # np.argmax's order: a later block wins only when strictly
        # greater, and NaN above everything
        up = (bv > cur) | (np.isnan(bv) & ~np.isnan(cur))
        best[hit[up]], value[hit[up]] = b.start + i[up], bv[up]
    return best, value


def _newton_ascent(engine, subjects, ks, vals):
    """Monotone saddle-free Newton ascent on K0 from ks, per subject row.

    A step x moves k to exp(sum x_i kappa_i) k.  Its curvature matrix is
    B = H - g g^T, the Hessian of exp(-value) = |sigma . p|^2 / ||p||^2
    over exp(-value): that ratio is smooth where the value has its
    logarithmic peak, so far starts near the boundary reach the peak in
    a few steps, and at the maximum g = 0 gives B = H.  Along each
    eigenvector of B the step divides the gradient by the curvature's
    absolute value, so it ascends at saddles and minima too; a step
    whose value falls is halved until it does not.  A row stops once the
    model's gain, or the gain a step achieved, is below the rounding
    floor of its value.
    """
    geo = engine.sc.geometry
    ks, vals = ks.copy(), vals.copy()
    live = np.flatnonzero(np.isfinite(vals))
    for _ in range(NEWTON_ITERS):
        if live.size == 0:
            return vals, ks
        moved = np.einsum("mab,mb->ma", geo.move_matrices(ks[live]), subjects[live])
        grad, hess = engine.derivatives(moved)
        curv = hess - grad[:, :, None] * grad[:, None, :]
        lam, vec = np.linalg.eigh(curv)
        scale = np.maximum(np.abs(lam), CURVATURE_FLOOR
                           * np.max(np.abs(lam), axis=1, keepdims=True))
        coef = np.einsum("mij,mi->mj", vec, grad) / np.maximum(scale, np.finfo(float).tiny)
        step = np.einsum("mij,mj->mi", vec, coef)
        length = np.sqrt(np.einsum("mi,mi->m", step, step))
        step *= (MAX_STEP / np.maximum(length, MAX_STEP))[:, None]
        # model gain t g.x + t^2 x.B.x / 2 of the step t x
        slope = np.einsum("mi,mi->m", grad, step)
        bend = 0.5 * np.einsum("mi,mij,mj->m", step, curv, step)
        floor = GAIN_FLOOR * np.maximum(1.0, np.abs(vals[live]))
        t = np.ones(live.size)
        todo = np.arange(live.size)
        going = np.zeros(live.size, bool)
        while True:
            todo = todo[t[todo] * slope[todo] + t[todo] ** 2 * bend[todo] > floor[todo]]
            if todo.size == 0:
                break
            rows = live[todo]
            trial = np.einsum("mab,mbc->mac", expm_antihermitian(np.einsum(
                "m,mi,iab->mab", t[todo], step[todo], engine.k0_basis)), ks[rows])
            tv = engine.values_own(subjects[rows], trial[:, None])[:, 0]
            up = tv >= vals[rows]
            going[todo[up]] = tv[up] - vals[rows[up]] > floor[todo[up]]
            ks[rows[up]], vals[rows[up]] = trial[up], tv[up]
            todo = todo[~up]
            t[todo] *= 0.5
        live = live[going]
    if live.size:
        raise OptimizerStall(f"Newton ascent still gaining after {NEWTON_ITERS} steps")
    return vals, ks


def maximize_branch(subjects, sc, settings=None):
    """sup over the compact group of the branch value per subject row.

    Returns (values, argmax group matrices).  Newton ascent from the best
    sample of the coarse K0 stack (the first of equal ones); the result
    never falls below the coarse maximum.
    """
    settings = settings or OptimizerSettings()
    resolution, extras, seed = settings.resolved(sc)
    engine = get_engine(sc)
    # the stack cache fills here, outside the thread pool
    coarse, num_forms, den_forms = engine.coarse(resolution, seed, extras)

    def block(rows):
        best, value = _screened_start(engine, rows, coarse, num_forms, den_forms)
        return _newton_ascent(engine, rows, coarse[best], value)

    subjects = np.atleast_2d(np.asarray(subjects, complex))
    return run_chunked(block, subjects)


def _align_newton(engine, points, ks):
    """Drive ell_S . (k v) to its rounding floor per subject.

    ell_S is the one dual that cuts S out where cycles are lines, the
    only case that aligns.  Gauss-Newton steps run until the residual
    either clears ALIGN_TOL or stops shrinking; near the boundary the
    branch denominator is tiny and a residual above the floor would
    contaminate it at first order.  Returns ks and residuals.
    """
    ls = engine.duals[0]
    kb = engine.k0_basis
    ks = ks.copy()
    prev = np.full(points.shape[0], np.inf)
    for _ in range(ALIGN_ITERS):
        g = np.einsum("a,mab,mb->m", ls, ks, points)
        ag = np.abs(g)
        # far from the solution always step; once below 1e-10 keep
        # polishing while the residual still shrinks: near the boundary
        # the steps converge only linearly
        live = np.flatnonzero((ag > ALIGN_TOL) & ((ag > 1e-10) | (ag < prev)))
        prev = ag
        if live.size == 0:
            break
        kv = np.einsum("mab,mb->ma", ks[live], points[live])
        d = np.einsum("a,iab,mb->mi", ls, kb, kv)
        jac = np.stack([d.real, d.imag], axis=1)
        jjt = np.einsum("mia,mja->mij", jac, jac)
        det = jjt[:, 0, 0] * jjt[:, 1, 1] - jjt[:, 0, 1] * jjt[:, 1, 0]
        if np.any(det < 1e-20):
            raise NumericalDegeneracy("alignment jacobian lost rank")
        rhs = -np.stack([g[live].real, g[live].imag], axis=1)
        inv = np.empty_like(jjt)
        inv[:, 0, 0], inv[:, 1, 1] = jjt[:, 1, 1], jjt[:, 0, 0]
        inv[:, 0, 1], inv[:, 1, 0] = -jjt[:, 0, 1], -jjt[:, 1, 0]
        lam = np.einsum("mij,mj->mi", inv, rhs) / det[:, None]
        delta = np.einsum("mia,mi->ma", jac, lam)
        move = expm_antihermitian(np.einsum("mi,iab->mab", delta, kb))
        ks[live] = np.einsum("mab,mbc->mac", move, ks[live])
    g = np.einsum("a,mab,mb->m", ls, ks, points)
    return ks, np.abs(g)


def _aligned(engine, points, ks, what):
    """Branch values of unit points at the aligning elements reached from ks.

    Runs _align_newton, raises "<what> stalled" when a residual stays
    above ALIGN_STALL, and evaluates the moved vectors k.v with their
    residual dual component removed: the Newton loop leaves
    |ell_S . (k v)| below ALIGN_TOL but not at zero, and near the boundary
    that residual would contaminate the branch denominator at first
    order.  Returns (values, aligned group elements, aligned vectors).
    """
    ks, res = _align_newton(engine, points, ks)
    if np.max(res) > ALIGN_STALL:
        raise OptimizerStall(f"{what} stalled at {np.max(res):.2e}")
    ls = engine.duals[0]
    kv = np.einsum("mab,mb->ma", ks, points)
    aligned = kv - np.einsum("ma,a->m", kv, ls)[:, None] * np.conj(ls)[None, :]
    return engine._value_from_p(aligned), ks, aligned


def aligned_values_from(points, sc, k_init):
    """Branch values from alignment Newton seeded at explicit group elements.

    points (m, n) rows, k_init a single matrix or a stack (m, n, n).
    Returns (values, aligned group elements, aligned vectors).  Feasibility
    of the aligned vectors (domain membership) is the caller's check.
    """
    points = np.atleast_2d(np.asarray(points, complex))
    points = points / np.linalg.norm(points, axis=1, keepdims=True)
    k_init = np.asarray(k_init, complex)
    if k_init.ndim == 2:
        k_init = np.broadcast_to(k_init, (points.shape[0],) + k_init.shape)
    return _aligned(get_engine(sc), points, k_init, "warm slice alignment")


def aligned_domain_values(points, sc, settings=None):
    """Domain exhaustion by slice alignment, batched over points.

    For su11 the slice is the whole domain and the value is the plain
    branch supremum.  For su21 the branch value is constant on the set
    of aligning group elements, so one aligning element per point, the
    alignment from the coarse sample nearest the slice, gives the value
    exactly.
    """
    settings = settings or OptimizerSettings()
    points = np.atleast_2d(np.asarray(points, complex))
    points = points / np.linalg.norm(points, axis=1, keepdims=True)
    engine = get_engine(sc)
    if sc.cycle_dim == 0:
        return maximize_branch(points, sc, settings)
    resolution, extras, seed = settings.resolved(sc)
    coarse = engine.k0_stack(resolution, seed, extras)

    def block(rows):
        # np.argmin of |ell_S . (k v)| over the stack, K_BLOCK samples at a
        # time; a later block wins only when strictly smaller
        best, low = np.zeros(rows.shape[0], int), np.full(rows.shape[0], np.inf)
        for j in range(0, coarse.shape[0], K_BLOCK):
            g = np.abs(np.einsum("a,kab,mb->mk", engine.duals[0],
                                 coarse[j:j + K_BLOCK], rows))
            i = np.argmin(g, axis=1)
            gi = g[np.arange(rows.shape[0]), i]
            up = gi < low
            best[up], low[up] = j + i[up], gi[up]
        vals, ks, _ = _aligned(engine, rows, coarse[best], "slice alignment")
        return vals, ks

    return run_chunked(block, points)


def fiber_infimum(y, sc, settings=None):
    """inf of the cycle-space exhaustion over cycles through y.

    Candidate duals come from a deterministic sphere grid on the fiber
    plus a radially constructed warm start; descent is a two-real-dim
    compass walk in the chart around the incumbent, skipping candidates
    whose cycle leaves the cycle space.
    """
    from .cycles import cycle_from_dual, cycle_in_domain, mu_fiber

    settings = settings or OptimizerSettings()
    if sc.cycle_dim == 0:
        vals, _ = maximize_branch(y.homogeneous[None, :], sc, settings)
        return float(vals[0]), None
    fib = mu_fiber(y, sc)

    def rmd(coefs):
        duals = fib.member_duals(np.atleast_2d(coefs))
        keep = np.array([cycle_in_domain(cycle_from_dual(d, sc), sc) for d in duals])
        out = np.full(duals.shape[0], np.inf)
        if np.any(keep):
            vals, _ = maximize_branch(duals[keep], sc, settings)
            out[keep] = vals
        return out

    # warm start: the radial dual through y
    warm = sc.geometry.radial_dual(y.homogeneous) @ np.conj(fib.basis).T
    cands = np.vstack([fib.sphere_grid(FIBER_GRID), warm[None, :]])
    vals = rmd(cands)
    best = int(np.argmin(vals))
    cur, cur_v = cands[best], float(vals[best])
    if not np.isfinite(cur_v):
        raise OptimizerStall("no feasible cycle through the point was found")
    delta = 0.3
    while delta > 1e-5:
        u = cur / np.linalg.norm(cur)
        perp = np.array([-np.conj(u[1]), np.conj(u[0])])
        moves = np.stack([np.cos(delta) * u + np.sin(delta) * ph * perp
                          for ph in (1, -1, 1j, -1j)])
        mv = rmd(moves)
        j = int(np.argmin(mv))
        if mv[j] < cur_v - 1e-12:
            cur, cur_v = moves[j], float(mv[j])
        else:
            delta *= 0.5
    dual = fib.member_duals(cur[None, :])[0]
    return cur_v, dual
