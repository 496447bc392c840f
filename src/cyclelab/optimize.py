"""Deterministic optimizers behind the exhaustion values.

The quantity maximized over the compact group is the branch value

    branch(k; subject) = r_S(slice intersection of the k-moved subject)
                       = log ||p||^2 - log |sigma . p|^2

with p the homogeneous vector of (k.C) cap Sigma, computed in closed
form (the subject is a point for su11 and the cross product of two dual
vectors for su21).  Moving the subject by k and evaluating the base
machinery gives the same supremum as moving the Schubert machinery by
k^{-1}, since the compact group is a group.

The supremum is a coarse search over a K0 grid, screened before it is
scored (_screened_start: the start is the exact argmax bit for bit),
followed by a monotone Newton ascent from the best sample.  p is linear
in the moved subject, so its derivatives in left exponential
coordinates on K0 are closed form, and so are the gradient and Hessian
of the branch value (Absil, Mahony and Sepulchre, Optimization
Algorithms on Matrix Manifolds, 2008, ch. 6-7).  The ascent runs in
reduced coordinates: every branch value is constant along
k -> exp(s Y) k for some directions Y of k0 (su21 has one,
diag(-2i, i, i); there the gradient and the curvature along Y vanish),
so the engine drops one basis vector per such direction.  The rest span
a complement of them, so exp(x) k with x in their span charts K0 modulo
those directions near k, and the ascent in that chart seeks the same
maxima.  The coarse grid spans the same step basis, so it samples K0
modulo those directions too (su21: resolution^3 samples, not
resolution^4).  The screen works on tiles of CHUNK rows, and the ascent
and the polish run once per batch of up to ASCENT_ROWS rows, so one
ascent serves a whole grid of that size.  Each row's search depends on
that row alone: its operations act row by row, and none rounds by the
batch's size (see k0_exp on numpy's elision of temporaries of 256 KiB
and more), so the same scenario config gives identical results bit for
bit, whatever rows share a tile or a batch.

The domain exhaustion needs no search: where cycles are lines it is the
branch value at any element aligning the point with the slice, and the
scenario geometry gives one in closed form (LineCycles.align).
"""

from functools import lru_cache

import numpy as np

from .cycles import annihilator_basis, cycle_in_domain_rows, sphere_grid
from .errors import NotInDomain, OptimizerStall
from .flags import in_domain, signed_form_rows
from .liecore import (k0_coefficients, k0_exp, k0_from_coefficients, k0_matrices,
                      k0_sample_count)
from .schubert import make_schubert, schubert_slice
from .sections import exhaustion_values, highest_weight_section
from .utils import run_chunked

# Newton ascent: iteration cap; a gain below GAIN_FLOOR * max(1, |value|)
# is rounding, and so is one below RESOLVED_STEP^2 times the largest
# curvature (what a move of a few ulps along the stiffest direction
# changes); curvatures are floored at CURVATURE_FLOOR of the row's
# largest, and steps are at most MAX_STEP long in K0 coordinates; a step
# that achieves less than POOR_MODEL of its model's gain marks the model
# of its row as poor for the next step
NEWTON_ITERS = 200
GAIN_FLOOR = 4e-16
RESOLVED_STEP = 4 * np.finfo(float).eps
CURVATURE_FLOOR = 1e-13
MAX_STEP = 1.0
POOR_MODEL = 0.03
# the least divisor of a Newton step; the row before a halving round's first
# candidate
TINY = np.finfo(float).tiny
NO_ROW = np.array([-1])
# coarse screen: K_BLOCK K0 samples at a time, keeping each row's maximum
# per block, so its products stay K_BLOCK x CHUNK whatever the resolution;
# values_own scores SCORE_PAIRS (row, sample) pairs at most per call.  It
# rescores the samples whose Gram-form ratio lies within SCREEN_SLACK
# (max(r_max, 1) / nu + |log ||s||^2|) below the row's screened maximum
# (_screened_start derives it), and every sample of a row whose
# |log ||s||^2| exceeds SCREEN_LOG_SCALE, where num or den nears the ends
# of the float range.  The forms are built BUILD_ROWS samples at a time
K_BLOCK = 128
SCORE_PAIRS = 8192
SCREEN_SLACK = 1e3 * np.finfo(float).eps
SCREEN_LOG_SCALE = 500.0
BUILD_ROWS = 4096
# Newton ascent and polish: rows per batch, CHUNK-row screen tiles each.
# The ascent runs until its slowest row is done, so every batch pays its
# own tail of near-empty iterations: the 461 rows of a 23x23 su21 r_md eval
# take 18 Newton iterations as 256 + 205 rows and 9 as one batch.  The
# bound keeps the ascent's (rows x halvings) trials off the peak memory:
# one unbounded batch raised a 401x401 su21 r_md eval's peak RSS from 285
# to 374 MB
ASCENT_ROWS = 4096
# fiber_infimum: sphere-grid candidates on the pencil of cycles through y,
# the compass probes' step sizes (0.3 halved down to 1e-5), a move's least gain
FIBER_GRID = 32
FIBER_STEPS = np.ldexp(0.3, -np.arange(15))
FIBER_GAIN = 1e-12


_ENGINES = {}


class BranchEngine:
    """Vectorized branch evaluation for one scenario.

    Subjects are rows (the scenario geometry's subject_row of a cycle),
    moved and cut with the slice by the geometry's branch kernel.  The engine
    also holds the base slice (through the point of C0 cap S), the
    coarse K0 stacks it has built, read-only and filled on first use, the
    step basis (the K0 basis less one vector per direction that leaves
    every branch value unchanged, _invariant_directions; their indices are
    dropped) and the linear maps from a moved subject to its slice vector
    and that vector's first and second derivatives along the step basis,
    which give the branch value's derivatives.
    """

    def __init__(self, sc):
        self.sc = sc
        self.schubert = make_schubert(sc)
        self.slice = schubert_slice(self.schubert, sc)
        self.section = highest_weight_section(self.schubert, sc)
        self.sigma = self.section.row
        self.duals = self.schubert.duals
        geo, n = sc.geometry, sc.n
        # p = C m: the slice vector is linear in the moved subject m
        c = geo.slice_vectors(np.eye(n, dtype=complex), self.duals).T
        # drop the basis vector of largest weight in each invariant
        # direction, eliminated against the earlier ones, so the rest spans
        # a complement of the invariant directions (su21 drops kappa_1)
        null, drop = _invariant_directions(sc, c, self.sigma), []
        for j in range(len(null)):
            drop.append(int(np.argmax(np.abs(null[j]))))
            null[j + 1:] -= np.outer(null[j + 1:, drop[-1]] / null[j, drop[-1]], null[j])
        self.dropped = tuple(drop)
        self.step_basis = np.delete(np.asarray(sc.rf.k0_basis), drop, axis=0)
        # exp(X) k moves a subject by exp(sum x_i G_i) after k, so the moved
        # subject has first derivatives G_i m and second (G_i G_j + G_j G_i) m / 2:
        # C times I, the G_i and these products maps m to p and its derivatives
        g = geo.move_matrices(self.step_basis)
        prod = np.einsum("iab,jbc->ijac", g, g)
        sym = 0.5 * (prod + np.swapaxes(prod, 0, 1))
        self.slice_maps = np.einsum("ab,kbc->kac", c, np.concatenate(
            [np.eye(n)[None], g, sym.reshape(-1, n, n)]))
        self._stacks = {}

    def values_own(self, subjects, ks):
        """branch values, subjects (m, n) each against its own ks: (m, n, n)
        gives (m,), (m, s, n, n) gives (m, s)."""
        geo = self.sc.geometry
        moved = np.einsum("m...ab,mb->m...a", geo.move_matrices(ks), subjects)
        return exhaustion_values(self.section, geo.slice_vectors(moved, self.duals))

    def sample_count(self, resolution):
        """The coarse grid's sample count at resolution, before it is built;
        InvalidInput past liecore.MAX_K0_SAMPLES."""
        return k0_sample_count(self.sc.rf, resolution, self.dropped)

    def coarse(self, resolution):
        """(coefficients, num forms, den forms): the exponential coordinates
        (K, dim K0) of the coarse K0 grid over the step basis and the real
        C-contiguous (K, n^2) coefficients of ||p||^2 and |sigma . p|^2 on
        the Gram features of a subject (_gram_split), built once per
        resolution and shared read-only by every caller.  The K0 matrices
        exist one block at a time; k0_from_coefficients gives back any
        sample's, bit for bit.

        p = A_k s is linear in the subject, so both are Hermitian forms in
        s: A_k* A_k and conj(b_k) b_k^T with b_k = A_k^T sigma.  A_k comes
        from the geometry's branch kernel applied to the identity.
        """
        if resolution not in self._stacks:
            rf, geo, n = self.sc.rf, self.sc.geometry, self.sc.n
            coeffs = k0_coefficients(rf, resolution, self.dropped)
            t = n * (n - 1) // 2
            # s* Q s = sum_c Q_cc |s_c|^2 + 2 sum_{c<d} Re(Q_cd conj(s_c) s_d)
            weight = np.repeat([1.0, 2.0, -2.0], [n, t, t])
            num, den = np.empty((2, coeffs.shape[0], n * n))
            for j in range(0, coeffs.shape[0], BUILD_ROWS):
                ks = k0_matrices(rf, coeffs[j:j + BUILD_ROWS])
                # cols[k, c] = A_k e_c, the slice vector of the moved basis vector
                cols = geo.slice_vectors(np.swapaxes(geo.move_matrices(ks), 1, 2), self.duals)
                b = np.einsum("kca,a->kc", cols, self.sigma)
                num[j:j + len(ks)] = weight * _gram_split(
                    np.einsum("kca,kda->kcd", np.conj(cols), cols))
                den[j:j + len(ks)] = weight * _gram_split(np.conj(b)[:, :, None] * b[:, None, :])
            entry = (coeffs, num, den)
            for a in entry:
                a.setflags(write=False)
            self._stacks[resolution] = entry
        return self._stacks[resolution]

    def derivatives(self, moved):
        """Gradient (m, d) and Hessian (m, d, d) of the branch value in left
        exponential coordinates of the step basis, at moved subjects (m, n):
        ps stacks p and its derivatives p_k, one einsum gives every
        <p, p_k> and one every sigma . p_k."""
        d = len(self.step_basis)
        ps = np.einsum("kab,mb->mka", self.slice_maps, moved)
        p1 = ps[:, 1:d + 1]
        inner = np.einsum("ma,mka->mk", np.conj(ps[:, 0]), ps)
        sig = np.einsum("mka,a->mk", ps, self.sigma)
        # log ||p||^2
        num = inner[:, :1].real
        n1 = 2.0 * inner[:, 1:d + 1].real / num
        n2 = 2.0 * (np.einsum("mia,mja->mij", np.conj(p1), p1)
                    + inner[:, d + 1:].reshape(-1, d, d)).real / num[:, :, None]
        # log |sigma . p|^2
        s = sig[:, :1]
        r1 = sig[:, 1:d + 1] / s
        r2 = sig[:, d + 1:].reshape(-1, d, d) / s[:, :, None]
        grad = n1 - 2.0 * r1.real
        hess = (n2 - n1[:, :, None] * n1[:, None, :]
                - 2.0 * (r2 - r1[:, :, None] * r1[:, None, :]).real)
        return grad, hess


def _invariant_directions(sc, c, sigma):
    """(r, dim K0) orthonormal coefficients of the k0 directions Y along
    which every branch value is constant: k -> exp(s Y) k leaves it
    unchanged for every subject.

    With p = C m the slice vector of the moved subject m, G_Y the move
    matrix of Y and w = C^T sigma, the value log ||C m||^2 - log |w^T m|^2
    has derivative 2 Re(m* C*C G_Y m) / ||p||^2 - 2 Re(w^T G_Y m / w^T m)
    along exp(s G_Y) m, zero for every m iff C*C G_Y is anti-Hermitian and
    G_Y^T w lies in i R w.  Both conditions are real-linear in Y; their
    null space is read off an SVD at numpy's matrix_rank tolerance.
    """
    basis = np.asarray(sc.rf.k0_basis)
    w, g = c.T @ sigma, sc.geometry.move_matrices(basis)
    gram = np.conj(c.T) @ c @ g
    v = np.einsum("iba,b->ia", g, w)
    # v minus its i R w part: zero iff v lies in i R w
    off = v - 1j * (v @ np.conj(w)).imag[:, None] * w / np.vdot(w, w).real
    eqs = np.concatenate([(gram + np.conj(np.swapaxes(gram, 1, 2))).reshape(len(basis), -1),
                          off], axis=1)
    eqs = np.concatenate([eqs.real, eqs.imag], axis=1)
    u, sv, _ = np.linalg.svd(eqs)
    return u[:, sv <= sv[0] * max(eqs.shape) * np.finfo(float).eps].T


def get_engine(sc):
    """The engine of a scenario, one per name: configs that differ only in
    k0_resolution share it, as its stacks are keyed by the resolution."""
    if sc.name not in _ENGINES:
        _ENGINES[sc.name] = BranchEngine(sc)
    return _ENGINES[sc.name]


@lru_cache(maxsize=None)
def _upper_triangle(n):
    """np.triu_indices(n, 1), built once per n."""
    return np.triu_indices(n, 1)


def _gram_split(q):
    """Real parts (..., n^2) of (..., n, n) complex matrices: the diagonal,
    then the real and imaginary parts of the strict upper triangle.  Of
    the Gram matrices conj(s_c) s_d they are the screen's features."""
    iu = _upper_triangle(q.shape[-1])
    upper = q[..., iu[0], iu[1]]
    return np.concatenate([np.diagonal(q, axis1=-2, axis2=-1).real,
                           upper.real, upper.imag], axis=-1)


@np.errstate(divide="ignore", invalid="ignore")
def _screened_start(engine, subjects, coeffs, num_forms, den_forms):
    """(index, value, group matrix) of the best coarse sample per subject
    row, the first of equal ones: np.argmax over the grid of the branch
    values that values_own gives, bit for bit.  A row that gets no
    candidate keeps sample 0, at value -inf.

    Pass 1 screens each block of K_BLOCK samples by the ratio r = ||p||^2 /
    |sigma . p|^2 of two real (samples, rows) products on the unit rows'
    Gram features (+inf where the denominator is not positive), written
    into buffers that every block reuses, and keeps each row's block
    maxima of r and smallest numerator nu.  Pass 2 re-screens the rows of
    each block whose maximum reaches the window below the row's largest
    ratio r_max, and values_own scores the candidates, the (row, sample)
    pairs within the window, at matrices rebuilt from their coefficients;
    the winners' matrices are kept, so the ascent starts from them.
    """
    m, k = subjects.shape[0], num_forms.shape[0]
    sq = np.einsum("ma,ma->m", np.conj(subjects), subjects).real
    unit = subjects / np.sqrt(sq)[:, None]
    feats = _gram_split(np.conj(unit)[:, :, None] * unit[:, None, :])
    scale = np.abs(np.log(sq))
    blocks = [slice(j, min(j + K_BLOCK, k)) for j in range(0, k, K_BLOCK)]
    tops, nu = np.empty((len(blocks), m)), np.full(m, np.inf)
    buf = np.empty((2, K_BLOCK, m))
    for j, b in enumerate(blocks):
        num = np.matmul(num_forms[b], feats.T, out=buf[0, :b.stop - b.start])
        den = np.matmul(den_forms[b], feats.T, out=buf[1, :b.stop - b.start])
        nu, positive = np.minimum(nu, num.min(axis=0)), den.min(axis=0) > 0
        tops[j] = np.where(positive, np.divide(num, den, out=num).max(axis=0), np.inf)
    r_max = np.max(tops, axis=0)
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
    w = SCREEN_SLACK * (np.maximum(r_max, 1.0) / np.maximum(nu, 0.0) + scale)
    keep_all = ~((w < 0.5) & (scale < SCREEN_LOG_SCALE))
    floor = np.where(keep_all, -np.inf, r_max * (1.0 - w))
    best, value, every = np.zeros(m, int), np.full(m, -np.inf), np.arange(m)
    won, got = np.empty((m, engine.sc.n, engine.sc.n), complex), np.zeros(m, bool)

    def score(rows, samples):
        # np.argmax's rule, the first maximum with NaN on top; winners so far first
        ks = k0_from_coefficients(engine.sc.rf, coeffs[samples])
        v = np.concatenate((value, engine.values_own(subjects[rows], ks[:, None])[:, 0]))
        rows, samples = np.concatenate((every, rows)), np.concatenate((best, samples))
        order = np.lexsort((samples, -v, ~np.isnan(v), rows))
        first = order[np.searchsorted(rows[order], every)]
        best[:], value[:] = samples[first], v[first]
        new = first >= m
        won[new], got[new] = ks[first[new] - m], True

    size, rows, samples = SCORE_PAIRS, np.empty(0, int), np.empty(0, int)
    for j in np.flatnonzero((tops >= floor).any(axis=1)):
        hit, b = (tops[j] >= floor).nonzero()[0], blocks[j]
        num, den = num_forms[b] @ feats[hit].T, den_forms[b] @ feats[hit].T
        r, c = np.nonzero(((num / den >= floor[hit]) | ~(den > 0)).T)
        rows, samples = np.concatenate((rows, hit[r])), np.concatenate((samples, b.start + c))
        while rows.size >= size:
            score(rows[:size], samples[:size])
            rows, samples = rows[size:], samples[size:]
    if rows.size:
        score(rows, samples)
    if not got.all():
        # k0_from_coefficients acts row by row: the same bits as sample 0 in a stack
        won[~got] = k0_from_coefficients(engine.sc.rf, coeffs[:1])
    return best, value, won


@np.errstate(all="ignore")
def _newton_ascent(engine, subjects, ks, vals):
    """Monotone saddle-free Newton ascent on K0 from ks, per subject row.

    A step x moves k to exp(sum x_i b_i) k, the b_i the engine's step
    basis (the K0 basis less its invariant directions), exponentiated in
    closed form (liecore.k0_exp).  Its curvature matrix is
    B = H - g g^T, the Hessian of exp(-value) = |sigma . p|^2 / ||p||^2
    over exp(-value): that ratio is smooth where the value has its
    logarithmic peak, so far starts near the boundary reach the peak in
    a few steps, and at the maximum g = 0 gives B = H.  Along each
    eigenvector of B the step divides the gradient by the curvature's
    absolute value, so it ascends at saddles and minima too.  Backtracking
    (Nocedal and Wright, Numerical Optimization, 3.1): a row takes the
    first t = 1, 1/2, 1/4, ... whose value does not fall, and no step
    once the model's gain at t is at or below its rounding floor.  The
    floor is the larger of GAIN_FLOOR max(1, |value|), the rounding of
    the value, and RESOLVED_STEP^2 max |lambda(B)|, what a move of a few
    ulps of k along the stiffest direction changes: near the boundary
    the curvature is large and a smaller gain is rounding noise in k.
    Halvings are tried 1, 2, 4, ... per call, so J halvings take
    O(log J) calls, and each row ends where a one-per-call search ends,
    bit for bit.  A call's candidates are flat arrays, one entry per
    (row, t) with the rows in order, and each row takes its first
    candidate whose value does not fall.  A row stops once the model's
    gain, or the gain a step achieved, is below that floor, or once its
    curvature is not finite (at the pole sigma . p = 0).

    A step that achieves less than POOR_MODEL of the model's gain marks
    the model poor, and then its curvature is not trusted: the row stops
    only on a gain below GAIN_FLOOR max(1, |value|), and its next step
    divides by -lambda, floored, so that along directions in which the
    value is convex MAX_STEP and the backtracking set the length.  Deep
    su21 rows whose slice vector p shrinks toward 0 meet such models
    and would otherwise stop far below their maximum.
    """
    rf, basis, move = engine.sc.rf, engine.step_basis, engine.sc.geometry.move_matrices
    ks, vals = ks.copy(), vals.copy()
    live = np.flatnonzero(np.isfinite(vals))
    poor = np.zeros(vals.shape, bool)
    for _ in range(NEWTON_ITERS):
        if live.size == 0:
            return vals, ks
        k, subj = ks[live], subjects[live]
        grad, hess = engine.derivatives(np.einsum("mab,mb->ma", move(k), subj))
        curv = hess - grad[:, :, None] * grad[:, None, :]
        fine = np.isfinite(curv).all(axis=(1, 2))
        if not fine.all():
            live, k, subj, grad, curv = live[fine], k[fine], subj[fine], grad[fine], curv[fine]
        v = vals[live]
        lam, vec = np.linalg.eigh(curv)
        size = np.abs(lam)
        top = size.max(axis=1)
        curvature = np.where(poor[live, None], -lam, size)
        scale = np.maximum(curvature, CURVATURE_FLOOR * top[:, None])
        coef = np.einsum("mij,mi->mj", vec, grad) / np.maximum(scale, TINY)
        step = np.einsum("mij,mj->mi", vec, coef)
        length = np.sqrt(np.einsum("mi,mi->m", step, step))
        step *= (MAX_STEP / np.maximum(length, MAX_STEP))[:, None]
        # model gain t g.x + t^2 x.B.x / 2 of the step t x
        slope = np.einsum("mi,mi->m", grad, step)
        bend = 0.5 * np.einsum("mi,mij,mj->m", step, curv, step)
        rounding = GAIN_FLOOR * np.maximum(1.0, np.abs(v))
        floor = np.maximum(rounding, RESOLVED_STEP ** 2 * top)
        todo = np.arange(live.size)
        going = np.zeros(live.size, bool)
        first, width = 0, 1
        while todo.size:
            # halvings first .. first + width - 1; a row's candidates end
            # before its first t whose model gain is at or below the floor
            t = np.ldexp(1.0, -np.arange(first, first + width))
            gain = t * slope[todo, None] + t ** 2 * bend[todo, None]
            alive = np.logical_and.accumulate(gain > floor[todo, None], axis=1)
            at, j = alive.nonzero()
            if at.size == 0:
                break
            # the candidates, flat: row todo[at] at t[j], rows in order
            cand = todo[at]
            trial = np.einsum("mab,mbc->mac", k0_exp(rf, np.einsum(
                "m,mi,iab->mab", t[j], step[cand], basis)), k[cand])
            tv = engine.values_own(subj[cand], trial)
            # each row takes its first candidate whose value does not fall
            ok = (tv >= v[cand]).nonzero()[0]
            row = at[ok]
            pick = ok[row != np.concatenate((NO_ROW, row[:-1]))]
            win = cand[pick]
            won, rows = tv[pick], live[win]
            gained = won - v[win]
            poor[rows] = weak = gained < POOR_MODEL * gain[alive][pick]
            going[win] = gained > np.where(weak, rounding[win], floor[win])
            ks[rows], vals[rows] = trial[pick], won
            # rows with no such candidate go on if all their t were tried
            more = alive[:, -1]
            more[row] = False
            todo = todo[more]
            first, width = first + width, 2 * width
        live = live[going]
    if live.size:
        raise OptimizerStall(f"Newton ascent still gaining after {NEWTON_ITERS} steps")
    return vals, ks


def maximize_branch(subjects, sc):
    """sup over the compact group of the branch value per subject row.

    Returns (values, argmax group matrices).  Newton ascent from the best
    sample of the coarse K0 grid of sc's k0_resolution (the first of equal
    ones), then one Newton-Schulz step k (3I - k*k) / 2 on each finite
    row's argmax (Higham, Functions of Matrices, 2008, ch. 8): the ascent's
    accepted steps leave k off the unitary group by a few eps, and near
    the boundary the value is sensitive to that defect.  A finite value
    is the branch value at its polished argmax, so it differs from the
    ascent's, which never falls below the coarse maximum, by the polish's
    rounding only.  A row strictly outside its domain (an su11 point
    outside D, an su21 dual outside the cycle space) scores +inf by the
    exact sign of its form (the geometry's subject_sign), so rows 5e-15
    inside the boundary keep their values.
    """
    engine = get_engine(sc)
    coeffs, num_forms, den_forms = engine.coarse(sc.k0_resolution)

    def screen(tile):
        return _screened_start(engine, tile, coeffs, num_forms, den_forms)

    def block(rows):
        _, value, ks = run_chunked(screen, rows)
        vals, ks = _newton_ascent(engine, rows, ks, value)
        fin = np.isfinite(vals)
        k = ks[fin]
        k = 0.5 * k @ (3.0 * np.eye(k.shape[-1]) - np.conj(np.swapaxes(k, 1, 2)) @ k)
        ks[fin], vals[fin] = k, engine.values_own(rows[fin], k)
        return vals, ks

    subjects = np.atleast_2d(np.asarray(subjects, complex))
    vals, ks = run_chunked(block, subjects, ASCENT_ROWS)
    vals[sc.geometry.subject_sign * signed_form_rows(subjects, sc) < 0] = np.inf
    return vals, ks


def aligned_domain_values(points, sc):
    """Domain exhaustion by slice alignment, batched over points, +inf
    outside the domain: the scenario geometry's domain_values of the unit
    rows (the plain branch supremum for su11, whose slice is the whole
    domain; the closed-form aligning element for su21, LineCycles.align).
    Returns (values, aligning group elements).
    """
    points = np.atleast_2d(np.asarray(points, complex))
    return sc.geometry.domain_values(points / np.linalg.norm(points, axis=1, keepdims=True), sc)


def fiber_infimum(y, sc):
    """(inf of r_md over the cycles through y, the infimal dual or None for
    point cycles); NotInDomain for y outside D.

    The cycles through y are c B, B the annihilator basis of y.  One
    maximize_branch call scores the sphere grid of the pencil's P^1 of rows
    c and the radial dual, one more the compass probes of the incumbent at
    every step size; a probe gaining more than FIBER_GAIN moves it and the
    probes repeat.  Members outside the cycle space score +inf.
    """
    if not in_domain(y, sc):
        raise NotInDomain("mu fiber requested at a point outside D")
    if sc.cycle_dim == 0:
        vals, _ = maximize_branch(y.homogeneous[None, :], sc)
        return float(vals[0]), None
    basis = annihilator_basis(y.homogeneous)

    def rmd(coefs):
        duals = coefs @ basis
        keep = cycle_in_domain_rows(duals, sc)
        out = np.full(duals.shape[0], np.inf)
        if np.any(keep):
            out[keep] = maximize_branch(duals[keep], sc)[0]
        return out

    warm = sc.geometry.radial_dual(y.homogeneous) @ np.conj(basis).T
    cands = np.vstack([sphere_grid(FIBER_GRID), warm[None, :]])
    vals = rmd(cands)
    best = int(np.argmin(vals))
    cur, cur_v = cands[best], float(vals[best])
    if not np.isfinite(cur_v):
        raise OptimizerStall("no feasible cycle through the point was found")
    turn = np.sin(FIBER_STEPS)[:, None] * np.array([1, -1, 1j, -1j])
    while True:
        u = cur / np.linalg.norm(cur)
        perp = np.array([-np.conj(u[1]), np.conj(u[0])])
        probes = (np.cos(FIBER_STEPS)[:, None, None] * u
                  + turn[:, :, None] * perp).reshape(-1, 2)
        vals = rmd(probes)
        best = int(np.argmin(vals))
        if not vals[best] < cur_v - FIBER_GAIN:
            return cur_v, (cur[None, :] @ basis)[0]
        cur, cur_v = probes[best], float(vals[best])
