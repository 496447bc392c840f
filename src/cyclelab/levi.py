"""Finite-difference Levi forms and the pseudoconvexity certificate.

levi_form_fd computes the complex Hessians (d^2 f / dz_a dzbar_b) of a
real-valued function on C^d at a stack of centres from central
differences, with one Richardson extrapolation step: one call of the
function per step size on the stencil rows of all centres.  The
certificate realizes the defining datum of q-pseudoconvexity at a point
y: a smooth local minorant of the domain exhaustion, touching at y,
whose Levi form has at least n - q positive eigenvalues.

The minorant is built from the slice alignment of y.  When the cycles
are points the fixed aligned branch is itself a global minorant (the
supremum over branches dominates any single branch).  In the positive
cycle dimension a single frozen branch fails to minorize on any full
neighborhood: the deficit carries a bilinear slice-transverse cross
term, so no purely transverse quadratic padding can absorb it.  The
certificate instead takes the closed-form aligning group element of
each chart point, which varies smoothly with it; each member of that
family is a feasible branch for its own point, so the family value
minorizes the exhaustion exactly, and a small transverse quadratic is
subtracted to make the domination strict off the slice.  The Levi form
of the result keeps the positive slice curvature on its diagonal, so
its positive count stays at least the slice dimension.  The scenario
geometry builds the chart frames and the minorant families of each case
(scenarios.py); the certificate runs one body for both.

certificates takes a scenario's points GROUP at a time and runs each
probe set of a radius attempt as one optimizer call for the open points
of the group.  Both optimizer paths work row by row, bit for bit,
whatever rows share a call, so a point's report does not depend on its
group, and a group of one certifies a point alone.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (CycleLabError, MinorantFailure, NotInDomain, NumericalDegeneracy,
                     StencilFailure)
from .flags import in_domain, in_domain_rows
from .optimize import ASCENT_ROWS, aligned_domain_values, get_engine
from .utils import hermitize

# levi_form_fd: the default step; eig_signature: eigenvalues within
# this band of 0 count as zero
FD_STEP = 1e-3
ZERO_BAND = 1e-6
# certificate probes: seeded uniform points of the chart polydisk, first radius
PROBES = 200
RADIUS = 1e-2
PROBE_GAP_TOL = 1e-9
TOUCH_TOL = 1e-10
MAX_SHRINKS = 4
SOUNDNESS_PROBES = 20
SOUNDNESS_TOL = 1e-8
# certificates: points per group, so that a group's probe rows fit one
# Newton ascent
GROUP = ASCENT_ROWS // (PROBES + SOUNDNESS_PROBES)


def _raw_levi(fn, z0, steps):
    """Central-difference Levi forms (m, d, d) at centres z0 (m, d), one
    stack per step size, each from one call of fn on the stencil rows of
    all centres (the centre rows in the first call only).  A centre with a
    non-finite value on its stencil gets a NaN form."""
    m, d = z0.shape
    eye, (a, b), units = np.eye(d), np.triu_indices(d, 1), (1, -1, 1j, -1j)
    # in units of the step: the centre, the four axis steps of each
    # coordinate, then the sixteen steps of each coordinate pair
    offsets = np.array([np.zeros(d)] + [u * eye[i] for i in range(d) for u in units]
                       + [ua * eye[i] + ub * eye[j] for i, j in zip(a, b)
                          for ua in units for ub in units], complex)
    # the centre row, the same at every step size, is evaluated in the first call
    centre = np.zeros((m, 0))
    for step in steps:
        pts = (z0[:, None, :] + step * offsets[centre.shape[1]:]).reshape(-1, d)
        vals = np.concatenate([centre, np.asarray(fn(pts), float).reshape(m, -1)], axis=1)
        centre = vals[:, :1].copy()
        vals[~np.all(np.isfinite(vals), axis=1)] = np.nan
        axis = vals[:, 1:1 + 4 * d].reshape(m, d, 4)
        # q[:, p, i, j]: pair p stepped by units[i] and units[j]; i ^ 1 negates
        q = vals[:, 1 + 4 * d:].reshape(m, -1, 4, 4)

        def d2(i, j):
            return (q[..., i, j] - q[..., i, j ^ 1] - q[..., i ^ 1, j]
                    + q[..., i ^ 1, j ^ 1]) / (4 * step**2)

        lev = np.zeros((m, d, d), complex)
        lev[:, range(d), range(d)] = (axis[..., 0] + axis[..., 1] + axis[..., 2]
                                      + axis[..., 3] - 4 * vals[:, :1]) / (4 * step**2)
        lev[:, a, b] = 0.25 * ((d2(0, 0) + d2(2, 2)) + 1j * (d2(0, 2) - d2(2, 0)))
        lev[:, b, a] = np.conj(lev[:, a, b])
        yield lev


def levi_form_fd(fn, z0, h=FD_STEP):
    """Complex Hessians (d^2 f / dz_a dzbar_b) of fn at the centres z0,
    an (m, d) array, by central differences, as an (m, d, d) stack.

    fn maps an (k, d) complex array to k real values; it is called once
    per step size on the stencil rows of all centres.  One Richardson
    step (4 L_{h/2} - L_h) / 3 removes the leading O(h^2) error.  A
    centre with a non-finite value on its stencil gets a NaN form.
    """
    l1, l2 = _raw_levi(fn, np.asarray(z0, complex), (h, h / 2))
    return hermitize((4.0 * l2 - l1) / 3.0)


def levi_refinement_ratio(fn, z0, h):
    """||L_h - L_{h/2}|| / ||L_{h/2} - L_{h/4}|| at one centre z0, ~4 for
    clean second order."""
    l1, l2, l4 = (lev[0] for lev in
                  _raw_levi(fn, np.asarray(z0, complex)[None], (h, h / 2, h / 4)))
    den = np.linalg.norm(l2 - l4)
    if den < 1e-15:
        raise StencilFailure("refinement differences vanished; h too small")
    return float(np.linalg.norm(l1 - l2) / den)


def eig_signature(lev):
    """(positive, zero, negative) eigenvalue counts, within ZERO_BAND of 0
    counted as zero, of a finite form, or per form of an (m, d, d) stack
    of finite forms."""
    eigs = np.linalg.eigvalsh(hermitize(lev))
    pos = np.sum(eigs > ZERO_BAND, axis=-1)
    neg = np.sum(eigs < -ZERO_BAND, axis=-1)
    return pos, lev.shape[-1] - pos - neg, neg


@dataclass(eq=False)
class CertificateReport:
    """Local minorant datum certifying q-pseudoconvexity at a point."""

    point: np.ndarray
    value: float
    slice_coord: complex
    padding: float
    radius: float
    touch_gap: float
    probe_gap_min: float
    levi_eigenvalues: np.ndarray
    n_pos: int
    required_pos: int
    q_convex_ok: bool
    notes: dict = field(default_factory=dict)


def certificates(points, sc, seed=42):
    """Certificate of each point, in order: a CertificateReport or the
    CycleLabError that point raised.

    Each point's certificate holds when the exhaustion dominates its
    minorant at PROBES seeded uniform points of the chart polydisk within
    PROBE_GAP_TOL, at SOUNDNESS_PROBES more that recheck the radius, and
    the minorant's Levi form has at least n - q positive eigenvalues.  The
    radius starts at RADIUS and halves up to MAX_SHRINKS times; each
    attempt scales the same seeded probe offsets, which all points share.

    Points are certified GROUP at a time, and each radius attempt runs
    for the still-open points of a group together: the value at y, su21's
    transverse probes, the probes, the soundness probes and each step size
    of the Levi stencil are one aligned_domain_values call for the group,
    not one per point (the minorant reuses the values at y and at both
    probe sets).  A report does not depend on the group: both optimizer
    paths (maximize_branch, LineCycles.align) work row by row and bit for
    bit whatever rows share a call, and the rest is elementwise or point
    by point.  A CycleLabError from a shared
    call runs that call again one point at a time, so only the points
    that raise it fail.  The generator holds one group at a time.
    """
    points = list(points)
    for start in range(0, len(points), GROUP):
        yield from _certify_group(points[start:start + GROUP], sc, seed)


def _certify_group(points, sc, seed):
    geo, dims, n, g = sc.geometry, sc.ambient_dim, sc.n, len(points)
    required = dims - sc.cycle_dim
    # per point: None while open, then its report or its error
    out = [None if in_domain(y, sc) else
           NotInDomain("certificates exist at interior points only") for y in points]
    # the points of the current step: shared calls evaluate these, if open
    act = np.ones(g, bool)

    def is_open():
        return np.array([o is None for o in out])

    def aligned(rows):
        """(values (g, k), aligning elements) of the rows (g, k, n), NaN
        for all but the open points of the step, in one call for all."""
        on = np.flatnonzero(act & is_open())
        k = rows.shape[1]
        vals, ks = np.full((g, k), np.nan), np.full((g, k, n, n), np.nan, complex)
        if on.size == 0:
            return vals, ks
        try:
            got = aligned_domain_values(rows[on].reshape(-1, n), sc)
            vals[on], ks[on] = got[0].reshape(-1, k), got[1].reshape(-1, k, n, n)
        except CycleLabError:
            for i in on:
                try:
                    vals[i], ks[i] = aligned_domain_values(rows[i], sc)
                except CycleLabError as exc:
                    out[i] = exc
        return vals, ks

    v = np.array([y.homogeneous for y in points])
    vals, ks = aligned(v[:, None, :])
    value, khat = vals[:, 0], ks[:, 0]
    on = np.flatnonzero(is_open())
    if on.size == 0:
        return out
    sub = geo.certificate_chart(v[on], khat[on], get_engine(sc).schubert.borel.matrix)
    for i in on[np.abs(np.linalg.det(sub[0])) < 1e-8]:
        out[i] = NumericalDegeneracy("certificate chart is degenerate")
    # (frames, slice coordinates, cell scales) per point; a failed point
    # borrows an open point's chart, so no step computes on NaN, and no
    # step reads its values
    pos = np.minimum(np.searchsorted(on, np.arange(g)), on.size - 1)
    chart = [None if a is None else a[pos] for a in sub]
    frames = chart[0]

    def chart_rows(xi):
        # the chart has one coordinate per dimension of Z
        rows = v[:, None, :]
        for j in range(dims):
            rows = rows + xi[:, :, j:j + 1] * frames[:, None, j + 1, :]
        return rows

    def exhaustion(xi):
        return aligned(chart_rows(xi))[0]

    box = np.random.default_rng((seed, 41)).uniform(
        -1.0, 1.0, (PROBES + SOUNDNESS_PROBES, 2 * dims))
    unit = box[:, 0::2] + 1j * box[:, 1::2]
    for attempt in range(MAX_SHRINKS + 1):
        act[:] = is_open()
        if not act.any():
            break
        rad = RADIUS * 0.5**attempt
        # minorant(xi, values) is the minorant at chart probes xi with the
        # exhaustion values there; each member is a feasible branch of its probe
        minorant, padding, notes = geo.minorant_family(sc, khat, chart, chart_rows,
                                                       exhaustion, rad)
        xi = np.broadcast_to(rad * unit[:PROBES], (g, PROBES, dims))
        act &= np.all(in_domain_rows(chart_rows(xi).reshape(-1, n), sc)
                      .reshape(g, PROBES), axis=1)
        ex = exhaustion(xi)
        gaps = ex - minorant(xi, ex)
        touch = np.abs(minorant(np.zeros((g, 1, dims), complex), value[:, None])[:, 0]
                       - value)
        for i in np.flatnonzero(act & is_open() & (touch > TOUCH_TOL)):
            out[i] = MinorantFailure(f"minorant misses the value by {touch[i]:.2e}")
        gap_min = np.min(gaps, axis=1)
        act &= is_open() & (gap_min >= -PROBE_GAP_TOL)
        # soundness recheck: probes independent of the batch that tuned
        # the radius
        xi2 = np.broadcast_to(rad * unit[PROBES:], (g, SOUNDNESS_PROBES, dims))
        ex = exhaustion(xi2)
        sound = np.min(ex - minorant(xi2, ex), axis=1)
        act &= is_open() & (sound >= -SOUNDNESS_TOL)
        # the stencil rows are centre-major, so each centre's rows are its
        # own point's chart probes
        lev = levi_form_fd(lambda pts: minorant(pts.reshape(g, -1, dims)).ravel(),
                           np.zeros((g, dims), complex))
        for i in np.flatnonzero(act & is_open()):
            if np.isnan(lev[i]).any():
                out[i] = StencilFailure("non-finite value on the Levi stencil")
                continue
            n_pos = int(eig_signature(lev[i])[0])
            out[i] = CertificateReport(
                point=v[i], value=float(value[i]),
                slice_coord=None if chart[1] is None else complex(chart[1][i]),
                padding=float(padding[i]), radius=rad, touch_gap=float(touch[i]),
                probe_gap_min=float(gap_min[i]),
                levi_eigenvalues=np.linalg.eigvalsh(lev[i]), n_pos=n_pos,
                required_pos=required, q_convex_ok=bool(n_pos >= required),
                notes=dict({k: float(a[i]) for k, a in notes.items()}, probes=PROBES,
                           shrinks=attempt, soundness_gap_min=float(sound[i])))
    return [MinorantFailure("no radius produced a verified minorant") if o is None else o
            for o in out]
