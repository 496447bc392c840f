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
geometry builds the chart frame and the minorant family of each case
(scenarios.py); the certificate runs one body for both.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import MinorantFailure, NotInDomain, StencilFailure
from .flags import in_domain, in_domain_rows
from .optimize import aligned_domain_values, get_engine
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


def eig_signature(lev, zero_band=ZERO_BAND):
    """(positive, zero, negative) eigenvalue counts within a zero band of
    a finite form, or per form of an (m, d, d) stack of finite forms."""
    eigs = np.linalg.eigvalsh(hermitize(lev))
    pos = np.sum(eigs > zero_band, axis=-1)
    neg = np.sum(eigs < -zero_band, axis=-1)
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


def q_pseudoconvex_certificate(y, sc, seed=42):
    """Build and check the local minorant certificate at an interior point.

    Probes are PROBES uniform points of the chart polydisk, seeded, and
    SOUNDNESS_PROBES more recheck the radius; the certificate holds when
    the exhaustion dominates the minorant at every probe within
    PROBE_GAP_TOL and the minorant's Levi form has at least n - q
    positive eigenvalues.  The radius starts at RADIUS and halves a
    bounded number of times before the attempt is abandoned; each attempt
    scales the same points.
    """
    if not in_domain(y, sc):
        raise NotInDomain("certificates exist at interior points only")
    geo = sc.geometry
    v = y.homogeneous
    vals, ks = aligned_domain_values(v[None, :], sc)
    value, khat = float(vals[0]), ks[0]
    chart = geo.certificate_chart(v, khat, get_engine(sc).schubert.borel.matrix)
    frame, slice_coord, _ = chart
    # the chart has one coordinate per dimension of Z
    dims = sc.ambient_dim
    required = dims - sc.cycle_dim

    def chart_rows(xi):
        rows = v[None, :]
        for j in range(dims):
            rows = rows + xi[:, j:j + 1] * frame[j + 1][None, :]
        return rows

    def exhaustion(xi):
        return aligned_domain_values(chart_rows(xi), sc)[0]

    box = np.random.default_rng((seed, 41)).uniform(
        -1.0, 1.0, (PROBES + SOUNDNESS_PROBES, 2 * dims))
    unit = box[:, 0::2] + 1j * box[:, 1::2]
    for attempt in range(MAX_SHRINKS + 1):
        rad = RADIUS * 0.5**attempt
        # minorant(xi) is the minorant at chart probes xi; each family
        # member is a feasible branch of its own probe point
        minorant, padding, notes = geo.minorant_family(sc, khat, chart, chart_rows, rad)
        xi = rad * unit[:PROBES]
        if not np.all(in_domain_rows(chart_rows(xi), sc)):
            continue
        gaps = exhaustion(xi) - minorant(xi)
        touch = float(abs(minorant(np.zeros((1, dims), complex))[0] - value))
        if touch > TOUCH_TOL:
            raise MinorantFailure(f"minorant misses the value by {touch:.2e}")
        gap_min = float(np.min(gaps))
        if gap_min >= -PROBE_GAP_TOL:
            # soundness recheck: probes independent of the batch that
            # tuned the radius
            xi2 = rad * unit[PROBES:]
            sound = float(np.min(exhaustion(xi2) - minorant(xi2)))
            if sound < -SOUNDNESS_TOL:
                continue
            lev = levi_form_fd(minorant, np.zeros((1, dims), complex))[0]
            if np.isnan(lev).any():
                raise StencilFailure("non-finite value on the Levi stencil")
            pos = int(eig_signature(lev)[0])
            return CertificateReport(
                point=v, value=value, slice_coord=slice_coord,
                padding=float(padding), radius=rad, touch_gap=touch,
                probe_gap_min=gap_min,
                levi_eigenvalues=np.linalg.eigvalsh(lev), n_pos=pos,
                required_pos=required, q_convex_ok=bool(pos >= required),
                notes=dict(notes, probes=PROBES, shrinks=attempt,
                           soundness_gap_min=sound))
    raise MinorantFailure("no radius produced a verified minorant")
