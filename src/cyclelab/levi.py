"""Finite-difference Levi forms and the pseudoconvexity certificate.

levi_form_fd computes the complex Hessian (d^2 f / dz_a dzbar_b) of a
real-valued function on C^d from central differences, with one
Richardson extrapolation step.  The certificate realizes the defining
datum of q-pseudoconvexity at a point y: a smooth local minorant of the
domain exhaustion, touching at y, whose Levi form has at least n - q
positive eigenvalues.

The minorant is built from the slice alignment of y.  When the cycles
are points the fixed aligned branch is itself a global minorant (the
supremum over branches dominates any single branch).  In the positive
cycle dimension a single frozen branch fails to minorize on any full
neighborhood: the deficit carries a bilinear slice-transverse cross
term, so no purely transverse quadratic padding can absorb it.  The
certificate instead follows the aligning group element smoothly with
the chart point; each member of that family is a feasible branch for
its own point, so the family value minorizes the exhaustion exactly,
and a small transverse quadratic is subtracted to make the domination
strict off the slice.  The Levi form of the result keeps the positive
slice curvature on its diagonal, so its positive count stays at least
the slice dimension.  The scenario geometry builds the chart frame and
the minorant family of each case (scenarios.py); the certificate runs
one body for both.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import MinorantFailure, NotInDomain, StencilFailure
from .flags import in_domain, in_domain_rows
from .optimize import aligned_domain_values, get_engine
from .utils import sobol_points

# certificate probes: Sobol points of the chart polydisk, first radius
PROBES = 200
RADIUS = 1e-2
PROBE_GAP_TOL = 1e-9
TOUCH_TOL = 1e-10
MAX_SHRINKS = 4
SOUNDNESS_PROBES = 20
SOUNDNESS_TOL = 1e-8


def levi_form_fd(fn, z0, h, richardson=True):
    """Complex Hessian of fn at z0 by central differences.

    fn maps an (m, d) complex array to m real values and must be finite
    on the stencil.  One Richardson step (4 L_{h/2} - L_h) / 3 removes
    the leading O(h^2) error when richardson is set.
    """
    z0 = np.atleast_1d(np.asarray(z0, complex))
    d = z0.shape[0]

    def raw(step):
        pts = [z0]
        slots = {}
        for a in range(d):
            for delta in (step, -step, 1j * step, -1j * step):
                slots[(a, delta)] = len(pts)
                pts.append(z0 + delta * np.eye(d)[a])
        for a in range(d):
            for b in range(a + 1, d):
                for da in (step, -step, 1j * step, -1j * step):
                    for db in (step, -step, 1j * step, -1j * step):
                        key = (a, b, da, db)
                        slots[key] = len(pts)
                        pts.append(z0 + da * np.eye(d)[a] + db * np.eye(d)[b])
        vals = np.asarray(fn(np.stack(pts)), float)
        if not np.all(np.isfinite(vals)):
            raise StencilFailure("non-finite value on the Levi stencil")
        lev = np.zeros((d, d), complex)
        for a in range(d):
            s = sum(vals[slots[(a, delta)]]
                    for delta in (step, -step, 1j * step, -1j * step))
            lev[a, a] = (s - 4 * vals[0]) / (4 * step**2)

        def d2(a, b, da, db):
            return (vals[slots[(a, b, da, db)]] - vals[slots[(a, b, da, -db)]]
                    - vals[slots[(a, b, -da, db)]]
                    + vals[slots[(a, b, -da, -db)]]) / (4 * step**2)

        for a in range(d):
            for b in range(a + 1, d):
                real = d2(a, b, step, step) + d2(a, b, 1j * step, 1j * step)
                imag = d2(a, b, step, 1j * step) - d2(a, b, 1j * step, step)
                lev[a, b] = 0.25 * (real + 1j * imag)
                lev[b, a] = np.conj(lev[a, b])
        return lev

    lev = raw(h)
    if richardson:
        lev = (4.0 * raw(h / 2) - lev) / 3.0
    return 0.5 * (lev + np.conj(lev.T))


def levi_refinement_ratio(fn, z0, h):
    """||L_h - L_{h/2}|| / ||L_{h/2} - L_{h/4}||, ~4 for clean second order."""
    l1 = levi_form_fd(fn, z0, h, richardson=False)
    l2 = levi_form_fd(fn, z0, h / 2, richardson=False)
    l4 = levi_form_fd(fn, z0, h / 4, richardson=False)
    den = np.linalg.norm(l2 - l4)
    if den < 1e-15:
        raise StencilFailure("refinement differences vanished; h too small")
    return float(np.linalg.norm(l1 - l2) / den)


def eig_signature(lev, zero_band):
    """(positive, zero, negative) eigenvalue counts within a zero band."""
    eigs = np.linalg.eigvalsh(0.5 * (lev + np.conj(lev.T)))
    pos = int(np.sum(eigs > zero_band))
    neg = int(np.sum(eigs < -zero_band))
    return pos, lev.shape[0] - pos - neg, neg


@dataclass(eq=False)
class CertificateReport:
    """Local minorant datum certifying q-pseudoconvexity at a point."""

    point: np.ndarray
    value: float
    chart: np.ndarray
    slice_coord: complex
    padding: float
    radius: float
    touch_gap: float
    probe_gap_min: float
    levi_matrix: np.ndarray
    levi_eigenvalues: np.ndarray
    n_pos: int
    required_pos: int
    q_convex_ok: bool
    notes: dict = field(default_factory=dict)


def q_pseudoconvex_certificate(y, sc, seed=42):
    """Build and check the local minorant certificate at an interior point.

    Probes are PROBES Sobol points of the chart polydisk; the certificate
    holds when the exhaustion dominates the minorant at every probe within
    PROBE_GAP_TOL and the minorant's Levi form has at least n - q
    positive eigenvalues.  The radius starts at RADIUS and halves a
    bounded number of times before the attempt is abandoned.
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
        return geo.certificate_exhaustion(chart_rows(xi), sc)

    def minorant(xi):
        return family(xi)[0]

    for attempt in range(MAX_SHRINKS + 1):
        rad = RADIUS * 0.5**attempt
        # family(xi) gives the minorant at probes xi and the vectors of its
        # family members, so one alignment serves the feasibility check
        # and the gaps
        family, padding, notes = geo.minorant_family(sc, khat, chart, chart_rows, rad)
        u = sobol_points(2 * dims, PROBES, seed)
        xi = (2.0 * u - 1.0) * rad
        xi = xi[:, 0::2] + 1j * xi[:, 1::2]
        if not np.all(in_domain_rows(chart_rows(xi), sc)):
            continue
        low, fam = family(xi)
        # each family element must stay a feasible branch of its point
        if not np.all(in_domain_rows(fam, sc)):
            continue
        gaps = exhaustion(xi) - low
        touch = float(abs(minorant(np.zeros((1, dims), complex))[0] - value))
        if touch > TOUCH_TOL:
            raise MinorantFailure(f"minorant misses the value by {touch:.2e}")
        gap_min = float(np.min(gaps))
        if gap_min >= -PROBE_GAP_TOL:
            # soundness recheck: fresh probes, independent of the batch
            # that tuned the radius
            u2 = sobol_points(2 * dims, SOUNDNESS_PROBES, seed + 1)
            xi2 = (2.0 * u2 - 1.0) * rad
            xi2 = xi2[:, 0::2] + 1j * xi2[:, 1::2]
            sound = float(np.min(exhaustion(xi2) - minorant(xi2)))
            if sound < -SOUNDNESS_TOL:
                continue
            lev = levi_form_fd(minorant, np.zeros(dims, complex),
                               h=sc.tol.fd_step)
            pos, _, _ = eig_signature(lev, sc.tol.zero_band)
            return CertificateReport(
                point=v, value=value, chart=frame,
                slice_coord=slice_coord,
                padding=float(padding), radius=rad, touch_gap=touch,
                probe_gap_min=gap_min, levi_matrix=lev,
                levi_eigenvalues=np.linalg.eigvalsh(lev), n_pos=pos,
                required_pos=required, q_convex_ok=bool(pos >= required),
                notes=dict(notes, probes=PROBES, shrinks=attempt,
                           soundness_gap_min=sound))
    raise MinorantFailure("no radius produced a verified minorant")
