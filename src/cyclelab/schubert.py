"""Schubert varieties, cells, slices, and the slice incidence map.

A Borel subgroup is stored by a conjugator taking the standard upper
triangular group to it.  For the built-in scenarios the base conjugator
is the adapted Iwasawa frame, which makes the Borel contain the
complexified A N by construction.  Each scenario has exactly one
B-invariant Schubert variety of codimension q meeting the base cycle
(index 0 of the defining family): the full P^1 for su11, and for su21
the line whose dual vector spans the unique B-fixed line of duals.  S
is stored by the stack of duals that cut it out.

Every cycle is a hyperplane, so C cap S is the common kernel of the
cycle's dual and that stack: one point, computed in closed form by the
scenario geometry's slice kernel, the one the optimizer's branch values
use.  The slice through an intersection point z_j is the A0 N0 orbit of
z_j, equal to the connected component of S cap D through z_j;
membership of a candidate point is decided by an explicit path test
from z_j inside S cap D, following the component definition.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .cycles import base_cycle, cycle_in_domain
from .errors import (IncidenceMiss, IntersectionFailure, InvalidInput,
                     InvalidSlicePoint, UniquenessViolation)
from .flags import FlagPoint, act, in_domain
from .liecore import GroupElement
from .utils import gauge_vector

PATH_SAMPLES = 33
BOUNDARY_TOL = 1e-8


@dataclass(eq=False)
class SchubertDatum:
    """B-invariant Schubert variety S = cell + boundary.

    duals is the (n - dim_S - 1, n) stack of gauge-fixed dual vectors
    whose common kernel is S: no rows for su11, where S is the whole
    projective line, and the dual of the invariant line for su21.  The
    boundary B_S is a single point in both built-in scenarios.
    """

    borel: GroupElement
    duals: np.ndarray
    dim_S: int
    cell_base: FlagPoint
    boundary_point: FlagPoint

    def on_variety(self, z, tol=1e-10):
        return bool(np.all(np.abs(self.duals @ z.homogeneous) < tol))

    def boundary_distance(self, z):
        """Projective sine-distance from z to the boundary point."""
        v, b = z.homogeneous, self.boundary_point.homogeneous
        overlap = abs(np.conj(b) @ v)
        return float(np.sqrt(max(0.0, 1.0 - min(1.0, overlap**2))))


def _dual_stack(rows, n):
    """Gauge-fixed (k, n) stack of dual rows; k may be 0."""
    return np.array([gauge_vector(r) for r in rows], complex).reshape(-1, n)


def _schubert_from_conjugator(conj, sc, check_an):
    cmat = conj.matrix
    if check_an:
        inv = np.linalg.inv(cmat)
        for x in np.concatenate([sc.rf.a_basis, sc.rf.n0_basis]):
            ad = inv @ x @ cmat
            if np.max(np.abs(np.tril(ad, -1))) > 1e-9:
                raise InvalidInput("Borel conjugator does not contain A N")
    dim_s = 1
    # S is spanned by the first dim_S + 1 columns of the conjugator
    # (sections._restriction_frame), so the rows of its inverse past
    # them cut S out
    duals = _dual_stack(np.linalg.inv(cmat)[dim_s + 1:], sc.n)
    return SchubertDatum(borel=conj, duals=duals, dim_S=dim_s,
                         cell_base=FlagPoint(cmat[:, 1]),
                         boundary_point=FlagPoint(cmat[:, 0]))


def make_schubert(sc):
    """The scenario's Schubert variety, the single member of its defining
    family: the B-orbit closure of the cell base point for the
    Iwasawa-Borel subgroup built on the adapted frame.
    """
    s = _schubert_from_conjugator(GroupElement(sc.rf.adapted_frame), sc, check_an=True)
    if not intersect_base_cycle(s, sc):
        raise IntersectionFailure("Schubert variety misses the base cycle")
    return s


def schubert_from_borel(conj, sc):
    """Schubert datum for an arbitrary Borel conjugator (no A N check)."""
    return _schubert_from_conjugator(conj, sc, check_an=False)


def translate_schubert(k, s, sc):
    """The translated datum k(S); sections translate alongside (pushforward)."""
    inv = np.linalg.inv(k.matrix)
    return SchubertDatum(
        borel=k @ s.borel,
        duals=_dual_stack([d @ inv for d in s.duals], sc.n),
        dim_S=s.dim_S,
        cell_base=act(k, s.cell_base),
        boundary_point=act(k, s.boundary_point),
    )


def _meet(c, s, sc, degenerate):
    """(point, residual) of C cap S, the common kernel of the cycle's dual
    and the duals of S.

    The kernel vector comes from the scenario geometry's slice kernel,
    as in the optimizer's branch values.  The residual is the largest
    |l . v| / |v| over those duals; it must stay within the intersection
    tolerance.  The duals are unit vectors, so a kernel vector shorter
    than 1e-12 means C and S share more than a point, which raises
    degenerate.
    """
    geo = sc.geometry
    v = geo.slice_vectors(geo.subject_row(c), s.duals)
    nrm = np.linalg.norm(v)
    if nrm < 1e-12:
        raise degenerate("the cycle and the Schubert variety meet in more than a point")
    rows = np.vstack([c.dual, s.duals])
    residual = float(np.max(np.abs(np.sum(rows * v, axis=1))) / nrm)
    if residual > sc.tol.intersection:
        raise IntersectionFailure(f"intersection residual {residual:.2e}")
    return FlagPoint(v), residual


def intersect_base_cycle(s, sc):
    """The finitely many points of C0 cap S, all required in D cap cell."""
    p, _ = _meet(base_cycle(sc), s, sc, IntersectionFailure)
    if not in_domain(p, sc):
        raise IntersectionFailure("intersection point left the domain")
    if s.boundary_distance(p) < BOUNDARY_TOL:
        raise IntersectionFailure("intersection point fell on the cell boundary")
    return [p]


@dataclass(eq=False)
class SliceDatum:
    """Schubert slice: the A0 N0 orbit of an intersection point z_j.

    The working parametrization is the affine cell coordinate c of the
    conjugator frame: points conj . (c, 1, 0...) sweep the cell, with
    c = 0 at the cell base.  an_point exposes the A0 N0 orbit map itself.
    """

    parent: SchubertDatum
    base_point: FlagPoint
    sc: object

    def cell_coord(self, z):
        w = np.linalg.inv(self.parent.borel.matrix) @ z.homogeneous
        if abs(w[1]) < 1e-13:
            return None
        return complex(w[0] / w[1])

    def cell_point(self, c):
        n = self.sc.n
        v = np.zeros(n, dtype=complex)
        v[0] = c
        v[1] = 1.0
        return FlagPoint(self.parent.borel.matrix @ v)

    def an_point(self, coords):
        """Image of z_j under exp(t a) exp(sum u_i n_i); coords = (t, u...)."""
        coords = np.asarray(coords, float)
        rf = self.sc.rf
        expected = len(rf.a_basis) + len(rf.n0_basis)
        if coords.shape[0] != expected:
            raise InvalidInput(f"A0 N0 coordinates must have length {expected}")
        t, u = coords[: len(rf.a_basis)], coords[len(rf.a_basis):]
        g = scipy.linalg.expm(np.einsum("d,dij->ij", t, rf.a_basis)) @ \
            scipy.linalg.expm(np.einsum("d,dij->ij", u, rf.n0_basis))
        return FlagPoint(g @ self.base_point.homogeneous)

    def path_contains(self, z):
        """Component test: straight cell-coordinate path from z_j to z stays
        in S cap D (the slice is the component of S cap D through z_j)."""
        if not self.parent.on_variety(z):
            return False
        c1 = self.cell_coord(z)
        if c1 is None:
            return False
        c0 = self.cell_coord(self.base_point)
        for t in np.linspace(0.0, 1.0, PATH_SAMPLES):
            p = self.cell_point(c0 + t * (c1 - c0))
            if not in_domain(p, self.sc):
                return False
        return True


def schubert_slice(s, z_j, sc):
    """Slice datum through an intersection point of the base cycle."""
    pts = intersect_base_cycle(s, sc)
    if not any(z_j.is_close(p) for p in pts):
        raise InvalidSlicePoint("slice base point is not an intersection point")
    return SliceDatum(parent=s, base_point=z_j, sc=sc)


def translate_slice(k, sl):
    """The translated slice k(Sigma) with its translated parent datum."""
    parent = translate_schubert(k, sl.parent, sl.sc)
    return SliceDatum(parent=parent, base_point=act(k, sl.base_point), sc=sl.sc)


@dataclass(eq=False)
class IncidenceRecord:
    point: FlagPoint
    residual: float


def intersect_slice(sl, c):
    """The unique point of C cap Sigma (the incidence map applied to C).

    C cap S is one point, the common kernel of the cycle's dual and the
    duals of S (_meet); a cycle sharing more than a point with S raises
    UniquenessViolation.  The point must lie on the slice, the component
    of S cap D through the slice base point (path_contains).
    """
    sc = sl.sc
    if not cycle_in_domain(c, sc):
        raise IncidenceMiss("cycle is not inside the domain")
    p, residual = _meet(c, sl.parent, sc, UniquenessViolation)
    if not sl.path_contains(p):
        raise IncidenceMiss("the cycle meets S off the slice")
    return IncidenceRecord(point=p, residual=residual)


def meets_cell_boundary(c, s, tol=BOUNDARY_TOL):
    """Does the cycle meet B_S?  (Membership in the incidence hypersurface.)"""
    return bool(abs(c.dual @ s.boundary_point.homogeneous) < tol)
