"""Schubert varieties, cells, slices, and the slice incidence map.

A Borel subgroup is stored by a conjugator taking the standard upper
triangular group to it.  For the built-in scenarios the base conjugator
is the adapted Iwasawa frame, which makes the Borel contain the
complexified A N by construction.  Each scenario has exactly one
B-invariant Schubert variety of codimension q meeting the base cycle
(index 0 of the defining family): the full P^1 for su11, and for su21
the line whose dual vector spans the unique B-fixed line of duals.

The slice through an intersection point z_j is the A0 N0 orbit of z_j,
equal to the connected component of S cap D through z_j; membership of a
candidate point is decided by an explicit path test from z_j inside
S cap D, following the component definition.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .cycles import Cycle, annihilator_basis, cycle_in_domain
from .errors import (IncidenceMiss, IntersectionFailure, InvalidInput,
                     InvalidSlicePoint, UniquenessViolation)
from .flags import FlagPoint, act, in_domain
from .liecore import GroupElement
from .utils import gauge_vector

PATH_SAMPLES = 33
PROBE_STARTS = 16
BOUNDARY_TOL = 1e-8


@dataclass(eq=False)
class SchubertDatum:
    """B-invariant Schubert variety S = cell + boundary.

    variety_dual is None when S is the whole projective line (su11) and
    the gauge-fixed dual vector of the invariant line for su21.  The
    boundary B_S is a single point in both built-in scenarios.
    """

    borel: GroupElement
    variety_dual: np.ndarray
    dim_S: int
    cell_base: FlagPoint
    boundary_point: FlagPoint

    def on_variety(self, z, tol=1e-10):
        if self.variety_dual is None:
            return True
        return bool(abs(self.variety_dual @ z.homogeneous) < tol)

    def boundary_distance(self, z):
        """Projective sine-distance from z to the boundary point."""
        v, b = z.homogeneous, self.boundary_point.homogeneous
        overlap = abs(np.conj(b) @ v)
        return float(np.sqrt(max(0.0, 1.0 - min(1.0, overlap**2))))


def _schubert_from_conjugator(conj, sc, check_an):
    n = sc.n
    cmat = conj.matrix
    if check_an:
        inv = np.linalg.inv(cmat)
        for x in np.concatenate([sc.rf.a_basis, sc.rf.n0_basis]):
            ad = inv @ x @ cmat
            if np.max(np.abs(np.tril(ad, -1))) > 1e-9:
                raise InvalidInput("Borel conjugator does not contain A N")
    boundary = FlagPoint(cmat[:, 0])
    cell_base = FlagPoint(cmat[:, 1])
    if n == 2:
        dual = None
    else:
        dual = gauge_vector(np.linalg.inv(cmat)[n - 1, :])
    return SchubertDatum(borel=conj, variety_dual=dual, dim_S=1,
                         cell_base=cell_base, boundary_point=boundary)


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
    cmat = k.matrix
    dual = None
    if s.variety_dual is not None:
        dual = gauge_vector(s.variety_dual @ np.linalg.inv(cmat))
    return SchubertDatum(
        borel=k @ s.borel,
        variety_dual=dual,
        dim_S=s.dim_S,
        cell_base=act(k, s.cell_base),
        boundary_point=act(k, s.boundary_point),
    )


def intersect_base_cycle(s, sc):
    """The finitely many points of C0 cap S, all required in D cap cell."""
    if sc.cycle_dim == 0:
        pts = [sc.base_point]
    else:
        cross = np.cross(s.variety_dual, sc.base_cycle_dual)
        if np.linalg.norm(cross) < 1e-12:
            raise IntersectionFailure("Schubert line coincides with the base cycle")
        p = FlagPoint(cross)
        res = max(abs(s.variety_dual @ p.homogeneous),
                  abs(sc.base_cycle_dual @ p.homogeneous))
        if res > sc.tol.intersection:
            raise IntersectionFailure(f"intersection residual {res:.2e}")
        pts = [p]
    for p in pts:
        if not in_domain(p, sc):
            raise IntersectionFailure("intersection point left the domain")
        if s.boundary_distance(p) < BOUNDARY_TOL:
            raise IntersectionFailure("intersection point fell on the cell boundary")
    return pts


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
    cycle: Cycle
    slice: SliceDatum
    point: FlagPoint
    residual: float
    solution_count: int


def intersect_slice(sl, c):
    """The unique point of C cap Sigma (the incidence map applied to C).

    Uniqueness is a theorem being verified, so the intersection is probed
    from PROBE_STARTS seeded starts on the cycle and distinct solutions
    are counted instead of assumed.
    """
    sc = sl.sc
    if not cycle_in_domain(c, sc):
        raise IncidenceMiss("cycle is not inside the domain")
    if sc.cycle_dim == 0:
        z = FlagPoint(sc.geometry.subject_row(c))
        if not in_domain(z, sc):
            raise IncidenceMiss("point cycle outside the slice component")
        return IncidenceRecord(cycle=c, slice=sl, point=z, residual=0.0,
                               solution_count=1)

    dual_s = sl.parent.variety_dual
    basis = annihilator_basis(c.dual)
    a0 = complex(dual_s @ basis[0])
    a1 = complex(dual_s @ basis[1])
    rng = np.random.default_rng(1729)
    sols = []
    # affine chart p0 + u p1 from seeded starts; the defining equation is
    # linear in u so Newton lands in one step, different starts can only
    # produce the same root or the second-chart root at infinity
    for _ in range(PROBE_STARTS):
        u = complex(*rng.standard_normal(2))
        if abs(a1) > 1e-13:
            u = u - (a0 + u * a1) / a1
            sols.append(gauge_vector(basis[0] + u * basis[1]))
    if abs(a0) > 1e-13 and abs(a1 / a0) < 1e-13:
        sols.append(gauge_vector(basis[1]))
    distinct = []
    for v in sols:
        if not any(abs(1.0 - min(1.0, abs(np.conj(w) @ v))) < 1e-8 for w in distinct):
            distinct.append(v)
    on_slice = [v for v in distinct if sl.path_contains(FlagPoint(v))]
    if not on_slice:
        raise IncidenceMiss("no slice intersection found")
    if len(on_slice) > 1:
        raise UniquenessViolation(f"{len(on_slice)} distinct slice intersections")
    p = FlagPoint(on_slice[0])
    residual = float(max(abs(dual_s @ p.homogeneous), abs(c.dual @ p.homogeneous)))
    if residual > sc.tol.intersection:
        raise IntersectionFailure(f"slice intersection residual {residual:.2e}")
    return IncidenceRecord(cycle=c, slice=sl, point=p, residual=residual,
                           solution_count=len(on_slice))


def meets_cell_boundary(c, s, tol=BOUNDARY_TOL):
    """Does the cycle meet B_S?  (Membership in the incidence hypersurface.)"""
    return bool(abs(c.dual @ s.boundary_point.homogeneous) < tol)
