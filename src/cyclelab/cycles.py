"""Cycles, the cycle space, and the incidence double fibration.

A cycle is a group translate of the base cycle.  For su11 the base cycle
is the single point z0 and a cycle is just a point of Z; for su21 it is
the line P(C^2 + 0) and a cycle is a projective line, stored canonically
by its gauge-fixed unit dual vector.  Storing the dual quotients out the
(parabolic) stabilizer of the base cycle exactly, so equality of cycles
is equality of canonical data.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotInDomain, NotIncident, NumericalDegeneracy
from .flags import FlagPoint, in_domain
from .liecore import GroupElement
from .utils import gauge_vector


def _complete_to_slmatrix(rows):
    """SL-normalized matrix with the given independent rows; deterministic."""
    m = np.asarray(rows, dtype=complex)
    det = np.linalg.det(m)
    if abs(det) < 1e-12:
        raise NumericalDegeneracy("degenerate row system")
    return m * det ** (-1.0 / m.shape[0])


def annihilator_basis(v):
    """Orthonormal, gauge-fixed basis of the dual vectors vanishing on v.

    Pivot construction: with p the largest-modulus coordinate of v, the
    rows e_j - (v_j / v_p) e_p for j != p span the annihilator; they are
    orthonormalized in ascending j so the output is deterministic.  For
    v = e_1 in C^3 this yields exactly ((0,1,0), (0,0,1)).
    """
    v = np.asarray(v, dtype=complex)
    n = v.shape[0]
    piv = int(np.argmax(np.abs(v)))
    rows = []
    for jdx in range(n):
        if jdx == piv:
            continue
        row = np.zeros(n, dtype=complex)
        row[jdx] = 1.0
        row[piv] = -v[jdx] / v[piv]
        for prev in rows:
            row = row - (np.conj(prev) @ row) * prev
        rows.append(row / np.linalg.norm(row))
    return np.stack([gauge_vector(r) for r in rows])


def plane_basis(dual):
    """Orthonormal deterministic basis of the plane ker(dual).

    The pairing dual @ v carries no conjugation, so the construction is
    the same pivot scheme with the roles of vectors and functionals swapped.
    """
    return annihilator_basis(dual)


@dataclass(eq=False)
class Cycle:
    """Translate of the base cycle in canonical form."""

    representative: GroupElement
    point: FlagPoint = None
    dual: np.ndarray = None

    def __post_init__(self):
        if (self.point is None) == (self.dual is None):
            raise InvalidInput("cycle needs exactly one of point or dual data")
        if self.dual is not None:
            d = gauge_vector(np.asarray(self.dual, complex))
            d.setflags(write=False)
            object.__setattr__(self, "dual", d)

    @property
    def dim(self):
        return 0 if self.point is not None else 1

    def contains(self, z, tol=1e-10):
        if self.point is not None:
            v, w = self.point.homogeneous, z.homogeneous
            return bool(abs(v[0] * w[1] - v[1] * w[0]) < tol)
        return bool(abs(self.dual @ z.homogeneous) < tol)

    def is_close(self, other, tol=1e-10):
        if self.point is not None:
            return self.point.is_close(other.point, tol)
        return bool(np.max(np.abs(self.dual - other.dual)) < tol)


def cycle_from_dual(dual, sc):
    """su21 cycle with the given dual vector and a deterministic representative."""
    if sc.cycle_dim != 1:
        raise InvalidInput("dual-vector cycles exist only in the line scenario")
    dual = gauge_vector(np.asarray(dual, complex))
    rows = np.concatenate([plane_basis(dual).conj(), dual[None, :]])
    rep = GroupElement(np.linalg.inv(_complete_to_slmatrix(rows)))
    return Cycle(representative=rep, dual=dual)


def cycle_from_point(z, sc):
    """su11 cycle at the point z."""
    if sc.cycle_dim != 0:
        raise InvalidInput("point cycles exist only in the q = 0 scenario")
    v = z.homogeneous
    # columns (v_perp, v) up to SL scaling: maps z0 = [0:1] to z
    u = np.array([-np.conj(v[1]), np.conj(v[0])])
    rep = GroupElement(_complete_to_slmatrix(np.stack([u, v])).T)
    return Cycle(representative=rep, point=z)


def base_cycle(sc):
    ident = GroupElement(np.eye(sc.n))
    if sc.cycle_dim == 0:
        return Cycle(representative=ident, point=sc.base_point)
    return Cycle(representative=ident, dual=sc.base_cycle_dual)


def translate_cycle(g, c, sc):
    """g . C in canonical form."""
    if c.point is not None:
        return Cycle(representative=g @ c.representative,
                     point=FlagPoint(g.matrix @ c.point.homogeneous))
    return Cycle(representative=g @ c.representative,
                 dual=c.dual @ np.linalg.inv(g.matrix))


def cycle_points(c, count, seed):
    """Deterministic quasi-uniform sample of the cycle."""
    if count < 1:
        raise InvalidInput("count must be >= 1")
    if c.point is not None:
        return [c.point] * count
    basis = plane_basis(c.dual)
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    pts = coef @ basis
    return [FlagPoint(p) for p in pts]


def restricted_form_eigenvalues(c, sc):
    """Eigenvalues of the Hermitian form on the cycle's plane (su21)."""
    basis = plane_basis(c.dual)
    f = np.conj(basis) @ sc.rf.form_matrix @ basis.T
    return np.linalg.eigvalsh(0.5 * (f + np.conj(f.T)))


def cycle_in_domain(c, sc, margin=None):
    """True iff the cycle lies entirely inside D.

    su21 uses the exact criterion: the form restricted to the line's
    plane is definite of the domain sign.  margin overrides the default
    sign_margin; pass 0.0 to test strict inequality only (used by
    boundary-approach drivers that must evaluate closer to the edge than
    the conservative margin allows).
    """
    m = sc.tol.sign_margin if margin is None else margin
    if c.point is not None:
        return bool(sc.domain_sign * sc.form_value(c.point.homogeneous) > m)
    eigs = restricted_form_eigenvalues(c, sc)
    return bool(np.min(sc.domain_sign * eigs) > m)


@dataclass(eq=False)
class IncidencePoint:
    """Validated pair (z, C) with z on C; mu and nu are the projections."""

    z: FlagPoint
    C: Cycle

    def __post_init__(self):
        if not self.C.contains(self.z):
            raise NotIncident("point does not lie on the cycle")

    @property
    def mu(self):
        return self.z

    @property
    def nu(self):
        return self.C


def incidence_pair(z, c):
    return IncidencePoint(z=z, C=c)


class FiberParametrization:
    """The family of cycles through a fixed domain point y.

    su11: a single cycle (q = 0).  su21: the pencil of lines through y,
    a P^1 worth of duals alpha*m1 + beta*m2 where (m1, m2) is the
    deterministic annihilator basis of y; members are filtered by
    cycle_in_domain at use sites.
    """

    def __init__(self, y, sc):
        if not in_domain(y, sc):
            raise NotInDomain("mu fiber requested at a point outside D")
        self.y = y
        self.sc = sc
        self.dim = sc.cycle_dim
        if self.dim == 0:
            self.basis = None
        else:
            self.basis = annihilator_basis(y.homogeneous)

    def member(self, alpha=None, beta=None):
        if self.dim == 0:
            return cycle_from_point(self.y, self.sc)
        dual = alpha * self.basis[0] + beta * self.basis[1]
        return cycle_from_dual(dual, self.sc)

    def member_duals(self, pairs):
        """Raw gauge-free duals for a (m, 2) array of (alpha, beta) pairs."""
        return np.asarray(pairs, complex) @ self.basis

    def sphere_grid(self, count):
        """Deterministic quasi-uniform (alpha, beta) pairs covering P^1.

        Fibonacci spiral on the sphere, mapped through the Hopf picture
        (alpha, beta) = (cos(t/2), sin(t/2) e^{i phi}).
        """
        if self.dim == 0:
            return np.zeros((1, 2))
        idx = np.arange(count) + 0.5
        cos_t = 1.0 - 2.0 * idx / count
        half = 0.5 * np.arccos(np.clip(cos_t, -1.0, 1.0))
        phi = np.pi * (1.0 + np.sqrt(5.0)) * idx
        return np.stack([np.cos(half), np.sin(half) * np.exp(1j * phi)], axis=1)


def mu_fiber(y, sc):
    return FiberParametrization(y, sc)
