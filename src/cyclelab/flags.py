"""Flag manifold points, the group action, domain membership, charts.

Both built-in scenarios have Z = P(C^n) (parabolic type [1]), so a flag
point is a single homogeneous line stored as its canonical unit
representative.  The open orbit D of the real form is cut out by the sign
of the Hermitian form on that line.
"""

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidInput, NumericalDegeneracy
from .liecore import RealFormSpec
from .utils import check_finite, gauge_vector

# orbit_is_open: singular values above this count toward the orbit's rank
ORBIT_RANK_TOL = 1e-8


@dataclass(eq=False)
class FlagPoint:
    """Point of P(C^n) as a gauge-fixed unit homogeneous vector.

    Gauge: unit norm, first effectively nonzero coordinate real positive.
    The representative is unique, so points compare by array closeness.
    """

    homogeneous: np.ndarray

    def __post_init__(self):
        v = gauge_vector(check_finite(self.homogeneous, "flag point"))
        v.setflags(write=False)
        object.__setattr__(self, "homogeneous", v)

    @property
    def n(self):
        return self.homogeneous.shape[0]

    def is_close(self, other, tol=1e-10):
        return bool(np.max(np.abs(self.homogeneous - other.homogeneous)) < tol)


@dataclass(frozen=True)
class Tolerances:
    """Every tolerance is a finite positive number; sign_margin may be 0."""

    intersection: float = 1e-10
    sign_margin: float = 1e-12
    zero_band: float = 1e-6
    fd_step: float = 1e-3

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if (not isinstance(v, numbers.Real) or isinstance(v, bool)
                    or not 0 <= v < math.inf or (v == 0 and f.name != "sign_margin")):
                raise InvalidInput(f"tolerance {f.name} must be a finite "
                                   f"positive number, not {v!r}")


@dataclass(eq=False)
class ScenarioConfig:
    """Everything a built-in scenario pins down.

    domain_sign: the open orbit D is {v : sign(v* J v) == domain_sign}.
    Z = P(C^n) and every cycle is a hyperplane, so the cycle dimension q
    (cycle_dim) is n - 2 and the dimension of Z (ambient_dim) is n - 1;
    code that treats q = 0 apart reads cycle_dim.  base_cycle_dual is
    the dual vector of the base cycle.  geometry (scenarios.PointCycles or
    LineCycles) makes every choice that differs between point and line
    cycles: subject rows, the branch kernel, grid charts and their
    admissible sets, seeded samples, discs, divergence paths, the cell
    chart and the certificate's chart and minorant family.
    """

    name: str
    rf: RealFormSpec
    base_point: FlagPoint
    domain_sign: int
    geometry: object
    base_cycle_dual: np.ndarray
    tol: Tolerances = field(default_factory=Tolerances)
    k0_resolution: int = 32
    k0_extras: int = 0

    @property
    def n(self):
        return self.rf.n

    @property
    def cycle_dim(self):
        return self.n - 2

    @property
    def ambient_dim(self):
        return self.n - 1

    def form_value(self, v):
        v = np.asarray(v, complex)
        return float(np.real(np.conj(v) @ self.rf.form_matrix @ v))


def act(g, z, tol=1e-14):
    """Canonical representative of g.z."""
    w = g.matrix @ z.homogeneous
    if np.linalg.norm(w) < tol:
        raise NumericalDegeneracy("group action produced a numerically zero vector")
    return FlagPoint(w)


def in_domain(z, sc):
    """Membership in the open orbit D, boundary excluded by sign_margin."""
    val = sc.form_value(z.homogeneous)
    return bool(sc.domain_sign * val > sc.tol.sign_margin)


def in_domain_rows(rows, sc):
    """in_domain for each homogeneous row of an (m, n) array, unnormalized.

    The Hermitian form of the unit-norm row decides, as for the gauge-fixed
    FlagPoint of that row: the form is invariant under the gauge phase.
    """
    rows = np.atleast_2d(np.asarray(rows, complex))
    v = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    val = np.einsum("ma,ab,mb->m", np.conj(v), sc.rf.form_matrix, v).real
    return sc.domain_sign * val > sc.tol.sign_margin


def orbit_is_open(z, sc):
    """True iff the real-form orbit of z is open in Z.

    The tangent space of the orbit at z is spanned by X.v projected off
    the line C.v, for X running over a real basis of the algebra; the
    orbit is open iff that real span has full real dimension 2*(n-1).
    """
    v = z.homogeneous
    tangents = []
    for x in sc.rf.g0_basis:
        t = x @ v
        t = t - (np.conj(v) @ t) * v
        tangents.append(np.concatenate([t.real, t.imag]))
    sv = np.linalg.svd(np.stack(tangents), compute_uv=False)
    rank = int(np.sum(sv > ORBIT_RANK_TOL))
    return rank == 2 * sc.ambient_dim


class Chart:
    """Affine chart of P(C^n) centered at a point.

    The pivot is the largest-modulus coordinate of the center (first such
    index on ties).  Coordinates c map to the point with homogeneous
    vector base + sum(c_j e_j) over the non-pivot indices, so 0 maps to
    the center and the map is holomorphic and injective on its chart.
    """

    def __init__(self, center):
        v = center.homogeneous
        self.center = center
        self.pivot = int(np.argmax(np.abs(v)))
        self.base = v / v[self.pivot]
        self.free = [i for i in range(v.shape[0]) if i != self.pivot]
        self.dim = len(self.free)

    def point(self, c):
        c = np.atleast_1d(np.asarray(c, complex))
        if c.shape[0] != self.dim:
            raise InvalidInput("chart coordinate has wrong length")
        w = self.base.copy()
        for i, idx in enumerate(self.free):
            w[idx] += c[i]
        return FlagPoint(w)

    def lift(self, c):
        """Un-normalized homogeneous vectors for a batch of coordinates."""
        c = np.atleast_2d(np.asarray(c, complex))
        w = np.tile(self.base, (c.shape[0], 1))
        for i, idx in enumerate(self.free):
            w[:, idx] += c[:, i]
        return w

    def coords(self, z):
        v = z.homogeneous
        if abs(v[self.pivot]) < 1e-12:
            raise NumericalDegeneracy("point leaves the chart")
        w = v / v[self.pivot]
        return np.array([w[i] - self.base[i] for i in self.free])


def chart(z):
    """Deterministic affine chart centered at z."""
    return Chart(z)
