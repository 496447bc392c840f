"""Cycles, the cycle space, and the mu fiber.

In both built-in scenarios Z = P(C^n) and every cycle is a hyperplane
P(ker l), the hypersurface-cycle case of Fels, Huckleberry and Wolf,
Cycle Spaces of Flag Domains (2006): for su11 (n = 2) the hyperplane is
the point [w : 1], the zero set of l = (1, -w); for su21 (n = 3) it is a
projective line.  A cycle is stored by its gauge-fixed unit dual l of
length n.  Storing the dual quotients out the (parabolic) stabilizer of
the base cycle exactly, so equality of cycles is equality of canonical
data, and a group element g moves l to l g^-1.

A cycle lies in D iff the form J = diag(+-1) is definite of the domain
sign on ker l, where for a unit l its eigenvalues are -l J l* and the
domain sign (cycle_in_domain_rows).  The mu fiber of y, the cycles
through y, is spanned by the annihilator basis of y: one point cycle
for su11, su21's pencil of lines, a P^1 that sphere_grid covers.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .flags import SIGN_MARGIN, FlagPoint, signed_form_rows
from .utils import check_finite, gauge_vector

# Cycle.contains: |l . v| of a unit point v on the cycle stays below this
CONTAINS_TOL = 1e-10


def annihilator_basis(v):
    """Orthonormal, gauge-fixed basis of the dual vectors vanishing on v.

    The pairing carries no conjugation, so the same rows, read as
    vectors, span the plane ker(v) of a dual vector v.

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


@dataclass(eq=False)
class Cycle:
    """Translate of the base cycle, the hyperplane P(ker dual)."""

    dual: np.ndarray

    def __post_init__(self):
        d = gauge_vector(check_finite(np.asarray(self.dual, complex), "cycle dual"))
        d.setflags(write=False)
        object.__setattr__(self, "dual", d)

    def contains(self, z):
        return bool(abs(self.dual @ z.homogeneous) < CONTAINS_TOL)


def cycle_from_dual(dual, sc):
    """The cycle P(ker dual); dual has one entry per coordinate of Z."""
    dual = np.asarray(dual, complex)
    if dual.shape != (sc.n,):
        raise InvalidInput(f"a cycle dual of {sc.name} has length {sc.n}")
    # gauged here and again by Cycle, as seeded su21 cycles have always
    # been: dropping a pass moves their last bits
    return Cycle(dual=gauge_vector(dual))


def cycle_from_point(z, sc):
    """The q = 0 cycle at the point z: the l whose kernel is z."""
    if sc.cycle_dim != 0:
        raise InvalidInput("point cycles exist only in the q = 0 scenario")
    return Cycle(dual=annihilator_basis(z.homogeneous)[0])


def base_cycle(sc):
    return Cycle(dual=sc.base_cycle_dual)


def translate_cycle(g, c, sc):
    """g . C in canonical form: the dual moves to l g^-1."""
    return Cycle(dual=c.dual @ np.linalg.inv(g.matrix))


def cycle_points(c, count, seed):
    """Deterministic quasi-uniform sample of the cycle."""
    if count < 1:
        raise InvalidInput("count must be >= 1")
    basis = annihilator_basis(c.dual)
    rng = np.random.default_rng(seed)
    shape = (count, basis.shape[0])
    coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return [FlagPoint(p) for p in coef @ basis]


def cycle_in_domain(c, sc):
    """True iff the cycle lies inside D: cycle_in_domain_rows on its dual."""
    return bool(cycle_in_domain_rows(c.dual, sc)[0])


def cycle_in_domain_rows(duals, sc):
    """Cycle-space membership of the cycle of each dual row of an (m, n)
    array, unnormalized: the form on ker l is definite of the domain sign
    by more than flags.SIGN_MARGIN, i.e. the signed form value of the unit
    dual is below -SIGN_MARGIN."""
    return -signed_form_rows(duals, sc) > SIGN_MARGIN


def sphere_grid(count):
    """count deterministic quasi-uniform pairs (alpha, beta) covering the
    P^1 of coefficient rows of a pencil (q = 1).

    Fibonacci spiral on the sphere, mapped through the Hopf picture
    (alpha, beta) = (cos(t/2), sin(t/2) e^{i phi}).
    """
    idx = np.arange(count) + 0.5
    cos_t = 1.0 - 2.0 * idx / count
    half = 0.5 * np.arccos(np.clip(cos_t, -1.0, 1.0))
    phi = np.pi * (1.0 + np.sqrt(5.0)) * idx
    return np.stack([np.cos(half), np.sin(half) * np.exp(1j * phi)], axis=1)
