"""Built-in scenario definitions and their geometries.

su11: G0 = SU(1,1) on Z = P^1, D the unit disk of negative lines, cycles
are points (q = 0), base cycle the point [0 : 1] with dual (1, 0).

su21: G0 = SU(2,1) on Z = P^2, D the set of positive lines, base cycle
the projective line P(C^2 + 0) with dual (0, 0, 1) (q = 1).

In both, a cycle is a hyperplane stored by its dual vector (cycles.py),
the hypersurface-cycle case of Fels, Huckleberry and Wolf, Cycle Spaces
of Flag Domains (2006).  Each scenario carries one geometry object
(PointCycles for q = 0, LineCycles for q = 1).  It owns every choice the
two cases make differently in the evaluation layers: the subject row of
a cycle (the kernel point of l, or l itself), the branch kernel (which
also gives the incidence points C cap S), the grid charts, the seeded
samplers and discs, the divergence paths, the cell chart of the Levi
check and the chart, exhaustion and minorant family of the
pseudoconvexity certificate.  A new scenario is registered here with a
geometry of its own.

The adapted frames diagonalize the split torus generator: its null
eigenvectors stay fixed and the +/-1 eigenvectors v+ and v- become the
first and last frame columns, so A0 is diagonal and N0 strictly upper
triangular in frame coordinates for both scenarios.
"""

from functools import lru_cache

import numpy as np

from .errors import InvalidInput, NumericalDegeneracy
from .flags import FlagPoint, ScenarioConfig, Tolerances
from .liecore import RealFormSpec
# after .flags on purpose: importing .cycles first slowed start-up by 50 ms
from .cycles import annihilator_basis, cycle_from_dual, cycle_from_point
from .optimize import (aligned_domain_values, aligned_values_from, get_engine,
                       maximize_branch)
from .utils import expm_antihermitian

SCENARIO_NAMES = ("su11", "su21")


def _frozen(*arrays):
    out = []
    for a in arrays:
        a = np.array(a, dtype=complex)
        a.setflags(write=False)
        out.append(a)
    return out


def _e(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


class PointCycles:
    """q = 0: a cycle is a point [w : 1] of the disk, the slice is the whole
    domain, and every target lives on the disk chart w (|w| < 1)."""

    def subject_row(self, c):
        # the kernel point of the dual l
        return np.array([-c.dual[1], c.dual[0]])

    def move_matrices(self, ks):
        # a point moves by k and is its own slice vector
        return ks

    def slice_vectors(self, moved, duals):
        # S = P^1: no dual cuts it, the moved point is the slice vector
        return moved

    def chart_rows(self, target, cs, rf):
        return np.stack([cs, np.ones(cs.shape[0], complex)], axis=1)

    def admissible(self, target, rows):
        return np.abs(rows[:, 0]) < np.abs(rows[:, 1])

    outside = dict.fromkeys(("r_s", "r_md", "r_d"), "outside the domain")

    def seeded_point(self, rng, cap):
        w = cap * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        return FlagPoint(np.array([w, 1.0]))

    def seeded_cycle(self, rng, cap, sc):
        return cycle_from_point(self.seeded_point(rng, cap), sc)

    def disc_rows(self, target, rng, phases):
        wc = 0.92 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        rad = (1.0 - abs(wc)) * (0.2 + 0.6 * rng.uniform())
        pts = np.concatenate([[wc], wc + rad * phases])
        return np.stack([pts, np.ones_like(pts)], axis=1)

    def divergence_rows(self, target, d, rng, rf):
        w = (1.0 - d) * np.exp(2j * np.pi * rng.uniform())
        if target == "r_s":
            # approach the boundary point of the cell instead
            w = 1.0 - d + 0j
        return np.stack([w, np.ones_like(w)], axis=1)

    def cell_chart_points(self, rng, count):
        pts = []
        while len(pts) < count:
            z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            if abs(z - 1.0) >= 0.1:
                pts.append(np.array([z]))
        return pts

    def cell_rows(self, zeta):
        return np.concatenate([zeta, np.ones_like(zeta[:, :1])], axis=1)

    def certificate_chart(self, v, khat, borel):
        """(frame, slice coordinate, cell scale) of the Levi certificate's
        chart at the unit point v.  The slice is the whole domain: v and
        one direction span the chart, and there is no slice coordinate."""
        b_s = np.array([1.0, 0.0], complex)
        frame = np.stack([v, b_s])
        if abs(np.linalg.det(frame)) < 1e-8:
            b_s = np.array([0.0, 1.0], complex)
            frame = np.stack([v, b_s])
        return frame, None, None

    def certificate_exhaustion(self, rows, sc):
        # the domain exhaustion of point cycles is the branch supremum
        return maximize_branch(rows, sc)[0]

    def minorant_family(self, sc, khat, chart, chart_rows, rad):
        """(family, padding, notes) of the certificate at radius rad.

        family(xi) returns the minorant at chart probes xi and the moved
        vectors it evaluates.  The supremum over branches dominates any
        single branch, so the branch frozen at khat is a global minorant
        and needs no padding.
        """
        sigma = get_engine(sc).sigma

        def family(xi):
            moved = np.einsum("ab,mb->ma", khat, chart_rows(xi))
            num = np.sum(np.abs(moved) ** 2, axis=1)
            den = np.abs(moved @ sigma) ** 2
            return np.log(num) - np.log(den), moved

        return family, 0.0, {}


class LineCycles:
    """q = 1: a cycle is a line stored by its dual (beta : 1), in the cycle
    space iff |beta| < 1; the grid charts are those of evaluate_grid."""

    def subject_row(self, c):
        return c.dual

    def move_matrices(self, ks):
        # a dual moves by conj(k) and meets the slice in its cross
        # product with the variety dual
        return np.conj(ks)

    def slice_vectors(self, moved, duals):
        # one dual cuts S out, a line of P^2
        return np.cross(moved, duals[0])

    def chart_rows(self, target, cs, rf):
        one, zero = np.ones(cs.shape[0], complex), np.zeros(cs.shape[0], complex)
        if target == "r_s":
            return (rf.adapted_frame @ np.stack([cs, one, zero])).T
        if target == "r_md":
            return np.stack([cs, zero, one], axis=1)
        return np.stack([one, zero, cs], axis=1)

    def admissible(self, target, rows):
        a = np.abs(rows)
        if target == "r_s":
            return np.ones(rows.shape[0], bool)
        inner = np.hypot(a[:, 0], a[:, 1])
        # duals of lines inside D (r_md), points of D (r_d)
        return inner < a[:, 2] if target == "r_md" else a[:, 2] < inner

    outside = {"r_md": "outside the cycle space", "r_d": "outside the domain"}

    def seeded_point(self, rng, cap):
        v12 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v12 /= np.linalg.norm(v12)
        rho = cap * np.sqrt(rng.uniform())
        v3 = rho * np.exp(2j * np.pi * rng.uniform())
        return FlagPoint(np.concatenate([v12, [v3]]))

    def seeded_cycle(self, rng, cap, sc):
        beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        beta *= cap * np.sqrt(rng.uniform()) / np.linalg.norm(beta)
        return cycle_from_dual(np.concatenate([beta, [1.0]]), sc)

    def disc_rows(self, target, rng, phases):
        if target == "r_md":
            bc = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            bc *= 0.92 * np.sqrt(rng.uniform()) / np.linalg.norm(bc)
            e = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            e /= np.linalg.norm(e)
            rad = (1.0 - np.linalg.norm(bc)) * (0.2 + 0.6 * rng.uniform())
            pts = np.concatenate([[0.0], rad * phases])
            beta = bc[None, :] + pts[:, None] * e[None, :]
            return np.concatenate([beta, np.ones((len(pts), 1))], axis=1)
        # domain chart (1, z2, z3): inside iff |z3|^2 < 1 + |z2|^2
        zc = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        zc[1] *= 0.8 * np.sqrt(rng.uniform()) * np.sqrt(1 + abs(zc[0]) ** 2) \
            / max(abs(zc[1]), 1e-12)
        e = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        e /= np.linalg.norm(e)
        slack = np.sqrt(1 + abs(zc[0]) ** 2) - abs(zc[1])
        rad = 0.3 * slack * (0.2 + 0.6 * rng.uniform())
        pts = np.concatenate([[0.0], rad * phases])
        z = zc[None, :] + pts[:, None] * e[None, :]
        return np.concatenate([np.ones((len(pts), 1)), z], axis=1)

    def divergence_rows(self, target, d, rng, rf):
        if target == "r_s":
            c = 1.0 / d
            return (rf.adapted_frame @ np.stack([c, np.ones_like(c), np.zeros_like(c)])).T
        if target == "r_md":
            e = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            e /= np.linalg.norm(e)
            beta = (1.0 - d)[:, None] * e[None, :]
            return np.concatenate([beta, np.ones((len(d), 1))], axis=1)
        coeff = rng.uniform(-np.pi, np.pi, len(rf.k0_basis))
        u = expm_antihermitian(
            np.einsum("d,dij->ij", coeff, np.asarray(rf.k0_basis))[None])[0]
        rows = np.stack([np.ones_like(d) + 0j, np.zeros_like(d) + 0j,
                         (1.0 - d) + 0j], axis=1)
        return rows @ u.T

    def cell_chart_points(self, rng, count):
        return [0.7 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
                for _ in range(count)]

    def cell_rows(self, zeta):
        return np.concatenate([np.ones_like(zeta[:, :1]), zeta], axis=1)

    def certificate_chart(self, v, khat, borel):
        """(frame, slice coordinate, cell scale) of the Levi certificate's
        chart at the unit point v.

        khat v = scale (c0 b_0 + b_1) in the Borel frame b: c0 is the
        slice coordinate of y.  The frame is v, the slice direction
        khat^-1 b_0, and a unit direction transverse to the slice inside
        the line through v whose dual-ball radius matches the point's.
        """
        ad = np.linalg.inv(borel) @ (khat @ v)
        b_s = np.linalg.inv(khat) @ borel[:, 0]
        rows = annihilator_basis(self.radial_dual(v))
        t = rows[0] - (np.conj(v) @ rows[0]) * v
        if np.linalg.norm(t) < 1e-8:
            t = rows[1] - (np.conj(v) @ rows[1]) * v
        frame = np.stack([v, b_s, t / np.linalg.norm(t)])
        if abs(np.linalg.det(frame)) < 1e-8:
            raise NumericalDegeneracy("certificate chart is degenerate")
        return frame, complex(ad[0] / ad[1]), complex(ad[1])

    def certificate_exhaustion(self, rows, sc):
        return aligned_domain_values(rows, sc)[0]

    def minorant_family(self, sc, khat, chart, chart_rows, rad):
        """(family, padding, notes) of the certificate at radius rad.

        family(xi) follows the aligning element from khat to each probe
        xi, as a frozen branch cannot minorize (levi.py), and returns the
        aligned values less padding |xi_1|^2, with the aligned vectors.
        """
        _, c0, scale = chart
        # transverse decrease of the frozen branch at y (along the slice
        # it is the cell exhaustion); it scales the padding and is recorded
        probe_p = rad * np.array([1, -1, 1j, -1j])
        xi_t = np.stack([np.zeros(4, complex), probe_p], axis=1)
        frozen = np.log1p(np.abs(c0 + xi_t[:, 0] / scale) ** 2)
        drop = frozen - self.certificate_exhaustion(chart_rows(xi_t), sc)
        a_meas = float(np.max(drop / np.abs(xi_t[:, 1]) ** 2))
        padding = 0.5 * max(a_meas, 2e-3)

        def family(xi):
            vals, _, aligned = aligned_values_from(chart_rows(xi), sc, khat)
            return vals - padding * np.abs(xi[:, 1]) ** 2, aligned

        return family, padding, {"transverse_decay": a_meas}

    def radial_dual(self, v):
        """Unit dual of the line through [v] whose dual-ball radius matches
        the point's own boundary distance."""
        w12sq = abs(v[0]) ** 2 + abs(v[1]) ** 2
        if abs(v[2]) > 1e-14:
            d = np.array([np.conj(v[0]), np.conj(v[1]), -w12sq / v[2]])
        else:
            d = np.array([0.0, 0.0, 1.0], complex)
        return d / np.linalg.norm(d)


def _build_su11():
    s2 = np.sqrt(2.0)
    j = np.diag([1.0, -1.0]).astype(complex)
    # columns: v+ = (1,1)/s2 and -v- = (-1,1)/s2, so det = 1
    p = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex) / s2
    k0 = np.array([np.diag([1j, -1j])])
    a = np.array([[[0.0, 1.0], [1.0, 0.0]]], dtype=complex)
    n0 = np.array([p @ (1j * _e(2, 0, 1)) @ np.conj(p.T)])
    s0 = np.array([[[0, 1], [1, 0]], [[0, 1j], [-1j, 0]]], dtype=complex)
    j, p, k0, a, n0, s0, dual = _frozen(j, p, k0, a, n0, s0, [1.0, 0.0])
    rf = RealFormSpec(
        name="su11", form_matrix=j, cartan_matrix=j,
        adapted_frame=p, k0_basis=k0, a_basis=a, n0_basis=n0, s0_basis=s0,
    )
    return ScenarioConfig(
        name="su11",
        rf=rf,
        base_point=FlagPoint(np.array([0.0, 1.0])),
        domain_sign=-1,
        geometry=PointCycles(),
        base_cycle_dual=dual,
        tol=Tolerances(),
        k0_resolution=32,
        k0_extras=0,
    )


def _build_su21():
    s2 = np.sqrt(2.0)
    j = np.diag([1.0, 1.0, -1.0]).astype(complex)
    vp = np.array([0.0, 1.0, 1.0]) / s2
    vm = np.array([0.0, 1.0, -1.0]) / s2
    e1 = np.array([1.0, 0.0, 0.0])
    p = np.stack([vp, e1, vm], axis=1)
    k0 = np.array([
        np.diag([1j, 0.0, -1j]),
        np.diag([0.0, 1j, -1j]),
        _e(3, 0, 1) - _e(3, 1, 0),
        1j * (_e(3, 0, 1) + _e(3, 1, 0)),
    ])
    a = np.array([_e(3, 1, 2) + _e(3, 2, 1)])
    n0_adapted = [
        _e(3, 0, 1) - _e(3, 1, 2),
        1j * (_e(3, 0, 1) + _e(3, 1, 2)),
        1j * _e(3, 0, 2),
    ]
    n0 = np.array([p @ m @ np.conj(p.T) for m in n0_adapted])
    s0 = np.array([
        _e(3, 0, 2) + _e(3, 2, 0),
        1j * (_e(3, 0, 2) - _e(3, 2, 0)),
        _e(3, 1, 2) + _e(3, 2, 1),
        1j * (_e(3, 1, 2) - _e(3, 2, 1)),
    ])
    j, p, k0, a, n0, s0, dual = _frozen(j, p, k0, a, n0, s0, [0.0, 0.0, 1.0])
    rf = RealFormSpec(
        name="su21", form_matrix=j, cartan_matrix=j,
        adapted_frame=p, k0_basis=k0, a_basis=a, n0_basis=n0, s0_basis=s0,
    )
    return ScenarioConfig(
        name="su21",
        rf=rf,
        base_point=FlagPoint(np.array([1.0, 0.0, 0.0])),
        domain_sign=1,
        geometry=LineCycles(),
        base_cycle_dual=dual,
        tol=Tolerances(),
        # 32 coarse points per compact dimension is affordable only for a
        # one-dimensional K0; the 4-dimensional K0 of su21 uses a 6^4 grid
        # plus 36 scrambled-Sobol extras, refined by local ascent.
        k0_resolution=6,
        k0_extras=36,
    )


@lru_cache(maxsize=None)
def get_scenario(name):
    if name == "su11":
        return _build_su11()
    if name == "su21":
        return _build_su21()
    raise InvalidInput(f"unknown scenario {name!r}; available: {SCENARIO_NAMES}")
