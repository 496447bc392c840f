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
samplers and discs, the divergence paths, the domain values, the sign
of the subjects outside their domain, the cell chart of the Levi check
and the chart and minorant family of the pseudoconvexity certificate.
A new scenario is registered here with a geometry of its own.

The adapted frames diagonalize the split torus generator: its null
eigenvectors stay fixed and the +/-1 eigenvectors v+ and v- become the
first and last frame columns, so A0 is diagonal and N0 strictly upper
triangular in frame coordinates for both scenarios.
"""

from functools import lru_cache

import numpy as np

from .catalog import TARGETS
from .errors import InvalidInput
from .flags import FlagPoint, ScenarioConfig
from .liecore import RealFormSpec, k0_matrices
# after .flags on purpose: importing .cycles first slowed start-up by 50 ms
from .cycles import annihilator_basis, cycle_from_dual, cycle_from_point
from . import optimize
from .sections import exhaustion_values

SCENARIO_NAMES = ("su11", "su21")
# LineCycles.slice_vectors: the indices i + 1 and i + 2 mod 3
NEXT, AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])


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

    # a subject is a point: signed_form_rows is above 0 on D
    subject_sign = 1

    def domain_values(self, points, sc):
        # the slice is the whole domain, so nothing is aligned: the plain
        # branch supremum, looked up at call time so that a wrapper of
        # optimize.maximize_branch sees the call
        return optimize.maximize_branch(points, sc)

    def slice_vectors(self, moved, duals):
        # S = P^1: no dual cuts it, the moved point is the slice vector
        return moved

    def chart_rows(self, target, cs, rf):
        return np.stack([cs, np.ones(cs.shape[0], complex)], axis=1)

    def admissible(self, target, rows):
        return np.abs(rows[:, 0]) < np.abs(rows[:, 1])

    outside = dict.fromkeys(TARGETS, "outside the domain")

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

    def certificate_chart(self, vs, khats, borel):
        """(frames, slice coordinates, cell scales) of the Levi
        certificate's charts at the unit points vs (m, 2).  The slice is
        the whole domain: v and one direction span each chart, and there
        is no slice coordinate."""
        b_s = np.zeros_like(vs)
        b_s[:, 0] = 1.0
        frames = np.stack([vs, b_s], axis=1)
        frames[np.abs(np.linalg.det(frames)) < 1e-8, 1] = [0.0, 1.0]
        return frames, None, None

    def minorant_family(self, sc, khats, chart, chart_rows, exhaustion, rad):
        """(family, paddings, notes) of the certificates at radius rad.

        family(xi, values) returns the minorants at chart probes xi (m, k, 1)
        of the m points, whatever the values: the branch frozen at each
        point's khat.  The supremum over branches dominates any single
        branch, so it is a global minorant and needs no padding.
        """
        section = optimize.get_engine(sc).section

        # one einsum per point, the one a point certified alone makes
        def family(xi, values=None):
            return np.array([exhaustion_values(section, np.einsum("ab,mb->ma", khat, rows))
                             for khat, rows in zip(khats, chart_rows(xi))])

        return family, np.zeros(len(khats)), {}


class LineCycles:
    """q = 1: a cycle is a line stored by its dual (beta : 1), in the cycle
    space iff |beta| < 1; the grid charts are those of evaluate_grid."""

    def subject_row(self, c):
        return c.dual

    def move_matrices(self, ks):
        # a dual moves by conj(k) and meets the slice in its cross
        # product with the variety dual
        return np.conj(ks)

    # a subject is a dual: signed_form_rows is below 0 at the dual of a
    # cycle in D
    subject_sign = -1

    def domain_values(self, points, sc):
        # the branch value is constant on the set of aligning elements, so
        # the closed-form one (align) gives it exactly, +inf outside D
        ks, aligned = self.align(points)
        return exhaustion_values(optimize.get_engine(sc).section, aligned), ks

    def slice_vectors(self, moved, duals):
        # one dual cuts S out, a line of P^2: moved x dual, as np.cross
        # computes it, (m x d)_i = m_{i+1} d_{i+2} - m_{i+2} d_{i+1}
        return moved[..., NEXT] * duals[0, AFTER] - moved[..., AFTER] * duals[0, NEXT]

    def chart_rows(self, target, cs, rf):
        one, zero = np.ones(cs.shape[0], complex), np.zeros(cs.shape[0], complex)
        if target == "r_s":
            # einsum, not BLAS: BLAS threads only slow a 3 x 3 product
            return np.einsum("ab,bm->ma", rf.adapted_frame, np.stack([cs, one, zero]))
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
        u = k0_matrices(rf, rng.uniform(-np.pi, np.pi, (1, len(rf.k0_basis))))[0]
        rows = np.stack([np.ones_like(d) + 0j, np.zeros_like(d) + 0j,
                         (1.0 - d) + 0j], axis=1)
        return rows @ u.T

    def cell_chart_points(self, rng, count):
        return [0.7 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
                for _ in range(count)]

    def cell_rows(self, zeta):
        return np.concatenate([np.ones_like(zeta[:, :1]), zeta], axis=1)

    def certificate_chart(self, vs, khats, borel):
        """(frames, slice coordinates, cell scales) of the Levi
        certificate's charts at the unit points vs (m, 3), aligned by khats.

        khat v = scale (c0 b_0 + b_1) in the Borel frame b: c0 is the
        slice coordinate of y.  The frame is v, the slice direction
        khat^-1 b_0, and a unit direction transverse to the slice inside
        the line through v whose dual-ball radius matches the point's.
        """
        # point by point: a norm over a stack's axis sums in another order
        # than radial_dual's and the frame's norms of one vector
        frames, c0, scale = [], [], []
        for v, khat in zip(vs, khats):
            ad = np.linalg.inv(borel) @ (khat @ v)
            b_s = np.linalg.inv(khat) @ borel[:, 0]
            rows = annihilator_basis(self.radial_dual(v))
            t = rows[0] - (np.conj(v) @ rows[0]) * v
            if np.linalg.norm(t) < 1e-8:
                t = rows[1] - (np.conj(v) @ rows[1]) * v
            frames.append(np.stack([v, b_s, t / np.linalg.norm(t)]))
            c0.append(ad[0] / ad[1])
            scale.append(ad[1])
        return np.array(frames), np.array(c0), np.array(scale)

    def minorant_family(self, sc, khats, chart, chart_rows, exhaustion, rad):
        """(family, paddings, notes) of the certificates at radius rad.

        family(xi, values) takes the closed-form aligning element of each
        probe of xi (m, k, 2), as a frozen branch cannot minorize (levi.py),
        and returns their values (exhaustion(xi) unless given) less padding |xi_1|^2.
        """
        _, c0, scale = chart
        # transverse decrease of the frozen branch at y (along the slice
        # it is the cell exhaustion); it scales the padding and is recorded
        probe_p = rad * np.array([1, -1, 1j, -1j])
        xi_t = np.stack([np.zeros(4, complex), probe_p], axis=1)
        frozen = np.log1p(np.abs(c0[:, None] + xi_t[:, 0] / scale[:, None]) ** 2)
        drop = frozen - exhaustion(np.broadcast_to(xi_t, (len(c0),) + xi_t.shape))
        a_meas = np.max(drop / np.abs(xi_t[:, 1]) ** 2, axis=1)
        padding = 0.5 * np.maximum(a_meas, 2e-3)

        def family(xi, values=None):
            values = exhaustion(xi) if values is None else values
            return values - padding[:, None] * np.abs(xi[..., 1]) ** 2

        return family, padding, {"transverse_decay": a_meas}

    def align(self, points):
        """(ks, aligned) of unit rows v = (v12, v3): K0 elements k = diag(u, 1)
        with ell_S . (k v) = 0, ell_S = (0, 1, -1) / sqrt(2), and the aligned
        vectors k v = (a, v3, v3), a = sqrt(|v12|^2 - |v3|^2).

        u in SU(2) sends v12 to (a, v3): u = S(y) S(x)^H with x = v12 / |v12|,
        y = (a, v3) / |(a, v3)| (|v12| in D) and S(c) = [[c1, -conj c2],
        [c2, conj c1]].  No element aligns a point outside D
        (|v3| >= |v12|); there a = 0, so the branch value of the aligned
        vector is +inf, as at the pole.
        """
        v12, v3 = points[:, :2], points[:, 2]
        r12, r3 = np.linalg.norm(v12, axis=1), np.abs(v3)
        a = np.sqrt(np.maximum((r12 - r3) * (r12 + r3), 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(r12[:, None] > 0, v12 / r12[:, None], [1.0, 0.0])
            y = np.stack([a, v3], axis=1) / np.hypot(a, r3)[:, None]

        def su2(c):
            return np.stack([np.stack([c[:, 0], -np.conj(c[:, 1])], axis=1),
                             np.stack([c[:, 1], np.conj(c[:, 0])], axis=1)], axis=1)

        ks = np.zeros((points.shape[0], 3, 3), complex)
        ks[:, :2, :2] = su2(y) @ np.conj(np.swapaxes(su2(x), 1, 2))
        ks[:, 2, 2] = 1.0
        return ks, np.stack([a + 0j, v3, v3], axis=1)

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
        name="su11", form_matrix=j, adapted_frame=p,
        k0_basis=k0, a_basis=a, n0_basis=n0, s0_basis=s0,
    )
    return ScenarioConfig(
        name="su11",
        rf=rf,
        base_point=FlagPoint(np.array([0.0, 1.0])),
        domain_sign=-1,
        geometry=PointCycles(),
        base_cycle_dual=dual,
        k0_resolution=32,
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
        name="su21", form_matrix=j, adapted_frame=p,
        k0_basis=k0, a_basis=a, n0_basis=n0, s0_basis=s0,
    )
    return ScenarioConfig(
        name="su21",
        rf=rf,
        base_point=FlagPoint(np.array([1.0, 0.0, 0.0])),
        domain_sign=1,
        geometry=LineCycles(),
        base_cycle_dual=dual,
        # 32 coarse points per compact dimension is affordable only for a
        # one-dimensional K0; su21 uses 6^3 samples (BranchEngine.coarse),
        # refined by local ascent.
        k0_resolution=6,
    )


@lru_cache(maxsize=None)
def get_scenario(name):
    if name == "su11":
        return _build_su11()
    if name == "su21":
        return _build_su21()
    raise InvalidInput(f"unknown scenario {name!r}; available: {SCENARIO_NAMES}")
