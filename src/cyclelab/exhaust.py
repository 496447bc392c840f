"""Exhaustion values on the cycle space and the domain.

batch_values evaluates a target over chart rows: the cell exhaustion
(r_s), the supremum over the compact group of the branch value (r_md,
optimize.maximize_branch) and the domain exhaustion by slice alignment
(r_d, optimize.aligned_domain_values).  Grids, boundary paths and
sub-mean-value discs are evaluated through it.

Everything here is seeded and deterministic: the same inputs, settings,
and seed give byte-identical values.
"""

from dataclasses import dataclass

import numpy as np

from .cycles import translate_cycle
from .errors import InvalidInput, OptimizerStall
from .optimize import aligned_domain_values, get_engine, maximize_branch
from .schubert import intersect_base_cycle, intersect_slice, schubert_slice, \
    translate_schubert, translate_slice
from .sections import cell_exhaustion, exhaustion_values, highest_weight_section
from .utils import logm_unitary

TARGETS = ("r_s", "r_md", "r_d")
# k0_log_coordinates: eigen-angles closer than this count as tied.
LOG_TIE = 1e-12
# submeanvalue_discs: equally spaced points on each disc's boundary circle
DISC_POINTS = 16
# grid_axis: points per axis at most.  An eval grid point takes about
# 3 KB at peak (su21 r_md as JSON, argmax included), so 401 x 401 points
# stay near 0.5 GB
MAX_GRID_N = 401


def _base_slice(sc):
    engine = get_engine(sc)
    z_j = intersect_base_cycle(engine.schubert, sc)[0]
    return engine, schubert_slice(engine.schubert, z_j, sc)


def batch_values(rows, sc, target, settings=None):
    """Target values over subject rows, without domain enforcement.

    Rows are chart-appropriate homogeneous vectors: points for r_s and
    r_d, cycle duals (or cycle points for su11) for r_md.
    """
    rows = np.atleast_2d(np.asarray(rows, complex))
    if target == "r_s":
        engine = get_engine(sc)
        return exhaustion_values(engine.section, rows)
    if target == "r_md":
        vals, _ = maximize_branch(rows, sc, settings)
        return vals
    if target == "r_d":
        vals, _ = aligned_domain_values(rows, sc, settings)
        return vals
    raise InvalidInput(f"unknown target {target!r}")


def translation_branch_pair(k, c, sc):
    """Both sides of the slice translation identity for a group element.

    Left: the exhaustion of the k-translated cell at the intersection of
    C with the translated slice.  Right: the base cell exhaustion at the
    intersection of the k^{-1}-translated cycle with the base slice.
    """
    engine, sl = _base_slice(sc)
    s_t = translate_schubert(k, engine.schubert, sc)
    sec_t = highest_weight_section(s_t, sc)
    sl_t = translate_slice(k, sl)
    z_l = intersect_slice(sl_t, c).point
    lhs = cell_exhaustion(z_l, s_t, sc, section=sec_t)
    z_r = intersect_slice(sl, translate_cycle(k.inverse(), c, sc)).point
    rhs = cell_exhaustion(z_r, engine.schubert, sc, section=engine.section)
    return lhs, rhs


def boundary_depths(samples=15, decade=1.0):
    """Geometric boundary-distance schedule 0.5 * 10^(-t * decade)."""
    return 0.5 * 10.0 ** (-decade * np.arange(samples, dtype=float))


def divergence_path(sc, target, index, seed=42):
    """Values of a target exhaustion along a seeded path to the boundary.

    Returns (depths, values); evaluation skips domain enforcement since
    the late samples sit below the sign margin on purpose.
    """
    rng = np.random.default_rng((seed, index, 17))
    # the r_s section ratio underflows once the approach distance nears the
    # inverse of its dynamic range; r_md and r_d resolve to machine
    # precision (their optimizers polish to the rounding floor)
    d = boundary_depths(decade=0.5 if target == "r_s" else 1.0)
    return d, batch_values(sc.geometry.divergence_rows(target, d, rng, sc.rf),
                           sc, target)


def submeanvalue_discs(sc, target, count, seed=42):
    """Center values and circle means over seeded holomorphic discs.

    Discs are affine in the natural bounded chart of the target's home
    space (the disk for su11, the dual ball for su21 cycles, the domain
    chart for su21 points), with radii keeping them strictly inside.
    All discs are drawn first and evaluated in one batch of
    count x (1 + DISC_POINTS) rows, center first in each disc.
    Returns (center_values, circle_means).
    """
    rng = np.random.default_rng((seed, 23))
    phases = np.exp(2j * np.pi * np.arange(DISC_POINTS) / DISC_POINTS)
    discs = [sc.geometry.disc_rows(target, rng, phases) for _ in range(count)]
    vals = batch_values(np.concatenate(discs), sc, target)
    vals = vals.reshape(count, 1 + DISC_POINTS)
    return vals[:, 0], np.array([float(np.mean(v[1:])) for v in vals])


def seeded_domain_points(sc, count, seed=42, cap=0.9):
    """Deterministic interior points, boundary distance controlled by cap."""
    rng = np.random.default_rng((seed, 31))
    return [sc.geometry.seeded_point(rng, cap) for _ in range(count)]


def seeded_cycles(sc, count, seed=42, cap=0.95):
    """Deterministic cycles inside the domain."""
    rng = np.random.default_rng((seed, 37))
    return [sc.geometry.seeded_cycle(rng, cap, sc) for _ in range(count)]


def k0_log_coordinates(ks, rf):
    """Coordinates in the compact algebra basis of a logarithm of each
    matrix of an (m, n, n) stack of K0 elements (for reports).

    The logarithm is the principal one (utils.logm_unitary) whenever
    that lies in the algebra.  det k = 1 puts the principal log's trace
    at 2 pi i t with t in {-1, 0, 1} (n <= 3); for t != 0 the eigen-angle
    nearest t pi moves by -2 pi t, along an eigenvector inside one
    diagonal block of the Cartan matrix, so that the log is traceless,
    stays block diagonal and still exponentiates to k.  Angles within
    LOG_TIE of each other count as tied, and a tie moves the angle of
    the last block: an exact -1 pair split across the blocks logs to
    +i pi on the first and -i pi on the last.
    """
    x = logm_unitary(ks)
    turns = np.rint(np.trace(x, axis1=1, axis2=2).imag / (2 * np.pi))
    signs = np.diagonal(rf.cartan_matrix).real
    blocks = [np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)]
    for i in np.flatnonzero(turns):
        # eigenvalues of -i t x are t times the eigen-angles
        pairs = [np.linalg.eigh(-1j * turns[i] * x[i][np.ix_(b, b)]) for b in blocks]
        tops = [w[-1] for w, _ in pairs]
        j = max(j for j, top in enumerate(tops) if top >= max(tops) - LOG_TIE)
        v = pairs[j][1][:, -1]
        x[i][np.ix_(blocks[j], blocks[j])] -= 2j * np.pi * turns[i] * np.outer(v, np.conj(v))
    basis = np.asarray(rf.k0_basis)
    gram = np.einsum("aij,bij->ab", np.conj(basis), basis).real
    rhs = np.einsum("aij,mij->am", np.conj(basis), x).real
    return np.linalg.solve(gram, rhs).T


def grid_axis(spec):
    lo, hi, n = spec
    if n < 1 or not np.isfinite([lo, hi]).all() or hi < lo:
        raise InvalidInput("grid spec must be min:max:n with n >= 1 and max >= min")
    if n > MAX_GRID_N:
        raise InvalidInput(f"grid n must be at most {MAX_GRID_N}, not {n}")
    return np.linspace(lo, hi, int(n))


@dataclass(eq=False)
class GridRow:
    re: float
    im: float
    value: float = None
    argmax: np.ndarray = None
    n_pos: int = -1
    error: str = ""


def evaluate_grid(sc, target, grid_spec, settings=None, levi_mode="auto"):
    """Evaluate a target over a square grid in its natural chart.

    The grid coordinate is the disk chart w for su11; for su21 it is the
    cell coordinate (r_s), the first dual-ball coordinate (r_md), or the
    fiber coordinate of [1 : 0 : c] (r_d).  Points outside the chart's
    admissible set get an error string instead of a value.  levi_mode
    "on" attaches the count of positive Levi eigenvalues at each point;
    "auto" does so only for r_s, where the computation is closed form
    cheap; "off" leaves the sentinel -1.  A point whose Levi stencil
    stalls keeps its value, with n_pos -1 and the stall in its error.
    """
    if target not in TARGETS:
        raise InvalidInput(f"unknown target {target!r}")
    axis = grid_axis(grid_spec)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    cs = (re + 1j * im).ravel()
    geo = sc.geometry
    rows = geo.chart_rows(target, cs, sc.rf)
    ok = geo.admissible(target, rows)
    values = np.full(cs.shape[0], np.nan)
    argmaxes = [None] * cs.shape[0]
    if target == "r_s" and np.any(ok):
        values[ok] = batch_values(rows[ok], sc, target, settings)
    elif np.any(ok):
        # one optimizer pass gives both the values and the argmaxes
        solve = maximize_branch if target == "r_md" else aligned_domain_values
        values[ok], ks = solve(rows[ok], sc, settings)
        for slot, coords in zip(np.flatnonzero(ok), k0_log_coordinates(ks, sc.rf)):
            argmaxes[slot] = coords
    do_levi = levi_mode == "on" or (levi_mode == "auto" and target == "r_s")
    npos = np.full(cs.shape[0], -1, dtype=int)
    errors = ["" if inside else geo.outside[target] for inside in ok]
    if do_levi:
        from .levi import eig_signature, levi_form_fd

        def fn(zs):
            r = geo.chart_rows(target, np.atleast_1d(zs), sc.rf)
            return batch_values(r, sc, target, settings)

        for i in np.flatnonzero(ok):
            # the stencil passes (m, 1) stacks; the chart wants scalars
            try:
                lev = levi_form_fd(lambda dz: fn(cs[i] + dz[:, 0]),
                                   np.zeros(1, complex), h=sc.tol.fd_step)
            except OptimizerStall as exc:
                errors[i] = f"Levi stencil: {exc}"
                continue
            npos[i] = eig_signature(lev, sc.tol.zero_band)[0]
    out = []
    for i in range(cs.shape[0]):
        out.append(GridRow(re=float(cs[i].real), im=float(cs[i].imag),
                           value=None if not ok[i] else float(values[i]),
                           argmax=argmaxes[i], n_pos=int(npos[i]),
                           error=errors[i]))
    return out
