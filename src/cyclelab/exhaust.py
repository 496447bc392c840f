"""Exhaustion values on the cycle space and the domain.

batch_values evaluates a target over chart rows: the cell exhaustion
(r_s), the supremum over the compact group of the branch value (r_md,
optimize.maximize_branch) and the domain exhaustion by slice alignment
(r_d, optimize.aligned_domain_values).  Grids and boundary paths are
evaluated through it; seeded_path_rows and seeded_disc_rows build the
rows of boundary paths and sub-mean-value discs.

Everything here is seeded and deterministic: the same inputs, scenario
config and seed give byte-identical values.
"""

import math
import numbers

import numpy as np

from .catalog import MAX_GRID_N, TARGETS
from .cycles import translate_cycle
from .errors import InvalidInput
from .liecore import k0_log
from .optimize import ASCENT_ROWS, aligned_domain_values, get_engine, maximize_branch
from .schubert import intersect_slice, translate_schubert, translate_slice
from .sections import cell_exhaustion, exhaustion_values, highest_weight_section

# seeded_disc_rows: equally spaced points on each disc's boundary circle
DISC_POINTS = 16


def batch_values(rows, sc, target):
    """Target values over subject rows, without domain enforcement.

    Rows are chart-appropriate homogeneous vectors: points for r_s and
    r_d, cycle duals (or cycle points for su11) for r_md.
    """
    rows = np.atleast_2d(np.asarray(rows, complex))
    if target == "r_s":
        engine = get_engine(sc)
        return exhaustion_values(engine.section, rows)
    if target == "r_md":
        vals, _ = maximize_branch(rows, sc)
        return vals
    if target == "r_d":
        vals, _ = aligned_domain_values(rows, sc)
        return vals
    raise InvalidInput(f"unknown target {target!r}")


def translation_branch_pair(k, c, sc):
    """Both sides of the slice translation identity for a group element.

    Left: the exhaustion of the k-translated cell at the intersection of
    C with the translated slice.  Right: the base cell exhaustion at the
    intersection of the k^{-1}-translated cycle with the base slice.
    """
    engine = get_engine(sc)
    sl = engine.slice
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


def seeded_path_rows(sc, target, indices, seed=42):
    """(depths, rows) of seeded paths to the boundary, path by path; path
    i draws from default_rng((seed, i, 17)).  The late rows sit below the
    sign margin on purpose, so they are evaluated without domain
    enforcement."""
    # the r_s section ratio underflows once the approach distance nears the
    # inverse of its dynamic range; r_md and r_d resolve to machine
    # precision (their optimizers polish to the rounding floor)
    d = boundary_depths(decade=0.5 if target == "r_s" else 1.0)
    rows = [sc.geometry.divergence_rows(target, d, np.random.default_rng((seed, i, 17)),
                                        sc.rf) for i in indices]
    return d, np.concatenate(rows)


def divergence_path(sc, target, indices, seed=42):
    """(depths, values (paths, samples)) of a target along seeded_path_rows,
    all paths in one batch; a path's values do not depend on the others."""
    d, rows = seeded_path_rows(sc, target, indices, seed)
    return d, batch_values(rows, sc, target).reshape(-1, d.size)


def seeded_disc_rows(sc, target, count, seed=42):
    """Rows of count seeded holomorphic discs, 1 + DISC_POINTS per disc,
    center first, then equally spaced points of its boundary circle.

    Discs are affine in the natural bounded chart of the target's home
    space (the disk for su11, the dual ball for su21 cycles, the domain
    chart for su21 points), with radii keeping them strictly inside.
    """
    rng = np.random.default_rng((seed, 23))
    phases = np.exp(2j * np.pi * np.arange(DISC_POINTS) / DISC_POINTS)
    return np.concatenate([sc.geometry.disc_rows(target, rng, phases)
                           for _ in range(count)])


def seeded_domain_points(sc, count, seed=42, cap=0.9):
    """Deterministic interior points, boundary distance controlled by cap."""
    rng = np.random.default_rng((seed, 31))
    return [sc.geometry.seeded_point(rng, cap) for _ in range(count)]


def seeded_cycles(sc, count, seed=42, cap=0.95):
    """Deterministic cycles inside the domain."""
    rng = np.random.default_rng((seed, 37))
    return [sc.geometry.seeded_cycle(rng, cap, sc) for _ in range(count)]


def k0_log_coordinates(ks, rf):
    """Coordinates in the compact algebra basis of liecore.k0_log of each
    matrix of an (m, n, n) stack of K0 elements (for reports)."""
    basis = np.asarray(rf.k0_basis)
    gram = np.einsum("aij,bij->ab", np.conj(basis), basis).real
    rhs = np.einsum("aij,mij->ma", np.conj(basis), k0_log(rf, ks)).real
    # the inverse Gram matrix row by row, not a solve: LAPACK solves one
    # right-hand side in another order than several
    return np.einsum("mb,ab->ma", rhs, np.linalg.inv(gram))


def grid_axis(spec):
    lo, hi, n = spec
    if (isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1
            or not np.isfinite([lo, hi]).all() or hi < lo):
        raise InvalidInput(f"grid spec must be min:max:n with an integer n >= 1 "
                           f"and max >= min, not {spec!r}")
    if n > MAX_GRID_N:
        raise InvalidInput(f"grid n must be at most {MAX_GRID_N}, not {n}")
    # past the float range, hi - lo is inf and linspace's coordinates NaN
    # or inf; within it they are finite, and the writer relies on that
    if not math.isfinite(float(hi) - float(lo)):
        raise InvalidInput(f"grid window {lo!r}:{hi!r} spans more than the float range")
    return np.linspace(lo, hi, n)


def evaluate_grid(sc, target, grid_spec, levi_mode="auto"):
    """Evaluate a target over a square grid in its natural chart, as the
    columns (cs, values, admissible mask, argmax coordinates or None for
    r_s, n_pos, error strings) of its points in row-major (re, im) order.

    The grid coordinate is the disk chart w for su11; for su21 it is the
    cell coordinate (r_s), the first dual-ball coordinate (r_md), or the
    fiber coordinate of [1 : 0 : c] (r_d).  Points outside the chart's
    admissible set keep NaN values and argmaxes and get an error string.
    levi_mode "on" attaches the count of positive Levi eigenvalues at
    each point; "auto" does so only for r_s, where it is closed form
    cheap; "off" leaves the sentinel -1.  The admissible points go
    ASCENT_ROWS at a time through one value pass and one Levi stencil.
    A point whose stencil leaves the domain keeps its value, with n_pos
    -1 and the failure in its error.  An optimizer stall on a stencil
    row fails the whole grid, as one in the value pass does.
    """
    if target not in TARGETS:
        raise InvalidInput(f"unknown target {target!r}")
    axis = grid_axis(grid_spec)
    cs = np.add.outer(axis, 1j * axis).ravel()
    geo = sc.geometry
    rows = geo.chart_rows(target, cs, sc.rf)
    ok = geo.admissible(target, rows)
    values = np.full(cs.size, np.nan)
    argmax = None if target == "r_s" else np.full((cs.size, len(sc.rf.k0_basis)), np.nan)
    npos = np.full(cs.size, -1)
    errors = np.full(cs.size, "", dtype=object)
    if not ok.all():
        errors[~ok] = geo.outside[target]
    do_levi = levi_mode == "on" or (levi_mode == "auto" and target == "r_s")
    if do_levi:
        from .levi import eig_signature, levi_form_fd

        def fn(zs):
            return batch_values(geo.chart_rows(target, zs[:, 0], sc.rf), sc, target)

    slots = np.flatnonzero(ok)
    for start in range(0, slots.size, ASCENT_ROWS):
        block = slots[start:start + ASCENT_ROWS]
        if argmax is None:
            values[block] = batch_values(rows[block], sc, target)
        else:
            # one optimizer pass gives both the values and the argmaxes
            solve = maximize_branch if target == "r_md" else aligned_domain_values
            values[block], ks = solve(rows[block], sc)
            argmax[block] = k0_log_coordinates(ks, sc.rf)
        if do_levi:
            lev = levi_form_fd(fn, cs[block, None])
            bad = np.isnan(lev).any(axis=(1, 2))
            npos[block[~bad]] = eig_signature(lev[~bad])[0]
            errors[block[bad]] = "Levi stencil: non-finite value on the Levi stencil"
    return cs, values, ok, argmax, npos, errors
