"""Verification suites over the laboratory's numerical claims.

Five suites group the deterministic seeded checks: invariance (slice
translation identity, compact-group invariance, metric invariance,
Iwasawa round trips), psh (sub-mean-value tests and strict positivity
of the cell exhaustion's Levi form), exhaustion (closed-form agreement
for both scenarios, boundary divergence, the point-cycle degeneration),
incidence (unique slice intersections), and levi (pseudoconvexity
certificates).

Every check consumes only (counts, seed, scenario names) and reports a
worst observed metric against its bound, so the report payload is a
pure function of those inputs; rendering is canonical JSON with sorted
keys.  Wall-clock timing is console output in the CLI and never enters
the payload.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .catalog import COUNTS, SUITE_NAMES
from .errors import CycleLabError, InvalidInput, StencilFailure
from .exhaust import (batch_values, divergence_path, seeded_cycles,
                      seeded_domain_points, submeanvalue_discs,
                      translation_branch_pair)
from .levi import certificates, levi_form_fd, levi_refinement_ratio
from .liecore import (GroupElement, a0_matrix, is_member, iwasawa_decompose,
                      k0_matrices, n0_matrix)
from .optimize import get_engine
from .scenarios import get_scenario
from .schubert import intersect_slice
from .sections import exhaustion_values, gu_invariant_metric
from .cycles import translate_cycle


@dataclass(eq=False)
class CheckResult:
    """Worst observed metric of a check against its bound.

    above marks a bound the metric must stay above; otherwise the metric
    must stay below it.  ok carries a check's other conditions.
    """

    name: str
    count: int
    metric: float
    bound: float
    detail: str = ""
    above: bool = False
    ok: bool = True

    @property
    def passed(self):
        inside = self.metric > self.bound if self.above else self.metric < self.bound
        return bool(self.ok and inside)

    @property
    def headroom(self):
        """Margin from metric to bound in % of |bound|, positive on the
        passing side."""
        gap = self.metric - self.bound if self.above else self.bound - self.metric
        return 100.0 * gap / abs(self.bound)

    def payload(self):
        return {"name": self.name, "passed": bool(self.passed),
                "count": int(self.count), "metric": float(self.metric),
                "bound": float(self.bound), "detail": self.detail}


@dataclass(eq=False)
class SuiteResult:
    name: str
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def payload(self):
        return {"name": self.name, "passed": bool(self.passed),
                "checks": [c.payload() for c in self.checks]}


@dataclass(eq=False)
class VerificationReport:
    seed: int
    counts: str
    scenarios: tuple
    suites: list = field(default_factory=list)

    @property
    def passed(self):
        return all(s.passed for s in self.suites)

    def payload(self):
        return {"format": "cyclelab-verification-1",
                "seed": int(self.seed), "counts": self.counts,
                "scenarios": list(self.scenarios),
                "passed": bool(self.passed),
                "suites": [s.payload() for s in self.suites]}

    def to_json(self):
        return json.dumps(self.payload(), indent=2, sort_keys=True) + "\n"

    def summary_lines(self):
        lines = []
        for s in self.suites:
            for c in s.checks:
                tag = "PASS" if c.passed else "FAIL"
                lines.append(f"[{s.name}] {tag} {c.name}: "
                             f"metric {c.metric:.3e} vs bound {c.bound:.1e}, "
                             f"headroom {c.headroom:+.1f}% ({c.count} cases)")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return lines


def _group_elements(sc, count, seed):
    """count seeded K0 elements: exponential coordinates drawn uniformly
    on [-pi, pi)^dim from default_rng((seed, 29))."""
    rng = np.random.default_rng((seed, 29))
    coeffs = rng.uniform(-np.pi, np.pi, (count, len(sc.rf.k0_basis)))
    return [GroupElement(m) for m in k0_matrices(sc.rf, coeffs)]


def check_translation_identity(counts, seed, scenarios):
    """Both evaluation orders of the slice translation rule agree."""
    worst, total = 0.0, 0
    for name in scenarios:
        sc = get_scenario(name)
        cycles = seeded_cycles(sc, counts["pairs"], seed=seed)
        ks = _group_elements(sc, counts["pairs"], seed + 1)
        for k, c in zip(ks, cycles):
            lhs, rhs = translation_branch_pair(k, c, sc)
            worst = max(worst, abs(lhs - rhs))
            total += 1
    return CheckResult("translation_identity", total, worst, 1e-12)


def check_compact_invariance(counts, seed, scenarios):
    """The cycle-space exhaustion is unchanged by compact translations."""
    worst, total = 0.0, 0
    for name in scenarios:
        sc = get_scenario(name)
        cycles = seeded_cycles(sc, counts["pairs"], seed=seed + 2)
        ks = _group_elements(sc, counts["pairs"], seed + 3)
        rows = np.stack([sc.geometry.subject_row(c) for c in cycles])
        moved = np.stack([sc.geometry.subject_row(translate_cycle(k, c, sc))
                          for k, c in zip(ks, cycles)])
        base_vals = batch_values(rows, sc, "r_md")
        moved_vals = batch_values(moved, sc, "r_md")
        worst = max(worst, float(np.max(np.abs(moved_vals - base_vals))))
        total += len(cycles)
    return CheckResult("compact_invariance", total, worst, 1e-12)


def check_metric_invariance(counts, seed, scenarios):
    """The hermitian metric is invariant under the compact form."""
    worst, total = 0.0, 0
    for name in scenarios:
        sc = get_scenario(name)
        metric = gu_invariant_metric(sc)
        rng = np.random.default_rng((seed, 11))
        for _ in range(counts["metric_pairs"]):
            # Haar unitary: Q of a complex Gaussian with R's diagonal made
            # positive (Mezzadri, Notices AMS 54, 2007), then det 1
            z = rng.standard_normal((sc.n, sc.n)) + 1j * rng.standard_normal((sc.n, sc.n))
            q, r = np.linalg.qr(z)
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            g = GroupElement(q / np.linalg.det(q) ** (1.0 / sc.n))
            if not is_member(g, sc.rf, "Gu"):
                raise CycleLabError("seeded compact element failed membership")
            v = rng.standard_normal(sc.n) + 1j * rng.standard_normal(sc.n)
            nv = np.sqrt(metric.pairing(v, v).real)
            ngv = np.sqrt(metric.pairing(g.matrix @ v, g.matrix @ v).real)
            worst = max(worst, abs(ngv - nv))
            total += 1
    return CheckResult("metric_invariance", total, worst, 3e-13)


def check_iwasawa_roundtrip(counts, seed, scenarios):
    """Products k a n decompose back into the same factors."""
    worst, total = 0.0, 0
    for name in scenarios:
        sc = get_scenario(name)
        rf = sc.rf
        rng = np.random.default_rng((seed, 13))
        for k in _group_elements(sc, counts["iwasawa"], seed + 5):
            a = a0_matrix(rf, rng.uniform(-1.5, 1.5, len(rf.a_basis)))
            n = n0_matrix(rf, rng.uniform(-1.5, 1.5, len(rf.n0_basis)))
            g = GroupElement(k.matrix @ a @ n)
            k2, a2, n2 = iwasawa_decompose(g, rf)
            res = max(np.max(np.abs(k2.matrix - k.matrix)),
                      np.max(np.abs(a2.matrix - a)),
                      np.max(np.abs(n2.matrix - n)),
                      np.max(np.abs(k2.matrix @ a2.matrix @ n2.matrix - g.matrix)))
            worst = max(worst, float(res))
            total += 1
    return CheckResult("iwasawa_roundtrip", total, worst, 4e-12)


def check_submeanvalue(counts, seed, scenarios):
    """Circle means dominate center values on seeded holomorphic discs."""
    worst, total = 0.0, 0
    for name in scenarios:
        sc = get_scenario(name)
        centers, means = submeanvalue_discs(sc, "r_md", counts["discs"],
                                            seed=seed)
        margin = np.asarray(means) - np.asarray(centers)
        worst = min(worst, float(np.min(margin))) if total else float(np.min(margin))
        total += counts["discs"]
    return CheckResult("submeanvalue_rmd", total, worst, -1e-6, above=True)


def check_strict_psh(counts, seed, scenarios):
    """The cell exhaustion's Levi form is strictly positive on the cell."""
    worst, total = np.inf, 0
    for name in scenarios:
        sc = get_scenario(name)
        geo, section = sc.geometry, get_engine(sc).section

        def fn(zeta):
            return exhaustion_values(section, geo.cell_rows(np.atleast_2d(zeta)))

        rng = np.random.default_rng((seed, 17))
        z0 = np.array(geo.cell_chart_points(rng, counts["levi_points"]))
        lev = levi_form_fd(fn, z0)
        if np.isnan(lev).any():
            raise StencilFailure("non-finite value on the Levi stencil")
        worst = min(worst, float(np.min(np.linalg.eigvalsh(lev))))
        total += len(z0)
    return CheckResult("strict_psh_levi", total, worst, 1e-6, above=True)


def check_fd_convergence(counts, seed, scenarios):
    """Stencil differences contract at second order on the test function."""
    ratios = []
    for dim, z0 in ((1, np.array([0.3 + 0.1j])),
                    (2, np.array([0.3 + 0.1j, -0.2 + 0.4j]))):
        def fn(zeta):
            return np.log1p(np.sum(np.abs(np.atleast_2d(zeta)) ** 2, axis=1))

        ratios.append(levi_refinement_ratio(fn, z0, h=0.05))
    worst = float(min(ratios))
    return CheckResult("fd_convergence_factor", len(ratios), worst, 3.5, above=True)


def check_closed_form(counts, seed, scenarios):
    """The minimax optimizer reproduces the disk scenario's closed form."""
    if "su11" not in scenarios:
        return None
    sc = get_scenario("su11")
    rng = np.random.default_rng((seed, 19))
    w = 0.99 * np.sqrt(rng.uniform(size=counts["closed_form"]))
    w = w * np.exp(2j * np.pi * rng.uniform(size=counts["closed_form"]))
    w = np.concatenate([w, [0.0, 0.5]])
    rows = np.stack([w, np.ones_like(w)], axis=1)
    vals = batch_values(rows, sc, "r_md")
    want = -2.0 * np.log(1.0 - np.abs(w)) + np.log1p(np.abs(w) ** 2) + np.log(2.0)
    worst = float(np.max(np.abs(vals - want)))
    spot = max(abs(vals[-2] - np.log(2.0)), abs(vals[-1] - np.log(10.0)))
    worst = max(worst, float(spot))
    return CheckResult("closed_form_su11", len(w), worst, 5e-12)


def check_closed_form_su21(counts, seed, scenarios):
    """The ball scenario's cycle-space and domain exhaustions match their
    closed form log((1 + rho^2) / (1 - rho^2)), where rho^2 is
    (|d1|^2 + |d2|^2) / |d3|^2 for the dual d of a line and its inverse
    for a point."""
    if "su21" not in scenarios:
        return None
    sc = get_scenario("su21")
    count, worst = counts["closed_form"], 0.0
    duals = np.stack([c.dual for c in seeded_cycles(sc, count, seed, cap=0.99)])
    points = np.stack([y.homogeneous
                       for y in seeded_domain_points(sc, count, seed, cap=0.99)])
    for target, rows in (("r_md", duals), ("r_d", points)):
        ratio = np.sum(np.abs(rows[:, :2]) ** 2, axis=1) / np.abs(rows[:, 2]) ** 2
        rho_sq = ratio if target == "r_md" else 1.0 / ratio
        want = np.log((1.0 + rho_sq) / (1.0 - rho_sq))
        worst = max(worst, float(np.max(np.abs(batch_values(rows, sc, target) - want))))
    return CheckResult("closed_form_su21", 2 * count, worst, 4e-12)


def check_divergence(counts, seed, scenarios):
    """Exhaustions blow up monotonically along boundary-approaching paths."""
    floor, total, mono_ok = np.inf, 0, True
    for name in scenarios:
        sc = get_scenario(name)
        for target in ("r_md", "r_d"):
            _, paths = divergence_path(sc, target, range(counts["paths"]), seed=seed)
            for vals in paths:
                floor = min(floor, float(np.max(vals)))
                mono_ok = mono_ok and bool(np.all(np.diff(vals[-5:]) > 0))
                total += 1
    detail = "tail monotone" if mono_ok else "tail not monotone"
    return CheckResult("boundary_divergence", total, floor, 30.0, detail=detail,
                       above=True, ok=mono_ok)


def check_degenerate_grid(counts, seed, scenarios):
    """With point cycles the domain and cycle-space exhaustions coincide."""
    if "su11" not in scenarios:
        return None
    sc = get_scenario("su11")
    n = counts["grid_n"]
    axis = np.linspace(-0.9, 0.9, n)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    w = (re + 1j * im).ravel()
    w = w[np.abs(w) <= 0.99]
    rows = np.stack([w, np.ones_like(w)], axis=1)
    diff = batch_values(rows, sc, "r_d") - batch_values(rows, sc, "r_md")
    worst = float(np.max(np.abs(diff)))
    return CheckResult("point_cycle_degeneration", len(w), worst, 4e-12)


def check_slice_intersections(counts, seed, scenarios):
    """Every cycle meets the slice in one point: the common kernel of its
    dual and the duals of S, on the slice component, solving both within
    the residual bound (intersect_slice raises on a kernel of more than
    a point)."""
    worst, total = 0.0, 0
    for name in scenarios:
        sc = get_scenario(name)
        sl = get_engine(sc).slice
        for c in seeded_cycles(sc, counts["cycles"], seed=seed + 7):
            worst = max(worst, float(intersect_slice(sl, c).residual))
            total += 1
    return CheckResult("unique_slice_intersection", total, worst, 2e-14,
                       detail="all unique")


def check_certificates(counts, seed, scenarios):
    """Interior points admit verified q-pseudoconvexity certificates."""
    gap_floor, total, ok = np.inf, 0, True
    for name in scenarios:
        sc = get_scenario(name)
        points = seeded_domain_points(sc, counts["certificates"], seed=seed)
        for rep in certificates(points, sc, seed=seed):
            total += 1
            if isinstance(rep, CycleLabError):
                ok = False
                continue
            gap_floor = min(gap_floor, rep.probe_gap_min)
            ok = ok and bool(rep.q_convex_ok and rep.touch_gap <= 1e-10)
    return CheckResult("pseudoconvexity_certificates", total, float(gap_floor), -1e-9,
                       above=True, ok=ok)


_SUITE_CHECKS = {
    "invariance": (check_translation_identity, check_compact_invariance,
                   check_metric_invariance, check_iwasawa_roundtrip),
    "psh": (check_submeanvalue, check_strict_psh, check_fd_convergence),
    "exhaustion": (check_closed_form, check_closed_form_su21, check_divergence,
                   check_degenerate_grid),
    "incidence": (check_slice_intersections,),
    "levi": (check_certificates,),
}


def run_suite(name, counts, seed, scenarios):
    if name not in _SUITE_CHECKS:
        raise InvalidInput(f"unknown suite {name!r}")
    checks = []
    for fn in _SUITE_CHECKS[name]:
        res = fn(counts, seed, scenarios)
        if res is not None:
            checks.append(res)
    return SuiteResult(name=name, checks=checks)


def run_verification(suite="all", counts="quick", seed=42, scenarios=None,
                     progress=None):
    """Run the requested suites and return the structured report.

    progress, when given, is called with each finished SuiteResult; the
    CLI uses it for console timing lines.
    """
    if counts not in COUNTS:
        raise InvalidInput(f"unknown counts preset {counts!r}")
    names = SUITE_NAMES if suite == "all" else (suite,)
    scenario_names = tuple(scenarios) if scenarios else ("su11", "su21")
    for nm in scenario_names:
        get_scenario(nm)
    report = VerificationReport(seed=seed, counts=counts,
                                scenarios=scenario_names)
    for nm in names:
        res = run_suite(nm, COUNTS[counts], seed, scenario_names)
        report.suites.append(res)
        if progress is not None:
            progress(res)
    return report
