"""Verification suites over the laboratory's numerical claims.

Five suites group the deterministic seeded checks: invariance (slice
translation identity, compact-group invariance, metric invariance,
Iwasawa round trips), psh (sub-mean-value tests and strict positivity
of the cell exhaustion's Levi form), exhaustion (closed-form agreement
for both scenarios, boundary divergence, the point-cycle degeneration),
incidence (unique slice intersections), and levi (pseudoconvexity
certificates).

Each check is a measurement of one scenario, measure(sc, counts, seed),
that gives that scenario's case metrics; one that evaluates r_md or r_d
yields its rows as (target, rows) requests instead of calling the
optimizer (_measure).  _check makes it a check of (counts, seed,
scenario names): it measures each scenario of the run that the check
declares (only=, the closed forms and the point-cycle degeneration name
theirs), counts the cases of all of them and reports the worst against
the bound.  run_suite measures a suite's checks on a scenario together,
one batch_values call per target.  The optimizers give each row the
same bits whatever rows share its call, so the payload is a pure
function of those inputs; rendering is canonical JSON with sorted keys.
Wall-clock timing is console output in the CLI and never enters the
payload.
"""

import json
from dataclasses import dataclass, field
from types import GeneratorType

import numpy as np

from .catalog import COUNTS, SUITE_NAMES
from .errors import CycleLabError, InvalidInput, StencilFailure
from .exhaust import (batch_values, seeded_cycles, seeded_disc_rows,
                      seeded_domain_points, seeded_path_rows,
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


def _result(name, cases, bound, above=False, ok=True, detail=""):
    """CheckResult of the case metrics: their count and their worst, the
    least for a bound the metric must stay above, the largest otherwise."""
    cases = np.asarray(cases, float)
    worst = np.min(cases) if above else np.max(cases)
    return CheckResult(name, cases.size, float(worst), bound, detail=detail,
                       above=above, ok=ok)


def _check(name, bound, above=False, only=None, detail=""):
    """Decorator: the check (counts, seed, scenarios) of a measurement
    measure(sc, counts, seed) that gives one scenario's case metrics, or
    (case metrics, ok) where the check has other conditions; it returns
    them, or yields its optimizer rows first (_measure).  The check
    measures each scenario of the run that only names (all when only is
    None; no result when none is) and reports all their cases together
    (_result).  detail is a string, or a dict from ok to one.  The
    measure, only and report attributes let run_suite measure the checks
    of a suite together (_run_checks).
    """
    def wrap(measure):
        def report(runs):
            if not runs:
                return None
            runs = [run if isinstance(run, tuple) else (run, True) for run in runs]
            ok = all(fine for _, fine in runs)
            return _result(name, np.concatenate([c for c, _ in runs]), bound,
                           above, ok, detail if isinstance(detail, str) else detail[ok])

        def check(counts, seed, scenarios):
            return _run_checks((check,), counts, seed, scenarios)[0]

        check.__name__, check.__doc__ = measure.__name__, measure.__doc__
        check.measure, check.only, check.report = measure, only, report
        return check

    return wrap


def _measure(measures, sc, counts, seed):
    """Case metrics of measurements of one scenario, in order.

    A generator measurement yields one list of (target, rows) requests
    and is sent their values in request order.  All requests are served
    together, one batch_values call per target over the concatenated rows.
    """
    out = [measure(sc, counts, seed) for measure in measures]
    runs = {i: run for i, run in enumerate(out) if isinstance(run, GeneratorType)}
    asks = {i: [(t, np.atleast_2d(np.asarray(rows, complex))) for t, rows in next(run)]
            for i, run in runs.items()}
    parts = {}
    for target in dict.fromkeys(t for reqs in asks.values() for t, _ in reqs):
        rows = [r for reqs in asks.values() for t, r in reqs if t == target]
        vals = batch_values(np.concatenate(rows), sc, target)
        parts[target] = iter(np.split(vals, np.cumsum([len(r) for r in rows])[:-1]))
    for i, run in runs.items():
        try:
            run.send([next(parts[t]) for t, _ in asks[i]])
        except StopIteration as stop:
            out[i] = stop.value
    return out


def _run_checks(checks, counts, seed, scenarios):
    """Results of _check checks, in order: each scenario of the run
    measures all the checks declared for it together (_measure)."""
    runs = [[] for _ in checks]
    for nm in scenarios:
        mine = [i for i, c in enumerate(checks) if c.only is None or nm in c.only]
        metrics = _measure([checks[i].measure for i in mine], get_scenario(nm),
                           counts, seed)
        for i, run in zip(mine, metrics):
            runs[i].append(run)
    return [c.report(run) for c, run in zip(checks, runs)]


@_check("translation_identity", 1e-12)
def check_translation_identity(sc, counts, seed):
    """Both evaluation orders of the slice translation rule agree."""
    cycles = seeded_cycles(sc, counts["pairs"], seed=seed)
    ks = _group_elements(sc, counts["pairs"], seed + 1)
    return [abs(lhs - rhs) for lhs, rhs in
            (translation_branch_pair(k, c, sc) for k, c in zip(ks, cycles))]


@_check("compact_invariance", 1e-12)
def check_compact_invariance(sc, counts, seed):
    """The cycle-space exhaustion is unchanged by compact translations."""
    cycles = seeded_cycles(sc, counts["pairs"], seed=seed + 2)
    ks = _group_elements(sc, counts["pairs"], seed + 3)
    rows = np.stack([sc.geometry.subject_row(c) for c in cycles])
    moved = np.stack([sc.geometry.subject_row(translate_cycle(k, c, sc))
                      for k, c in zip(ks, cycles)])
    moved_values, values = yield [("r_md", moved), ("r_md", rows)]
    return np.abs(moved_values - values)


@_check("metric_invariance", 3e-13)
def check_metric_invariance(sc, counts, seed):
    """The hermitian metric is invariant under the compact form."""
    metric = gu_invariant_metric(sc)
    rng = np.random.default_rng((seed, 11))
    errs = []
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
        errs.append(abs(ngv - nv))
    return errs


@_check("iwasawa_roundtrip", 4e-12)
def check_iwasawa_roundtrip(sc, counts, seed):
    """Products k a n decompose back into the same factors."""
    rf = sc.rf
    rng = np.random.default_rng((seed, 13))
    errs = []
    for k in _group_elements(sc, counts["iwasawa"], seed + 5):
        a = a0_matrix(rf, rng.uniform(-1.5, 1.5, len(rf.a_basis)))
        n = n0_matrix(rf, rng.uniform(-1.5, 1.5, len(rf.n0_basis)))
        g = GroupElement(k.matrix @ a @ n)
        k2, a2, n2 = iwasawa_decompose(g, rf)
        errs.append(max(np.max(np.abs(d)) for d in (
            k2.matrix - k.matrix, a2.matrix - a, n2.matrix - n,
            k2.matrix @ a2.matrix @ n2.matrix - g.matrix)))
    return errs


@_check("submeanvalue_rmd", -1e-6, above=True)
def check_submeanvalue(sc, counts, seed):
    """Circle means dominate center values on seeded holomorphic discs."""
    (values,) = yield [("r_md", seeded_disc_rows(sc, "r_md", counts["discs"], seed=seed))]
    # center first in each disc, then its circle
    values = values.reshape(counts["discs"], -1)
    return np.array([float(np.mean(v[1:])) for v in values]) - values[:, 0]


@_check("strict_psh_levi", 1e-6, above=True)
def check_strict_psh(sc, counts, seed):
    """The cell exhaustion's Levi form is strictly positive on the cell."""
    geo, section = sc.geometry, get_engine(sc).section

    def fn(zeta):
        return exhaustion_values(section, geo.cell_rows(np.atleast_2d(zeta)))

    rng = np.random.default_rng((seed, 17))
    lev = levi_form_fd(fn, np.array(geo.cell_chart_points(rng, counts["levi_points"])))
    if np.isnan(lev).any():
        raise StencilFailure("non-finite value on the Levi stencil")
    return np.min(np.linalg.eigvalsh(lev), axis=1)


def check_fd_convergence(counts, seed, scenarios):
    """Stencil differences contract at second order on the test function,
    whatever the scenarios."""
    def fn(zeta):
        return np.log1p(np.sum(np.abs(np.atleast_2d(zeta)) ** 2, axis=1))

    ratios = [levi_refinement_ratio(fn, z0, h=0.05)
              for z0 in (np.array([0.3 + 0.1j]), np.array([0.3 + 0.1j, -0.2 + 0.4j]))]
    return _result("fd_convergence_factor", ratios, 3.5, above=True)


@_check("closed_form_su11", 5e-12, only=("su11",))
def check_closed_form(sc, counts, seed):
    """The minimax optimizer reproduces the disk scenario's closed form."""
    rng = np.random.default_rng((seed, 19))
    w = 0.99 * np.sqrt(rng.uniform(size=counts["closed_form"]))
    w = w * np.exp(2j * np.pi * rng.uniform(size=counts["closed_form"]))
    w = np.concatenate([w, [0.0, 0.5]])
    rows = np.stack([w, np.ones_like(w)], axis=1)
    (vals,) = yield [("r_md", rows)]
    want = -2.0 * np.log(1.0 - np.abs(w)) + np.log1p(np.abs(w) ** 2) + np.log(2.0)
    errs = np.abs(vals - want)
    # and the spot values log 2 at w = 0 and log 10 at w = 0.5
    errs[-2] = max(errs[-2], abs(vals[-2] - np.log(2.0)))
    errs[-1] = max(errs[-1], abs(vals[-1] - np.log(10.0)))
    return errs


@_check("closed_form_su21", 4e-12, only=("su21",))
def check_closed_form_su21(sc, counts, seed):
    """The ball scenario's cycle-space and domain exhaustions match their
    closed form log((1 + rho^2) / (1 - rho^2)), where rho^2 is
    (|d1|^2 + |d2|^2) / |d3|^2 for the dual d of a line and its inverse
    for a point."""
    count = counts["closed_form"]
    duals = np.stack([c.dual for c in seeded_cycles(sc, count, seed, cap=0.99)])
    points = np.stack([y.homogeneous
                       for y in seeded_domain_points(sc, count, seed, cap=0.99)])
    asks = [("r_md", duals), ("r_d", points)]
    errs = []
    for (target, rows), vals in zip(asks, (yield asks)):
        ratio = np.sum(np.abs(rows[:, :2]) ** 2, axis=1) / np.abs(rows[:, 2]) ** 2
        rho_sq = ratio if target == "r_md" else 1.0 / ratio
        want = np.log((1.0 + rho_sq) / (1.0 - rho_sq))
        errs.append(np.abs(vals - want))
    return np.concatenate(errs)


@_check("boundary_divergence", 30.0, above=True,
        detail={True: "tail monotone", False: "tail not monotone"})
def check_divergence(sc, counts, seed):
    """Exhaustions blow up monotonically along boundary-approaching paths."""
    depths, md_rows = seeded_path_rows(sc, "r_md", range(counts["paths"]), seed=seed)
    _, d_rows = seeded_path_rows(sc, "r_d", range(counts["paths"]), seed=seed)
    paths = np.concatenate((yield [("r_md", md_rows), ("r_d", d_rows)]))
    paths = paths.reshape(-1, depths.size)
    return np.max(paths, axis=1), bool(np.all(np.diff(paths[:, -5:], axis=1) > 0))


@_check("point_cycle_degeneration", 4e-12, only=("su11",))
def check_degenerate_grid(sc, counts, seed):
    """With point cycles the domain and cycle-space exhaustions coincide."""
    axis = np.linspace(-0.9, 0.9, counts["grid_n"])
    re, im = np.meshgrid(axis, axis, indexing="ij")
    w = (re + 1j * im).ravel()
    w = w[np.abs(w) <= 0.99]
    rows = np.stack([w, np.ones_like(w)], axis=1)
    domain_values, cycle_values = yield [("r_d", rows), ("r_md", rows)]
    return np.abs(domain_values - cycle_values)


@_check("unique_slice_intersection", 2e-14, detail="all unique")
def check_slice_intersections(sc, counts, seed):
    """Every cycle meets the slice in one point: the common kernel of its
    dual and the duals of S, on the slice component, solving both within
    the residual bound (intersect_slice raises on a kernel of more than
    a point)."""
    sl = get_engine(sc).slice
    return [intersect_slice(sl, c).residual
            for c in seeded_cycles(sc, counts["cycles"], seed=seed + 7)]


@_check("pseudoconvexity_certificates", -1e-9, above=True)
def check_certificates(sc, counts, seed):
    """Interior points admit verified q-pseudoconvexity certificates."""
    gaps, ok = [], True
    for rep in certificates(seeded_domain_points(sc, counts["certificates"], seed=seed),
                            sc, seed=seed):
        # a point that raised is a case that fails the check and has no gap
        raised = isinstance(rep, CycleLabError)
        gaps.append(np.inf if raised else rep.probe_gap_min)
        ok = ok and not raised and bool(rep.q_convex_ok and rep.touch_gap <= 1e-10)
    return gaps, ok


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
    fns = _SUITE_CHECKS[name]
    measured = [fn for fn in fns if hasattr(fn, "measure")]
    results = dict(zip(measured, _run_checks(measured, counts, seed, scenarios)))
    checks = [results[fn] if fn in results else fn(counts, seed, scenarios)
              for fn in fns]
    return SuiteResult(name=name, checks=[c for c in checks if c is not None])


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
