"""Acceptance gate: the sixteen headline checks at full sample counts.

Criteria 1-12 drive the same check functions the `cyclelab verify`
command uses, but at the "full" counts preset, and assert the check's
own pass verdict; criteria 13-16 sweep each scenario x target toward
the boundary against the closed forms of tests/oracles.py.  The pytest
-v line of each test is the pass/fail line of its criterion.
"""

import subprocess
import sys

import numpy as np
import pytest

from cyclelab import get_scenario
from cyclelab.exhaust import batch_values
from cyclelab.verify import (COUNTS, check_certificates, check_closed_form,
                             check_closed_form_su21, check_compact_invariance,
                             check_degenerate_grid, check_divergence,
                             check_fd_convergence, check_iwasawa_roundtrip,
                             check_metric_invariance, check_slice_intersections,
                             check_strict_psh, check_submeanvalue,
                             check_translation_identity)

from oracles import rd_ball, rmd_disk, rmd_dual_ball

FULL = COUNTS["full"]
BOTH = ("su11", "su21")
SEED = 42


def _require(res, expect_count=None):
    line = (f"{res.name}: {'PASS' if res.passed else 'FAIL'} "
            f"(metric {res.metric:.3e}, bound {res.bound:.1e}, "
            f"{res.count} cases)")
    print(line)
    if expect_count is not None:
        assert res.count == expect_count, line
    assert res.passed, line


def test_criterion_01_disk_closed_form():
    # 100 seeded moduli up to 0.99 plus the two spot values
    _require(check_closed_form(FULL, SEED, ("su11",)), expect_count=102)


def test_criterion_02_translation_identity():
    _require(check_translation_identity(FULL, SEED, BOTH), expect_count=100)


def test_criterion_03_compact_invariance():
    _require(check_compact_invariance(FULL, SEED, BOTH), expect_count=100)


def test_criterion_04_submeanvalue_discs():
    _require(check_submeanvalue(FULL, SEED, BOTH), expect_count=400)


def test_criterion_05_boundary_divergence():
    # ten paths per scenario and target, values past 30, monotone tails
    _require(check_divergence(FULL, SEED, BOTH), expect_count=40)


def test_criterion_06_unique_slice_intersections():
    _require(check_slice_intersections(FULL, SEED, ("su21",)),
             expect_count=50)


def test_criterion_07_point_cycle_degeneration():
    _require(check_degenerate_grid(FULL, SEED, ("su11",)))


def test_criterion_08_pseudoconvexity_certificates():
    _require(check_certificates(FULL, SEED, BOTH), expect_count=100)


def test_criterion_09_strict_psh_of_cell_exhaustion():
    _require(check_strict_psh(FULL, SEED, BOTH), expect_count=100)
    _require(check_fd_convergence(FULL, SEED, BOTH))


def test_criterion_10_metric_and_iwasawa():
    _require(check_metric_invariance(FULL, SEED, BOTH), expect_count=200)
    _require(check_iwasawa_roundtrip(FULL, SEED, BOTH), expect_count=200)


def test_criterion_11_verification_repeatability(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "cyclelab.cli", "verify",
             "--seed", "42", "--out", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append(path.read_bytes())
    assert outs[0] == outs[1], "verification reports differ between runs"
    print("verification_repeatability: PASS (byte-identical reports)")


def test_criterion_12_ball_closed_forms():
    # 100 seeded duals and 100 seeded points with rho up to 0.99
    _require(check_closed_form_su21(FULL, SEED, BOTH), expect_count=200)


def _boundary_rows(name, target, depth, rng, count):
    """Rows at boundary distance depth (1 - |w| or 1 - rho) and their
    closed-form values."""
    head = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    head /= np.linalg.norm(head, axis=1, keepdims=True)
    phase = np.exp(2j * np.pi * rng.uniform(size=count))
    if name == "su11":
        w = (1.0 - depth) * phase
        return np.stack([w, np.ones_like(w)], axis=1), rmd_disk(w)
    if target == "r_md":
        beta = (1.0 - depth) * head
        return np.concatenate([beta, np.ones((count, 1))], axis=1), rmd_dual_ball(beta)
    rows = np.concatenate([head, ((1.0 - depth) * phase)[:, None]], axis=1)
    return rows, rd_ball(rows)


@pytest.mark.parametrize("name,target", [("su11", "r_md"), ("su11", "r_d"),
                                         ("su21", "r_md"), ("su21", "r_d")])
def test_criterion_13_to_16_boundary_sweep(name, target):
    # the input conditioning allows about 1e-16 / depth; the bound is 100x that
    sc = get_scenario(name)
    rng = np.random.default_rng((SEED, 43))
    depths = 10.0 ** -np.arange(1, 10)
    worst = 0.0
    for depth in depths:
        rows, want = _boundary_rows(name, target, depth, rng, 8)
        err = np.max(np.abs(batch_values(rows, sc, target) - want))
        worst = max(worst, float(err * depth / 1e-16))
    line = (f"boundary_sweep_{name}_{target}: {'PASS' if worst <= 100 else 'FAIL'} "
            f"(worst error {worst:.1f} x 1e-16 / depth, bound 100, "
            f"{8 * len(depths)} cases)")
    print(line)
    assert worst <= 100.0, line
