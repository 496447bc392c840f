"""The benchmark's workloads and the checks on their outputs.

A workload is a list of cyclelab CLI commands that make up one pass.
Every command gets the benchmark seed as ``--seed``; the grid workloads
also shift their window by a small amount drawn from that seed.  The
checks compare grid payloads with closed forms derived here by hand
(independently of the package) and read the verify reports' verdicts.
"""

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

# Grid windows keep every admissible point this far inside the unit
# boundary (the default window -0.9:0.9:41 keeps 8.4e-4).  Accuracy right
# at the boundary is the acceptance gate's subject, not this benchmark's.
BOUNDARY_MARGIN = 5e-4
WINDOW_SHIFT = 0.01
# 23x23 leaves about 470 admissible rows per eval: two near-equal blocks of
# run_chunked's 256 rows, so two threads can share the fine-K0 work, and a
# pass short enough for several timed passes per run.
GRID_N = 23
CLOSED_FORM_TOL = 1e-9
VERIFY_SUITES = ("invariance", "psh", "exhaustion", "incidence", "levi")


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    scenario: str = None
    target: str = None
    suite: str = None


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int  # CYCLELAB_THREADS
    build: object  # (seed, tiny) -> tuple of Commands


def grid_window(seed, n):
    """Seeded window lo:hi:n, shifted by at most WINDOW_SHIFT from -0.9:0.9.

    A draw whose admissible points come closer than BOUNDARY_MARGIN to
    the unit circle is replaced by the next draw of the same stream.
    """
    rng = np.random.default_rng([seed, 7])
    for _ in range(1000):
        shift = float(rng.uniform(-WINDOW_SHIFT, WINDOW_SHIFT))
        lo, hi = -0.9 + shift, 0.9 + shift
        axis = np.linspace(lo, hi, n)
        r = np.abs(axis[:, None] + 1j * axis[None, :])
        inside = r[r < 1.0]
        if inside.size and 1.0 - inside.max() >= BOUNDARY_MARGIN:
            return f"{lo!r}:{hi!r}:{n}"
    raise RuntimeError("no admissible grid window for this seed")


def _eval(scenario, target, window, seed, extra=()):
    argv = ("eval", "--scenario", scenario, "--target", target,
            "--grid", window, "--levi", "auto", "--seed", str(seed)) + tuple(extra)
    return Command(f"eval.{scenario}.{target}", argv, scenario=scenario, target=target)


def _grid_default(seed, tiny):
    window = grid_window(seed, 9 if tiny else GRID_N)
    return tuple(_eval(sc, tg, window, seed)
                 for sc in ("su11", "su21") for tg in ("r_s", "r_md", "r_d"))


def _grid_fine_k0(seed, tiny):
    window = grid_window(seed, 9 if tiny else GRID_N)
    res21, res11 = (4, 64) if tiny else (10, 1024)
    return (_eval("su21", "r_md", window, seed, ("--resolution-k0", str(res21))),
            _eval("su11", "r_md", window, seed, ("--resolution-k0", str(res11))))


def _verify_quick(seed, tiny):
    return tuple(Command(f"verify.{suite}",
                         ("verify", "--counts", "quick", "--suite", suite,
                          "--seed", str(seed)), suite=suite)
                 for suite in VERIFY_SUITES)


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("grid-default", 1, _grid_default),
    Workload("grid-fine-k0", 2, _grid_fine_k0),
    Workload("verify-quick", 1, _verify_quick),
)}

# End-to-end stage times: the summed wall time of a pass's commands that
# match.  A stage applies to a workload when one of its commands matches.
STAGES = {
    "eval_r_md_s": lambda c: c.target == "r_md",
    "eval_r_d_s": lambda c: c.target == "r_d",
    "suite_psh_s": lambda c: c.suite == "psh",
    "suite_exhaustion_s": lambda c: c.suite == "exhaustion",
    "suite_levi_s": lambda c: c.suite == "levi",
}


# -- closed forms ------------------------------------------------------------

def _rs_disk(w):
    # -log(|w - 1|^2 / (2 (1 + |w|^2)))
    return -math.log(abs(w - 1.0) ** 2 / (2.0 * (1.0 + abs(w) ** 2)))


def _rmd_disk(w):
    # cycles of the disk are points: -2 log(1 - |w|) + log(1 + |w|^2) + log 2
    a = abs(w)
    return -2.0 * math.log1p(-a) + math.log1p(a * a) + math.log(2.0)


def _ball(c):
    # dual ball radius (r_md) and fiber radius (r_d) both reduce to |c|
    r2 = abs(c) ** 2
    return math.log((1.0 + r2) / (1.0 - r2))


CLOSED_FORMS = {
    ("su11", "r_s"): _rs_disk,
    ("su11", "r_md"): _rmd_disk,
    ("su11", "r_d"): _rmd_disk,
    ("su21", "r_md"): _ball,
    ("su21", "r_d"): _ball,
}


def _admissible(cmd, c):
    return (cmd.scenario == "su21" and cmd.target == "r_s") or abs(c) < 1.0


def _grid_row_ok(cmd, row):
    try:
        value, argmax, n_pos = row[2], row[3], int(row[4])
        v = float(value)
        c = complex(float(row[0]), float(row[1]))
        coords = [float(x) for x in argmax.split(";")] if argmax else []
    except (ValueError, IndexError):
        return False
    form = CLOSED_FORMS.get((cmd.scenario, cmd.target))
    if not math.isfinite(v) or (form is not None
                                and not abs(v - form(c)) <= CLOSED_FORM_TOL):
        return False
    if cmd.target == "r_s":
        # the cell exhaustion is strictly plurisubharmonic: one positive
        # Levi eigenvalue in the one-dimensional grid chart
        return not coords and n_pos == 1
    return bool(coords) and all(map(math.isfinite, coords)) and n_pos == -1


def check_grid(cmd, payload, reference):
    """(operations, failures) of one eval payload.

    An operation is an admissible grid point.  It fails when its row is
    missing or wrong, or differs from the same row of the reference pass.
    """
    rows = list(csv.reader(io.StringIO(payload.decode("utf-8"))))
    ref_rows = (None if reference is None
                else list(csv.reader(io.StringIO(reference.decode("utf-8")))))
    if not rows or rows[0] != ["re", "im", "value", "argmax_slice", "n_pos"]:
        return 1, 1
    ops = fails = 0
    for i, row in enumerate(rows[1:], start=1):
        try:
            c = complex(float(row[0]), float(row[1]))
        except (ValueError, IndexError):
            ops, fails = ops + 1, fails + 1
            continue
        expected = _admissible(cmd, c)
        ops += expected
        same = ref_rows is None or (i < len(ref_rows) and ref_rows[i] == row)
        if expected:
            fails += not (same and _grid_row_ok(cmd, row))
        elif row[2] != "" or not same:
            ops += 1
            fails += 1
    if ref_rows is not None and len(ref_rows) != len(rows):
        ops += 1
        fails += 1
    return ops, fails


def _verify_checks(payload):
    try:
        return [c for s in json.loads(payload.decode("utf-8"))["suites"]
                for c in s["checks"]]
    except (ValueError, KeyError, TypeError):
        return []


def check_verify(cmd, payload, reference):
    """(operations, failures) of one verify report: one operation per check.

    A check fails when it did not pass or differs from the reference pass.
    """
    checks = _verify_checks(payload)
    if not checks:
        return 1, 1
    ref = None if reference is None else _verify_checks(reference)
    fails = sum(not (c.get("passed") is True
                     and (ref is None or (i < len(ref) and ref[i] == c)))
                for i, c in enumerate(checks))
    return len(checks), fails


def check(cmd, payload, reference):
    if cmd.suite is not None:
        return check_verify(cmd, payload, reference)
    return check_grid(cmd, payload, reference)


def expected_operations(cmd):
    """Operations a command was meant to perform, all failed when it crashes."""
    if cmd.suite is not None:
        return 1
    lo, hi, n = cmd.argv[cmd.argv.index("--grid") + 1].split(":")
    axis = np.linspace(float(lo), float(hi), int(n))
    c = axis[:, None] + 1j * axis[None, :]
    return int(c.size if (cmd.scenario == "su21" and cmd.target == "r_s")
               else np.sum(np.abs(c) < 1.0))
