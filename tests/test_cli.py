"""Command line behavior: formats, determinism, exit codes."""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cyclelab
import cyclelab.cli as cli
from cyclelab import get_scenario
from cyclelab.catalog import SUITE_NAMES
from cyclelab.errors import NumericalDegeneracy
from cyclelab.exhaust import MAX_GRID_N, evaluate_grid, grid_axis
from cyclelab.liecore import MAX_K0_SAMPLES
from cyclelab.optimize import get_engine

from oracles import LOG2

CSV_HEADER = "re,im,value,argmax_slice,n_pos"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "cyclelab.cli", *args],
                          capture_output=True, text=True)


def test_eval_csv_example(tmp_path):
    out = tmp_path / "g.csv"
    proc = run_cli("eval", "--scenario", "su11", "--target", "r_md",
                   "--grid", "-0.9:0.9:41", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 41 * 41
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    center = min(rows, key=lambda r: abs(float(r["re"])) + abs(float(r["im"])))
    assert abs(float(center["value"]) - LOG2) < 1e-6
    empty = [r for r in rows if r["value"] == ""]
    assert empty, "square grid corners leave the disk"
    assert all(r["n_pos"] == "-1" and r["argmax_slice"] == "" for r in empty)


def test_eval_is_byte_identical(tmp_path):
    # run to run, also on the fine su21 K0 stack (10036 samples)
    for extra in (("--target", "r_d", "--seed", "7"),
                  ("--target", "r_md", "--resolution-k0", "10"),
                  ("--target", "r_d", "--resolution-k0", "10")):
        args = ("eval", "--scenario", "su21", "--grid", "-0.5:0.5:3", *extra)
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == b.returncode == 0, extra
        assert a.stdout == b.stdout, extra
        assert a.stdout.splitlines()[0] == CSV_HEADER


def test_eval_json_payload():
    proc = run_cli("eval", "--scenario", "su11", "--target", "r_md",
                   "--grid", "-1.1:1.1:3", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["format"] == "cyclelab-grid-1"
    assert payload["scenario"] == "su11"
    assert len(payload["rows"]) == 9
    bad = [r for r in payload["rows"] if r["error"]]
    assert bad and all(r["value"] is None for r in bad)
    assert {r["error"] for r in bad} == {"outside the domain"}
    good = [r for r in payload["rows"] if not r["error"]]
    assert all(isinstance(r["value"], float) for r in good)


def _edge_grid():
    """Columns as evaluate_grid returns them, holding every kind of field:
    -0.0, +-inf, nan and 5e-324 values and argmaxes, 0.0 beside -0.0 and
    repeated values in every float column, a point outside the admissible
    set (value and argmax None in the payload), a Levi failure and error
    strings that JSON escapes."""
    inf, nan, tiny = float("inf"), float("nan"), 5e-324
    cs = np.array([0.5, -0.0, 1e-300, -0.9, 0.1, 0.3, 0.0, 0.5, -0.0, 0.0], complex)
    cs.imag = [-0.25, -0.0, -0.9, 0.9, 0.2, 0.7, 0.0, -0.25, 0.0, -0.25]
    values = np.array([nan, 0.0, inf, -inf, nan, tiny, -0.0, 0.0, -0.0, nan])
    ok = np.array([False, True, True, True, True, True, True, True, True, False])
    argmax = np.array([[nan] * 4, [-0.0, 0.0, -0.0, 0.0], [inf, -inf, nan, tiny],
                       [0.1, -0.1, 0.0, 2.5], [tiny] * 4, [-tiny, 1.0, -2.5e-17, 3.0],
                       [0.0, -0.0, nan, -inf], [0.1, 0.1, -0.1, 2.5], [-0.0] * 4, [nan] * 4])
    npos = np.array([-1, 0, 2, 2, -1, 0, 1, -1, 0, -1])
    errors = np.array(["outside the domain", "", "", "Levi stencil: x", "", "",
                       'a "quoted" \\ backslash', "non-ASCII \u00e9 \u221e\n", "",
                       "outside the domain"], object)
    return cs, values, ok, argmax, npos, errors


def _reference_rows(grid):
    """(re, im, value, argmax, n_pos, error) per point, in Python types."""
    cs, values, ok, argmax, npos, errors = grid
    return [(float(c.real), float(c.imag), float(values[i]) if ok[i] else None,
             [float(x) for x in argmax[i]] if ok[i] and argmax is not None else None,
             int(npos[i]), str(errors[i])) for i, c in enumerate(cs)]


def _eval_cfg(fmt, scenario="su11", target="r_md"):
    return cli.RunConfig(command="eval", scenario=scenario, target=target,
                         grid=(-1.2, 1.2, 5), seed=3, format=fmt)


def _grids(fmt, su11, su21):
    """The edge grid, then real ones: the writer must print the reprs of
    Python floats, where numpy 2 would print np.float64(0.5)."""
    yield _eval_cfg(fmt), _edge_grid()
    for sc, target, window in ((su11, "r_md", (-1.2, 1.2, 5)),
                               (su21, "r_d", (-0.9, 0.9, 3)),
                               (su21, "r_s", (-0.9, 0.9, 3))):
        grid = evaluate_grid(sc, target, window, levi_mode="on")
        # the window leaves every admissible set but su21's cell
        assert grid[2].any() and grid[2].all() == (target == "r_s")
        yield _eval_cfg(fmt, sc.name, target), grid


def test_grid_csv_matches_csv_writer(su11, su21, monkeypatch):
    # the writer joins reprs without csv.writer, a slice of rows at a
    # time; on rows that hold every kind of field it must give
    # csv.writer's bytes
    def reference(grid):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for re, im, value, argmax, n_pos, _ in _reference_rows(grid):
            writer.writerow([
                repr(re), repr(im), "" if value is None else repr(value),
                "" if argmax is None else ";".join(repr(x) for x in argmax),
                str(n_pos)])
        return buf.getvalue()

    grids = list(_grids("csv", su11, su21))
    for slice_rows in (cli.ASCENT_ROWS, 2, 7):
        monkeypatch.setattr(cli, "ASCENT_ROWS", slice_rows)
        for cfg, grid in grids:
            assert "".join(cli._grid_chunks(cfg, grid)) == reference(grid)


def test_grid_json_matches_one_dump(su11, su21, monkeypatch):
    # the JSON writer dumps a slice of rows at a time into the header and
    # trailer of the whole payload; it must give one json.dumps's bytes
    def reference(cfg, grid):
        payload = {
            "format": "cyclelab-grid-1", "scenario": cfg.scenario,
            "target": cfg.target, "grid": list(cfg.grid), "seed": cfg.seed,
            "rows": [{"re": re, "im": im,
                      "value": None if value is None else
                      value if np.isfinite(value) else repr(value),
                      "argmax_slice": argmax, "n_pos": n_pos, "error": error}
                     for re, im, value, argmax, n_pos, error in _reference_rows(grid)]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    grids = list(_grids("json", su11, su21))
    for slice_rows in (cli.ASCENT_ROWS, 2, 7):
        monkeypatch.setattr(cli, "ASCENT_ROWS", slice_rows)
        for cfg, grid in grids:
            assert "".join(cli._grid_chunks(cfg, grid)) == reference(cfg, grid)
    text = "".join(cli._grid_chunks(*grids[0]))
    assert [r["value"] for r in json.loads(text)["rows"]] == [
        None, 0.0, "inf", "-inf", "nan", 5e-324, -0.0, 0.0, -0.0, None]


def test_eval_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, count_calls):
    # evaluate_grid runs its admissible points ASCENT_ROWS at a time and
    # the writer writes that many rows at a time; a row's bytes depend on
    # that row alone, so 7-row blocks give the bytes of one block.  The
    # window straddles the boundary of every admissible set but su21's
    # cell, so blocks skip the points outside
    from cyclelab import exhaust, levi

    def payloads(tag):
        out = {}
        for scenario in ("su11", "su21"):
            for target in cyclelab.TARGETS:
                for fmt in ("csv", "json"):
                    path = tmp_path / f"{tag}-{scenario}-{target}.{fmt}"
                    assert cli.main(["eval", "--scenario", scenario, "--target", target,
                                     "--grid=-1.1:1.1:6", "--levi", "on",
                                     "--format", fmt, "--out", str(path)]) == 0
                    out[path.name[len(tag):]] = path.read_bytes()
        return out

    whole = payloads("whole")
    stencils = count_calls(levi, "levi_form_fd")
    monkeypatch.setattr(exhaust, "ASCENT_ROWS", 7)
    monkeypatch.setattr(cli, "ASCENT_ROWS", 7)
    assert payloads("blocks") == whole
    # one stencil per block: 16 admissible points make three blocks, su21's
    # 36 cell points six
    assert len(stencils) == 2 * (5 * 3 + 6)


def test_verify_repeatable_and_scenario_scoped(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ("verify", "--suite", "incidence", "--seed", "42")
    p1 = run_cli(*args, "--out", str(f1))
    p2 = run_cli(*args, "--out", str(f2))
    assert p1.returncode == p2.returncode == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert "overall: PASS" in p1.stderr
    # headroom goes to the console only; the payload keeps its fields
    for suite in json.loads(f1.read_text())["suites"]:
        for c in suite["checks"]:
            assert set(c) == {"name", "passed", "count", "metric", "bound",
                              "detail"}
            gap = c["bound"] - c["metric"]
            line = next(x for x in p1.stderr.splitlines() if c["name"] in x)
            assert f"headroom {100 * gap / abs(c['bound']):+.1f}%" in line
    scoped = run_cli("verify", "--suite", "exhaustion", "--scenario", "su11")
    payload = json.loads(scoped.stdout)
    assert payload["scenarios"] == ["su11"]
    assert payload["passed"] is True


def test_certify_stream_and_format_guard(tmp_path):
    proc = run_cli("certify", "--scenario", "su11", "--count", "2",
                   "--seed", "5")
    assert proc.returncode == 0
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 2
    for rec in records:
        assert rec["q_convex_ok"] is True
        assert rec["n_pos"] >= rec["required_pos"]
        assert rec["touch_gap"] <= 1e-10
    guard = run_cli("certify", "--scenario", "su11", "--format", "csv")
    assert guard.returncode == 2


def test_info_reports_invariants():
    proc = run_cli("info", "--scenario", "su21")
    assert proc.returncode == 0
    assert "q (cycle dimension): 1" in proc.stdout
    assert "n_Z (ambient dimension): 2" in proc.stdout
    assert "m (base cycle intersections with the cell closure): 1" in proc.stdout
    disk = run_cli("info", "--scenario", "su11")
    assert "q (cycle dimension): 0" in disk.stdout
    assert "n_Z (ambient dimension): 1" in disk.stdout
    assert "base cycle dual: [(1+0j), 0j]" in disk.stdout


def test_import_leaves_scipy_stats_unloaded():
    # the package imports scipy lazily, where a function needs it; no run
    # path needs scipy.stats, which is most of scipy's import time
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cyclelab; print('scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_no_source_file_mentions_scipy():
    # every exponential and logarithm of the package is a numpy closed
    # form; scipy serves the tests only, as a reference
    src = Path(cyclelab.__file__).parent
    for path in sorted(src.glob("*.py")):
        lines = [i + 1 for i, line in enumerate(path.read_text().splitlines())
                 if "scipy" in line]
        assert lines == [], f"{path.name} mentions scipy on lines {lines}"


def test_usage_errors_exit_2(tmp_path):
    assert run_cli("eval", "--scenario", "nope").returncode == 2
    assert run_cli("eval", "--scenario", "su11", "--target", "r_md",
                   "--grid", "bad").returncode == 2
    assert run_cli("eval", "--target", "r_md").returncode == 2  # no scenario
    cfg = tmp_path / "c.json"
    cfg.write_text('{"unknown_key": 1}')
    assert run_cli("eval", "--config", str(cfg)).returncode == 2
    assert run_cli().returncode == 2  # no command

    # the rest run in process; each is refused before any computation
    def code(*argv, config=None):
        args = list(argv)
        if config is not None:
            cfg.write_text(config)
            args += ["--config", str(cfg)]
        try:
            return cli.main(args)
        except SystemExit as exc:  # argparse refuses unknown flags
            return exc.code

    grid = ("eval", "--scenario", "su11", "--target", "r_md", "--grid", "-0.1:0.1:2")
    for command in (grid, ("verify",), ("certify", "--scenario", "su11")):
        assert code(*command, "--seed", "-1") == 2
    # a count over MAX_GRID_N ** 2 is refused before any point is drawn
    for count in ("-2", "0", str(MAX_GRID_N ** 2 + 1)):
        assert code("certify", "--scenario", "su11", "--count", count) == 2
    bad_configs = [
        # removed or never-read keys (the optimizer and tolerances objects)
        '{"tolerances": {"det": 1e-9}}', '{"tolerances": {"membership": 1e-9}}',
        '{"tolerances": {"residual": 1e-9}}', '{"optimizer": {"step_tol": 1e-6}}',
        '{"tolerances": {"step_tol": 1e-8}}', '{"optimizer": {"refine_top": 3}}',
        '{"optimizer": {"chunk": 256}}', '{"tolerances": {"rank": 1e-8}}',
        '{"optimizer": {"chunk": 0}}', '{"optimizer": {"chunk": -5}}',
        '{"optimizer": {"refine_top": 0}}', '{"optimizer": {"chunk": 2.5}}',
        '{"tolerances": {"step_tol": 0}}', '{"tolerances": {"rank": NaN}}',
        '{"tolerances": {"fd_step": "abc"}}', '{"tolerances": {"zero_band": -1e-6}}',
        '{"tolerances": {"intersection": Infinity}}',
        '{"tolerances": {"sign_margin": -1e-12}}',
        # values outside their ranges
        '{"optimizer": {"seed": -3}}', '{"resolution_k0": 0}', '{"resolution_k0": 2.5}',
        '{"resolution_k0": true}', '{"resolution_k0": "4"}',
        '{"optimizer": {"resolution": 0}}', '{"optimizer": {"extras": -1}}',
        '{"seed": "7"}', '{"count": 1.5}',
        # not an object
        '{"optimizer": "abc"}', '{"optimizer": 5}', '{"tolerances": [1]}',
        # a grid that is neither "min:max:n" nor three numbers, an out that
        # is not a file name
        '{"grid": 5}', '{"grid": ["a", 1, 3]}', '{"grid": [1, 2]}',
        '{"grid": [0, 1, 2.5]}', '{"grid": [1, 0, 3]}', '{"grid": [0, 1, 0]}',
        '{"grid": [true, 1, 3]}', '{"grid": {"lo": 0}}', '{"grid": ":1:3"}',
        '{"out": 7}', '{"out": ["a.csv"]}',
    ]
    for text in bad_configs:
        assert code(*grid, config=text) == 2, text
    assert code(*grid, "--resolution-k0", "0") == 2
    # a scenario from the file that is not a scenario name
    for scenario in ("[1]", "5"):
        text = f'{{"scenario": {scenario}, "target": "r_md", "grid": "-0.1:0.1:2"}}'
        assert code("eval", config=text) == 2, text
    # the tolerances are module constants: no command reads the object
    # (verify's case follows)
    assert code("info", "--scenario", "su21",
                config='{"tolerances": {"sign_margin": 0}}') == 2
    for command in (grid, ("certify", "--scenario", "su21"), ("info", "--scenario", "su21")):
        assert code(*command, config='{"tolerances": {"fd_step": 0.2}}') == 2, command
    # a setting the command does not read is refused, as a config key and
    # as a flag, instead of being ignored
    assert code("verify", "--suite", "psh", "--seed", "3",
                config='{"tolerances": {"fd_step": 0.2, "zero_band": 5.0}, '
                       '"optimizer": {"resolution": 2}}') == 2
    for text in ('{"tolerances": {"fd_step": 0.2}}', '{"optimizer": {"resolution": 2}}',
                 '{"grid": "-0.1:0.1:2"}'):
        assert code("verify", "--suite", "psh", config=text) == 2, text
    assert code("verify", "--format", "json") == 2
    assert code("certify", "--scenario", "su21",
                config='{"optimizer": {"resolution": 2}}') == 2
    assert code("info", "--scenario", "su21", "--seed", "1") == 2
    valid = {"scenario": '"su11"', "seed": "1", "out": '"x.txt"', "format": '"json"',
             "target": '"r_md"', "grid": '"-0.1:0.1:2"', "resolution_k0": "4",
             "levi": '"off"', "suite": '"psh"', "counts": '"quick"', "count": "1"}
    assert set(valid) == {k for keys in cli.COMMAND_KEYS.values() for k in keys}
    for command, keys in cli.COMMAND_KEYS.items():
        for key in sorted(set(valid) - set(keys)):
            assert code(command, config=f'{{"{key}": {valid[key]}}}') == 2, (command, key)
            flag = "--" + key.replace("_", "-")
            value = str(json.loads(valid[key]))
            assert code(command, flag, value) == 2, (command, flag)
    # requests past the documented memory bounds: a grid over MAX_GRID_N
    # points per axis, a coarse K0 grid over MAX_K0_SAMPLES (su21
    # resolution 51 is 51^3 + 1 = 132652 samples; refused for every target)
    assert code(*grid[:-1], f"-0.9:0.9:{MAX_GRID_N + 1}") == 2
    assert code(*grid[:-1], config=f'{{"grid": "-0.9:0.9:{MAX_GRID_N + 1}"}}') == 2
    for target in ("r_s", "r_md"):
        big = ("eval", "--scenario", "su21", "--target", target, "--grid", "-0.1:0.1:2")
        assert code(*big, "--resolution-k0", "51") == 2
        assert code(*big, config='{"resolution_k0": 51}') == 2
    assert code(*grid, "--resolution-k0", str(MAX_K0_SAMPLES + 1)) == 2
    # the caps themselves are accepted: su21 resolution 50 is 125000 samples
    # (r_s builds no coarse grid)
    assert grid_axis((-0.9, 0.9, MAX_GRID_N)).shape == (MAX_GRID_N,)
    su21 = get_scenario("su21")
    assert get_engine(su21).sample_count(50) <= MAX_K0_SAMPLES
    assert code("eval", "--scenario", "su21", "--target", "r_s", "--grid", "-0.1:0.1:2",
                "--resolution-k0", "50") == 0


def test_eval_refuses_a_window_past_the_float_range(tmp_path, capsys):
    # hi - lo overflows: the grid would hold NaN and inf coordinates, which
    # no JSON parser reads; the window is a usage error and no file is written
    for fmt in cli.FORMATS:
        out = tmp_path / f"overflow.{fmt}"
        assert cli.main(["eval", "--scenario", "su21", "--target", "r_s",
                         "--grid=-1.7e308:1.7e308:3", "--format", fmt, "--out", str(out)]) == 2
        assert not out.exists()
        assert "float range" in capsys.readouterr().err


def test_one_process_gives_the_payloads_of_separate_processes(tmp_path):
    # the parser is built once per process: eval, verify and eval again in
    # one process write the bytes of three separate processes, and usage
    # errors, before and after them, still exit 2
    assert cli.build_parser() is cli.build_parser()
    evaluation = ["eval", "--scenario", "su21", "--target", "r_md", "--grid=-0.5:0.5:5"]
    runs = [evaluation, ["verify", "--counts", "quick", "--suite", "invariance"], evaluation]
    names = ["eval-1.csv", "verify.json", "eval-2.csv"]
    code = ("import sys\n"
            "from cyclelab.cli import main\n"
            "def usage(argv):\n"
            "    try:\n"
            "        return main(argv)\n"
            "    except SystemExit as exc:\n"
            "        return exc.code\n"
            "assert usage(['eval', '--scenario', 'nope']) == 2\n"
            f"for argv, out in {list(zip(runs, names))!r}:\n"
            f"    assert main(argv + ['--out', {str(tmp_path)!r} + '/one-' + out]) == 0\n"
            "assert usage(['eval', '--scenario', 'nope']) == 2\n"
            "assert usage(['eval', '--target', 'r_md']) == 2\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    for argv, name in zip(runs, names):
        assert run_cli(*argv, "--out", str(tmp_path / name)).returncode == 0
        assert (tmp_path / f"one-{name}").read_bytes() == (tmp_path / name).read_bytes()


def test_eval_seed_and_resolution_reach_the_coarse_stack(tmp_path):
    # the eval run's scenario carries its resolution, the stack's only key;
    # the built-in scenario, and so verify and certify, keep resolution 6
    su21 = get_scenario("su21")
    argv = ["eval", "--scenario", "su21", "--target", "r_md", "--grid", "-0.1:0.1:2",
            "--resolution-k0", "3", "--seed", "9", "--out", str(tmp_path / "g.csv")]
    assert cli.main(argv) == 0
    assert 3 in get_engine(su21)._stacks
    assert su21.k0_resolution == 6


def test_eval_seed_leaves_the_grid_payload_unchanged(tmp_path):
    # eval still takes --seed (its JSON payload records it), but no value
    # depends on it
    outs = []
    for seed in ("1", "2"):
        path = tmp_path / f"g{seed}.csv"
        assert cli.main(["eval", "--scenario", "su21", "--target", "r_md",
                         "--grid", "-0.5:0.5:5", "--seed", seed, "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("args", [
    ["eval", "--scenario", "su21", "--target", "r_md", "--grid", "-0.5:0.5:3"],
    ["verify", "--counts", "quick"],
    ["certify", "--scenario", "su11", "--count", "2"],
    ["certify", "--scenario", "su21", "--count", "2"],
    ["info", "--scenario", "su11"],
    ["info", "--scenario", "su21"],
], ids=["eval-su21-r_md", "verify-quick", "certify-su11", "certify-su21",
        "info-su11", "info-su21"])
def test_fresh_run_leaves_scipy_stats_unloaded(args):
    # no command loads scipy at all, scipy.stats included: the exponentials
    # and the K0 logarithm are numpy closed forms
    code = ("import sys\n"
            "import numpy\n"
            "numpy_loads_random = 'numpy.random' in sys.modules\n"
            "from cyclelab.cli import main\n"
            f"assert main({args!r}) == 0\n"
            "assert 'scipy' not in sys.modules\n")
    if args[0] in ("eval", "info"):
        # a command loads only the layers it runs, and the section check
        # draws no random samples (numpy 1.x loads numpy.random itself)
        code += ("assert 'cyclelab.verify' not in sys.modules\n"
                 "assert 'cyclelab.levi' not in sys.modules\n"
                 "assert numpy_loads_random or 'numpy.random' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_config_file_merge_and_override(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"scenario": "su11", "target": "r_md",
                               "grid": "-0.3:0.3:3", "seed": 7}))
    base = run_cli("eval", "--config", str(cfg))
    assert base.returncode == 0
    assert len(base.stdout.splitlines()) == 1 + 9
    over = run_cli("eval", "--config", str(cfg), "--grid", "-0.3:0.3:2")
    assert len(over.stdout.splitlines()) == 1 + 4


def test_config_grid_list_keeps_its_numbers(tmp_path):
    cfg, out = tmp_path / "c.json", tmp_path / "grid.json"
    cfg.write_text(json.dumps({"scenario": "su11", "target": "r_md",
                               "grid": [-1, 1, 5], "format": "json",
                               "levi": "off", "out": str(out)}))
    assert cli.main(["eval", "--config", str(cfg)]) == 0
    # integer bounds stay integers, as the list gave them
    assert '  "grid": [\n    -1,\n    1,\n    5\n  ],\n' in out.read_text()


def test_levi_stall_stays_with_its_point(tmp_path):
    # two points of this window lie within levi.FD_STEP of the boundary; their
    # Levi stencils leave the domain (+inf there), the rest of the grid
    # stands
    out = tmp_path / "grid.json"
    argv = ["eval", "--scenario", "su21", "--target", "r_d", "--seed", "1",
            "--grid", "-0.8209882828633233:0.5699208080457676:2",
            "--format", "json", "--out", str(out)]
    assert cli.main(argv + ["--levi", "on"]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert cli.main(argv + ["--levi", "off"]) == 0
    plain = json.loads(out.read_text())["rows"]
    assert [r["value"] for r in rows] == [r["value"] for r in plain]
    stalled = [r for r in rows if r["error"].startswith("Levi stencil: ")]
    assert len(stalled) == 2
    assert all(r["n_pos"] == -1 and r["value"] is not None for r in stalled)
    assert [r["n_pos"] for r in rows if not r["error"]] == [1]


@pytest.mark.parametrize("target", ["r_md", "r_d"])
def test_levi_on_pole_grid_marks_points(tmp_path, target):
    # this grid's Levi stencils reach the pole of the branch value and
    # leave the set; each failure stays with its own point
    out = tmp_path / "grid.json"
    assert cli.main(["eval", "--scenario", "su21", "--target", target,
                     "--grid=-0.999999:0.999999:21", "--levi", "on",
                     "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    failed = [r for r in rows if r["error"].startswith("Levi stencil: ")]
    assert failed
    assert {r["error"] for r in failed} == {
        "Levi stencil: non-finite value on the Levi stencil"}
    assert all(r["n_pos"] == -1 and np.isfinite(r["value"]) for r in failed)
    assert all(r["n_pos"] >= 0 for r in rows if not r["error"])


def test_parse_grid_accepts_and_rejects():
    assert cli.parse_grid("-0.9:0.9:41") == (-0.9, 0.9, 41)
    from cyclelab import InvalidInput

    for bad in ("1:2", "a:b:3", "0.5:-0.5:3", "0:1:0"):
        with pytest.raises(InvalidInput):
            cli.parse_grid(bad)


def test_runtime_failure_exits_1(monkeypatch, capsys):
    def boom(*a, **k):
        raise NumericalDegeneracy("synthetic failure")

    monkeypatch.setattr("cyclelab.exhaust.evaluate_grid", boom)
    rc = cli.main(["eval", "--scenario", "su11", "--target", "r_md",
                   "--grid", "-0.1:0.1:2"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NumericalDegeneracy"


@pytest.mark.parametrize("exc", [MemoryError("synthetic"),
                                 np.linalg.LinAlgError("synthetic"),
                                 FloatingPointError("synthetic")])
def test_numeric_errors_exit_1_with_record(exc, monkeypatch, capsys):
    def boom(*a, **k):
        raise exc

    monkeypatch.setattr("cyclelab.exhaust.evaluate_grid", boom)
    rc = cli.main(["eval", "--scenario", "su11", "--target", "r_md",
                   "--grid", "-0.1:0.1:2"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": type(exc).__name__, "message": "synthetic"}


def test_failed_verification_exits_1(monkeypatch, capsys):
    class FakeReport:
        passed = False

        def summary_lines(self):
            return ["overall: FAIL"]

        def to_json(self):
            return "{}\n"

    monkeypatch.setattr("cyclelab.verify.run_verification",
                        lambda **kw: FakeReport())
    rc = cli.main(["verify"])
    assert rc == 1


def test_headroom_follows_the_check_direction():
    from cyclelab.verify import CheckResult

    floor = CheckResult("x", 1, 31.7, 30.0, above=True)
    assert floor.headroom == pytest.approx(100 * 1.7 / 30)
    assert CheckResult("x", 1, 1e-10, 1e-9).headroom == pytest.approx(90.0)
    failed = CheckResult("x", 1, -2e-6, -1e-6, above=True)
    assert failed.headroom == pytest.approx(-100.0)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_checks_aggregate_their_scenarios_one_way(suite):
    # a run of both scenarios counts the cases of both single-scenario
    # runs and reports the worse of their metrics; a check bound to one
    # scenario appears only when that scenario runs, and the scenario-free
    # stencil check appears in every run with the same result
    from cyclelab.verify import run_verification

    runs = {names: {c.name: c for c in run_verification(
                suite, "quick", 1, names).suites[0].checks}
            for names in (("su11", "su21"), ("su11",), ("su21",))}
    both, only11, only21 = runs.values()
    own = {"closed_form_su11": "su11", "point_cycle_degeneration": "su11",
           "closed_form_su21": "su21"}
    for single, name in ((only11, "su11"), (only21, "su21")):
        assert set(single) == {c for c in both if own.get(c, name) == name}
    for name, res in both.items():
        parts = [r[name] for r in (only11, only21) if name in r]
        if name == "fd_convergence_factor":
            assert all(p.payload() == res.payload() for p in parts) and len(parts) == 2
            continue
        assert res.count == sum(p.count for p in parts), name
        worst = min if res.above else max
        assert res.metric == worst(p.metric for p in parts), name
        assert res.ok == all(p.ok for p in parts), name
