"""Command line behavior: formats, determinism, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cyclelab.cli as cli
from cyclelab import OptimizerSettings, get_scenario
from cyclelab.errors import NumericalDegeneracy
from cyclelab.exhaust import MAX_GRID_N, grid_axis
from cyclelab.liecore import MAX_K0_SAMPLES

from oracles import LOG2

CSV_HEADER = "re,im,value,argmax_slice,n_pos"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    proc = subprocess.run([sys.executable, "-m", "cyclelab.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc


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
    args = ("eval", "--scenario", "su21", "--target", "r_d",
            "--grid", "-0.5:0.5:3", "--seed", "7")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.splitlines()[0] == CSV_HEADER


def test_eval_thread_cap_invariance():
    args = ("eval", "--scenario", "su21", "--target", "r_md",
            "--grid", "-0.6:0.6:3")
    a = run_cli(*args, env_extra={"CYCLELAB_THREADS": "1"})
    b = run_cli(*args, env_extra={"CYCLELAB_THREADS": "3"})
    assert a.stdout == b.stdout


@pytest.mark.parametrize("target", ["r_md", "r_d"])
def test_eval_fine_k0_thread_cap_invariance(target):
    # the fine su21 stack (10036 samples); 23 x 23 leaves two blocks of
    # rows, so the pool runs at cap 2
    args = ("eval", "--scenario", "su21", "--target", target,
            "--resolution-k0", "10", "--grid", "-0.9:0.9:23")
    a = run_cli(*args, env_extra={"CYCLELAB_THREADS": "1"})
    b = run_cli(*args, env_extra={"CYCLELAB_THREADS": "2"})
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


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
    # scipy.stats is most of the import time; only Sobol sampling needs it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cyclelab; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


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
    for count in ("-2", "0"):
        assert code("certify", "--scenario", "su11", "--count", count) == 2
    bad_configs = [
        # removed or never-read keys
        '{"tolerances": {"det": 1e-9}}', '{"tolerances": {"membership": 1e-9}}',
        '{"tolerances": {"residual": 1e-9}}', '{"optimizer": {"step_tol": 1e-6}}',
        '{"tolerances": {"step_tol": 1e-8}}', '{"optimizer": {"refine_top": 3}}',
        '{"optimizer": {"chunk": 256}}', '{"tolerances": {"rank": 1e-8}}',
        '{"optimizer": {"chunk": 0}}', '{"optimizer": {"chunk": -5}}',
        '{"optimizer": {"refine_top": 0}}', '{"optimizer": {"chunk": 2.5}}',
        '{"tolerances": {"step_tol": 0}}', '{"tolerances": {"rank": NaN}}',
        # values outside their ranges
        '{"optimizer": {"seed": -3}}', '{"resolution_k0": 0}',
        '{"optimizer": {"resolution": 0}}', '{"optimizer": {"extras": -1}}',
        '{"tolerances": {"fd_step": "abc"}}', '{"tolerances": {"zero_band": -1e-6}}',
        '{"tolerances": {"intersection": Infinity}}',
        '{"tolerances": {"sign_margin": -1e-12}}', '{"seed": "7"}', '{"count": 1.5}',
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
    # a scenario from the file that is not a scenario name
    for scenario in ("[1]", "5"):
        text = f'{{"scenario": {scenario}, "target": "r_md", "grid": "-0.1:0.1:2"}}'
        assert code("eval", config=text) == 2, text
    assert code("info", "--scenario", "su21",
                config='{"tolerances": {"sign_margin": 0}}') == 0
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
             "levi": '"off"', "tolerances": '{"fd_step": 0.2}',
             "optimizer": '{"resolution": 2}', "suite": '"psh"', "counts": '"quick"',
             "count": "1"}
    assert set(valid) == {k for keys in cli.COMMAND_KEYS.values() for k in keys}
    for command, keys in cli.COMMAND_KEYS.items():
        for key in sorted(set(valid) - set(keys)):
            assert code(command, config=f'{{"{key}": {valid[key]}}}') == 2, (command, key)
            if not valid[key].startswith("{"):
                flag = "--" + key.replace("_", "-")
                value = str(json.loads(valid[key]))
                assert code(command, flag, value) == 2, (command, flag)
    # requests past the documented memory bounds: a grid over MAX_GRID_N
    # points per axis, a coarse K0 stack over MAX_K0_SAMPLES (su21
    # resolution 20 is 160036 samples; refused for every target)
    assert code(*grid[:-1], f"-0.9:0.9:{MAX_GRID_N + 1}") == 2
    assert code(*grid[:-1], config=f'{{"grid": "-0.9:0.9:{MAX_GRID_N + 1}"}}') == 2
    for target in ("r_s", "r_md"):
        big = ("eval", "--scenario", "su21", "--target", target, "--grid", "-0.1:0.1:2")
        assert code(*big, "--resolution-k0", "20") == 2
        assert code(*big, config='{"optimizer": {"resolution": 20}}') == 2
        assert code(*big, config=f'{{"optimizer": {{"extras": {MAX_K0_SAMPLES}}}}}') == 2
    assert code(*grid, "--resolution-k0", str(MAX_K0_SAMPLES + 1)) == 2
    # the caps themselves are accepted
    assert grid_axis((-0.9, 0.9, MAX_GRID_N)).shape == (MAX_GRID_N,)
    assert OptimizerSettings(resolution=19).resolved(get_scenario("su21"))[0] == 19


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
    # two points of this window lie within fd_step of the boundary; their
    # Levi stencils stall in slice alignment, the rest of the grid stands
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


def test_parse_grid_accepts_and_rejects():
    assert cli.parse_grid("-0.9:0.9:41") == (-0.9, 0.9, 41)
    from cyclelab import InvalidInput

    for bad in ("1:2", "a:b:3", "0.5:-0.5:3", "0:1:0"):
        with pytest.raises(InvalidInput):
            cli.parse_grid(bad)


def test_runtime_failure_exits_1(monkeypatch, capsys):
    def boom(*a, **k):
        raise NumericalDegeneracy("synthetic failure")

    monkeypatch.setattr(cli, "evaluate_grid", boom)
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

    monkeypatch.setattr(cli, "evaluate_grid", boom)
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

    monkeypatch.setattr(cli, "run_verification",
                        lambda **kw: FakeReport())
    rc = cli.main(["verify"])
    assert rc == 1


def test_headroom_follows_the_check_direction():
    from cyclelab.verify import CheckResult

    floor = CheckResult("x", True, 1, 31.7, 30.0, above=True)
    assert floor.headroom == pytest.approx(100 * 1.7 / 30)
    assert CheckResult("x", True, 1, 1e-10, 1e-9).headroom == pytest.approx(90.0)
    failed = CheckResult("x", False, 1, -2e-6, -1e-6, above=True)
    assert failed.headroom == pytest.approx(-100.0)
