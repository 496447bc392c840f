"""Command line entry point.

Four commands: eval (grid evaluation of a target exhaustion, CSV or
JSON), verify (the verification suites, JSON report plus a console
summary), certify (pseudoconvexity certificates at seeded points, one
JSON record per line), and info (scenario summary).

COMMAND_KEYS lists the settings each command reads; its flags and the
keys its JSON config file (--config) may hold both come from that
table, so a setting a command would ignore is a usage error.  Explicit
flags override file values, which override the built-in defaults.  Identical
configuration and seed give byte-identical payloads; progress and
timing lines go to stderr only.  Exit codes: 0 success, 1 runtime or
verification failure, 2 usage error.
"""

import argparse
import dataclasses
import functools
import json
import math
import numbers
import sys
import time

import numpy as np

# exhaust, levi and verify load inside the commands that run them
from .catalog import COUNTS, MAX_GRID_N, SUITE_NAMES, TARGETS
from .cycles import base_cycle
from .errors import CycleLabError, InvalidInput
from .optimize import ASCENT_ROWS, get_engine
from .scenarios import SCENARIO_NAMES, get_scenario

FORMATS = ("csv", "json")
LEVI_MODES = ("on", "off", "auto")

# eval's seed is read only into its JSON payload's "seed" field
COMMAND_KEYS = {
    "eval": ("scenario", "seed", "out", "format", "target", "grid",
             "resolution_k0", "levi"),
    "verify": ("scenario", "seed", "out", "suite", "counts"),
    "certify": ("scenario", "seed", "out", "count"),
    "info": ("scenario",),
}


@dataclasses.dataclass
class RunConfig:
    """Fully resolved run parameters, after merging file and flags."""

    command: str
    scenario: str = None
    target: str = "r_md"
    grid: tuple = (-0.9, 0.9, 41)
    resolution_k0: int = None
    seed: int = 42
    out: str = None
    format: str = "csv"
    suite: str = "all"
    counts: str = "quick"
    count: int = 5
    levi: str = "auto"


def parse_grid(text):
    parts = str(text).split(":")
    if len(parts) != 3:
        raise InvalidInput("grid spec must be min:max:n")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise InvalidInput(f"bad grid spec {text!r}") from exc
    if n < 1 or hi < lo:
        raise InvalidInput("grid spec must satisfy n >= 1 and max >= min")
    return (lo, hi, n)


def _grid_arg(text):
    # argparse only turns ValueError subclasses into usage errors
    try:
        return parse_grid(text)
    except InvalidInput as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _config_grid(value):
    """A config file's grid: the "min:max:n" string, or a list of three
    numbers under the same rules, kept as given so that integer bounds
    stay integers in the JSON payload."""
    if isinstance(value, str):
        return parse_grid(value)
    if (not isinstance(value, list)
            or any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in value)):
        raise InvalidInput(f"config grid must be \"min:max:n\" or [min, max, n], "
                           f"not {value!r}")
    parse_grid(":".join(map(repr, value)))
    return tuple(value)


def _load_config_file(path, command):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInput("config file must hold a JSON object")
    for key in data:
        if key not in COMMAND_KEYS[command]:
            raise InvalidInput(f"{command} reads no config key {key!r}")
    return data


def build_config(args):
    """Merge defaults, config file, and explicit flags into a RunConfig."""
    cfg = RunConfig(command=args.command)
    file_values = _load_config_file(args.config, args.command) if args.config else {}
    for key, value in file_values.items():
        if key == "grid":
            value = _config_grid(value)
        elif key == "out" and not isinstance(value, str):
            raise InvalidInput(f"config out must be a file name, not {value!r}")
        setattr(cfg, key, value)
    for key in COMMAND_KEYS[args.command]:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if cfg.format not in FORMATS:
        raise InvalidInput(f"unknown format {cfg.format!r}")
    if cfg.scenario is not None and cfg.scenario not in SCENARIO_NAMES:
        raise InvalidInput(f"unknown scenario {cfg.scenario!r}")
    if cfg.target not in TARGETS:
        raise InvalidInput(f"unknown target {cfg.target!r}")
    if cfg.suite not in ("all",) + SUITE_NAMES:
        raise InvalidInput(f"unknown suite {cfg.suite!r}")
    if cfg.counts not in COUNTS:
        raise InvalidInput(f"unknown counts preset {cfg.counts!r}")
    if cfg.levi not in LEVI_MODES:
        raise InvalidInput(f"unknown levi mode {cfg.levi!r}")
    for key, low in (("seed", 0), ("count", 1), ("resolution_k0", 1)):
        v = getattr(cfg, key)
        if v is None and key == "resolution_k0":
            continue  # eval keeps the scenario's resolution
        if not isinstance(v, int) or isinstance(v, bool) or v < low:
            raise InvalidInput(f"{key} must be an integer >= {low}, not {v!r}")
    # certify draws every point up front: no more than an eval grid holds
    if cfg.count > MAX_GRID_N ** 2:
        raise InvalidInput(f"count must be at most {MAX_GRID_N ** 2}, not {cfg.count}")
    return cfg


def _scenario(cfg):
    """The named scenario, for eval with the run's coarse K0 resolution."""
    if cfg.scenario is None:
        raise InvalidInput("this command needs --scenario")
    sc = get_scenario(cfg.scenario)
    if cfg.command == "eval":
        sc = dataclasses.replace(sc, k0_resolution=cfg.resolution_k0 or sc.k0_resolution)
    return sc


def _emit(chunks, out):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _json_value(v):
    return None if v is None else float(v) if math.isfinite(v) else repr(float(v))


# json.dumps prints a non-finite float as a bare token, and _json_value
# turns a non-finite value into its repr, a string
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_VALUES = {t: f'"{t}"' for t in _JSON_FLOATS}


def _texts(column, nonfinite):
    """The repr of each float of a column, renamed by nonfinite: one repr of a
    Python float (numpy 2 reprs a scalar as np.float64(...)) per distinct
    bit pattern, so 0.0 and -0.0 stay apart, indexed back to the rows."""
    bits, back = np.unique(np.ascontiguousarray(column).view(np.int64), return_inverse=True)
    texts = [nonfinite.get(t, t) for t in map(repr, bits.view(float).tolist())]
    # numpy 2.0.0 returns the inverse in the input's shape
    return [texts[i] for i in back.ravel().tolist()]


def _grid_chunks(cfg, grid):
    """evaluate_grid's columns as CSV or JSON text, ASCENT_ROWS rows at a
    time: the bytes of csv.writer or of one json.dumps(payload, indent=2,
    sort_keys=True), without holding them all.  Each float column of a
    block is formatted by _texts, one repr per distinct bit pattern; a CSV
    line joins the texts, a JSON row fills json.dumps's layout of a row
    with them."""
    cs, values, ok, argmax, npos, errors = grid
    payload = {"format": "cyclelab-grid-1", "scenario": cfg.scenario, "target": cfg.target,
               "grid": list(cfg.grid), "seed": cfg.seed, "rows": ["<rows>"]}
    as_csv = cfg.format == "csv"
    head, tail = (("re,im,value,argmax_slice,n_pos\n", "") if as_csv else
                  (json.dumps(payload, indent=2, sort_keys=True) + "\n").split('    "<rows>"'))
    # non-finite floats and values, an absent field, a list's opening,
    # separator and closing
    floats, vals, absent, (opening, sep, closing) = (
        ({}, {}, "", ("", ";", "")) if as_csv else
        (_JSON_FLOATS, _JSON_VALUES, "null", ("[\n        ", ",\n        ", "\n      ]")))
    yield head
    for start in range(0, cs.size, ASCENT_ROWS):
        part = slice(start, start + ASCENT_ROWS)
        inside = ok[part].tolist()
        xs, ys = _texts(cs.real[part], floats), _texts(cs.imag[part], floats)
        vs = [v if i else absent for v, i in zip(_texts(values[part], vals), inside)]
        if argmax is None:
            coords = [absent] * len(inside)
        else:
            d, flat = argmax.shape[1], _texts(argmax[part], floats)
            coords = [opening + sep.join(flat[j:j + d]) + closing if i else absent
                      for i, j in zip(inside, range(0, len(flat), d))]
        ns = npos[part].tolist()
        if as_csv:
            # every field is a float or int repr, or ';'-joined float reprs: none
            # holds a comma, a quote or a newline, so csv.writer would quote nothing
            yield "".join([f"{x},{y},{v},{a},{n}\n"
                           for x, y, v, a, n in zip(xs, ys, vs, coords, ns)])
        else:
            errs = errors[part].tolist()
            quoted = {e: json.dumps(e) for e in set(errs)}
            yield ("" if start == 0 else ",\n") + ",\n".join([
                f'    {{\n      "argmax_slice": {a},\n      "error": {quoted[e]},\n'
                f'      "im": {y},\n      "n_pos": {n},\n      "re": {x},\n'
                f'      "value": {v}\n    }}'
                for x, y, v, a, n, e in zip(xs, ys, vs, coords, ns, errs)])
    yield tail


def cmd_eval(cfg):
    from .exhaust import evaluate_grid

    sc = _scenario(cfg)
    # refuses an oversized K0 grid for every target, before any work;
    # evaluate_grid refuses an oversized grid first thing
    get_engine(sc).sample_count(sc.k0_resolution)
    # the whole grid before the first byte: a failed eval leaves no file
    grid = evaluate_grid(sc, cfg.target, cfg.grid, levi_mode=cfg.levi)
    _emit(_grid_chunks(cfg, grid), cfg.out)
    print(f"evaluated {grid[0].size} grid points "
          f"({np.count_nonzero(~grid[2])} outside the chart's admissible set)", file=sys.stderr)
    return 0


def cmd_verify(cfg):
    from .verify import run_verification

    t0 = time.time()

    def progress(suite_result):
        state = "PASS" if suite_result.passed else "FAIL"
        print(f"[{time.time() - t0:7.2f}s] suite {suite_result.name}: {state}",
              file=sys.stderr)

    scenarios = (cfg.scenario,) if cfg.scenario else None
    report = run_verification(suite=cfg.suite, counts=cfg.counts,
                              seed=cfg.seed, scenarios=scenarios,
                              progress=progress)
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    _emit([report.to_json()], cfg.out)
    return 0 if report.passed else 1


def _complex_pairs(vec):
    return [[float(z.real), float(z.imag)] for z in np.atleast_1d(vec)]


def _certificate_record(y, rep):
    return {
        "point": _complex_pairs(y.homogeneous),
        "value": _json_value(rep.value),
        "q_convex_ok": bool(rep.q_convex_ok),
        "n_pos": int(rep.n_pos),
        "required_pos": int(rep.required_pos),
        "touch_gap": _json_value(rep.touch_gap),
        "probe_gap_min": _json_value(rep.probe_gap_min),
        "padding": _json_value(rep.padding),
        "radius": _json_value(rep.radius),
        "slice_coord": None if rep.slice_coord is None else
                       [float(rep.slice_coord.real), float(rep.slice_coord.imag)],
        "levi_eigenvalues": [_json_value(e) for e in rep.levi_eigenvalues],
        "notes": {k: _json_value(v) if isinstance(v, float) else v
                  for k, v in sorted(rep.notes.items())},
    }


def cmd_certify(cfg):
    from .exhaust import seeded_domain_points
    from .levi import certificates

    sc = _scenario(cfg)
    points = seeded_domain_points(sc, cfg.count, seed=cfg.seed)
    lines, failures = [], 0
    for y, rep in zip(points, certificates(points, sc, seed=cfg.seed)):
        if isinstance(rep, CycleLabError):
            record = {"point": _complex_pairs(y.homogeneous),
                      "q_convex_ok": False, "error": str(rep)}
        else:
            record = _certificate_record(y, rep)
        if not record["q_convex_ok"]:
            failures += 1
        lines.append(json.dumps(record, sort_keys=True))
    _emit(["\n".join(lines) + "\n"], cfg.out)
    print(f"certified {len(points) - failures}/{len(points)} points",
          file=sys.stderr)
    return 0 if failures == 0 else 1


def cmd_info(cfg):
    sc = _scenario(cfg)
    # building the engine finds the one point of C0 cap S and checks it
    # (schubert.intersect_base_cycle)
    get_engine(sc)
    lines = [
        f"scenario: {sc.name}",
        f"q (cycle dimension): {sc.cycle_dim}",
        f"n_Z (ambient dimension): {sc.ambient_dim}",
        "m (base cycle intersections with the cell closure): 1",
        f"base point: {np.round(sc.base_point.homogeneous, 6).tolist()}",
        f"base cycle dual: {np.round(base_cycle(sc).dual, 6).tolist()}",
        f"compact group dimension: {len(sc.rf.k0_basis)}",
        f"coarse search: resolution {sc.k0_resolution}",
        f"domain sign: {sc.domain_sign}",
    ]
    print("\n".join(lines))
    return 0


_COMMANDS = {
    "eval": (cmd_eval, "evaluate a target over a chart grid"),
    "verify": (cmd_verify, "run verification suites"),
    "certify": (cmd_certify, "pseudoconvexity certificates at seeded points"),
    "info": (cmd_info, "scenario summary"),
}

# the flag of each key in COMMAND_KEYS
_FLAGS = {
    "scenario": {"choices": SCENARIO_NAMES},
    "seed": {"type": int},
    "out": {},
    "format": {"choices": FORMATS},
    "target": {"choices": TARGETS},
    "grid": {"type": _grid_arg, "help": "chart window min:max:n (square grid)"},
    "resolution_k0": {"type": int},
    "levi": {"choices": LEVI_MODES, "help": "attach positive Levi eigenvalue counts"},
    "suite": {"choices": ("all",) + SUITE_NAMES},
    "counts": {"choices": tuple(COUNTS)},
    "count": {"type": int, "help": "number of seeded interior points"},
}


@functools.cache
def build_parser():
    """One parser per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cyclelab",
        description="numerical laboratory for exhaustions on flag domains")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config")
        for key in COMMAND_KEYS[command]:
            p.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
    return parser


def _normalize_argv(argv):
    """Join '--grid <spec>' into '--grid=<spec>'.

    Grid windows routinely start with a negative bound and argparse
    would otherwise read the spec as an unknown option.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    out, i = [], 0
    while i < len(argv):
        if argv[i] == "--grid" and i + 1 < len(argv):
            out.append(f"--grid={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_normalize_argv(argv))
    try:
        cfg = build_config(args)
    except InvalidInput as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[cfg.command][0](cfg)
    except InvalidInput as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (CycleLabError, MemoryError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
