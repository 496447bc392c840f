"""cyclelab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload grid-default --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  The run repeats rounds until
--seconds is spent (at least one round): each round times one set-up in a
fresh interpreter and one pass of the workload's CLI commands in this
process.  It checks every payload, writes a results file under
perfbench/results/ and prints the metrics.  The last line of stdout is
the JSON result.  With --trace 1 each round adds a traced pass, and the
metrics are the per-layer ones.  See perfbench/README.md.
"""

import os

# BLAS and OpenMP pools are pinned before numpy loads, so the thread pool
# behind CYCLELAB_THREADS is the only parallelism.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5  # set-ups per run at least, one per round
# reference_seconds() on the baseline machine (see README.md).  Times that
# are divided by the reference are multiplied by this to read in seconds.
REF_SECONDS = 0.14
# What every CLI call pays before it does any work: a fresh interpreter,
# `import cyclelab` and the engine build, as the console script runs it.
SETUP_CODE = ("import sys\nfrom cyclelab.cli import main\n"
              "sys.exit(main(['info', '--scenario', 'su21']))\n")
IMPORT_ENTRIES = {"import.cyclelab_s": "cyclelab",
                  "import.scipy_stats_s": "scipy.stats"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_spec():
    try:
        return json.loads(SPEC.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC.name}: {exc}") from exc


# -- set-up ------------------------------------------------------------------

def parse_importtime(text):
    """Cumulative seconds of the IMPORT_ENTRIES packages in -X importtime output."""
    found = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        for metric, entry in IMPORT_ENTRIES.items():
            if name == entry:
                found[metric] = int(parts[1]) / 1e6
    return {metric: found.get(metric, 0.0) for metric in IMPORT_ENTRIES}


def spawn_setup(importtime):
    """(wall seconds, import breakdown or None) of one fresh set-up process."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", SETUP_CODE]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed:\n{proc.stderr[-2000:]}")
    return wall, parse_importtime(proc.stderr) if importtime else None


# -- passes ------------------------------------------------------------------

def run_command(cli, cmd, scratch):
    """(seconds, exit code or None when it raised, payload bytes or None)."""
    out = scratch / f"{cmd.label}.out"
    out.unlink(missing_ok=True)
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(sink):
            rc = cli.main(list(cmd.argv) + ["--out", str(out)])
    except Exception as exc:  # a crash fails the command's operations
        rc = None
        print(f"  {cmd.label} raised {type(exc).__name__}: {exc}", file=sys.stderr)
    seconds = time.perf_counter() - t0
    payload = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return seconds, rc, payload


def reference_seconds():
    """Seconds taken by a fixed piece of work that does not involve cyclelab.

    The host's speed drifts by tens of percent over seconds and minutes,
    and every command slows down with it.  Dividing a pass's time by the
    reference times measured between its commands cancels most of that
    drift.  The work mixes interpreted Python with batched small-matrix
    numpy, like the commands do.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    mats = rng.standard_normal((2000, 3, 3)) + 1j * rng.standard_normal((2000, 3, 3))
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    for _ in range(12):
        _, vecs = np.linalg.eigh(mats + np.conj(np.swapaxes(mats, -1, -2)))
        np.einsum("mij,mjk->mik", vecs, mats)
    return time.perf_counter() - t0


def run_pass(cli, commands, scratch):
    """One pass: the commands, with a reference measurement around each.

    wall_s is the commands' summed time; wall_ref sums each command's time
    over the mean of the two reference times around it.
    """
    refs, results = [reference_seconds()], []
    for cmd in commands:
        results.append(run_command(cli, cmd, scratch))
        refs.append(reference_seconds())
    times = [r[0] for r in results]
    return {"wall_s": sum(times), "ref_s": refs, "commands": results,
            "wall_ref": sum(2 * t / (a + b) for t, a, b in zip(times, refs, refs[1:]))}


def timed_rounds(run_one, budget):
    """Rounds until the next one would overrun the budget; at least one."""
    passes, spent = [], []
    t0 = time.perf_counter()
    while True:
        t1 = time.perf_counter()
        passes.append(run_one())
        spent.append(time.perf_counter() - t1)
        if time.perf_counter() - t0 + statistics.median(spent) > budget:
            return passes


def check_passes(workloads, commands, passes, reference):
    """(attempted, failed) over every command of every pass.

    reference holds each command's payload from the first pass; every
    later payload, traced or not, must equal it byte for byte.
    """
    attempted = failed = 0
    for p in passes:
        for cmd, (_, rc, payload) in zip(commands, p["commands"]):
            if payload is None or rc is None:
                ops = workloads.expected_operations(cmd)
                attempted, failed = attempted + ops, failed + ops
                continue
            ref = reference.setdefault(cmd.label, payload)
            ops, bad = workloads.check(cmd, payload, None if ref is payload else ref)
            if bad == 0 and (payload != ref or rc != 0):
                bad = 1
            attempted, failed = attempted + ops, failed + bad
    return attempted, failed


# -- context -----------------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def machine_context():
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    mem_kb = None
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            mem_kb = int(line.split()[1])
    return {"nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "caches": caches, "mem_total_mb": None if mem_kb is None else mem_kb // 1024,
            "platform": platform.platform()}


def code_context():
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit,
            "src_sha256": digest.hexdigest()}


# -- one run -----------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def run(args):
    spec = load_spec()
    if not (SRC / "cyclelab" / "__init__.py").is_file():
        raise BenchError(f"no cyclelab package under {SRC}; run from a source checkout")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    commands = workload.build(args.seed, args.tiny)
    os.environ["CYCLELAB_THREADS"] = str(workload.threads)

    sys.path.insert(0, str(SRC))
    import cyclelab
    from cyclelab import cli

    if Path(cyclelab.__file__).resolve().parent != (SRC / "cyclelab").resolve():
        raise BenchError(f"imported cyclelab from {cyclelab.__file__}, not {SRC}")
    RESULTS.mkdir(exist_ok=True)
    scratch = RESULTS / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        record = measure(args, workloads, commands, cyclelab, cli, scratch)
    finally:
        for leftover in scratch.iterdir():
            leftover.unlink()
        scratch.rmdir()
    record["context"] = dict(machine_context(), **code_context(),
                             workload=workload.name, seed=args.seed,
                             seconds=args.seconds, trace=args.trace, tiny=args.tiny,
                             cyclelab_threads=workload.threads,
                             blas_threads=os.environ["OMP_NUM_THREADS"],
                             commands=[" ".join(c.argv) for c in commands])
    return spec, record


def measure(args, workloads, commands, cyclelab, cli, scratch):
    """Timed rounds of set-up and passes, checked, into a record."""
    tr = None
    if args.trace:
        import tracer
        from cyclelab import verify

        tr = tracer.Tracer(cyclelab, tracer.LAYERS + tracer.verify_layers(verify))

    def traced_pass():
        tr.reset()
        with tr:
            if tr.patched_sites() == 0:
                raise BenchError("the tracer found nothing to wrap")
            p = run_pass(cli, commands, scratch)
        if not tr.restored():
            raise BenchError("the tracer left wrapped functions behind")
        p["layers"] = tr.snapshot()
        return p

    spawns = []

    def one_round():
        spawns.append(spawn_setup(bool(args.trace)))
        rnd = {"plain": run_pass(cli, commands, scratch)}
        if tr is not None:  # alternating, so both kinds see the same host speed
            rnd["traced"] = traced_pass()
        return rnd

    # the first pass warms lazy imports, allocator pools and engine caches;
    # it is checked but not timed
    t0 = time.perf_counter()
    warmup = run_pass(cli, commands, scratch)
    rounds = timed_rounds(one_round, args.seconds - (time.perf_counter() - t0))
    extra_refs = []
    while len(spawns) < (2 if args.tiny else SETUP_REPEATS):
        spawns.append(spawn_setup(bool(args.trace)))
        extra_refs.append(reference_seconds())
    plain = [r["plain"] for r in rounds]
    traced = [r["traced"] for r in rounds if "traced" in r]

    reference = {}
    attempted, failed = check_passes(workloads, commands, [warmup] + plain + traced,
                                     reference)
    # set-up runs in other processes, so it is scaled by the run's reference
    # level rather than by the reference times next to it
    refs = [x for p in plain + traced for x in p["ref_s"]] + extra_refs
    setup_walls = [w for w, _ in spawns]
    walls = [p["wall_s"] for p in plain]
    metrics = {"setup_s": median(setup_walls) * REF_SECONDS / median(refs),
               "wall_s": median(walls),
               "wall_ref": median([p["wall_ref"] for p in plain]),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    samples = {"setup_s": len(spawns), "wall_s": len(walls), "wall_ref": len(walls),
               "peak_rss_mb": 1}
    if args.trace:
        for m in IMPORT_ENTRIES:
            metrics[m] = median([imp[m] for _, imp in spawns])
            samples[m] = len(spawns)
    for stage, matches in workloads.STAGES.items():
        idx = [i for i, c in enumerate(commands) if matches(c)]
        if idx:
            metrics[stage] = median([sum(p["commands"][i][0] for i in idx) for p in plain])
            samples[stage] = len(plain)
    record = {"metrics_all": metrics, "samples": samples, "layers": {},
              "layer_names": [], "untraced_layers": [], "traced_pass_walls_s": [],
              "attempted": attempted, "failed": failed, "pass_walls_s": walls,
              "setup_walls_s": setup_walls, "reference_s": refs,
              "warmup_pass_s": warmup["wall_s"],
              "command_seconds": {c.label: [p["commands"][i][0] for p in plain]
                                  for i, c in enumerate(commands)}}
    if traced:
        trace_layers(record, tr, plain, traced)
    return record


def trace_layers(record, tr, plain, traced):
    """Per-layer counts and self times of the traced passes, into the record."""
    # counts must repeat exactly from pass to pass; a difference is a failure
    def counts(p):
        return {k: v for k, v in p["layers"].items() if isinstance(v, int)}

    failed = sum(counts(p) != counts(traced[0]) for p in traced[1:])
    layers = {}
    for key in set().union(*(p["layers"] for p in traced)):
        values = [p["layers"].get(key, 0) for p in traced]
        layers[key] = values[0] if isinstance(values[0], int) else median(values)
    layers["trace.overhead_s"] = REF_SECONDS * (median([p["wall_ref"] for p in traced])
                                                - median([p["wall_ref"] for p in plain]))
    record.update(layers=layers, traced_pass_walls_s=[p["wall_s"] for p in traced],
                  untraced_layers=tr.missing,
                  layer_names=[layer.name for layer in tr.layers] + ["import", "trace"],
                  attempted=record["attempted"] + len(traced) - 1,
                  failed=record["failed"] + failed)


# -- output ------------------------------------------------------------------

def final_metrics(spec, record, trace):
    """The metrics BENCHMARK.json names for this mode, with its units."""
    if trace:
        wanted, source = spec["per_layer"], dict(record["layers"])
        source.update({k: v for k, v in record["metrics_all"].items()
                       if k.startswith("import.")})
    else:
        wanted, source = spec["end_to_end"], record["metrics_all"]
    out = {}
    for m in wanted:
        name = m["name"]
        if name not in source and not trace:
            raise BenchError(f"end-to-end metric {name} was not measured")
        if trace and name.rsplit(".", 1)[0] not in record["layer_names"]:
            raise BenchError(f"per-layer metric {name} names no traced layer")
        out[name] = {"value": source.get(name, 0),  # 0: a layer this workload never enters
                     "unit": m["unit"]}
    return out


def report_lines(spec, record, workload_name):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    def unit(name):  # metrics the report shows beyond BENCHMARK.json's
        return units.get(name, "s" if name.endswith("_s") else "count")

    m, n = record["metrics_all"], record["samples"]
    lines = [f"workload {workload_name}: {n['wall_s']} timed passes"]
    for name in ("setup_s", "wall_s", "wall_ref", "eval_r_md_s", "eval_r_d_s", "suite_psh_s",
                 "suite_exhaustion_s", "suite_levi_s", "peak_rss_mb",
                 "import.cyclelab_s", "import.scipy_stats_s"):
        if name in m:
            lines.append(f"  {name:<20} {m[name]:12.4f} {unit(name):<5} "
                         f"(median of {n[name]})")
    frac = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    lines.append(f"  {'fail_frac':<20} {frac:12.4f} 1     "
                 f"({record['failed']} of {record['attempted']} operations)")
    for key in sorted(record["layers"]):
        value = record["layers"][key]
        lines.append(f"  {key:<48} {value:14.6f} {unit(key)}" if isinstance(value, float)
                     else f"  {key:<48} {value:14d} {unit(key)}")
    if record["untraced_layers"]:
        lines.append(f"  not found, so not traced: {', '.join(record['untraced_layers'])}")
    lines.append(f"correct: {str(record['failed'] == 0).lower()}")
    return lines


def write_results(record, args, lines):
    path = RESULTS / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      f"{'-tiny' if args.tiny else ''}.json")
    payload = dict(record, report=lines)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
                    encoding="utf-8")
    return path


def self_check():
    """Tiny run of every workload in both modes; checks the result format."""
    spec = load_spec()
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            tag = f"{wl['name']} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            wanted = spec["per_layer" if trace else "end_to_end"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} failed")
            if set(result["metrics"]) != {m["name"] for m in wanted}:
                problems.append(f"{tag}: metric names differ from BENCHMARK.json")
            for m in wanted:
                got = result["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{tag}: metric {m['name']} emitted as {got}")
            print(f"{tag}: ok, {result['attempted']} operations")
    problems += check_tracer_restores()
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}", file=sys.stderr)
    print("self-check: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def check_tracer_restores():
    """Every wrapped lookup site holds the original object after the trace."""
    sys.path.insert(0, str(SRC))
    import cyclelab
    from cyclelab import cli, verify  # noqa: F401  (cli: loaded so it is traced)

    import tracer

    def sites():
        return {(name, key): value for name, mod in sys.modules.items()
                if name.split(".")[0] == "cyclelab" and mod is not None
                for key, value in vars(mod).items() if callable(value)}

    before = sites()
    tables = dict(verify._SUITE_CHECKS)
    tr = tracer.Tracer(cyclelab, tracer.LAYERS + tracer.verify_layers(verify))
    with tr:
        changed = sum(before[k] is not v for k, v in sites().items() if k in before)
    after = sites()
    problems = []
    if tr.missing:
        problems.append(f"tracer found no {', '.join(tr.missing)}")
    if changed == 0:
        problems.append("tracer wrapped nothing")
    if any(after[k] is not v for k, v in before.items()) or not tr.restored() \
            or any(verify._SUITE_CHECKS[k] is not v for k, v in tables.items()):
        problems.append("tracer did not restore every original function")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the self-check")
    parser.add_argument("--self-check", action="store_true",
                        help="tiny run of every workload; checks the emitted metrics")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            raise BenchError("--workload is required")
        spec, record = run(args)
        lines = report_lines(spec, record, args.workload)
        record["metrics"] = final_metrics(spec, record, args.trace)
        path = write_results(record, args, lines)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(f"results file: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
