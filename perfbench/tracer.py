"""Outside-in tracing of cyclelab's layers.

A Tracer replaces each traced function where callers look it up: the
module attribute in every cyclelab module that holds it (so names taken
with ``from .optimize import ...`` are covered), the class attribute for
methods, and the entries of the module-level table a layer names (the
verify suite table holds the check functions).  Each replacement records
a span: calls, wall time and self time (wall time minus the time of
traced calls it made on the same thread), plus the layer's work counter.  Leaving the ``with`` block puts every
original object back; ``restored()`` checks that it did.

The wrappers pass arguments and results through unchanged, so traced
payloads must equal untraced ones byte for byte.
"""

import functools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

COUNT_STATS = ("calls", "rows", "pairs", "cands", "points", "shrinks", "blocks")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(pos, name):
    def count(args, kwargs, result):
        return {"rows": np.atleast_2d(np.asarray(_arg(args, kwargs, pos, name))).shape[0]}
    return count


def _pairs(args, kwargs, result):
    # values_shared(self, subjects (m, n), ks (K, n, n)): m * K branch values
    subjects, ks = _arg(args, kwargs, 1, "subjects"), _arg(args, kwargs, 2, "ks")
    return {"pairs": np.shape(subjects)[0] * np.shape(ks)[0]}


def _cands(args, kwargs, result):
    # values_own(self, subjects (m, n), ks (m, s, n, n)): m * s compass candidates
    ks = _arg(args, kwargs, 2, "ks")
    return {"cands": np.shape(ks)[0] * np.shape(ks)[1]}


def _shrinks(args, kwargs, result):
    return {"shrinks": int(result.notes.get("shrinks", 0))}


def _count_stencil_points(args, kwargs, add):
    # levi_form_fd(fn, z0, h): count the rows the stencil evaluates fn on
    fn = _arg(args, kwargs, 0, "fn")

    def counted(pts):
        add("points", len(pts))
        return fn(pts)

    return (counted,) + tuple(args[1:]), kwargs


def _time_blocks(args, kwargs, add):
    # run_chunked(fn, rows, chunk): busy time summed over the blocks, on
    # whichever thread runs them
    fn = _arg(args, kwargs, 0, "fn")

    def timed(block):
        t0 = time.perf_counter()
        try:
            return fn(block)
        finally:
            add("blocks", 1)
            add("busy_s", time.perf_counter() - t0)

    return (timed,) + tuple(args[1:]), kwargs


@dataclass(frozen=True)
class Layer:
    name: str            # metric prefix, "<module>.<function>"
    module: str          # defining module inside the package
    attr: str            # attribute path in that module
    sites: tuple = None  # modules whose lookups are wrapped; None = all
    count: object = None  # (args, kwargs, result) -> {stat: increment}
    hook: object = None   # (args, kwargs, add) -> (args, kwargs)
    table: str = None     # dict of tuples in `module` whose entries are wrapped too


LAYERS = (
    Layer("cli.main", "cli", "main"),
    Layer("liecore.k0_sample_matrices", "liecore", "k0_sample_matrices"),
    Layer("optimize.maximize_branch", "optimize", "maximize_branch",
          count=_rows(0, "subjects")),
    Layer("optimize.aligned_domain_values", "optimize", "aligned_domain_values",
          count=_rows(0, "points")),
    Layer("optimize.aligned_values_from", "optimize", "aligned_values_from",
          count=_rows(0, "points")),
    Layer("optimize.BranchEngine.values_shared", "optimize",
          "BranchEngine.values_shared", count=_pairs),
    Layer("optimize.BranchEngine.values_own", "optimize",
          "BranchEngine.values_own", count=_cands),
    # only the optimizer's lookups: each call there is one Newton step
    # (plus one per compass step level the engine caches)
    Layer("optimize.expm_antihermitian", "utils", "expm_antihermitian",
          sites=("optimize",)),
    Layer("exhaust.k0_log_coordinates", "exhaust", "k0_log_coordinates"),
    Layer("exhaust.batch_values", "exhaust", "batch_values",
          count=_rows(0, "rows")),
    Layer("exhaust.submeanvalue_discs", "exhaust", "submeanvalue_discs"),
    Layer("exhaust.divergence_path", "exhaust", "divergence_path"),
    Layer("sections.exhaustion_values", "sections", "exhaustion_values",
          count=_rows(1, "rows")),
    Layer("levi.levi_form_fd", "levi", "levi_form_fd",
          hook=_count_stencil_points),
    Layer("levi.q_pseudoconvex_certificate", "levi",
          "q_pseudoconvex_certificate", count=_shrinks),
    Layer("levi.in_domain_row", "levi", "in_domain_row"),
    Layer("flags.in_domain", "flags", "in_domain"),
    Layer("cycles.cycle_in_domain", "cycles", "cycle_in_domain"),
    Layer("schubert.intersect_slice", "schubert", "intersect_slice"),
    Layer("utils.sobol_points", "utils", "sobol_points"),
    Layer("utils.run_chunked", "utils", "run_chunked", hook=_time_blocks),
)


def verify_layers(verify_module):
    """One layer per check function of the verify module."""
    return tuple(Layer(f"verify.{name}", "verify", name, table="_SUITE_CHECKS")
                 for name in sorted(vars(verify_module))
                 if name.startswith("check_") and callable(getattr(verify_module, name)))


def _resolve(module, path):
    """(owner, attribute, object) for a dotted attribute path, or None."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    obj = vars(owner).get(parts[-1]) if hasattr(owner, "__dict__") else None
    return None if obj is None else (owner, parts[-1], obj)


class Tracer:
    """Context manager that traces the given layers of one package."""

    def __init__(self, package, layers):
        self.package = package.__name__
        self.layers = tuple(layers)
        self.stats = {layer.name: defaultdict(float) for layer in self.layers}
        self.missing = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = {}  # (kind, id(container), key) -> (container, key, original)

    # -- patching -------------------------------------------------------

    def _modules(self):
        return {name[len(self.package) + 1:] if name != self.package else "":
                mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == self.package
                                        or name.startswith(self.package + "."))}

    def _save(self, kind, container, key, current):
        self._saved.setdefault((kind, id(container), key), (container, key, current))

    def _set_attr(self, container, key, value):
        self._save("attr", container, key, getattr(container, key))
        setattr(container, key, value)

    def _set_item(self, container, key, value):
        self._save("item", container, key, container[key])
        container[key] = value

    def __enter__(self):
        self.missing, self._saved = [], {}
        modules = self._modules()
        for layer in self.layers:
            home = modules.get(layer.module)
            found = _resolve(home, layer.attr) if home is not None else None
            if found is None:
                self.missing.append(layer.name)
                continue
            owner, key, orig = found
            wrapper = self._wrap(layer, orig)
            if owner is not home:  # a method: one lookup site, the class
                self._set_attr(owner, key, wrapper)
                continue
            sites = ([modules[s] for s in layer.sites if s in modules]
                     if layer.sites else modules.values())
            for mod in sites:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._set_attr(mod, name, wrapper)
            table = vars(home).get(layer.table, {}) if layer.table else {}
            for k, v in list(table.items()):
                if any(x is orig for x in v):
                    self._set_item(table, k, tuple(wrapper if x is orig else x for x in v))
        return self

    def __exit__(self, *exc):
        for (kind, _, _), (container, key, original) in self._saved.items():
            if kind == "attr":
                setattr(container, key, original)
            else:
                container[key] = original
        return False

    def restored(self):
        """True when every patched lookup site holds its original again."""
        for (kind, _, _), (container, key, original) in self._saved.items():
            current = getattr(container, key) if kind == "attr" else container[key]
            if current is not original:
                return False
        return True

    def patched_sites(self):
        return len(self._saved)

    # -- spans ----------------------------------------------------------

    def _wrap(self, layer, fn):
        stat = self.stats[layer.name]
        lock, local = self._lock, self._local

        def add(key, value):
            with lock:
                stat[key] += value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer.hook is not None:
                args, kwargs = layer.hook(args, kwargs, add)
            stack = local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with lock:
                    stat["calls"] += 1
                    stat["wall_s"] += dt
                    stat["self_s"] += dt - child
            if layer.count is not None:
                for key, value in layer.count(args, kwargs, result).items():
                    add(key, value)
            return result

        return traced

    def reset(self):
        with self._lock:
            for stat in self.stats.values():
                stat.clear()

    def snapshot(self):
        """Per-layer stats of the work since the last reset, as metric names."""
        out = {}
        with self._lock:
            for name, stat in self.stats.items():
                for key, value in stat.items():
                    if key in COUNT_STATS:
                        out[f"{name}.{key}"] = int(round(value))
                    elif key == "self_s":
                        out[f"{name}.self_s"] = float(value)
                wall = stat.get("wall_s", 0.0)
                if "busy_s" in stat:
                    out[f"{name}.concurrency"] = stat["busy_s"] / wall if wall else 0.0
        return out
