"""Per-layer tracing of a fracstep run, installed from outside the program.

``Tracer.install()`` wraps each hooked function and rebinds the wrapper on
every attribute of every loaded ``fracstep.*`` module that holds the original
function object (methods are rebound on their class).  A hook whose target
does not exist is recorded as unbound and never fails the run.

Each wrapped call is either a span (name, start, end, parent span, thread;
all spans of one dump share its run id) or, for hot functions, only a
counter with total time.  Spans stay in
memory until ``dump`` writes the trace as JSON; ``summarize`` turns a dumped
trace into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
import threading
import types
from time import perf_counter

# (layer, target in the layer's module, kind); kinds:
#   span   - one span per call
#   hot    - count and total time only
#   root   - span that parents calls made on worker threads (a study run)
#   solver - span plus steps, rhs evaluations and a fingerprint of the inputs
HOOKS = [
    ("harness", "run_study", "root"),
    ("harness", "parse_config", "span"),
    ("specfun", "mittag_leffler", "hot"),
    ("specfun", "gamma", "hot"),
    ("glweights", "gl_weights", "span"),
    ("glweights", "wsgl_weights", "span"),
    ("glweights", "_gl_cached", "span"),
    ("glweights", "_wsgl_cached", "span"),
    ("glweights", "rl_deriv_power", "hot"),
    ("corrections", "starting_weight_table", "span"),
    ("corrections", "d1_u_weight_table", "span"),
    ("corrections", "d1_v_weight_table", "span"),
    ("corrections", "vandermonde_diagnostics", "span"),
    ("corrections", "starting_weights_fractional", "hot"),
    ("corrections", "starting_weights_d1_u", "hot"),
    ("corrections", "starting_weights_d1_v", "hot"),
    ("corrections", "corrected_wsgl_apply", "hot"),
    ("corrections", "s_factor", "hot"),
    ("fode", "solve_corrected_wsgl", "solver"),
    ("fode", "solve_l1", "solver"),
    ("fode", "solve_trapezoidal", "solver"),
    ("fode", "error_report", "span"),
    ("tfpde", "solve_wave", "solver"),
    ("tfpde", "solve_wave_l1_baseline", "solver"),
    ("tfpde", "solve_subdiffusion", "solver"),
    ("tfpde", "solve_subdiffusion_l1_baseline", "solver"),
    ("tfpde", "l2_error", "span"),
    ("sem", "assemble", "span"),
    ("sem", "h1_projection", "span"),
    ("sem", "interpolate", "span"),
    ("sem", "SpectralMesh.l2_norm_against", "hot"),
]

# hooks whose distinct argument tuples are counted (reuse = distinct / calls)
TRACK_ARGS = {"specfun.mittag_leffler"}

# per-layer metric name -> unit, in print order (BENCHMARK.json lists the same)
LAYER_METRICS = {
    "specfun.ml_calls": "count",
    "specfun.ml_s": "s",
    "specfun.ml_reuse": "ratio",
    "fode.wsgl.us_per_step": "us",
    "fode.l1.us_per_step": "us",
    "fode.trap.us_per_step": "us",
    "fode.steps": "count",
    "fode.rhs_evals_per_step": "count",
    "fode.error_s": "s",
    "tfpde.wave.us_per_step": "us",
    "tfpde.subdiff.us_per_step": "us",
    "tfpde.subdiff_l1.us_per_step": "us",
    "tfpde.steps": "count",
    "tfpde.error_s": "s",
    "harness.solves": "count",
    "harness.solve_reuse": "ratio",
    "harness.concurrency": "ratio",
    "harness.self_s": "s",
    "sem.assemble_calls": "count",
    "sem.l2_norm_calls": "count",
    "sem.l2_norm_s": "s",
    "corrections.calls": "count",
    "corrections.s": "s",
    "glweights.calls": "count",
    "glweights.s": "s",
    "trace.unbound_hooks": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def fingerprint(obj, depth: int = 0):
    """Hashable value identifying a solver input by content: arrays by their
    bytes, dataclasses and plain objects by their public fields, functions by
    code location and closure contents."""
    if depth > 8:
        return type(obj).__qualname__
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes)):
        return obj
    if isinstance(obj, types.ModuleType):
        return ("module", obj.__name__)
    if isinstance(obj, (tuple, list)):
        return (type(obj).__name__,) + tuple(fingerprint(o, depth + 1) for o in obj)
    if isinstance(obj, dict):
        return ("dict",) + tuple(sorted((repr(k), fingerprint(v, depth + 1)) for k, v in obj.items()))
    if hasattr(obj, "shape") and hasattr(obj, "tobytes"):
        return ("array", tuple(obj.shape), str(obj.dtype), hashlib.sha1(obj.tobytes()).hexdigest())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__qualname__,) + tuple(
            fingerprint(getattr(obj, f.name), depth + 1) for f in dataclasses.fields(obj)
        )
    code = getattr(obj, "__code__", None)
    if code is not None:
        cells = []
        for cell in getattr(obj, "__closure__", None) or ():
            try:
                cells.append(fingerprint(cell.cell_contents, depth + 1))
            except ValueError:  # empty cell
                cells.append(None)
        defaults = fingerprint(getattr(obj, "__defaults__", None), depth + 1)
        return ("fn", code.co_filename, code.co_firstlineno, code.co_name, tuple(cells), defaults)
    if hasattr(obj, "__dict__") and not isinstance(obj, type):
        return (type(obj).__qualname__,) + tuple(
            (k, fingerprint(v, depth + 1)) for k, v in sorted(vars(obj).items()) if not k.startswith("_")
        )
    return (type(obj).__qualname__, repr(obj))


def _steps(result) -> int:
    values = getattr(result, "values", None)  # fode paths
    if values is None:
        values = getattr(result, "u", None)  # tfpde field histories
    return len(values) - 1 if values is not None else 0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = perf_counter()
        self.spans = []  # [id, name, start, end, parent, thread]
        self.calls = {}  # hook name -> [calls, seconds]
        self.layers = {}  # layer -> [outermost calls, outermost seconds]
        self.solvers = {}  # hook name -> [calls, seconds, steps, rhs evaluations]
        self.solve_keys = []
        self.distinct_args = {name: set() for name in TRACK_ARGS}
        self.bindings = {}  # hook name -> number of attributes rebound
        self.unbound = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._root = None  # open study span, parent of worker-thread calls

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "fracstep" or name.startswith("fracstep."))
        }
        for layer, target, kind in HOOKS:
            name = f"{layer}.{target}"
            owner = modules.get(f"fracstep.{layer}")
            *path, attr = target.split(".")
            for part in path:
                owner = getattr(owner, part, None) if owner is not None else None
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None or not callable(fn) or isinstance(fn, type):
                self.unbound.append(name)
                continue
            wrapper = self._wrap(layer, name, fn, kind)
            if path:  # a method: rebind on its class
                setattr(owner, attr, wrapper)
                self.bindings[name] = 1
                continue
            count = 0
            for mod in modules.values():
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        count += 1
            self.bindings[name] = count

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _wrap(self, layer: str, name: str, fn, kind: str):
        tracer = self
        track = name in TRACK_ARGS
        solver = kind == "solver"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            outermost = all(frame[0] != layer for frame in stack)
            span_id = None if kind == "hot" else tracer._new_id()
            parent = stack[-1][1] if stack else tracer._root
            rhs_count = None
            if solver:
                key = (name, fingerprint(args), fingerprint(kwargs))
                if args and dataclasses.is_dataclass(args[0]) and hasattr(args[0], "rhs"):
                    rhs_count, args = _count_rhs(args)
            if track:
                try:
                    arg_key = tuple(args) + tuple(sorted(kwargs.items()))
                except TypeError:
                    arg_key = None
            prev_root = tracer._root
            if kind == "root":
                tracer._root = span_id
            stack.append((layer, span_id))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if kind == "root":
                    tracer._root = prev_root
            dt = t1 - t0
            with tracer._lock:
                entry = tracer.calls.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += dt
                if outermost:
                    lay = tracer.layers.setdefault(layer, [0, 0.0])
                    lay[0] += 1
                    lay[1] += dt
                if track and arg_key is not None:
                    tracer.distinct_args[name].add(arg_key)
                if solver:
                    s = tracer.solvers.setdefault(name, [0, 0.0, 0, 0])
                    s[0] += 1
                    s[1] += dt
                    s[2] += _steps(result)
                    s[3] += rhs_count[0] if rhs_count else 0
                    tracer.solve_keys.append(key)
            if span_id is not None:
                tracer.spans.append(
                    [span_id, name, t0 - tracer.origin, t1 - tracer.origin, parent, threading.get_ident()]
                )
            return result

        return wrapper

    # -- output ----------------------------------------------------------

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "run_id": self.run_id,
                "spans": list(self.spans),
                "calls": dict(self.calls),
                "layers": dict(self.layers),
                "solvers": dict(self.solvers),
                "solves": len(self.solve_keys),
                "distinct_solves": len(set(self.solve_keys)),
                "distinct_args": {k: len(v) for k, v in self.distinct_args.items()},
                "bindings": dict(self.bindings),
                "unbound": list(self.unbound),
            }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


def _count_rhs(args):
    """Replace the problem's right-hand side by a counting wrapper; returns
    the counter and the new argument tuple."""
    problem = args[0]
    inner = problem.rhs
    counter = [0]

    def rhs(*a, **k):
        counter[0] += 1
        return inner(*a, **k)

    return counter, (dataclasses.replace(problem, rhs=rhs),) + tuple(args[1:])


def _covered(intervals) -> float:
    """Total length of the union of [start, end] intervals."""
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def summarize(trace: dict) -> dict:
    """Per-layer metrics of one dumped trace (tracing overhead excluded: it
    needs an untraced run to compare against)."""
    calls = trace["calls"]
    layers = trace["layers"]
    solvers = trace["solvers"]
    spans = trace["spans"]

    def ncalls(name):
        return calls.get(name, [0, 0.0])[0]

    def secs(name):
        return calls.get(name, [0, 0.0])[1]

    def ratio(a, b):
        return a / b if b else 0.0

    def per_step(name):
        c, s, steps = solvers.get(name, [0, 0.0, 0])[:3]
        return ratio(s * 1e6, steps)

    ml = "specfun.mittag_leffler"
    fode = [f"fode.{f}" for f in ("solve_corrected_wsgl", "solve_l1", "solve_trapezoidal")]
    fode_steps = sum(solvers.get(n, [0, 0.0, 0, 0])[2] for n in fode)
    fode_rhs = sum(solvers.get(n, [0, 0.0, 0, 0])[3] for n in fode)
    tfpde_steps = sum(v[2] for n, v in solvers.items() if n.startswith("tfpde."))

    roots = {s[0]: s for s in spans if s[1] == "harness.run_study"}
    children = {rid: [] for rid in roots}
    for s in spans:
        if s[4] in children:
            children[s[4]].append((s[2], s[3]))
    study_wall = sum(r[3] - r[2] for r in roots.values())
    self_s = sum(r[3] - r[2] - _covered(children[rid]) for rid, r in roots.items())
    solver_s = sum(v[1] for v in solvers.values())

    return {
        "specfun.ml_calls": ncalls(ml),
        "specfun.ml_s": secs(ml),
        "specfun.ml_reuse": ratio(trace["distinct_args"].get(ml, 0), ncalls(ml)),
        "fode.wsgl.us_per_step": per_step("fode.solve_corrected_wsgl"),
        "fode.l1.us_per_step": per_step("fode.solve_l1"),
        "fode.trap.us_per_step": per_step("fode.solve_trapezoidal"),
        "fode.steps": fode_steps,
        "fode.rhs_evals_per_step": ratio(fode_rhs, fode_steps),
        "fode.error_s": secs("fode.error_report"),
        "tfpde.wave.us_per_step": per_step("tfpde.solve_wave"),
        "tfpde.subdiff.us_per_step": per_step("tfpde.solve_subdiffusion"),
        "tfpde.subdiff_l1.us_per_step": per_step("tfpde.solve_subdiffusion_l1_baseline"),
        "tfpde.steps": tfpde_steps,
        "tfpde.error_s": secs("tfpde.l2_error"),
        "harness.solves": trace["solves"],
        "harness.solve_reuse": ratio(trace["distinct_solves"], trace["solves"]),
        "harness.concurrency": ratio(solver_s, study_wall),
        "harness.self_s": self_s,
        "sem.assemble_calls": ncalls("sem.assemble"),
        "sem.l2_norm_calls": ncalls("sem.SpectralMesh.l2_norm_against"),
        "sem.l2_norm_s": secs("sem.SpectralMesh.l2_norm_against"),
        "corrections.calls": layers.get("corrections", [0, 0.0])[0],
        "corrections.s": layers.get("corrections", [0, 0.0])[1],
        "glweights.calls": layers.get("glweights", [0, 0.0])[0],
        "glweights.s": layers.get("glweights", [0, 0.0])[1],
        "trace.unbound_hooks": len(trace["unbound"]),
    }
