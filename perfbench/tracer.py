"""Outside-in span tracing of the sinkbridge layers.

The tracer never edits library code.  ``install`` replaces every public
function of each layer module with a recording wrapper at every place the
function object is bound: module attributes (``models.build_model`` is the
same object as ``discrete.build_model``), the package namespace, and
module-level lists of ``(name, function)`` pairs such as
``verify.CRITERIA``.  scipy's ``logsumexp`` is wrapped where ``discrete``
binds it, so every N x N reduction of the grid engine is a span.

A span is (name, start, end, parent); spans are appended to flat arrays
when they open, kept in memory, and written to an ``.npz`` file by
``save``.  Self time is a span's duration minus the durations of its
children; children of one span never overlap because every traced call
runs on one thread at a time (the ``gaussian`` command's one-worker
thread pool runs while its caller waits).
"""

import functools
import inspect
import resource
import sys
import threading
import time
from array import array

LAYERS = ("spd", "riccati", "gaussian", "discrete", "models", "bounds", "verify", "cli")

# scipy functions bound by name inside a layer module, traced as that layer
FOREIGN = {"discrete": ("logsumexp",)}

CRITERIA = (
    "riccati-fixed-point",
    "riccati-decay",
    "psi-factorization",
    "gaussian-bridge-vs-sinkhorn",
    "improved-phi-rate",
    "entropic-map-identities",
    "ot-limit",
    "proximal-sampler",
    "discrete-sinkhorn-correctness",
    "discretization-consistency",
)
# the commands the workloads run
COMMANDS = ("discrete", "verify")
VALIDATORS = ("spd.require_spd", "spd.clamp_psd")

# (name, unit, better) of every per-layer metric, in report order
METRICS = (
    ("spd.calls", "count", "lower"),
    ("spd.self_s", "s", "lower"),
    ("spd.symmetrize.calls", "count", "lower"),
    ("spd.require_spd.calls", "count", "lower"),
    ("spd.eig_range.calls", "count", "lower"),
    ("spd.sym_inv.calls", "count", "lower"),
    ("spd.checks_per_inverse", "ratio", "lower"),
    ("riccati.calls", "count", "lower"),
    ("riccati.self_s", "s", "lower"),
    ("riccati.ricc_map.calls", "count", "lower"),
    ("riccati.ricc_map.s", "s", "lower"),
    ("riccati.decay_params.calls", "count", "lower"),
    ("riccati.decay_params.s", "s", "lower"),
    ("riccati.decay_params.distinct_frac", "ratio", "higher"),
    ("gaussian.calls", "count", "lower"),
    ("gaussian.self_s", "s", "lower"),
    ("gaussian.bridge_solve.s", "s", "lower"),
    ("gaussian.sinkhorn_run.s", "s", "lower"),
    ("gaussian.gaussian_kl.s", "s", "lower"),
    ("gaussian.gelbrich_w2.s", "s", "lower"),
    ("discrete.calls", "count", "lower"),
    ("discrete.self_s", "s", "lower"),
    ("discrete.run.s", "s", "lower"),
    ("discrete.bridge_oracle.s", "s", "lower"),
    ("discrete.entropy_report.s", "s", "lower"),
    ("discrete.half_steps", "count", "lower"),
    ("discrete.trace_sweeps", "count", "lower"),
    ("discrete.oracle_sweeps", "count", "lower"),
    ("discrete.oracle_redo_frac", "ratio", "lower"),
    ("discrete.lse_passes", "count", "lower"),
    ("discrete.lse_bytes_computed", "bytes", "lower"),
    ("discrete.sys_s", "s", "lower"),
    ("discrete.minflt", "count", "lower"),
    ("models.self_s", "s", "lower"),
    ("models.model_from_spec.s", "s", "lower"),
    ("models.table_bytes", "bytes", "lower"),
    ("bounds.self_s", "s", "lower"),
    *((f"verify.{c}.s", "s", "lower") for c in CRITERIA),
    ("verify.suite_passes", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    *((f"cli.{c}.s", "s", "lower") for c in COMMANDS),
    ("process.cpu_s", "s", "lower"),
    ("process.minflt", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = {}  # span index -> exception class name
        self.model_ids = {}  # span index -> id() of the model argument
        self.decay_keys = set()
        self.decay_calls = 0
        self.lse_passes = 0
        self.lse_bytes = 0
        self.table_bytes = 0
        self.discrete_sys_s = 0.0
        self.discrete_minflt = 0
        self._discrete_depth = 0
        self._discrete_usage = None
        self._main_stack = [-1]
        self._local = threading.local()
        self._local.stack = self._main_stack
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # a worker thread inherits the span its submitter has open
            stack = self._local.stack = [self._main_stack[-1]]
        return stack

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name):
        nid = self._name_id(name)
        pre, post = _hooks(self, name)
        counts_tables = name == "discrete.build_model"
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            stack.append(idx)
            if pre is not None:
                pre(idx, args)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[idx] = type(exc).__name__
                raise
            finally:
                tracer.end[idx] = clock()
                stack.pop()
                if post is not None:
                    post()
            if counts_tables:
                tracer.table_bytes += result.u_pot.nbytes + result.v_pot.nbytes + result.w_pot.nbytes
            return result

        return traced

    def install(self, package="sinkbridge"):
        """Wrap every public layer function wherever the package binds it."""
        modules = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                own = inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_")
                if own or attr in FOREIGN.get(layer, ()):
                    if obj not in wrappers:
                        wrappers[obj] = self.wrap(obj, f"{layer}.{attr}")
        binders = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for mod in binders:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
                elif isinstance(obj, list):
                    for i, item in enumerate(obj):
                        if isinstance(item, tuple) and any(inspect.isfunction(x) and x in wrappers for x in item):
                            new = tuple(wrappers.get(x, x) if inspect.isfunction(x) else x for x in item)
                            self._restore.append((obj.__setitem__, i, item))
                            obj[i] = new

    def _set(self, mod, attr, value):
        self._restore.append((functools.partial(setattr, mod), attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self):
        for setter, key, old in reversed(self._restore):
            setter(key, old)
        self._restore.clear()

    def save(self, path):
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            error_index=np.array(sorted(self.errors), dtype=np.int64),
            error_type=np.array([self.errors[i] for i in sorted(self.errors)], dtype=str),
        )

    def metrics(self):
        """Per-layer metrics over everything recorded so far."""
        import numpy as np

        names = self.names
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names], dtype=np.int64)
        span_layer = layer_of[name] if len(name) else np.zeros(0, dtype=np.int64)

        def nid(n):
            return self._name_ids.get(n, -1)

        def calls(n):
            return int(np.count_nonzero(name == nid(n)))

        def total(n):
            return float(dur[name == nid(n)].sum())

        out = {}
        for i, layer in enumerate(LAYERS):
            mask = span_layer == i
            out[f"{layer}.self_s"] = float(self_time[mask].sum())
            if layer in ("spd", "riccati", "gaussian", "discrete"):
                out[f"{layer}.calls"] = int(np.count_nonzero(mask))

        for fn in ("symmetrize", "require_spd", "eig_range", "sym_inv"):
            out[f"spd.{fn}.calls"] = calls(f"spd.{fn}")
        inverses = calls("spd.sym_inv")
        checks = sum(calls(v) for v in VALIDATORS)
        out["spd.checks_per_inverse"] = checks / inverses if inverses else 0.0

        out["riccati.ricc_map.calls"] = calls("riccati.ricc_map")
        out["riccati.ricc_map.s"] = total("riccati.ricc_map")
        out["riccati.decay_params.calls"] = calls("riccati.decay_params")
        out["riccati.decay_params.s"] = total("riccati.decay_params")
        out["riccati.decay_params.distinct_frac"] = (
            len(self.decay_keys) / self.decay_calls if self.decay_calls else 0.0
        )

        for fn in ("bridge_solve", "sinkhorn_run", "gaussian_kl", "gelbrich_w2"):
            out[f"gaussian.{fn}.s"] = total(f"gaussian.{fn}")

        for fn in ("run", "bridge_oracle", "entropy_report"):
            out[f"discrete.{fn}.s"] = total(f"discrete.{fn}")
        trace_half, oracle_half = self._half_steps(name, parent)
        out["discrete.half_steps"] = calls("discrete.sinkhorn_step")
        out["discrete.trace_sweeps"] = sum(trace_half.values()) / 2
        out["discrete.oracle_sweeps"] = sum(oracle_half.values()) / 2
        out["discrete.oracle_redo_frac"] = self._redo_frac(trace_half, oracle_half)
        out["discrete.lse_passes"] = self.lse_passes
        out["discrete.lse_bytes_computed"] = self.lse_bytes
        out["discrete.sys_s"] = self.discrete_sys_s
        out["discrete.minflt"] = self.discrete_minflt

        out["models.model_from_spec.s"] = total("models.model_from_spec")
        out["models.table_bytes"] = self.table_bytes

        fn_of = {}
        verify_mod = sys.modules["sinkbridge.verify"]
        for crit_name, fn in verify_mod.CRITERIA:
            fn_of[crit_name] = getattr(fn, "__wrapped__", fn).__name__
        for crit in CRITERIA:
            out[f"verify.{crit}.s"] = total(f"verify.{fn_of[crit]}") if crit in fn_of else 0.0
        # criterion runs over the suite's size: full-suite passes in the round
        runs = sum(calls(f"verify.{fn}") for fn in fn_of.values())
        out["verify.suite_passes"] = runs / len(fn_of)

        for cmd in COMMANDS:
            out[f"cli.{cmd}.s"] = total(f"cli.cmd_{cmd}")
        return out

    def _half_steps(self, name, parent):
        """Half-steps per run / bridge_oracle span, attributed via parent links."""
        run_id, oracle_id, step_id = (self._name_ids.get(n, -2) for n in (
            "discrete.run", "discrete.bridge_oracle", "discrete.sinkhorn_step"))
        owner = {}  # span index -> enclosing run/oracle span index
        trace_half, oracle_half = {}, {}
        for idx in range(len(name)):
            nm = int(name[idx])
            if nm == run_id:
                trace_half[idx] = 0
                owner[idx] = idx
            elif nm == oracle_id:
                oracle_half[idx] = 0
                owner[idx] = idx
            else:
                up = int(parent[idx])
                if up in owner:
                    owner[idx] = owner[up]
                    if nm == step_id:
                        top = owner[idx]
                        (trace_half if top in trace_half else oracle_half)[top] += 1
        return trace_half, oracle_half

    def _redo_frac(self, trace_half, oracle_half):
        """Share of oracle sweeps that repeat sweeps a run on the same model already made."""
        events = sorted([(i, "run") for i in trace_half] + [(i, "oracle") for i in oracle_half])
        last_run = {}
        redo = done = 0
        for idx, kind in events:
            model = self.model_ids.get(idx)
            if kind == "run":
                last_run[model] = trace_half[idx]
            else:
                done += oracle_half[idx]
                redo += min(oracle_half[idx], last_run.get(model, 0))
        return redo / done if done else 0.0


def _hooks(tracer, name):
    """Counters recorded at a span boundary: (before-call, after-return)."""
    layer = name.split(".", 1)[0]
    if name == "discrete.logsumexp":

        def pre(idx, args):
            a = args[0]
            if getattr(a, "ndim", 0) == 2 and min(a.shape) > 1:
                tracer.lse_passes += 1
                tracer.lse_bytes += a.nbytes

        return _with_usage(tracer, pre)
    if name in ("discrete.run", "discrete.bridge_oracle"):

        def pre(idx, args):
            tracer.model_ids[idx] = id(args[0])

        return _with_usage(tracer, pre)
    if layer == "discrete":
        return _with_usage(tracer, None)
    if name == "riccati.decay_params":

        def pre(idx, args):
            import numpy as np

            try:
                arr = np.asarray(args[0], dtype=float)
                key = (arr.shape, arr.tobytes())
            except (TypeError, ValueError):  # the INFINITE sentinel
                key = id(args[0])
            tracer.decay_calls += 1
            tracer.decay_keys.add(key)

        return pre, None
    return None, None


def _with_usage(tracer, inner):
    """getrusage deltas around the outermost discrete span."""

    def pre(idx, args):
        if tracer._discrete_depth == 0:
            tracer._discrete_usage = resource.getrusage(resource.RUSAGE_SELF)
        tracer._discrete_depth += 1
        if inner is not None:
            inner(idx, args)

    def post():
        tracer._discrete_depth -= 1
        if tracer._discrete_depth == 0:
            now = resource.getrusage(resource.RUSAGE_SELF)
            tracer.discrete_sys_s += now.ru_stime - tracer._discrete_usage.ru_stime
            tracer.discrete_minflt += now.ru_minflt - tracer._discrete_usage.ru_minflt

    return pre, post
