"""Span tracing of the lpmanifolds layers from outside the package.

`Tracer.install()` replaces, in every module of the package, each public
function, each public method of the package's classes and each callable
stored on a `ModelSystem` or `SplitPieces` instance with a wrapper that
records a span (name, start, end, parent) and a call count.  Nothing under
`src/` is edited: the wrappers go into the module namespaces, class
dictionaries and instance attributes at run time, and `uninstall()` puts the
originals back.

Spans are kept in memory.  A span's self time is its duration minus the
durations of its direct children.  `dump()` writes the spans out when the
run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

# layer name -> module; the layers are the package's modules
LAYERS = ("models", "linalg", "lp", "graded", "oracles", "cli")
# instance callables wrapped on every constructed object
INSTANCE_CALLABLES = {
    "ModelSystem": ("models", ("vector_field", "jacobian", "vector_field_many",
                               "energy")),
    "SplitPieces": ("lp", ("blocks_at", "remainder_at")),
}


class Stats:
    """Per-name call counts, inclusive and self times, plus extra counters."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}

    def get(self, name: str, kind: str) -> float:
        table = {"calls": self.calls, "s": self.total,
                 "self_s": self.self_time}[kind]
        return float(table.get(name, 0))

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class Tracer:
    """Records spans around the package's layer boundaries."""

    def __init__(self):
        self.stats = Stats()
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # span columns: name id, start, end, parent span index (-1: root);
        # typed arrays keep millions of spans at 24 bytes each
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("q")
        self._stack: list[list] = []   # [span index, name, start, child time]
        self._patches: list[tuple] = []
        # id(original) -> (original, wrapper); holding the original keeps
        # its id from being reused by another object
        self._wrapped: dict[int, tuple] = {}
        self._on_return: dict[str, object] = {}

    # -- recording -------------------------------------------------------
    def _enter(self, name: str) -> list:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self._span_name)
        self._span_name.append(nid)
        self._span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._span_end.append(0.0)
        start = time.perf_counter()
        self._span_start.append(start)
        frame = [idx, name, start, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        idx, name, start, child = frame
        self._stack.pop()
        self._span_end[idx] = end
        dur = end - start
        st = self.stats
        st.calls[name] = st.calls.get(name, 0) + 1
        st.total[name] = st.total.get(name, 0.0) + dur
        st.self_time[name] = st.self_time.get(name, 0.0) + dur - child
        if self._stack:
            self._stack[-1][3] += dur

    def wrap(self, fn, name: str):
        """Wrapper recording a span named `name` around each call of fn."""
        if hasattr(fn, "__wrapped_original__"):
            return fn
        key = id(fn)
        if key in self._wrapped:
            return self._wrapped[key][1]
        enter, leave = self._enter, self._exit
        on_return = self._on_return.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(frame)
            if on_return is not None:
                on_return(self.stats, args, out)
            return out

        traced.__wrapped_original__ = fn
        self._wrapped[key] = (fn, traced)
        return traced

    def take(self) -> Stats:
        """Return the statistics gathered so far and start a fresh set."""
        out, self.stats = self.stats, Stats()
        return out

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the layer functions, methods and instance callables."""
        import importlib
        modules = {
            layer: importlib.import_module(f"{package.__name__}.{layer}")
            for layer in LAYERS}
        self._on_return = _counters()
        originals: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    originals[id(val)] = self.wrap(val, f"{layer}.{attr}")
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    self._wrap_class(layer, val)
        # rebind every reference to a wrapped function: module globals (the
        # names each module imports), the package namespace and
        # module-level dispatch tables such as cli.COMMANDS
        for mod in [package, *modules.values(), *_submodules(package)]:
            for attr, val in list(vars(mod).items()):
                if id(val) in originals and not attr.startswith("__"):
                    self._patch(mod, attr, originals[id(val)])
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for k, v in list(val.items()):
                        if callable(v) and id(v) in originals:
                            self._patch(val, k, originals[id(v)])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(val):
                self._patch(cls, attr, self.wrap(val, f"{layer}.{attr}"))
            elif isinstance(val, staticmethod):
                self._patch(cls, attr, staticmethod(
                    self.wrap(val.__func__, f"{layer}.{attr}")))
        spec = INSTANCE_CALLABLES.get(cls.__name__)
        if spec is None:
            return
        inst_layer, names = spec
        init = cls.__init__
        tracer = self

        @functools.wraps(init)
        def traced_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            for nm in names:
                fn = getattr(obj, nm, None)
                if fn is not None:
                    setattr(obj, nm, tracer.wrap(fn, f"{inst_layer}.{nm}"))

        self._patch(cls, "__init__", traced_init)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- output ----------------------------------------------------------
    def dump(self, path: str) -> int:
        """Write every recorded span to an .npz file; returns the count."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self._span_name, dtype=np.int32),
            start=np.frombuffer(self._span_start, dtype=np.float64),
            end=np.frombuffer(self._span_end, dtype=np.float64),
            parent=np.frombuffer(self._span_parent, dtype=np.int64))
        return len(self._span_name)


def _submodules(package):
    import sys
    prefix = package.__name__ + "."
    return [m for n, m in list(sys.modules.items())
            if n.startswith(prefix) and m is not None]


def _counters() -> dict:
    """Extra counters filled from return values, keyed by span name."""

    def field_rows(stats, args, out):
        stats.count("models.field_many.rows", np.shape(args[1])[0])

    def shoot_iterations(stats, args, out):
        stats.count("oracles.backward_shoot.newton_iterations",
                    out.newton_iterations)

    return {"models.field_many": field_rows,
            "oracles.backward_shoot": shoot_iterations}


def span_table(stats: Stats, limit: int = 25) -> list[str]:
    """Human-readable table of the heaviest spans by self time."""
    rows = sorted(stats.self_time.items(), key=lambda kv: -kv[1])[:limit]
    lines = [f"{'span':40s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}"]
    for name, self_s in rows:
        lines.append(f"{name:40s} {stats.calls[name]:9d} "
                     f"{stats.total[name]:10.4f} {self_s:10.4f}")
    return lines


# per-layer metric -> (span name, statistic, unit)
LAYER_METRICS = {
    "lp.lp_apply.self_s": ("lp.lp_apply", "self_s", "s"),
    "lp.lp_apply.calls": ("lp.lp_apply", "calls", "count"),
    "lp.lp_solve.calls": ("lp.lp_solve", "calls", "count"),
    "lp.build_manifold_graph.s": ("lp.build_manifold_graph", "s", "s"),
    "lp.invariance_residual.s": ("lp.invariance_residual", "s", "s"),
    "linalg.integrate_rk4.s": ("linalg.integrate_rk4", "s", "s"),
    "lp.decay_rate_fit.s": ("lp.decay_rate_fit", "s", "s"),
    "graded.weighted_orbit_norm.s": ("graded.weighted_orbit_norm", "s", "s"),
    "models.vector_field.calls": ("models.vector_field", "calls", "count"),
    "models.vector_field.s": ("models.vector_field", "s", "s"),
    "models.field_many.s": ("models.field_many", "s", "s"),
    "models.field_many.calls": ("models.field_many", "calls", "count"),
    "lp.f_split.s": ("lp.f_split", "s", "s"),
    "models.jacobian.s": ("models.jacobian", "s", "s"),
    "models.jacobian.calls": ("models.jacobian", "calls", "count"),
    "oracles.finite_difference_jacobian.s":
        ("oracles.finite_difference_jacobian", "s", "s"),
    "oracles.finite_difference_jacobian.calls":
        ("oracles.finite_difference_jacobian", "calls", "count"),
    "lp.split_field.s": ("lp.split_field", "s", "s"),
    "lp.propagators.s": ("lp.propagators", "s", "s"),
    "linalg.eigen_split.s": ("linalg.eigen_split", "s", "s"),
    "linalg.lyapunov_form.s": ("linalg.lyapunov_form", "s", "s"),
    "linalg.dissipativity_check.s": ("linalg.dissipativity_check", "s", "s"),
    "lp.blocks_at.s": ("lp.blocks_at", "s", "s"),
    "lp.blocks_at.calls": ("lp.blocks_at", "calls", "count"),
    "lp.remainder_at.s": ("lp.remainder_at", "s", "s"),
    "lp.remainder_at.calls": ("lp.remainder_at", "calls", "count"),
    "linalg.picard_solve.s": ("linalg.picard_solve", "s", "s"),
}
# figures of the check phase, where the oracle alone runs
CHECK_METRICS = {
    "oracles.backward_shoot.s": ("oracles.backward_shoot", "s", "s"),
}


def layer_metrics(stats: Stats, check_stats: Stats) -> dict:
    """Per-layer metrics from the traced set-up and round (`stats`) and the
    traced check phase (`check_stats`)."""
    out = {name: {"value": stats.get(span, kind), "unit": unit}
           for name, (span, kind, unit) in LAYER_METRICS.items()}
    for name, (span, kind, unit) in CHECK_METRICS.items():
        out[name] = {"value": check_stats.get(span, kind), "unit": unit}
    out["oracles.backward_shoot.newton_iterations"] = {
        "value": float(check_stats.counters.get(
            "oracles.backward_shoot.newton_iterations", 0)),
        "unit": "count"}
    out["models.field_many.rows"] = {
        "value": float(stats.counters.get("models.field_many.rows", 0)),
        "unit": "count"}
    solves = stats.get("lp.lp_solve", "calls")
    out["lp.sweeps_per_solve"] = {
        "value": stats.get("lp.lp_apply", "calls") / solves if solves else 0.0,
        "unit": "sweeps/solve"}
    # the cli layer's own time: main and the cli functions it calls
    out["cli.main.self_s"] = {
        "value": sum(v for k, v in stats.self_time.items()
                     if k.startswith("cli.")),
        "unit": "s"}
    return out
