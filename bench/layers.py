"""Per-layer tracing of `covest` from outside the package.

The layers are the package's modules.  `install` replaces every public
function of each module, in every `covest` module namespace that holds it,
by a wrapper that records a span, and wraps the constructor of every public
class.  A function that a wrapped call returns and that a `covest` module
defines (the outcome-density closures) is wrapped too, as `<layer>.<name>`.
A layer's self time is the time inside its spans minus the time inside
their child spans, so the self times of all layers sum to the time inside
the outermost spans.  Names a later version of the package drops are simply
not wrapped, and the metrics that read them stay at zero.
"""

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "phase", "su2", "su2_design", "integrals", "simulate")
KERNELS = {"integrals.su2_error_kernel", "integrals.su2_single_irrep_integral",
           "integrals.phase_error_kernel"}


def _seed_bytes(args, kwargs):
    entries = kwargs.get("entries", args[1] if len(args) > 1 else None)
    d = np.shape(entries)[0]
    return 16 * d * d


def _character_terms(args, kwargs):
    j, theta = args[0], args[1] if len(args) > 1 else kwargs["theta"]
    return np.size(theta) * j


def _quadrature_nodes(args, kwargs):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return spec.node_count


def _trials(args, kwargs):
    config = args[0] if args else kwargs["config"]
    return config.trials


# Work counted at a span's entry: span name -> (counter, count from args).
COUNTERS = {
    "phase.SeedMatrix": ("phase.seed_matrix_bytes", _seed_bytes),
    "su2.character": ("su2.character_terms", _character_terms),
    "integrals.class_integral": ("integrals.quadrature_nodes", _quadrature_nodes),
    "simulate.simulate": ("simulate.trials", _trials),
}


class Tracer:
    """Aggregates spans in memory: inclusive time, calls, and layer self time."""

    def __init__(self):
        self.stack = []  # [name, start, time in child spans]
        self.inclusive = defaultdict(float)  # outermost spans of each name
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)  # per layer
        self.counts = defaultdict(int)

    def wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](args, kwargs)
            frame = [name, time.perf_counter(), 0.0]
            tracer.stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                dur = time.perf_counter() - frame[1]
                tracer.self_time[layer] += dur - frame[2]
                tracer.calls[name] += 1
                if tracer.stack:
                    tracer.stack[-1][2] += dur
                if all(f[0] != name for f in tracer.stack):
                    tracer.inclusive[name] += dur
            if inspect.isfunction(out) and out.__module__.startswith("covest."):
                return tracer.wrap(f"{layer}.{out.__name__}", out)
            return out

        traced.__wrapped__ = fn
        return traced

    def summary(self):
        return {
            "inclusive": dict(self.inclusive),
            "calls": dict(self.calls),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
        }


def install(tracer):
    """Wrap every public function and class constructor of each layer module."""
    wrapped = {}  # id(original) -> wrapper
    for layer in LAYERS:
        module = sys.modules.get(f"covest.{layer}")
        if module is None:
            continue
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj) and "__init__" in vars(obj):
                obj.__init__ = tracer.wrap(f"{layer}.{attr}", obj.__init__)
    for name, module in list(sys.modules.items()):
        if name != "covest" and not name.startswith("covest."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])
