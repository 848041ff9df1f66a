"""In-memory spans at the bindings one degzeta module uses to call another.

`Tracer.instrument` replaces, in each layer module's namespace, every name
bound to a function or module of another layer with a wrapper that records
a span ``(layer, name, start, end, parent)``.  Calls inside one module, such
as ``ffd`` inside ``exactcore``, are left alone, so the wrapper cost grows
with cross-layer calls only.  ``numerics.quad_finite`` is the one
intra-module binding wrapped: it is where panels and integrand evaluations
are counted.  Module imports are spans too, so a layer's self time includes
its import.  Spans stay in memory; `Tracer.raw` reduces them when the
traced process ends.

A layer's self time is the duration of its spans minus that of their
direct children.  A callback a layer calls without crossing a binding (an
integrand inside ``quad_finite``, a term inside ``euler_transform_sum``) is
counted to the span that called it.
"""

from __future__ import annotations

import importlib.machinery
import inspect
import statistics
import sys
import time
import types
from collections import Counter
from fractions import Fraction

PACKAGE = "degzeta"
LAYERS = ("exactcore", "numerics", "gammadeg", "zetadeg", "verify", "cli")
GK_POINTS = 15  # integrand evaluations per Gauss-Kronrod panel

ROUTES = {
    "zeta_deg": "series", "euler_zeta": "series",
    "zeta_deg_mellin": "mellin", "euler_zeta_mellin": "mellin",
    "zeta_deg_int": "int",
    "zeta_deg_continued": "continued", "gamma_deg_continued": "continued",
    "zeta_deg_neg": "neg", "zeta_deg_neg_plain": "neg",
    "discrepancy_experiment": "discrepancy",
}
ORDER_PARAMS = ("n", "n_max", "m", "order")


def _layer_of(obj) -> str | None:
    name = obj.__name__ if isinstance(obj, types.ModuleType) else obj.__module__
    package, _, layer = (name or "").partition(".")
    return layer if package == PACKAGE and layer in LAYERS else None


def _counting(fn, tally: list):
    def counted(*args):
        tally[0] += 1
        return fn(*args)
    return counted


class _LayerProxy:
    """Stands in for a layer module bound in another module's namespace."""

    def __init__(self, tracer: "Tracer", module: types.ModuleType):
        self._tracer = tracer
        self._module = module
        self._wrapped: dict = {}

    def __getattr__(self, name):
        obj = getattr(self._module, name)
        if not isinstance(obj, types.FunctionType):
            return obj
        if name not in self._wrapped:
            self._wrapped[name] = self._tracer.wrap(_layer_of(obj), name, obj)
        return self._wrapped[name]


class _ImportSpans:
    """Meta-path finder that turns the execution of each layer module into a span."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def find_spec(self, name, path, target=None):
        package, _, layer = name.partition(".")
        if package != PACKAGE or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None:
            spec.loader.exec_module = self._tracer.wrap(layer, "import",
                                                        spec.loader.exec_module)
        return spec


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.continued: list = []  # (first_seen, seconds) per zeta_deg_continued
        self._pairs: set = set()
        self._params: dict = {}

    def install_import_spans(self) -> None:
        """Call before the first import of the package."""
        sys.meta_path.insert(0, _ImportSpans(self))

    # -- spans ---------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        hook = getattr(self, "_hook_" + name, None)
        if layer == "exactcore" and name != "import" and hook is None:
            hook = self._hook_exactcore
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            after = None
            if hook is not None:
                args, after = hook(fn, args, kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            exc = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, name, start, end, stack[-1] if stack else -1)
                if after is not None:
                    after(exc, end - start)

        traced.__wrapped__ = fn
        return traced

    def instrument(self, modules: dict) -> None:
        """Wrap every cross-layer binding in the given layer modules."""
        for owner, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType):
                    layer = _layer_of(obj)
                    if layer is not None and layer != owner:
                        setattr(module, attr, self.wrap(layer, attr, obj))
                elif isinstance(obj, types.ModuleType):
                    layer = _layer_of(obj)
                    if layer is not None and layer != owner:
                        setattr(module, attr, _LayerProxy(self, obj))
        numerics = modules["numerics"]
        numerics.quad_finite = self.wrap("numerics", "quad_finite", numerics.quad_finite)

    # -- counting hooks: (fn, args, kwargs) -> (args, after) -----------------

    def _hook_quad_finite(self, fn, args, kwargs):
        tally = [0]

        def after(exc, seconds):
            self.counts["numerics.quad.calls"] += 1
            self.counts["numerics.quad.integrand_evals"] += tally[0]
            self.counts["numerics.quad.panels"] += -(-tally[0] // GK_POINTS)
            if type(exc).__name__ == "NonConvergentError":
                self.counts["numerics.quad.nonconvergent"] += 1

        return (_counting(args[0], tally), *args[1:]), after

    def _hook_euler_transform_sum(self, fn, args, kwargs):
        if not callable(args[0]):
            self.counts["numerics.euler_transform.terms"] += len(args[0])
            return args, None
        tally = [0]

        def after(exc, seconds):
            self.counts["numerics.euler_transform.terms"] += tally[0]

        return (_counting(args[0], tally), *args[1:]), after

    def _hook_richardson_limit(self, fn, args, kwargs):
        tally = [0]

        def after(exc, seconds):
            self.counts["numerics.richardson.samples"] += tally[0]

        return (_counting(args[0], tally), *args[1:]), after

    def _hook_zeta_deg_continued(self, fn, args, kwargs):
        pair = (float(args[1]), float(args[2]))
        first = pair not in self._pairs

        def after(exc, seconds):
            if exc is None:
                self._pairs.add(pair)
                self.continued.append((first, seconds))

        return args, after

    def _hook_discrepancy_experiment(self, fn, args, kwargs):
        # its own continued samples fill the kernel caches for (x, lambda)
        pair = (float(Fraction(args[1])), float(Fraction(args[2])))

        def after(exc, seconds):
            if exc is None:
                self._pairs.add(pair)

        return args, after

    def _hook_exactcore(self, fn, args, kwargs):
        if fn not in self._params:
            self._params[fn] = list(inspect.signature(fn).parameters)
        bound = dict(zip(self._params[fn], args), **kwargs)
        for key in ORDER_PARAMS:
            if isinstance(bound.get(key), int):
                self.maxima["exactcore.max_order"] = max(
                    self.maxima["exactcore.max_order"], bound[key])
        lam = bound.get("lam")
        if isinstance(lam, (int, Fraction, str)):
            bits = Fraction(lam).denominator.bit_length()
            self.maxima["exactcore.lambda_den_bits_max"] = max(
                self.maxima["exactcore.lambda_den_bits_max"], bits)
        return args, None

    # -- reduction -----------------------------------------------------------

    def raw(self) -> dict:
        """Per-layer self time and counts, in a form that sums across processes."""
        child = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        calls = Counter()
        for i, (layer, name, start, end, parent) in enumerate(self.spans):
            self_s[layer] += end - start - child[i]
            if name != "import":
                calls[layer] += 1
                calls[name] += 1
        counts = Counter(self.counts)
        counts["exactcore.calls"] += calls["exactcore"]
        counts["gammadeg.gamma_deg.calls"] += calls["gamma_deg"]
        counts["gammadeg.gamma_classical.calls"] += calls["gamma_classical"]
        for name, route in ROUTES.items():
            counts[f"zetadeg.{route}.calls"] += calls[name]
        return {"self_s": dict(self_s), "counts": dict(counts),
                "maxima": dict(self.maxima), "continued": self.continued}


def merge(raws: list) -> dict:
    """Sum the `Tracer.raw` results of several traced processes."""
    out = {"self_s": Counter(), "counts": Counter(), "maxima": Counter(), "continued": []}
    for raw in raws:
        out["self_s"].update(raw["self_s"])
        out["counts"].update(raw["counts"])
        for key, value in raw["maxima"].items():
            out["maxima"][key] = max(out["maxima"][key], value)
        out["continued"].extend(raw["continued"])
    return out


def layer_metrics(raw: dict) -> dict:
    """The traced per-layer metrics of `metrics.PER_LAYER`, from a merged raw."""
    first = [s for is_first, s in raw["continued"] if is_first]
    repeat = [s for is_first, s in raw["continued"] if not is_first]
    out = {f"{layer}.self_s": raw["self_s"].get(layer, 0.0)
           for layer in ("exactcore", "numerics", "gammadeg", "zetadeg")}
    for name in ("exactcore.calls", "numerics.quad.calls", "numerics.quad.panels",
                 "numerics.quad.integrand_evals", "numerics.quad.nonconvergent",
                 "numerics.euler_transform.terms", "numerics.richardson.samples",
                 "gammadeg.gamma_deg.calls", "gammadeg.gamma_classical.calls",
                 *(f"zetadeg.{route}.calls" for route in dict.fromkeys(ROUTES.values()))):
        out[name] = raw["counts"].get(name, 0)
    out["exactcore.max_order"] = raw["maxima"].get("exactcore.max_order", 0)
    out["exactcore.lambda_den_bits_max"] = raw["maxima"].get(
        "exactcore.lambda_den_bits_max", 0)
    out["zetadeg.continued.first_ms"] = 1e3 * statistics.median(first) if first else 0.0
    out["zetadeg.continued.repeat_ms"] = 1e3 * statistics.median(repeat) if repeat else 0.0
    out["zetadeg.repeat_share"] = len(repeat) / len(raw["continued"]) if raw["continued"] else 0.0
    return out
