"""Outside-in layer spans and exact counters for treerank.

`Tracer.install()` replaces the public functions of each treerank module
with timing wrappers, in every module namespace that holds them (the CLI
imports names with `from .x import y`, so patching only the defining
module would miss its calls).  The value types whose arithmetic is a
layer's real work, `ExactConst` (constants) and `EgfSeries` (series), get
their public methods and operators wrapped as well.  No code under `src/`
is changed.

A span's self time is its duration minus the time its child spans cover,
so the layer self times add up to the traced wall time; what they miss is
reported as `trace.unattributed_s`.  The generator `enumerate_trees` is
timed per resumption, so iterating it is charged to `enumeration` rather
than to whoever consumes it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "series", "counting", "enumeration", "constants", "limits")

# Classes whose methods are wrapped too; their arithmetic is the layer's work.
VALUE_TYPES = {"constants": "ExactConst", "series": "EgfSeries"}
# Constructors and reprs are charged to whoever builds or prints the value.
UNWRAPPED_METHODS = {"__init__", "__repr__"}
EXACT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
             "__mul__", "__rmul__", "__truediv__")

CACHED = {
    "base_series": "series",
    "tree_counts": "series",
    "root_rank_counts": "counting",
    "census": "enumeration",
    "limit_subtree_prob": "limits",
}

# Each call walks every non-plane tree of size n once.
ONECHILD_PASSES = ("weighted_onechild_mean", "plane_multiplicity_total")


def _misses(info) -> int:
    """Cache misses, or 0 when the function is gone or no longer cached."""
    return info.misses if info else 0


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    """Self time and call counts per layer, plus exact work counters."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.fn_calls: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self.iv_rounds = 0
        self.iv_max_prec = 0
        self.lower_terms = 0
        self.lower_coeff_bits = 0
        self.passes = 0
        self.trees_visited = 0
        self._onechild_sizes: list[int] = []
        self._cached: dict[str, object] = {}

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn):
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        fn_calls = self.fn_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fn_calls[qualname] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur

        return wrapper

    def _wrap_enumerate_trees(self, qualname: str, fn):
        """Time every resumption of the generator and count trees and passes."""
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        fn_calls = self.fn_calls

        def resumptions(gen):
            try:
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    start = clock()
                    finished = False
                    try:
                        item = next(gen)
                    except StopIteration:
                        finished = True
                    finally:
                        dur = clock() - start
                        stack.pop()
                        self_s["enumeration"] += dur - frame[0]
                        if stack:
                            stack[-1][0] += dur
                    if finished:
                        self.passes += 1
                        return
                    self.trees_visited += 1
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fn_calls[qualname] += 1
            return resumptions(fn(*args, **kwargs))

        return wrapper

    # -- hooks that read counters from outside -----------------------------

    def _hook_iv_enclosure(self, fn):
        def iv_enclosure(builder, digits, *args, **kwargs):
            def counted(ctx):
                self.iv_rounds += 1
                self.iv_max_prec = max(self.iv_max_prec, ctx.prec)
                return builder(ctx)

            return fn(counted, digits, *args, **kwargs)

        return functools.wraps(fn)(iv_enclosure)

    def _hook_bound_interval(self, fn):
        def bound_interval(*args, **kwargs):
            report = fn(*args, **kwargs)
            terms = report.lower.terms
            self.lower_terms = max(self.lower_terms, len(terms))
            bits = max((_bits(x) for pair in terms.values() for x in pair), default=0)
            self.lower_coeff_bits = max(self.lower_coeff_bits, bits)
            return report

        return functools.wraps(fn)(bound_interval)

    def _hook_census(self, fn):
        def census(*args, **kwargs):
            misses = fn.cache_info().misses
            result = fn(*args, **kwargs)
            if fn.cache_info().misses > misses:
                self.passes += 1
                self.trees_visited += result.tree_count
            return result

        return functools.wraps(fn)(census)

    def _hook_onechild(self, fn):
        def onechild(n, *args, **kwargs):
            result = fn(n, *args, **kwargs)
            self.passes += 1
            self._onechild_sizes.append(n)
            return result

        return functools.wraps(fn)(onechild)

    # -- installation ------------------------------------------------------

    def _public_functions(self, module):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                yield name, obj

    def _wrap_function(self, layer: str, name: str, fn):
        qualname = f"{layer}.{name}"
        if CACHED.get(name) == layer:
            self._cached[name] = fn
        if name == "enumerate_trees":
            return self._wrap_enumerate_trees(qualname, fn)
        inner = fn
        if name == "iv_enclosure":
            inner = self._hook_iv_enclosure(fn)
        elif name == "bound_interval":
            inner = self._hook_bound_interval(fn)
        elif name == "census":
            inner = self._hook_census(fn)
        elif name in ONECHILD_PASSES:
            inner = self._hook_onechild(fn)
        return self._wrap(layer, qualname, inner)

    def _wrap_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name in UNWRAPPED_METHODS:
                continue
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                continue
            qualname = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(layer, qualname, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(layer, qualname, attr))

    def install(self) -> None:
        """Wrap every layer's public functions wherever treerank holds them."""
        modules = {layer: sys.modules[f"treerank.{layer}"] for layer in LAYERS}
        replacements = {}
        for layer, module in modules.items():
            for name, fn in self._public_functions(module):
                replacements[id(fn)] = (fn, self._wrap_function(layer, name, fn))
        for name, module in list(sys.modules.items()):
            if name != "treerank" and not name.startswith("treerank."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        for layer, cls_name in VALUE_TYPES.items():
            self._wrap_class(layer, getattr(modules[layer], cls_name))

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics for one traced run.

        Times, caches and counters are read before the tree counts below
        call into treerank again.
        """
        self_s = dict(self.self_s)
        caches = {name: self._cached[name].cache_info() if name in self._cached else None
                  for name in CACHED}
        calls = dict.fromkeys(LAYERS, 0)
        for qualname, n in self.fn_calls.items():
            calls[qualname.split(".", 1)[0]] += n
        exact_ops = sum(self.fn_calls[f"constants.ExactConst.{op}"] for op in EXACT_OPS)
        trees = self.trees_visited
        if self._onechild_sizes:
            from treerank.variety import TreeVariety

            counts = self._cached["tree_counts"](TreeVariety.NONPLANE, max(self._onechild_sizes))
            trees += sum(counts[n] for n in self._onechild_sizes)

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
        out.update({
            "enumeration.passes": self.passes,
            "enumeration.trees_visited": trees,
            "counting.root_table_builds": _misses(caches["root_rank_counts"]),
            "series.base_series_builds": _misses(caches["base_series"]),
            "series.ode_solves": self.fn_calls["series.solve_linear_ode"],
            "constants.enclosures": self.fn_calls["constants.iv_enclosure"],
            "constants.iv_rounds": self.iv_rounds,
            "constants.iv_max_prec_bits": self.iv_max_prec,
            "constants.exact_ops": exact_ops,
            "limits.lower_terms": self.lower_terms,
            "limits.lower_coeff_bits": self.lower_coeff_bits,
        })
        for name, info in caches.items():
            lookups = info.hits + info.misses if info else 0
            out[f"cache.{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["trace.unattributed_s"] = wall_s - sum(self_s.values())
        return out
