"""Spans around the calls into each cmbethe module, from outside the package.

``Tracer.install`` replaces every public function of each layer module, in
every module namespace that holds it, with a wrapper that records a span:
name, layer, start, end, parent span, item id, whether a ``CmError`` left
the call, and a size (points evaluated, accepted steps or basis size,
depending on the function).  ``JackExpansion.evaluate`` and the evaluator
that ``states.symmetrize`` returns are wrapped as well.  Spans are recorded
only while ``Tracer.on`` is set, are kept in memory, and are written out by
``Tracer.write`` once the pass is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

import numpy as np

LAYERS = ("elliptic", "weights", "master", "critical", "states", "jack",
          "perturb", "cli")

NAME, LAYER, START, END, PARENT, ITEM, ERROR, SIZE = range(8)


def _points(args) -> int:
    """Points in the array arguments of an elliptic function."""
    return max((int(np.size(a)) for a in args
                if isinstance(a, (np.ndarray, list, tuple, int, float, complex))),
               default=0)


def _rows(x) -> int:
    """Points in an evaluator argument: a point (N,) or a batch (M, N)."""
    shape = np.shape(x)
    return 1 if len(shape) < 2 else shape[0]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                        for layer in LAYERS}
        self.error_type = package.CmError
        self.spans: list = []
        self._stack: list = []
        self.on = False
        self.item = None

    def _wrap(self, fn, layer, name, *, arg_size=None, result_size=None,
              post=None):
        spans, stack, error_type = self.spans, self._stack, self.error_type

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                result = fn(*args, **kwargs)
                return post(result) if post else result
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    self.item, 0, arg_size(args) if arg_size else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                span[ERROR] = 1
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if result_size:
                span[SIZE] = result_size(result)
            return post(result) if post else result

        return traced

    def install(self) -> None:
        special = {
            "critical.continue_nome": {"result_size": lambda path: len(path.steps) - 1},
            "perturb.reachable_partitions": {"result_size": len},
            "states.symmetrize": {"post": lambda ev: self._wrap(
                ev, "states", "states.symmetrize.evaluator",
                arg_size=lambda args: _rows(args[0]))},
        }
        wrapped = {}
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                opts = special.get(name, {})
                if layer == "elliptic":
                    opts = {"arg_size": _points}
                wrapped[obj] = self._wrap(obj, layer, name, **opts)
        for ns in (self.package, *self.modules.values()):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(ns, attr, wrapped[obj])
        jack_cls = self.modules["jack"].JackExpansion
        jack_cls.evaluate = self._wrap(jack_cls.evaluate, "jack",
                                       "jack.JackExpansion.evaluate",
                                       arg_size=lambda args: _rows(args[1]))

    def jack_cache_counts(self) -> tuple:
        """(hits, misses) of the Jack expansion cache; (0, 0) without one."""
        cached = getattr(self.modules["jack"], "_jack_expand_cached", None)
        info = cached.cache_info() if hasattr(cached, "cache_info") else None
        return (info.hits, info.misses) if info else (0, 0)

    def layer_metrics(self, n_items: int, jack_hits: int, jack_misses: int) -> dict:
        """Per-layer counts and times of the recorded spans.

        ``<layer>.calls`` counts spans, nested ones included; ``busy_s`` sums
        the spans with no enclosing span of the same layer; ``self_s`` sums
        span time minus the time of child spans; ``errors`` counts CmErrors
        raised out of a call, caught later or not.  ``step_accept_ratio`` is
        accepted continuation steps over the Newton corrections
        ``continue_nome`` attempted, and ``expand_cache_hit_ratio`` the hit
        share of the Jack expansion cache while the items ran; both read 0
        when nothing was attempted.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out = {}
        for layer in LAYERS:
            out.update({f"{layer}.calls": 0, f"{layer}.busy_s": 0.0,
                        f"{layer}.self_s": 0.0, f"{layer}.errors": 0})
        by_name: dict = {}
        for i, s in enumerate(spans):
            layer, dur = s[LAYER], s[END] - s[START]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += dur - child[i]
            out[f"{layer}.errors"] += s[ERROR]
            parent = s[PARENT]
            while parent >= 0 and spans[parent][LAYER] != layer:
                parent = spans[parent][PARENT]
            if parent < 0:                      # outermost span of its layer
                out[f"{layer}.busy_s"] += dur
            rec = by_name.setdefault(s[NAME], [0, 0.0, 0])
            rec[0] += 1
            rec[1] += dur
            rec[2] += s[SIZE]

        def count(name):
            return by_name.get(name, (0, 0.0, 0))[0]

        def seconds(name):
            return by_name.get(name, (0, 0.0, 0))[1]

        def size(name):
            return by_name.get(name, (0, 0.0, 0))[2]

        elliptic_points = sum(s[SIZE] for s in spans if s[LAYER] == "elliptic")
        corrections = sum(1 for s in spans if s[NAME] == "master.newton_polish_tau"
                          and s[PARENT] >= 0
                          and spans[s[PARENT]][NAME] == "critical.continue_nome")
        lookups = jack_hits + jack_misses
        n_bases = count("perturb.reachable_partitions")
        out.update({
            "elliptic.points_per_call":
                elliptic_points / out["elliptic.calls"] if out["elliptic.calls"] else 0.0,
            "master.grad_evals":
                count("master.log_phi_tau_grad") + count("master.log_phi_tri_grad"),
            "master.hessian_evals":
                count("master.hessian_tau") + count("master.hessian_tri"),
            "master.eigenvalue_calls": count("master.eigenvalue_elliptic"),
            "critical.searches_per_item":
                count("critical.find_admissible_critical_point") / n_items,
            "critical.continuations_per_item":
                count("critical.continue_nome") / n_items,
            "critical.step_accept_ratio":
                size("critical.continue_nome") / corrections if corrections else 0.0,
            "states.points_evaluated": size("states.symmetrize.evaluator"),
            "states.residual_s": seconds("states.residual_check"),
            "jack.expand_calls": count("jack.jack_expand"),
            "jack.expand_cache_hit_ratio": jack_hits / lookups if lookups else 0.0,
            "jack.eval_points": size("jack.JackExpansion.evaluate"),
            "perturb.basis_size":
                size("perturb.reachable_partitions") / n_bases if n_bases else 0.0,
            "perturb.potential_s": seconds("perturb.potential_coeffs"),
            "perturb.crosscheck_s": seconds("perturb.bethe_crosscheck"),
        })
        return out

    def write(self, path) -> None:
        """One tab-separated line per span; times in seconds from the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name\tlayer\tstart_s\tend_s\tparent\titem\terror\tsize\n")
            for s in self.spans:
                fh.write(f"{s[NAME]}\t{s[LAYER]}\t{s[START] - t0:.9f}\t"
                         f"{s[END] - t0:.9f}\t{s[PARENT]}\t{s[ITEM]}\t"
                         f"{s[ERROR]}\t{s[SIZE]}\n")
