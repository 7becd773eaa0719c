"""Outside-in tracing of olab: spans and counters around its public functions.

The tracer patches olab's public functions and a few methods from the outside;
the program itself is not changed.  Functions at module boundaries record a
span (name, start, end, parent span, run id).  The two hot leaf calls,
``YoungFunction.__call__`` and ``SampledFunction.ball_values``, record only
call counts, element counts and accumulated time, because a span per call
would cost more than the call.  Spans stay in memory until the run ends.

A layer is an olab module.  Its self time is the time its spans spent outside
their child spans and outside leaf calls, plus the time of its own leaf
calls.  The harness's self time is the rest of the traced wall time, so the
self times of the layers and the harness add up to the traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "characterize", "norms", "operators", "sampled", "young", "growth", "report")


def _values_size(_args, out):
    return len(out)


def _phi_size(_args, out):
    return getattr(out, "size", 1)


def _operator_cells(args, _out):
    return args[0].values.size


def _balls(args, out):
    # centers times radii of one public MorreySampling
    return len(out) * args[0].n_radii


# (module, attribute, kind, counter name, counter) -- kind "span" or "leaf".
# Counters add a per-call size to ``counts[<counter name>]``.
TARGETS = (
    ("cli", "main", "span", None, None),
    ("characterize", "estimate_operator_norm", "span", None, None),
    ("characterize", "necessity_witness", "span", None, None),
    ("characterize", "check_condition", "span", None, None),
    ("characterize", "check_membership", "span", None, None),
    ("characterize", "check_pointwise_inequalities", "span", None, None),
    ("characterize", "function_family", "span", None, None),
    ("norms", "luxemburg_norm", "span", None, None),
    ("norms", "weak_orlicz_norm", "span", None, None),
    ("norms", "generalized_orlicz_morrey_norm", "span", None, None),
    ("norms", "triviality_probe", "span", None, None),
    ("norms", "MorreySampling.centers", "span", "norms.balls", _balls),
    ("operators", "maximal", "span", "operators.cells", _operator_cells),
    ("operators", "riesz_potential", "span", "operators.cells", _operator_cells),
    ("sampled", "sample_function", "span", None, None),
    ("sampled", "SampledFunction.ball_values", "leaf", "sampled.ball_values_cells", _values_size),
    ("young", "YoungFunction.__call__", "leaf", "young.phi_elems", _phi_size),
    ("young", "YoungFunction.inverse", "span", None, None),
    ("young", "young_from_config", "span", None, None),
    ("young", "classify_growth", "span", None, None),
    ("growth", "GrowthFunction.__call__", "span", None, None),
    ("growth", "growth_from_lambda", "span", None, None),
    ("growth", "growth_from_config", "span", None, None),
    ("report", "assess", "span", None, None),
    ("report", "doubling_schedule", "span", None, None),
)

# leaf name -> per-layer metric prefix
LEAVES = {
    "sampled.SampledFunction.ball_values": "sampled.ball_values",
    "young.YoungFunction.__call__": "young.phi",
}


class Tracer:
    """Spans and counters for one traced run of a workload."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.counts = defaultdict(float)
        self.leaf_in = defaultdict(float)  # span index (-1: none) -> leaf time inside it
        self.run_id = ""
        self._stack = []
        self._in_leaf = False
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, counter_name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.run_id]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                tracer.counts[counter_name] += counter(args, out)
            return out

        return wrapper

    def _leaf(self, name, fn, counter_name, counter):
        tracer = self
        prefix = LEAVES[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._in_leaf = False
                tracer.counts[prefix + "_calls"] += 1
                tracer.counts[prefix + "_s"] += elapsed
                tracer.leaf_in[tracer._stack[-1] if tracer._stack else -1] += elapsed
            tracer.counts[counter_name] += counter(args, out)
            return out

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Patch every target in olab, wherever a module has bound it by name."""
        modules = [m for k, m in sys.modules.items() if k == "olab" or k.startswith("olab.")]
        for module, attr, kind, counter_name, counter in TARGETS:
            owner = sys.modules["olab." + module]
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = owner.__dict__[fn_name]
            make = self._span if kind == "span" else self._leaf
            wrapped = make(f"{module}.{attr}", orig, counter_name, counter)
            if cls_path:
                self._patch(owner, fn_name, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- derived metrics --------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer self times, call counts and inclusive times of one pass."""
        child = [0.0] * len(self.spans)
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        self_s = dict.fromkeys(LAYERS, 0.0)
        top = self.leaf_in[-1]
        for name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top += end - start
            calls[name] += 1
            inclusive[name] += end - start
        for i, (name, start, end, _parent, _run) in enumerate(self.spans):
            self_s[name.split(".")[0]] += end - start - child[i] - self.leaf_in[i]
        for leaf, prefix in LEAVES.items():
            self_s[leaf.split(".")[0]] += self.counts[prefix + "_s"]

        def total(*names):
            return sum(inclusive[n] for n in names)

        def count(*names):
            return sum(calls[n] for n in names)

        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({
            "norms.morrey_calls": count("norms.generalized_orlicz_morrey_norm"),
            "norms.balls": self.counts["norms.balls"],
            "operators.maximal_calls": count("operators.maximal"),
            "operators.maximal_s": total("operators.maximal"),
            "operators.riesz_calls": count("operators.riesz_potential"),
            "operators.riesz_s": total("operators.riesz_potential"),
            "operators.cells": self.counts["operators.cells"],
            "sampled.ball_values_calls": self.counts["sampled.ball_values_calls"],
            "sampled.ball_values_cells": self.counts["sampled.ball_values_cells"],
            "sampled.ball_values_s": self.counts["sampled.ball_values_s"],
            "sampled.sample_s": total("sampled.sample_function"),
            "young.phi_calls": self.counts["young.phi_calls"],
            "young.phi_elems": self.counts["young.phi_elems"],
            "young.phi_s": self.counts["young.phi_s"],
            "young.inverse_calls": count("young.YoungFunction.inverse"),
            "young.inverse_s": total("young.YoungFunction.inverse"),
            "growth.varphi_calls": count("growth.GrowthFunction.__call__"),
            "growth.varphi_s": total("growth.GrowthFunction.__call__"),
            "report.assess_calls": count("report.assess"),
            "report.assess_s": total("report.assess"),
            "harness.self_s": wall_s - top,
            "trace.wall_s": wall_s,
        })
        return out
