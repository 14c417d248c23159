"""Tracing of usdlab from the benchmark's own files, outside the package.

The tracer wraps public functions of the package at every place they are
bound: a module-level function is replaced in each ``usdlab`` module that
holds it under the same name (``experiments`` imports ``check_usd`` by
name, ``smoothness`` imports ``level_frequencies`` by name, the package
re-exports most of them), and methods are replaced on their class.  Each
call records one span ``(name, start, end, parent)`` in memory; post hooks
turn results into counters.  Nothing is written until ``write`` is called
once at the end of the traced pass.
"""

from __future__ import annotations

import collections
import contextlib
import json
import math
import os
import sys
import time

import numpy as np


class Tracer:
    """Span and counter recorder with reversible function patches."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self._traversal_rows = {}

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name, post=None, name_of=None, span=True):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not span:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(args, kwargs, result)
                return result
            label = name if name_of is None else name_of(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if post is not None:
                post(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A benchmark-side span (one job, one pass)."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    # -- patching --------------------------------------------------------

    def patch_function(self, module_name, attr, name, **hooks):
        """Replace ``module.attr`` wherever a usdlab module binds it."""
        original = getattr(sys.modules[module_name], attr)
        traced = self._wrap(original, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "usdlab"
                                   or mod_name.startswith("usdlab.")):
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, traced)

    def patch_method(self, cls, attr, name, **hooks):
        """Replace a plain method or classmethod on its class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, name, **hooks))
        else:
            replacement = self._wrap(raw, name, **hooks)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def self_times(self):
        """Per-name (calls, total self seconds); self = span minus children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = collections.Counter()
        self_s = collections.defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

    def descendants(self, ancestor, target):
        """(target spans under an ``ancestor`` span, ancestor spans)."""
        names = [s[0] for s in self.spans]
        hits = 0
        for i, name in enumerate(names):
            if name != target:
                continue
            j = self.spans[i][3]
            while j >= 0 and names[j] != ancestor:
                j = self.spans[j][3]
            hits += j >= 0
        return hits, names.count(ancestor)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def install(tracer):
    """Wrap every traced layer function; counters come from post hooks."""
    import usdlab.dictionary as dictionary
    import usdlab.entropy as entropy
    import usdlab.points as points
    import usdlab.trigpoly as trigpoly

    c = tracer.counts

    def on_check_usd(args, kwargs, cert):
        c["discretization.check_usd.subsets"] += len(cert.subsets)

    def ratio_name(args, kwargs):
        p = args[3] if len(args) > 3 else kwargs["p"]
        return ("discretization.subspace_ratio_bounds.p2" if p == 2
                else "discretization.subspace_ratio_bounds.p4")

    def on_ratio(args, kwargs, res):
        c["discretization.subspace_ratio_bounds.nonconverged"] += not res.converged

    def on_multistart(args, kwargs, res):
        c["discretization.multistart.runs"] += 1
        c["discretization.multistart.converged"] += bool(res[2])

    def on_find(args, kwargs, res):
        c["discretization.find_usd_points.draws"] += res.trials_run
        c["discretization.find_usd_points.passed"] += bool(res.passed)

    def on_trials(args, kwargs, errs):
        c["discretization.discretization_error_trials.trials"] += len(errs)

    def on_radii(args, kwargs, radii):
        sampled = args[0]
        key = id(sampled)
        done = tracer._traversal_rows.get(key, 0)
        if len(radii) > done:
            fresh = len(radii) - done
            tracer._traversal_rows[key] = len(radii)
            c["entropy.farthest_point_radii.centers"] += fresh
            c["entropy.farthest_point_radii.bytes_computed"] += (
                fresh * sampled.count * sampled.grid_size * 8)

    def on_projection(args, kwargs, res):
        inst = args[0]
        if inst.p != 2:
            c["recovery.chebyshev_projection.irls_iters"] += res.iterations
        c["recovery.chebyshev_projection.nonconverged"] += not res.converged

    def on_oracle(args, kwargs, res):
        inst = args[0]
        v = args[1] if len(args) > 1 else kwargs["v"]
        c["recovery.best_v_term_oracle.subsets"] += math.comb(inst.n_elements, v)

    def on_wcga(args, kwargs, res):
        c["recovery.weak_chebyshev_greedy.iters"] += len(res.trace)

    def on_dump(args, kwargs, res):
        path = args[1] if len(args) > 1 else kwargs["path"]
        c["jsonio.dump_path.bytes"] += os.path.getsize(path)

    fn = tracer.patch_function
    fn("usdlab.discretization", "check_usd", "discretization.check_usd",
       post=on_check_usd)
    fn("usdlab.discretization", "subspace_ratio_bounds",
       "discretization.subspace_ratio_bounds", post=on_ratio, name_of=ratio_name)
    fn("usdlab.discretization", "_multistart_extreme", "discretization.multistart",
       post=on_multistart, span=False)
    fn("usdlab.discretization", "find_usd_points",
       "discretization.find_usd_points", post=on_find)
    fn("usdlab.discretization", "discretization_error_trials",
       "discretization.discretization_error_trials", post=on_trials)
    fn("usdlab.entropy", "farthest_point_radii", "entropy.farthest_point_radii",
       post=on_radii)
    fn("usdlab.entropy", "entropy_numbers", "entropy.entropy_numbers")
    fn("usdlab.recovery", "chebyshev_projection", "recovery.chebyshev_projection",
       post=on_projection)
    fn("usdlab.recovery", "best_v_term_oracle", "recovery.best_v_term_oracle",
       post=on_oracle)
    fn("usdlab.recovery", "weak_chebyshev_greedy", "recovery.weak_chebyshev_greedy",
       post=on_wcga)
    fn("usdlab.recovery", "recovery_pipeline", "recovery.recovery_pipeline")
    fn("usdlab.recovery", "block_greedy_approximant",
       "recovery.block_greedy_approximant")
    fn("usdlab.smoothness", "level_budget_element",
       "smoothness.level_budget_element")
    fn("usdlab.frequencies", "level_frequencies", "frequencies.level_frequencies")
    fn("usdlab.trigpoly", "lp_norm", "trigpoly.lp_norm")
    fn("usdlab.experiments", "run", "experiments.run")
    fn("usdlab.jsonio", "dump_path", "jsonio.dump_path", post=on_dump)
    fn("usdlab.cli", "main", "cli.main")

    m = tracer.patch_method
    m(dictionary.Dictionary, "values_at", "dictionary.values_at")
    m(dictionary.Dictionary, "continuous_gram", "dictionary.continuous_gram")
    m(trigpoly.TrigPolynomial, "evaluate", "trigpoly.TrigPolynomial.evaluate")
    m(entropy.SampledClass, "from_l1_ball", "entropy.SampledClass.from_l1_ball")
    m(points.PointSet, "random_uniform", "points.PointSet.random_uniform")


SPAN_METRICS = (
    ("dictionary.values_at", ("calls", "self_s")),
    ("dictionary.continuous_gram", ("calls", "self_s")),
    ("discretization.subspace_ratio_bounds.p2", ("self_s",)),
    ("discretization.subspace_ratio_bounds.p4", ("self_s",)),
    ("discretization.discretization_error_trials", ("self_s",)),
    ("entropy.SampledClass.from_l1_ball", ("self_s",)),
    ("entropy.farthest_point_radii", ("self_s",)),
    ("entropy.entropy_numbers", ("self_s",)),
    ("recovery.chebyshev_projection", ("calls", "self_s")),
    ("recovery.best_v_term_oracle", ("calls", "self_s")),
    ("recovery.weak_chebyshev_greedy", ("self_s",)),
    ("recovery.recovery_pipeline", ("calls",)),
    ("recovery.block_greedy_approximant", ("self_s",)),
    ("smoothness.level_budget_element", ("self_s",)),
    ("frequencies.level_frequencies", ("calls", "self_s")),
    ("trigpoly.lp_norm", ("calls", "self_s")),
    ("trigpoly.TrigPolynomial.evaluate", ("calls", "self_s")),
    ("points.PointSet.random_uniform", ("calls", "self_s")),
    ("experiments.run", ("self_s",)),
    ("jsonio.dump_path", ("self_s",)),
    ("cli.main", ("self_s",)),
)

COUNT_METRICS = (
    "discretization.check_usd.subsets",
    "discretization.subspace_ratio_bounds.nonconverged",
    "discretization.find_usd_points.draws",
    "discretization.discretization_error_trials.trials",
    "entropy.farthest_point_radii.centers",
    "entropy.farthest_point_radii.bytes_computed",
    "recovery.chebyshev_projection.irls_iters",
    "recovery.chebyshev_projection.nonconverged",
    "recovery.best_v_term_oracle.subsets",
    "recovery.weak_chebyshev_greedy.iters",
    "jsonio.dump_path.bytes",
)


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith("gbps_computed"):
        return "GB/s"
    if name.endswith("_ratio") or "_per_" in name:
        return "1"
    return "count"


def layer_metrics(tracer):
    """Flat per-layer metrics; layers a workload never calls read 0."""
    calls, self_s = tracer.self_times()
    c = tracer.counts
    out = {}
    for name, kinds in SPAN_METRICS:
        for kind in kinds:
            out[f"{name}.{kind}"] = (float(calls[name]) if kind == "calls"
                                     else float(self_s.get(name, 0.0)))
    for name in COUNT_METRICS:
        out[name] = float(c[name])
    runs = c["discretization.multistart.runs"]
    out["discretization.multistart.converged_ratio"] = (
        c["discretization.multistart.converged"] / runs if runs else 0.0)
    draws = c["discretization.find_usd_points.draws"]
    out["discretization.find_usd_points.pass_ratio"] = (
        c["discretization.find_usd_points.passed"] / draws if draws else 0.0)
    busy = self_s.get("entropy.farthest_point_radii", 0.0)
    out["entropy.farthest_point_radii.gbps_computed"] = (
        c["entropy.farthest_point_radii.bytes_computed"] / busy / 1e9
        if busy > 0 else 0.0)
    # the counts the current code structure implies, pinned per caller
    for metric, ancestor, target in (
            ("discretization.check_usd.p2.values_at_per_certificate",
             "bench.job.usd-verify.p2", "dictionary.values_at"),
            ("discretization.check_usd.p2.ratio_calls_per_certificate",
             "bench.job.usd-verify.p2", "discretization.subspace_ratio_bounds.p2"),
            ("recovery.best_v_term_oracle.projections_per_call",
             "recovery.best_v_term_oracle", "recovery.chebyshev_projection"),
            ("recovery.recovery_pipeline.oracle_per_call",
             "recovery.recovery_pipeline", "recovery.best_v_term_oracle")):
        hits, roots = tracer.descendants(ancestor, target)
        out[metric] = hits / roots if roots else 0.0
    out["recovery.recovery_pipeline.oracle_calls"] = tracer.descendants(
        "recovery.recovery_pipeline", "recovery.best_v_term_oracle")[0]
    out["trace.spans"] = float(len(tracer.spans))
    return {k: (float(v) if np.isfinite(v) else 0.0) for k, v in out.items()}
