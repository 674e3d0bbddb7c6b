"""Span tracing of regmatch's public functions, installed at their import bindings.

A `Tracer` finds every public function defined in the package's layer modules
(plus the few private functions that other modules import by name) and, while
installed, replaces each binding of that function object in every regmatch
module with a wrapper that records a span: name, start, end and parent span.
`src/` is not edited; the wrappers live here and are removed after each
traced pass.

Self time of a span is its duration minus the durations of its direct
children.  Methods of classes (Graph, Poly, Enclosure) and private helpers
are not wrapped, so their time counts toward the wrapped function that
called them.  Time outside every span is harness time.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("graphs", "matchpoly", "certified", "series_bounds", "polynomials",
          "walks", "necklace", "minimax", "polytope", "cli")

# private functions that another module imports by name and that carry the
# layer's work (matchpoly computes its memo keys with the canonical search)
_PRIVATE_ENTRY_POINTS = {"graphs": ("_canonical_order_masks",)}

# per-layer self-time metrics: metric -> wrapped functions whose self time it sums
SELF_TIME = {
    "graphs.generate_s": ("graphs.generate_connected_regular",),
    "graphs.canonical_key_s": ("graphs.canonical_key", "graphs.canonical_order",
                               "graphs.canonical_form", "graphs.automorphism_count",
                               "graphs.isomorphic", "graphs._canonical_order_masks"),
    "graphs.max_matching_s": ("graphs.max_matching",),
    "matchpoly.value_s": ("matchpoly.gen_poly_value",),
    "matchpoly.poly_s": ("matchpoly.matching_counts", "matchpoly.matching_gen_poly",
                         "matchpoly.matching_poly_mu"),
    "certified.log_enclosure_s": ("certified.log_enclosure",),
    "series_bounds.verify_s": ("series_bounds.verify_inequality",),
    "series_bounds.compare_s": ("series_bounds.compare_log_per_vertex",),
    "series_bounds.sandwich_s": ("series_bounds.negative_lambda_sandwich",
                                 "series_bounds.tree_closed_form"),
    "polynomials.sturm_s": ("polynomials.count_real_roots_with_multiplicity",
                            "polynomials.count_distinct_real_roots",
                            "polynomials.sturm_chain", "polynomials.squarefree_part",
                            "polynomials.squarefree_decomposition",
                            "polynomials.poly_gcd", "polynomials.poly_divmod"),
    "walks.walk_total_s": ("walks.tree_like_walk_total", "walks.closed_walks_at_root"),
    "walks.path_tree_s": ("walks.build_path_tree",),
    "walks.power_sums_s": ("walks.graph_power_sums", "walks.power_sums_newton",
                           "walks.infinite_tree_power_sums"),
    "necklace.transfer_s": ("necklace.transfer_matrix", "necklace.discriminant",
                            "necklace.reduced_discriminant"),
    "necklace.trace_s": ("necklace.necklace_partition_via_trace",),
    "necklace.critical_constant_s": ("necklace.critical_constant",),
    "necklace.qd_s": ("necklace.qd_recursive", "necklace.qd_direct",
                      "necklace.qd_alternate", "necklace.pd_direct"),
    "minimax.remez_s": ("minimax.remez_best_approx",),
    "minimax.lambda_interval_s": ("minimax.lambda_interval",),
    "minimax.ladder_s": ("minimax.ladder_verify",),
    "polytope.edmonds_s": ("polytope.edmonds_check",),
    "polytope.bound_s": ("polytope.matching_lower_bound_check",
                         "polytope.even_d_threshold"),
    "cli.main_s": ("cli.main", "cli.build_parser"),
}

# per-layer call counts: metric -> wrapped functions whose calls it counts
CALLS = {
    "graphs.canonical_calls": ("graphs._canonical_order_masks",),
    "matchpoly.value_calls": ("matchpoly.gen_poly_value",),
    "matchpoly.poly_calls": SELF_TIME["matchpoly.poly_s"],
    "certified.log_enclosure_calls": ("certified.log_enclosure",),
    "polynomials.sturm_calls": ("polynomials.count_real_roots_with_multiplicity",),
}


def _count_verdict(tracer: "Tracer", report) -> None:
    tracer.counts["series_bounds.verdicts"] += 1
    if report.bits > tracer.default_bits:
        tracer.counts["series_bounds.escalated"] += 1


# work counts read from return values: wrapped function -> hook(tracer, result)
_RETURN_HOOKS = {
    "graphs.generate_connected_regular":
        lambda t, r: t.counts.update({"graphs.generated": len(r)}),
    "walks.build_path_tree":
        lambda t, r: t.counts.update({"walks.path_tree_nodes": r.size}),
    "minimax.remez_best_approx":
        lambda t, r: t.counts.update({"minimax.remez_iterations": r.iterations}),
    "polytope.edmonds_check":
        lambda t, r: t.counts.update({"polytope.odd_sets_checked": r.subsets_checked}),
    "series_bounds.verify_inequality": _count_verdict,
    "series_bounds.negative_lambda_sandwich": _count_verdict,
}

# accounting limits, see Tracer.summarize; traced runs of all three workloads,
# full and small, stay inside them (coverage 0.992 or more, time outside the
# spans 0.012 of the pass or less)
COVERAGE_MIN = 0.98
HARNESS_MAX = 0.02

RETURN_COUNTS = ("graphs.generated", "walks.path_tree_nodes", "minimax.remez_iterations",
                 "polytope.odd_sets_checked", "series_bounds.verdicts",
                 "series_bounds.escalated")


def _traceable(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


class Tracer:
    """Records spans around regmatch's functions while installed."""

    def __init__(self):
        self.default_bits = sys.modules["regmatch.certified"].DEFAULT_BITS
        self.counts: Counter = Counter()
        self._names: list[str] = []
        self._reset_spans()
        targets: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"regmatch.{layer}"]
            private = _PRIVATE_ENTRY_POINTS.get(layer, ())
            for attr, obj in vars(mod).items():
                if (_traceable(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in private)):
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {key: self._wrap(name, obj) for key, (name, obj) in targets.items()}
        self.wrapped = sorted(name for name, _ in targets.values())
        self._patches = []
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "regmatch":
                continue
            for attr, obj in list(vars(mod).items()):
                target = targets.get(id(obj))
                if target is not None and target[1] is obj:
                    self._patches.append((mod, attr, obj, wrappers[id(obj)]))
        referenced = {fn for fns in (*SELF_TIME.values(), *CALLS.values()) for fn in fns}
        # names a metric refers to but the package no longer defines
        self.missing = sorted((referenced | set(_RETURN_HOOKS)) - set(self.wrapped))

    def _reset_spans(self) -> None:
        self._name_of: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._parent: list[int] = []
        self._stack: list[int] = []
        self.counts.clear()

    def _wrap(self, name: str, fn):
        name_id = len(self._names)
        self._names.append(name)
        hook = _RETURN_HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            start = tracer._start
            span = len(start)
            tracer._name_of.append(name_id)
            tracer._parent.append(stack[-1] if stack else -1)
            tracer._end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end[span] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    def install(self) -> None:
        self._reset_spans()
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def summarize(self, wall: float, windows: list[tuple[float, float]]
                  ) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of the spans recorded since install(), and a list
        of accounting errors.

        `windows` are the items' (start, end) times, taken by the workload
        around each item, outside the wrappers.  The top-level spans inside
        them must cover at least COVERAGE_MIN of their time, and the time
        outside every span must stay below HARNESS_MAX of the pass: work that
        escapes the wrappers (a function left unwrapped, a span lost) shows
        up in one of the two."""
        names, start, end, parent = self._names, self._start, self._end, self._parent
        name_of = self._name_of
        n = len(start)
        child_time = [0.0] * n
        log_children = [0] * n
        ids = {name: i for i, name in enumerate(names)}
        log_id = ids.get("certified.log_enclosure")
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_time[p] += end[i] - start[i]
                if name_of[i] == log_id:
                    log_children[p] += 1
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i in range(n):
            name = names[name_of[i]]
            self_time[name] += end[i] - start[i] - child_time[i]
            calls[name] += 1
        # top-level spans, in start order, against the item windows
        roots = [i for i in range(n) if parent[i] < 0]
        root_time = sum(end[i] - start[i] for i in roots)
        covered, j = 0.0, 0
        for w0, w1 in windows:
            while j < len(roots) and start[roots[j]] < w0:
                j += 1
            while j < len(roots) and end[roots[j]] <= w1:
                covered += end[roots[j]] - start[roots[j]]
                j += 1
        item_time = sum(w1 - w0 for w0, w1 in windows)
        harness = wall - root_time
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(t for name, t in self_time.items()
                                             if name.startswith(layer + "."))
        for metric, fns in SELF_TIME.items():
            metrics[metric] = sum(self_time.get(fn, 0.0) for fn in fns)
        for metric, fns in CALLS.items():
            metrics[metric] = sum(calls.get(fn, 0) for fn in fns)
        for metric in RETURN_COUNTS:
            metrics[metric] = self.counts.get(metric, 0)
        verdicts = metrics["series_bounds.verdicts"]
        metrics["series_bounds.first_try_frac"] = (
            1 - metrics["series_bounds.escalated"] / verdicts if verdicts else 0.0)
        compare = ids.get("series_bounds.compare_log_per_vertex")
        per_compare = [log_children[i] for i in range(n)
                       if name_of[i] == compare and log_children[i]]
        metrics["certified.log_calls_per_verdict"] = (
            sum(per_compare) / len(per_compare) if per_compare else 0.0)
        metrics["trace.wall_s"] = wall
        metrics["trace.harness_s"] = harness
        metrics["trace.item_coverage"] = covered / item_time if item_time else 0.0
        metrics["trace.spans"] = n
        errors = []
        if metrics["trace.item_coverage"] < COVERAGE_MIN:
            errors.append(f"spans cover {metrics['trace.item_coverage']:.4f} of the item time"
                          f" (at least {COVERAGE_MIN} expected)")
        if harness > HARNESS_MAX * wall:
            errors.append(f"time outside every span is {harness / wall:.4f} of the pass"
                          f" (at most {HARNESS_MAX} expected)")
        return metrics, errors
