"""Span tracing for the traced benchmark pass.

`Tracer.install(package)` replaces every public fragbox function with a
wrapper, under its name in the defining module and in every fragbox module
that imported it, so calls between layers nest as spans with parents.  Spans
are aggregated in memory as they close, per name and per (parent, name) edge;
a span's self time is its duration minus the time of its child spans.  Work
counts are read from return values after the span has closed.

The layers are the fragbox modules; `cli` belongs to `harness`.  Time spent
in the benchmark's own code inside an item is the `bench` layer (glue).
"""

import functools
import inspect
import pkgutil
import importlib
import time

LAYERS = ("partitions", "paintbox", "dislocation", "growth", "spine",
          "treemetric", "harness")

# per-layer metric group -> (the public functions whose spans it sums, the
# fields reported).  `calls` and `self_s` come from spans; the other fields
# are work counts.
METRICS = {
    "partitions.all_partitions": (("partitions.all_partitions",), ("calls", "self_s", "items")),
    "partitions.classify": (("partitions.classify_exchangeability",), ("self_s",)),
    "paintbox.cylinder": (("paintbox.kingman_cylinder_prob",), ("calls", "self_s")),
    "paintbox.modified_sample": (("paintbox.modified_paintbox_sample",), ("calls", "self_s")),
    "paintbox.gnedin": (("paintbox.gnedin_constrained_run",), ("calls", "self_s", "records")),
    "dislocation.splitting_rule": (("dislocation.splitting_rule",), ("calls", "self_s", "rows")),
    "dislocation.rate": (("dislocation.rate",), ("self_s",)),
    "dislocation.rate_closed_form": (("dislocation.rate_closed_form",), ("self_s",)),
    "dislocation.consistency": (("dislocation.consistency_residual",), ("self_s",)),
    "dislocation.alphagamma_oracle": (("dislocation.alphagamma_growth_split_oracle",),
                                      ("self_s",)),
    "dislocation.sample_split": (("dislocation.sample_split",), ("calls", "self_s")),
    "growth.grow_alphagamma": (("growth.grow_alphagamma",), ("calls", "self_s", "leaves")),
    "growth.fragmentation_tree": (("growth.sample_fragmentation_tree",),
                                  ("calls", "self_s", "leaves")),
    "growth.reduced_tree": (("growth.reduced_tree",), ("self_s",)),
    "growth.tree_stats": (("growth.leaf_depths", "growth.tree_height", "growth.mean_depth",
                           "growth.spine_depth", "growth.special_branch_count"), ("self_s",)),
    "growth.delete_leaf": (("growth.delete_leaf", "growth.delete_uniform_leaf"), ("self_s",)),
    "spine.subordinator": (("spine.simulate_subordinator",), ("calls", "self_s", "events")),
    "spine.sample_kn": (("spine.sample_Kn",), ("self_s",)),
    "spine.limit_functional": (("spine.pjs_limit_functional",), ("self_s",)),
    "spine.renewal": (("spine.renewal_moment",), ("self_s",)),
    "spine.reduced_crt": (("spine.sample_reduced_crt",), ("calls", "self_s")),
    "treemetric.gh": (("treemetric.gh_distance_rooted",), ("calls", "self_s", "vertex_pairs")),
    "treemetric.gh_upper_bound": (("treemetric.gh_upper_bound",), ("self_s",)),
    "treemetric.scaling_exponent": (("treemetric.scaling_exponent",), ("self_s",)),
    "harness.gate": (("harness.gof_gate",), ("calls", "self_s", "strikes")),
    "harness.run_experiment": (("harness.run_experiment",), ("calls", "self_s")),
    "harness.persist": ((), ("bytes",)),
}

GLUE = "bench.glue"


def _count_partitions(tracer, original, before, result):
    # only a cache miss enumerates; a hit returns the stored tuple
    if original.cache_info().misses > before:
        tracer.count("partitions.all_partitions.items", len(result))


# function -> work count taken from its return value
_COUNTERS = {
    "dislocation.splitting_rule":
        lambda tr, r: tr.count("dislocation.splitting_rule.rows", len(r.probs)),
    "paintbox.gnedin_constrained_run":
        lambda tr, r: tr.count("paintbox.gnedin.records", r[0]),
    "growth.grow_alphagamma":
        lambda tr, r: tr.count("growth.grow_alphagamma.leaves", r.n),
    "growth.sample_fragmentation_tree":
        lambda tr, r: tr.count("growth.fragmentation_tree.leaves", r.n),
    "spine.simulate_subordinator":
        lambda tr, r: tr.count("spine.subordinator.events", len(r.events)),
    "harness.gof_gate":
        lambda tr, r: tr.count("harness.gate.strikes", len(r[1])),
}


def layer_of(key):
    mod = key.split(".", 1)[0]
    return "harness" if mod == "cli" else mod


class Tracer:
    """In-memory span aggregator; one per traced pass."""

    def __init__(self, counts):
        self.counts = counts        # shared with the workload's own counters
        self.stack = []             # open spans: [key, child_s, start]
        self.stats = {}             # key -> [calls, total_s, self_s]
        self.edges = {}             # (parent key, key) -> [calls, total_s]
        self.wrapped = 0

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def _close(self, frame, now):
        key, child, t0 = frame
        dur = now - t0
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][1] += dur
        s = self.stats.setdefault(key, [0, 0.0, 0.0])
        s[0] += 1
        s[1] += dur
        s[2] += dur - child
        e = self.edges.setdefault((parent, key), [0, 0.0])
        e[0] += 1
        e[1] += dur

    def unwind(self, depth):
        """Close every span above depth: the caller's own span, and any
        span that an exception left open above it."""
        now = time.perf_counter()
        stack = self.stack
        while len(stack) > depth:
            self._close(stack.pop(), now)

    def span(self, key, fn, *args):
        """Run fn(*args) as a span named key (used for the benchmark's glue)."""
        depth = len(self.stack)
        self.stack.append([key, 0.0, time.perf_counter()])
        try:
            return fn(*args)
        finally:
            self.unwind(depth)

    def _wrap(self, key, fn):
        counter = _COUNTERS.get(key)
        is_cached = hasattr(fn, "cache_info")
        stack = self.stack
        unwind = self.unwind
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = fn.cache_info().misses if is_cached else 0
            depth = len(stack)
            stack.append([key, 0.0, clock()])
            try:
                result = fn(*args, **kwargs)
            finally:
                unwind(depth)
            if counter is not None:
                counter(self, result)
            elif is_cached and key == "partitions.all_partitions":
                _count_partitions(self, fn, before, result)
            return result

        return wrapper

    def install(self, package):
        """Wrap every public function of the package's modules in place."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)]
        wrappers = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(package.__name__ + "."):
                    continue
                if id(obj) not in wrappers:
                    key = f"{home.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(key, obj)
                setattr(mod, name, wrappers[id(obj)])
        self.wrapped = len(wrappers)

    def report(self, wall_s):
        """Per-layer metrics of one traced pass, keyed by metric name."""
        out = {}
        for group, (keys, fields) in METRICS.items():
            spans = [self.stats.get(k, (0, 0.0, 0.0)) for k in keys]
            for field in fields:
                if field == "calls":
                    out[f"{group}.calls"] = sum(s[0] for s in spans)
                elif field == "self_s":
                    out[f"{group}.self_s"] = sum(s[2] for s in spans)
                else:
                    out[f"{group}.{field}"] = self.counts.get(f"{group}.{field}", 0)
        layer_self = {layer: 0.0 for layer in LAYERS}
        glue = 0.0
        for key, (_, _, self_s) in self.stats.items():
            if key == GLUE:
                glue += self_s
            else:
                layer_self[layer_of(key)] += self_s
        for layer, v in layer_self.items():
            out[f"layer.{layer}.self_s"] = v
        out["layer.bench.self_s"] = glue
        out["trace.accounted_frac"] = (sum(layer_self.values()) + glue) / wall_s
        return out

    def edge_table(self, limit=25):
        """The heaviest (parent -> child) span edges, for the printed report."""
        rows = sorted(self.edges.items(), key=lambda kv: -kv[1][1])[:limit]
        return [[p or "-", k, c, t] for (p, k), (c, t) in rows]
