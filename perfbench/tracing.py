"""Spans recorded from outside the program and the per-layer metrics they give.

A traced pass wraps every public call the benchmark makes into a `ccfg`
layer, and rebinds the public names that the program calls itself
(`step` -> `resolve_mode` -> `enumerate_modes`, `step` ->
`synthesize_measurements`, `ingest` -> `noisy_convex_hull`, and the
`check_violation` that the classifiers call) with the same wrapper. No file
of the program changes. An untraced pass uses the program's functions as
they are, apart from the `resolve_mode` tap that every pass needs for its
statics checks (`SolutionTap`).

Spans are kept in memory as [name, start, end, parent, frame, count] and
written as JSON lines when the run ends.
"""

import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Span recorder. One per traced pass; not thread-safe."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.frame = -1
        self.counts = Counter()

    def wrap(self, name, fn, count=None):
        """fn with a span around each call; count(result) is kept with it."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else None,
                    self.frame, None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(out)
            return out

        return traced

    def write_jsonl(self, path):
        keys = ("name", "start", "end", "parent", "frame", "count")
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                rec = dict(zip(keys, span))
                rec["id"] = i
                fh.write(json.dumps(rec) + "\n")


class SolutionTap:
    """Stands in for `resolve_mode` inside `ccfg.sim.engine` and keeps the
    last `ModeSolution`, whose `ContactForce` records `step` does not return.
    """

    def __init__(self, fn):
        self.fn = fn
        self.last = None

    def __call__(self, *args, **kwargs):
        self.last = self.fn(*args, **kwargs)
        return self.last


def _untraced(_name, fn, count=None):
    return fn


class Api:
    """The program's public functions as the workloads call them.

    With a tracer every call is a span, and `rebinds` lists the names inside
    the program to replace while the pass runs (apply with `rebound`).
    """

    def __init__(self, tracer=None):
        import ccfg.estimator.classify as classify
        import ccfg.estimator.friction as friction
        import ccfg.sim.engine as engine
        import ccfg.sim.measure as measure
        import ccfg.sim.resolve as resolve

        self.tracer = tracer
        w = tracer.wrap if tracer is not None else _untraced
        self.tap = SolutionTap(w("sim.resolve", resolve.resolve_mode,
                                 count=lambda sol: sol.trials))
        self.step = w("sim.step", engine.step)
        self.measure = w("sim.measure", measure.synthesize_measurements)
        self.ingest = w("friction.ingest", friction.ingest)
        self.check_violation = w("friction.check", friction.check_violation)
        self.classify_hand = w("classify.hand", classify.classify_hand)
        self.classify_ground = w("classify.ground", classify.classify_ground)
        self.classify_slip = w("classify.slip", classify.classify_slip)
        self.classify_wall = w("classify.wall", classify.classify_wall)
        self.graph_build = w("graph.build", lambda build, *args: build(*args))
        self.graph_slide = w("graph.slide",
                             lambda graph, h: graph.slide_window(h))
        self.graph_solve = w("graph.solve", lambda graph: graph.solve(),
                             count=lambda report: report.iterations)
        self.rebinds = [(engine, "resolve_mode", self.tap)]
        if tracer is not None:
            self.rebinds += [
                (engine, "synthesize_measurements", self.measure),
                (resolve, "enumerate_modes",
                 w("sim.enumerate", resolve.enumerate_modes)),
                (friction, "noisy_convex_hull",
                 w("hull.noisy", friction.noisy_convex_hull)),
                (classify, "check_violation", self.check_violation),
            ]

    def count(self, name, value):
        """Add to a per-layer counter; a no-op when untraced."""
        if self.tracer is not None:
            self.tracer.counts[name] += value


@contextmanager
def rebound(targets):
    """Set module attributes for the duration of the block, then restore."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in targets]
    try:
        for mod, name, value in targets:
            setattr(mod, name, value)
        yield
    finally:
        for mod, name, value in saved:
            setattr(mod, name, value)


def layer_stats(spans):
    """Per span name: calls, total seconds, self seconds, summed counts."""
    stats = {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _frame, _count in spans:
        if parent is not None:
            child[parent] += end - start
    for i, (name, start, end, _parent, _frame, count) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                    "count": 0.0})
        s["calls"] += 1
        s["total"] += end - start
        s["self"] += end - start - child[i]
        if count is not None:
            s["count"] += count
    return stats


def per_layer_metrics(stats, counts, overhead_s):
    """The per-layer metrics of BENCHMARK.json from layer_stats output.

    A layer that did not run in this workload reads 0.
    """
    def get(name, key):
        return stats.get(name, {}).get(key, 0.0)

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    steps = get("sim.step", "calls")
    frames = get("frame", "calls")
    ingests = get("friction.ingest", "calls")
    solves = get("graph.solve", "calls")
    trials = get("sim.resolve", "count")
    m = {
        "sim.step_ms": per(get("sim.step", "total"), steps, 1e3),
        "sim.resolve_ms": per(get("sim.resolve", "total"), steps, 1e3),
        "sim.hypotheses": per(trials, steps),
        "sim.hypothesis_us": per(get("sim.resolve", "total"), trials, 1e6),
        "sim.enumerate_ms": per(get("sim.enumerate", "total"), steps, 1e3),
        "sim.enumerate_calls": per(get("sim.enumerate", "calls"), steps),
        "sim.measure_ms": per(get("sim.measure", "total"),
                              get("sim.measure", "calls"), 1e3),
        "sim.check_ms": per(get("sim.step", "self"), steps, 1e3),
        "friction.ingest_ms": per(get("friction.ingest", "total"), ingests,
                                  1e3),
        "friction.check_ms": per(get("friction.check", "total"),
                                 get("friction.check", "calls"), 1e3),
        "hull.noisy_ms": per(get("hull.noisy", "total"),
                             get("hull.noisy", "calls"), 1e3),
        "hull.noisy_calls": per(get("hull.noisy", "calls"), ingests),
    }
    for short in ("hand", "ground", "slip", "wall"):
        name = "classify." + short
        m[name + "_ms"] = per(get(name, "total"), get(name, "calls"), 1e3)
    m.update({
        "graph.solve_ms": per(get("graph.solve", "total"), solves, 1e3),
        "graph.slide_ms": per(get("graph.slide", "total"),
                              get("graph.slide", "calls"), 1e3),
        "graph.build_ms": per(get("graph.build", "total"),
                              get("graph.build", "calls"), 1e3),
        "graph.lm_iters": per(get("graph.solve", "count"), solves),
        "graph.cols": per(counts["graph.cols"], solves),
        "graph.rows": per(counts["graph.rows"], solves),
        "bench.self_ms": per(get("frame", "self"), frames, 1e3),
        "trace.overhead_ms": overhead_s * 1e3,
    })
    return m


def self_time_table(stats):
    """(name, self ms per frame) for every span name, frames last."""
    frames = stats["frame"]["calls"]
    rows = [(name, s["self"] * 1e3 / frames)
            for name, s in sorted(stats.items()) if name != "frame"]
    rows.append(("bench.self", stats["frame"]["self"] * 1e3 / frames))
    return rows
