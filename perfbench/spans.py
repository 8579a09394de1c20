"""Span recorder for the traced benchmark run, and the arithmetic on spans.

The traced child process replaces module attributes of hankelpde with
wrappers before it calls the real command-line entry point, so the
shipped code runs unmodified and every lookup the pipeline makes goes
through a wrapper.  Each wrapped call records one span: name, start,
end, thread, parent span, and whether it returned normally.  Spans are
kept in memory and written out once, when the process ends.

Self time of a span is its duration minus the part of its interval that
its child spans cover (the union of the children, so children running
concurrently on worker threads are not counted twice).
"""

import functools
import json
import threading
import time
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "id name start end thread parent ok")

# Wrapped layers: (module attribute looked up by the pipeline, span name).
# evaluate_solution is looked up by cli.run and cli.convergence_study in
# the cli namespace; the per-sample layers by evaluate_solution and by
# each other in the fredholm namespace.
WRAPPED = (
    ("cli", "parse_scenario", "cli.parse_scenario"),
    ("cli", "run", "cli.run"),
    ("cli", "convergence_study", "cli.convergence_study"),
    ("cli", "evaluate_solution", "fredholm.evaluate_solution"),
    ("cli", "sample_profile", "gridkernel.sample_profile"),
    ("cli", "residual_local", "equations.residuals"),
    ("cli", "residual_kernel", "equations.residuals"),
    ("cli", "residual_coupled", "equations.residuals"),
    ("fredholm", "sample_profile", "gridkernel.sample_profile"),
    ("fredholm", "evolve", "dispersion.evolve"),
    ("fredholm", "companion_profile", "companion.companion_profile"),
    ("fredholm", "assemble_Q", "fredholm.assemble_Q"),
    ("fredholm", "kdv_Q", "fredholm.kdv_Q"),
    ("fredholm", "hankel_rhs", "fredholm.hankel_rhs"),
    ("fredholm", "det2", "fredholm.det2"),
    ("fredholm", "solve_G", "fredholm.solve_G"),
)

# Per-layer metrics: (span name, statistic, unit).  A layer that never
# fires reports calls = 0, so a renamed attribute shows up as a zero.
LAYER_METRICS = (
    ("fredholm.solve_G", "calls", "count"),
    ("fredholm.solve_G", "self_s", "s"),
    ("fredholm.det2", "calls", "count"),
    ("fredholm.det2", "self_s", "s"),
    ("fredholm.assemble_Q", "calls", "count"),
    ("fredholm.assemble_Q", "self_s", "s"),
    ("fredholm.kdv_Q", "calls", "count"),
    ("fredholm.kdv_Q", "self_s", "s"),
    ("fredholm.hankel_rhs", "calls", "count"),
    ("fredholm.hankel_rhs", "self_s", "s"),
    ("fredholm.evaluate_solution", "calls", "count"),
    ("fredholm.evaluate_solution", "wall_s", "s"),
    ("fredholm.evaluate_solution", "self_s", "s"),
    ("dispersion.evolve", "calls", "count"),
    ("dispersion.evolve", "busy_s", "s"),
    ("companion.companion_profile", "calls", "count"),
    ("companion.companion_profile", "busy_s", "s"),
    ("gridkernel.sample_profile", "calls", "count"),
    ("gridkernel.sample_profile", "busy_s", "s"),
    ("equations.residuals", "calls", "count"),
    ("equations.residuals", "busy_s", "s"),
    ("cli.parse_scenario", "calls", "count"),
    ("cli.parse_scenario", "busy_s", "s"),
    ("cli.run", "calls", "count"),
    ("cli.run", "self_s", "s"),
    ("cli.convergence_study", "calls", "count"),
    ("cli.convergence_study", "self_s", "s"),
)


class Recorder:
    """Collects spans from wrapped calls on any thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name):
        """Return fn wrapped so each call records a span called name."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # a worker thread's outermost span was caused by whatever the
            # main thread has open (evaluate_solution, blocked on its pool)
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            with self._lock:
                sid = self._next_id
                self._next_id += 1
            stack.append(sid)
            ok = False
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = self.clock()
                stack.pop()
                span = Span(sid, name, start, end, threading.get_ident(),
                            parent, ok)
                with self._lock:
                    self.spans.append(span)

        return wrapper

    def install(self, modules):
        """Wrap every WRAPPED attribute present in modules (name -> module).

        Returns the (module, attribute) pairs that were missing.
        """
        missing = []
        for mod_name, attr, span_name in WRAPPED:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append((mod_name, attr))
                continue
            setattr(module, attr, self.wrap(fn, span_name))
        return missing


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children[s.id]]
        covered = union_length([iv for iv in clipped if iv[1] > iv[0]])
        out[s.id] = (s.end - s.start) - covered
    return out


def overlap_excess(spans):
    """Summed child durations minus the time the children cover, over all
    parents: the time counted twice because children ran concurrently."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return sum(sum(e - b for b, e in ivs) - union_length(ivs)
               for ivs in children.values())


def layer_stats(spans, threads):
    """Per-name statistics: calls, ok, busy_s, self_s, wall_s, and the
    thread busy ratio of fredholm.evaluate_solution."""
    selfs = self_times(spans)
    stats = defaultdict(lambda: {"calls": 0, "ok": 0, "busy_s": 0.0,
                                 "self_s": 0.0, "intervals": []})
    for s in spans:
        st = stats[s.name]
        st["calls"] += 1
        st["ok"] += int(s.ok)
        st["busy_s"] += s.end - s.start
        st["self_s"] += selfs[s.id]
        st["intervals"].append((s.start, s.end))
    for st in stats.values():
        st["wall_s"] = union_length(st.pop("intervals"))

    evals = {s.id: s for s in spans if s.name == "fredholm.evaluate_solution"}
    child_busy = sum(s.end - s.start for s in spans if s.parent in evals)
    capacity = sum(s.end - s.start for s in evals.values()) * threads
    ratio = child_busy / capacity if capacity > 0 else 0.0
    return dict(stats), ratio


def layer_metrics(spans, threads):
    """Values of every LAYER_METRICS entry plus the derived ratios.

    Returns name -> (value, unit).
    """
    stats, busy_ratio = layer_stats(spans, threads)
    empty = {"calls": 0, "ok": 0, "busy_s": 0.0, "self_s": 0.0, "wall_s": 0.0}
    out = {}
    for layer, stat, unit in LAYER_METRICS:
        out["%s.%s" % (layer, stat)] = (stats.get(layer, empty)[stat], unit)
    solves = stats.get("fredholm.solve_G", empty)
    out["fredholm.evaluate_solution.thread_busy_ratio"] = (busy_ratio, "ratio")
    out["fredholm.patch_skips"] = (solves["calls"] - solves["ok"], "count")
    out["fredholm.solved_ratio"] = (
        solves["ok"] / solves["calls"] if solves["calls"] else 0.0, "ratio")
    return out


def dump(spans, path):
    with open(path, "w") as fh:
        json.dump([list(s) for s in spans], fh)


def load(path):
    with open(path) as fh:
        return [Span(*row) for row in json.load(fh)]
