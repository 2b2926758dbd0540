"""Span tracing of ncsred's layers from outside the package.

``harness`` and ``attack`` bind their collaborators with ``from ... import``,
so a wrapper only sees the calls made through the module it is installed on.
BINDINGS therefore lists every (module, attribute) a caller looks a layer up
in; one span name can have several bindings (``ncs.control_inputs`` is
called both from ``harness`` and from ``ncs.step``). Each wrapper calls the
original function, never another wrapper, so no call is counted twice.

Spans (name, start, end, parent, experiment) are kept in memory and written
out when the benchmark ends. A span's self time is its duration minus the
durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

ALL = ("nominal", "fdi", "fdi_dos")
ATTACK = ("fdi", "fdi_dos")
DOS = ("fdi_dos",)


def _rank(model):
    return model.rank_used


def _recovery(result):
    return (result.iterations, result.converged)


# (module, attribute, span name, modes that must call it, result observer)
BINDINGS = (
    ("ncsred.scenario_io", "load_scenario", "scenario_io.load_scenario", ALL, None),
    ("ncsred.harness", "run", "harness.run", ALL, None),
    ("ncsred.harness", "emit", "harness.emit", ALL, None),
    ("ncsred.harness", "step", "ncs.step", ALL, None),
    ("ncsred.harness", "control_inputs", "ncs.control_inputs", ALL, None),
    ("ncsred.ncs", "control_inputs", "ncs.control_inputs", ALL, None),
    ("ncsred.graph", "Graph.neighbors", "graph.neighbors", ALL, None),
    ("ncsred.svgplot", "line_plot", "svgplot.line_plot", ALL, None),
    ("ncsred.dmd", "SnapshotBuffer.push", "dmd.push", ATTACK, None),
    ("ncsred.dmd", "fit", "dmd.fit", ATTACK, _rank),
    ("ncsred.harness", "agent_reach_polygon", "attack.agent_reach_polygon", ATTACK, None),
    ("ncsred.attack", "agent_reach_polygon", "attack.agent_reach_polygon", ATTACK, None),
    ("ncsred.harness", "select_targets", "attack.select_targets", ATTACK, None),
    ("ncsred.harness", "synthesize_fdi", "attack.synthesize_fdi", ATTACK, None),
    ("ncsred.attack", "polygon_distance", "reachset.polygon_distance", ATTACK, None),
    ("ncsred.attack", "batch_reach_supports", "reachset.batch_reach_supports", ATTACK, None),
    ("ncsred.attack", "agent_polygon", "reachset.agent_polygon", ATTACK, None),
    ("ncsred.laprec", "recover", "laprec.recover", DOS, _recovery),
    ("ncsred.laprec", "project_laplacian_cone", "laprec.project_laplacian_cone", DOS, None),
    ("ncsred.harness", "plan_dos", "attack.plan_dos", DOS, None),
)

#: layers whose spans make up one attacked step's decision
DECIDE = ("dmd.fit", "attack.agent_reach_polygon", "attack.select_targets",
          "attack.synthesize_fdi")

NAME, START, END, PARENT, EXPERIMENT, VALUE = range(6)


class LayerCheckError(RuntimeError):
    """A traced layer could not be wrapped, or recorded no calls where it must."""


class Tracer:
    """In-memory span recorder; `experiment` tags every span it records."""

    def __init__(self):
        self.spans = []
        self.experiment = -1
        self._stack = []

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.experiment, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                span[VALUE] = observe(out)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding for the duration of the block."""
        saved = []
        try:
            for module, attr, name, _, observe in BINDINGS:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf, None)
                if not callable(original):
                    raise LayerCheckError(f"{module}.{attr} is gone; "
                                          f"span {name} cannot be recorded")
                setattr(owner, leaf, self.wrap(name, original, observe))
                saved.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,experiment,value\n")
            for i, s in enumerate(self.spans):
                value = "" if s[VALUE] is None else s[VALUE]
                fh.write(f"{i},{s[NAME]},{s[START]},{s[END]},{s[PARENT]},"
                         f"{s[EXPERIMENT]},{value}\n")


def check_layers(spans, mode):
    """Raise LayerCheckError if a layer `mode` must exercise recorded no call."""
    seen = {s[NAME] for s in spans}
    silent = sorted({name for _, _, name, modes, _ in BINDINGS
                     if mode in modes and name not in seen})
    if silent:
        raise LayerCheckError(f"no calls recorded in mode {mode!r} for: "
                              f"{', '.join(silent)}")


# per-layer metrics: name -> unit, in the order they are printed
LAYER_METRICS = {
    "reachset.polygon_distance.calls": "count",
    "reachset.polygon_distance.us_p50": "us",
    "reachset.polygon_distance.per_decision": "count",
    "reachset.polygon_distance.run_frac": "frac",
    "attack.select_targets.us_p50": "us",
    "attack.select_targets.self_us_p50": "us",
    "attack.synthesize_fdi.calls": "count",
    "attack.synthesize_fdi.us_p50": "us",
    "attack.synthesize_fdi.self_us_p50": "us",
    "attack.decide_ms_p50": "ms",
    "attack.decide_ms_p95": "ms",
    "attack.decide_budget_frac": "frac",
    "attack.agent_reach_polygon.calls": "count",
    "attack.agent_reach_polygon.us_p50": "us",
    "reachset.batch_reach_supports.calls": "count",
    "reachset.batch_reach_supports.us_p50": "us",
    "reachset.agent_polygon.calls": "count",
    "reachset.agent_polygon.us_p50": "us",
    "dmd.push.us_p50": "us",
    "dmd.fit.calls": "count",
    "dmd.fit.us_p50": "us",
    "dmd.fit.us_p95": "us",
    "dmd.fit.rank_min": "count",
    "dmd.fit.rank_max": "count",
    "ncs.step.calls": "count",
    "ncs.step.us_p50": "us",
    "ncs.step.us_p95": "us",
    "ncs.control_inputs.calls": "count",
    "ncs.control_inputs.us_p50": "us",
    "ncs.control_inputs.per_step": "count",
    "graph.neighbors.calls": "count",
    "graph.neighbors.us_p50": "us",
    "harness.run.self_s": "s",
    "laprec.recover.ms": "ms",
    "laprec.recover.iterations": "count",
    "laprec.recover.converged": "frac",
    "laprec.project_laplacian_cone.calls": "count",
    "attack.plan_dos.us": "us",
    "svgplot.line_plot.ms_p50": "ms",
    "harness.emit.self_ms": "ms",
    "scenario_io.load_scenario.ms": "ms",
    "trace.overhead_frac": "frac",
}


def _quantile(values, q):
    """Nearest-rank quantile; 0.0 for a layer that recorded nothing."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def _ratio(num, den):
    return num / den if den else 0.0


class _Layer:
    def __init__(self):
        self.total = []     # durations in ns
        self.own = []       # self times in ns
        self.values = []    # observed results


def layer_metrics(spans, dt, overhead_frac, speed_factor):
    """Per-layer metrics of a traced pass.

    Counts are per experiment (the median over the traced experiments);
    latency quantiles pool every call of the pass. Times are multiplied by
    `speed_factor`, the pass's scale to reference seconds. `dt` is the
    sampling period, the budget one attacked step's decision must fit in.
    """
    children = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]] += s[END] - s[START]
    layers = {}
    counts = {}
    for i, s in enumerate(spans):
        layer = layers.setdefault(s[NAME], _Layer())
        dur = s[END] - s[START]
        layer.total.append(dur)
        layer.own.append(dur - children[i])
        if s[VALUE] is not None:
            layer.values.append(s[VALUE])
        key = (s[NAME], s[EXPERIMENT])
        counts[key] = counts.get(key, 0) + 1
    experiments = sorted({s[EXPERIMENT] for s in spans if s[NAME] == "harness.run"})

    def calls(name):
        return statistics.median(counts.get((name, e), 0) for e in experiments) \
            if experiments else 0

    def get(name):
        return layers.get(name, _Layer())

    def q(name, which, quant, unit):
        return _quantile(getattr(get(name), which), quant) * speed_factor / unit

    us, ms, sec = 1e3, 1e6, 1e9
    decide = [t * speed_factor for t in _decide_ns(spans)]
    run_total = sum(get("harness.run").total)
    ranks = get("dmd.fit").values
    recoveries = get("laprec.recover").values
    return {
        "reachset.polygon_distance.calls": calls("reachset.polygon_distance"),
        "reachset.polygon_distance.us_p50": q("reachset.polygon_distance", "total", 0.5, us),
        "reachset.polygon_distance.per_decision": _ratio(
            calls("reachset.polygon_distance"), calls("attack.synthesize_fdi")),
        "reachset.polygon_distance.run_frac": _ratio(
            sum(get("reachset.polygon_distance").total), run_total),
        "attack.select_targets.us_p50": q("attack.select_targets", "total", 0.5, us),
        "attack.select_targets.self_us_p50": q("attack.select_targets", "own", 0.5, us),
        "attack.synthesize_fdi.calls": calls("attack.synthesize_fdi"),
        "attack.synthesize_fdi.us_p50": q("attack.synthesize_fdi", "total", 0.5, us),
        "attack.synthesize_fdi.self_us_p50": q("attack.synthesize_fdi", "own", 0.5, us),
        "attack.decide_ms_p50": _quantile(decide, 0.5) / ms,
        "attack.decide_ms_p95": _quantile(decide, 0.95) / ms,
        "attack.decide_budget_frac": _quantile(decide, 0.95) / sec / dt,
        "attack.agent_reach_polygon.calls": calls("attack.agent_reach_polygon"),
        "attack.agent_reach_polygon.us_p50": q("attack.agent_reach_polygon", "total", 0.5, us),
        "reachset.batch_reach_supports.calls": calls("reachset.batch_reach_supports"),
        "reachset.batch_reach_supports.us_p50": q("reachset.batch_reach_supports", "total", 0.5, us),
        "reachset.agent_polygon.calls": calls("reachset.agent_polygon"),
        "reachset.agent_polygon.us_p50": q("reachset.agent_polygon", "total", 0.5, us),
        "dmd.push.us_p50": q("dmd.push", "total", 0.5, us),
        "dmd.fit.calls": calls("dmd.fit"),
        "dmd.fit.us_p50": q("dmd.fit", "total", 0.5, us),
        "dmd.fit.us_p95": q("dmd.fit", "total", 0.95, us),
        "dmd.fit.rank_min": min(ranks, default=0),
        "dmd.fit.rank_max": max(ranks, default=0),
        "ncs.step.calls": calls("ncs.step"),
        "ncs.step.us_p50": q("ncs.step", "total", 0.5, us),
        "ncs.step.us_p95": q("ncs.step", "total", 0.95, us),
        "ncs.control_inputs.calls": calls("ncs.control_inputs"),
        "ncs.control_inputs.us_p50": q("ncs.control_inputs", "total", 0.5, us),
        "ncs.control_inputs.per_step": _ratio(calls("ncs.control_inputs"),
                                              calls("ncs.step")),
        "graph.neighbors.calls": calls("graph.neighbors"),
        "graph.neighbors.us_p50": q("graph.neighbors", "total", 0.5, us),
        "harness.run.self_s": q("harness.run", "own", 0.5, sec),
        "laprec.recover.ms": q("laprec.recover", "total", 0.5, ms),
        "laprec.recover.iterations": _quantile([it for it, _ in recoveries], 0.5),
        "laprec.recover.converged": _ratio(sum(c for _, c in recoveries),
                                           len(recoveries)),
        "laprec.project_laplacian_cone.calls": calls("laprec.project_laplacian_cone"),
        "attack.plan_dos.us": q("attack.plan_dos", "total", 0.5, us),
        "svgplot.line_plot.ms_p50": q("svgplot.line_plot", "total", 0.5, ms),
        "harness.emit.self_ms": q("harness.emit", "own", 0.5, ms),
        "scenario_io.load_scenario.ms": q("scenario_io.load_scenario", "total", 0.5, ms),
        "trace.overhead_frac": overhead_frac,
    }


def _decide_ns(spans):
    """Decision time per attacked step: the DECIDE spans inside one loop
    iteration of `harness.run`, where each `ncs.step` span ends an iteration.
    At the DoS step the recovery refit is one of the counted `dmd.fit` spans.
    """
    runs = {i for i, s in enumerate(spans) if s[NAME] == "harness.run"}
    out = []
    acc, attacked = 0, False
    for s in spans:
        if s[PARENT] not in runs:
            continue
        if s[NAME] in DECIDE:
            acc += s[END] - s[START]
            attacked |= s[NAME] == "attack.synthesize_fdi"
        elif s[NAME] == "ncs.step":
            if attacked:
                out.append(acc)
            acc, attacked = 0, False
    return out
