"""Per-layer spans recorded from outside the library.

:meth:`Tracer.install` replaces every public function of the traced modules
by a wrapper that records a span (name, start, end, parent).  The modules
import each other's functions by name (``equilibrium.int_determinant`` is
the same object as ``matrix_core.int_determinant``), so each wrapper is set
on every module namespace that binds the original: a call is traced under
whichever name the caller looks up.  The constructors of
``StochasticMatrix`` and ``Graph`` are traced as layers of their own.

A layer's total time counts only its outermost spans (``stationary`` calls
itself through ``equilibrium_polytope``); its self time is each span's
duration minus the time covered by its child spans.
"""

import inspect
import statistics
import time

TRACED_MODULES = ("cli", "matrix_core", "equilibrium", "reducibility",
                  "graph_walk", "oracle")
TRACED_CLASSES = {"matrix_core": ("StochasticMatrix",),
                  "graph_walk": ("Graph",)}
# spans whose first argument or result the per-layer metrics look at
_KEEP_SUBJECT = {"graph_walk.graph_stationary": "arg",
                 "reducibility.communicating_classes": "result"}

NAME, START, END, PARENT, SUBJECT = range(5)


class Tracer:
    """Span recorder; spans stay in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        keep = _KEEP_SUBJECT.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    args[0] if keep == "arg" else None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if keep == "result":
                span[SUBJECT] = result
            return result

        return traced

    def install(self, package, modules):
        """Wrap the public functions of ``modules`` (submodules of
        ``package``) on every namespace that binds them."""
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
            for cls_name in TRACED_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                cls.__init__ = self._wrap(f"{short}.{cls_name}", cls.__init__)
        for mod in (package, *modules):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])


def _layer(name):
    # closed_form_2 .. closed_form_5 are one layer
    if name.startswith("equilibrium.closed_form_"):
        return "equilibrium.closed_form"
    return name


def _is_symmetric(graph):
    a = graph.adjacency
    return all(a[i][j] == a[j][i] for i in range(len(a)) for j in range(i))


def pass_layers(spans):
    """Per-layer totals of one pass: ``{layer: {"s", "self_s", "calls",
    ...}}``."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    layers = {}
    for k, span in enumerate(spans):
        name = _layer(span[NAME])
        dur = span[END] - span[START]
        row = layers.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += dur - child[k]
        parent = span[PARENT]
        while parent >= 0 and _layer(spans[parent][NAME]) != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            row["s"] += dur
        if span[NAME] == "graph_walk.graph_stationary":
            key = ("undirected_s" if _is_symmetric(span[SUBJECT])
                   else "directed_s")
            row[key] = row.get(key, 0.0) + dur
        elif span[NAME] == "reducibility.communicating_classes":
            report = span[SUBJECT]
            row["useful"] = row.get("useful", 0) + (
                report is not None and report.n_closed >= 2)
    return layers


def layer_metrics(per_pass, wanted):
    """Median over passes of each wanted ``layer.field`` metric.

    ``per_pass`` holds one :func:`pass_layers` result per pass.  Counts are
    per pass; a layer the workload never enters reads 0.  Returns
    ``(metrics, unsteady)`` where ``unsteady`` names counts that differed
    between passes.
    """
    out = {}
    unsteady = []
    for metric in wanted:
        layer, field = metric.rsplit(".", 1)
        if field == "useful_ratio":
            values = []
            for layers in per_pass:
                row = layers.get(layer, {})
                calls = row.get("calls", 0)
                values.append(row.get("useful", 0) / calls if calls else 0.0)
        else:
            values = [layers.get(layer, {}).get(field, 0)
                      for layers in per_pass]
        if field == "calls":
            if len(set(values)) > 1:
                unsteady.append(metric)
            out[metric] = max(values)
        else:
            out[metric] = statistics.median(values)
    return out, unsteady
