"""Traced in-process run: timing wrappers on each regtail layer.

Layers are named after the modules in ``src/regtail/``. The wrappers are
installed from outside and ``src/`` is never edited: every module that
bound a traced function gets the wrapper under the same name, so a call
through ``regtail.sim.count_labelled`` is seen as well as one through
``regtail.ratefn.count_labelled``. Spans (name, start, end, parent, step)
are kept in memory and written out when the run ends.

A layer's ``self_s`` is its span durations minus the part covered by its
child spans, so the self times of one step add up to its ``cli.main`` span.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from collections import defaultdict
from typing import Callable

MODULES = ("graphs", "counting", "independence", "structures", "ratefn", "sim",
           "verify", "decompose", "cli")

CHECK_IDS = (
    "alpha-count-bound", "path-signature-bound", "cycle-mixed-copies-bound",
    "low-degree-only-copies-bound", "bipartite-min-degree-edge-bound",
    "strong-core-degree-product", "mixed-copy-growth-exponent",
    "tail-threshold-exploratory",
)
CHECK_LAYERS = tuple(f"verify.{c}" for c in CHECK_IDS)


class Span:
    __slots__ = ("id", "parent", "step", "name", "start", "end", "child_s", "counts")

    def __init__(self, id_: int, parent: int | None, step: str, name: str) -> None:
        self.id, self.parent, self.step, self.name = id_, parent, step, name
        self.start = self.end = self.child_s = 0.0
        self.counts: dict[str, int] | None = None

    def add(self, counter: str, value: int) -> None:
        if self.counts is None:
            self.counts = {}
        self.counts[counter] = self.counts.get(counter, 0) + value


def _count(counter: str, value: Callable) -> Callable:
    def on_result(span, parent, args, result):
        span.add(counter, value(args, result))
    return on_result


def _subset(span, parent, args, result):
    # ratefn calls count_labelled once per pattern-edge subset
    if parent is not None and parent.name.startswith("ratefn."):
        parent.add("subsets", 1)
        parent.add("nonzero_subsets", 1 if result else 0)
    span.add("copies", result)


def _check(span, parent, args, result):
    span.name = f"verify.{result.check_id}"
    span.add("instances", result.instances)


# (layer, defining module, attribute names, result hook)
LAYERS = (
    ("sim.stream", "sim", ("RngSpec.stream",), None),
    ("sim.mc", "sim", ("mc_mean_count", "mc_conditional_mean", "upper_tail_frequency"),
     _count("trials", lambda a, r: r.trials)),
    ("graphs.from_edge_list", "graphs", ("from_edge_list",),
     _count("edges", lambda a, r: r.edge_count)),
    ("graphs.parse_edge_list", "graphs", ("parse_edge_list",), None),
    ("graphs.span_of_edges", "graphs", ("span_of_edges",), None),
    ("counting._plan", "counting", ("_plan",), None),
    ("counting.count_labelled", "counting", ("count_labelled",),
     _count("copies", lambda a, r: r)),
    ("counting.count_with_edges", "counting", ("count_with_edges",),
     _count("copies", lambda a, r: r.total)),
    ("counting.count_hom", "counting", ("count_hom",), None),
    ("counting.copy_edge_lists", "counting", ("copy_edge_lists",),
     _count("copies", lambda a, r: len(r))),
    ("counting.count_N11", "counting", ("count_N11",), None),
    ("counting.count_paths_signed", "counting", ("count_paths_signed",), None),
    ("structures.peel", "structures", ("_peel",),
     _count("edges_removed", lambda a, r: a[0].edge_count - r.edge_count)),
    ("structures.ladder", "structures", ("is_core", "is_strong_core"), None),
    ("ratefn.exact_conditional_expectation", "ratefn",
     ("exact_conditional_expectation",), None),
    ("ratefn.asymptotic_conditional_gain", "ratefn",
     ("asymptotic_conditional_gain",), None),
    ("ratefn.variational_upper_bound", "ratefn", ("variational_upper_bound",),
     _count("candidates", lambda a, r: len(a[3]))),
    ("ratefn.plant", "ratefn", ("plant",), None),
    ("independence.tilted_root", "independence", ("tilted_root",), None),
    ("independence.fractional_independence", "independence",
     ("fractional_independence",), None),
    ("verify.connected_graphs_up_to", "verify", ("connected_graphs_up_to",), None),
    ("verify.check", "verify",
     ("check_alpha_count_bound", "check_path_lemma", "check_cycle_barN11",
      "check_tildeN11_bound", "check_small_count", "check_degree_product_strong_core",
      "check_mixed_growth_exponent", "check_seqcounting_exploratory"), _check),
)

# Work counters per layer, printed next to the layer's self time.
COUNTERS = {
    "sim.mc": ("trials",),
    "graphs.from_edge_list": ("edges",),
    "counting.count_labelled": ("copies",),
    "counting.count_with_edges": ("copies",),
    "counting.copy_edge_lists": ("copies",),
    "structures.peel": ("edges_removed",),
    "ratefn.exact_conditional_expectation": ("subsets", "nonzero_subsets"),
    "ratefn.asymptotic_conditional_gain": ("subsets", "nonzero_subsets"),
    "ratefn.variational_upper_bound": ("candidates",),
    **{layer: ("instances",) for layer in CHECK_LAYERS},
}


def layer_names() -> list[str]:
    return ["cli.main", *(layer for layer, *_ in LAYERS if layer != "verify.check"),
            *CHECK_LAYERS]


# Times reported in the result line: only layers that every workload
# exercises, so that none of them is a constant zero. Every layer's self
# time is in the printed report and the report file.
RESULT_TIMES = ("cli.main", "graphs.from_edge_list", "counting._plan",
                "counting.count_labelled")


def result_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric in the result line."""
    out = [("cli.import_s", "s"), ("cli.import_numpy_s", "s")]
    out += [(f"{layer}.self_s", "s") for layer in RESULT_TIMES]
    out += [("trace.traced_s", "s"), ("trace.untraced_s", "s")]
    # each checker runs once per verify call; its instances count says more
    out += [(f"{layer}.calls", "count") for layer in layer_names()
            if layer not in CHECK_LAYERS]
    for layer, counters in COUNTERS.items():
        out += [(f"{layer}.{c}", "count") for c in counters]
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.step = ""
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), parent.id if parent else None, self.step, name)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if on_result is not None:
                on_result(span, parent, args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Patch every module of ``package`` that bound a traced function."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        for layer, home, attrs, hook in LAYERS:
            home_mod = getattr(package, home)
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home_mod, cls_name)
                    self._patch(cls, meth, self.wrap(layer, getattr(cls, meth), hook))
                    continue
                original = getattr(home_mod, attr)
                wrapper = self.wrap(layer, original, hook)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            if mod.__name__.endswith(".ratefn") and attr == "count_labelled":
                                self._patch(mod, name, self.wrap(layer, original, _subset))
                            else:
                                self._patch(mod, name, wrapper)

    def _patch(self, obj, name: str, value) -> None:
        self._patched.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def uninstall(self) -> None:
        while self._patched:
            obj, name, value = self._patched.pop()
            setattr(obj, name, value)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.step, s.name, s.start, s.end]))
                fh.write("\n")


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per layer: calls, self_s and the work counters."""
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += (s.end - s.start) - s.child_s
        for k, v in (s.counts or {}).items():
            row[k] = row.get(k, 0) + v
    return out


def run_inprocess(main: Callable, argv: tuple[str, ...]) -> tuple[int, bytes, str, float]:
    """One CLI step through ``main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed step, reported with its traceback
            traceback.print_exc()
            rc = 1
    wall = time.perf_counter() - t0
    return rc, out.getvalue().encode("utf-8"), err.getvalue(), wall
