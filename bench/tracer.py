"""Spans and counters for the benchmark's traced run.

``instrument`` wraps, for the duration of a ``with`` block, every public
function and every public method of a public class in the nine
``hanoiseq`` modules.  It rebinds the names in each module namespace,
including the names that ``hanoiseq.cli`` imports into its own, so a call
from the CLI into a layer opens a span just like a call from the
benchmark.  Two private CLI helpers are wrapped as well, because the
used-over-materialized ratios are measured at their boundary.  Nothing
under ``src/`` changes.

A span keeps its name, start, end, parent and request id, in flat arrays
held in memory; ``write_spans`` writes them out once the run is over.  A
span's self time is its duration minus the durations of its children; the
self times of all spans, the benchmark's own ``bench`` spans included,
partition the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "words", "catalog", "toeplitz", "classicseq", "automaton",
          "hanoi", "nonuniform", "algebra")
HARNESS = "bench"
CLI_HELPERS = ("_sequence_solution", "_derived_Z")
# Per-symbol accessor: a span per call would cost more than the call itself.
# Its time stays in the self time of the caller.
UNWRAPPED = frozenset({"Alphabet.index"})


class Tracer:
    """Spans in flat arrays, plus named counters filled by call hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.request_id = -1
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.largest_prefix = (0, "")
        self.t0 = perf_counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("id\tparent\trequest\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.request[i]}\t"
                          f"{self.names[self.name[i]]}\t{self.start[i] - self.t0:.9f}\t"
                          f"{self.end[i] - self.t0:.9f}\n")


# ------------------------------------------------------------------- hooks
# Each hook gets (tracer, args, kwargs, result, catalog symbols at entry).

def _catalog_prefix(t, args, kwargs, result, before):
    t.counts["catalog.calls"] += 1
    t.counts["catalog.symbols"] += len(result)
    if len(result) > t.largest_prefix[0]:
        t.largest_prefix = (len(result), args[0])


def _counter(key, measure):
    def hook(t, args, kwargs, result, before):
        t.counts[key] += measure(args, kwargs, result)
    return hook


def _digits(n: int, radix: int) -> int:
    count = 0
    while n:
        n //= radix
        count += 1
    return count


def _eval(t, args, kwargs, result, before):
    t.counts["automaton.eval_calls"] += 1
    t.counts["automaton.digits"] += _digits(args[1], args[0].radix)


def _windows(args, kwargs, result):
    word, width = args[0], args[1]
    aligned = kwargs.get("aligned", args[2] if len(args) > 2 else False)
    n = len(word)
    return 0 if width > n else (n - width) // (width if aligned else 1) + 1


def _unknowns(args, kwargs, result):
    return (args[1] + 1) * (args[2] + 1)


def _equations(args, kwargs, result):
    order = kwargs.get("order", args[3] if len(args) > 3 else None)
    return args[0].order if order is None else order


def _ratio(prefix, used):
    def hook(t, args, kwargs, result, before):
        t.counts[f"{prefix}_used"] += used(result)
        t.counts[f"{prefix}_materialized"] += t.counts["catalog.symbols"] - before
    return hook


def _length(args, kwargs, result):
    return len(result)


HOOKS = {
    "catalog.catalog_prefix": [_catalog_prefix],
    "words.MorphicSpec.pure_prefix": [_counter("words.symbols", _length)],
    "words.Morphism.apply": [_counter("words.symbols", _length)],
    "words.Coding.apply": [_counter("words.symbols", _length)],
    "words.Word.from_tokens": [_counter("words.symbols", _length)],
    "toeplitz.toeplitz_expand": [_counter("toeplitz.symbols", _length)],
    "classicseq.derive_T": [_counter("classicseq.terms", _length)],
    "classicseq.derive_U": [_counter("classicseq.terms", _length)],
    "classicseq.derive_V": [_counter("classicseq.terms", _length)],
    "classicseq.derive_Z": [_counter("classicseq.terms", _length)],
    "automaton.Dfao.eval": [_eval],
    "automaton.kernel_explore": [_counter(
        "automaton.kernel_classes", lambda a, k, r: r.class_count)],
    "hanoi.bfs_optimal": [_counter(
        "hanoi.bfs_graph_states", lambda a, k, r: 3 ** a[1])],
    "hanoi.simulate": [_counter("hanoi.moves_replayed", lambda a, k, r: len(r.moves))],
    "hanoi.squarefree_check": [_counter(
        "hanoi.periods_scanned", lambda a, k, r: min(a[1], len(a[0]) // 2))],
    "hanoi.factor_census": [_counter("hanoi.census_windows", _windows)],
    "nonuniform.validation_failures": [_counter(
        "nonuniform.symbols_validated", lambda a, k, r: a[1])],
    "algebra.find_algebraic_relation": [_counter("algebra.unknowns", _unknowns),
                                        _counter("algebra.equations", _equations)],
    "cli._sequence_solution": [_ratio("cli.solve", lambda r: len(r[0]))],
    "cli._derived_Z": [_ratio("cli.z", len)],
}


def _wrap(tracer: Tracer, fn, name: str):
    nid = tracer.name_id(name)
    hooks = HOOKS.get(name, ())
    counts = tracer.counts

    def traced(*args, **kwargs):
        before = counts["catalog.symbols"]
        i = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        for hook in hooks:
            hook(tracer, args, kwargs, result, before)
        return result

    return functools.wraps(fn)(traced)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layers' public functions and methods while the block runs."""
    package = importlib.import_module("hanoiseq")
    modules = [importlib.import_module(f"hanoiseq.{layer}") for layer in LAYERS]
    wrappers: dict = {}
    undo: list = []

    def wrapper_for(fn):
        if fn not in wrappers:
            layer = fn.__module__.rpartition(".")[2]
            wrappers[fn] = _wrap(tracer, fn, f"{layer}.{fn.__qualname__}")
        return wrappers[fn]

    def rebind(owner, attr, new):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    for module in modules + [package]:
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType):
                if obj.__module__.startswith("hanoiseq.") and (
                        not attr.startswith("_")
                        or (module.__name__ == "hanoiseq.cli" and attr in CLI_HELPERS)):
                    rebind(module, attr, wrapper_for(obj))
            elif isinstance(obj, type) and obj.__module__ == module.__name__:
                for method, raw in list(vars(obj).items()):
                    if method.startswith("_") or f"{obj.__name__}.{method}" in UNWRAPPED:
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        rebind(obj, method, type(raw)(wrapper_for(raw.__func__)))
                    elif isinstance(raw, types.FunctionType):
                        rebind(obj, method, wrapper_for(raw))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ----------------------------------------------------------------- summary

# inclusive times: spans of these names, minus those whose parent is in the set
INCLUSIVE = {
    "words.render_s": ("words.Word.text", "words.Word.tokens"),
    "automaton.kernel_s": ("automaton.kernel_explore",),
    "hanoi.bfs_s": ("hanoi.bfs_optimal",),
    "hanoi.simulate_s": ("hanoi.simulate",),
    "hanoi.olive_s": ("hanoi.olive_solve",),
    "hanoi.squarefree_s": ("hanoi.squarefree_check",),
    "hanoi.census_s": ("hanoi.factor_census",),
    "nonuniform.construct_s": ("nonuniform.construct_nonuniform",),
    "nonuniform.validate_s": ("nonuniform.validation_failures",
                              "nonuniform.validate_construction"),
    "algebra.evaluate_s": ("algebra.evaluate_relation",),
    "algebra.search_s": ("algebra.find_algebraic_relation",),
}


def summarize(tracer: Tracer) -> dict[str, float]:
    """Self time per layer, named inclusive and self times, and counters.
    Totals over everything the tracer recorded."""
    names = tracer.names
    nid = np.frombuffer(tracer.name, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - children
    layer_names = LAYERS + (HARNESS,)
    layer_of = np.array([layer_names.index(n.partition(".")[0]) for n in names] or [0])
    per_layer = np.bincount(layer_of[nid], weights=self_time, minlength=len(layer_names))
    out = {f"{layer}.self_s": float(t) for layer, t in zip(layer_names, per_layer)}

    def ids(span_names):
        return np.array([tracer._ids[n] for n in span_names if n in tracer._ids],
                        dtype=np.int64)

    for metric, span_names in INCLUSIVE.items():
        member = np.isin(nid, ids(span_names))
        parent_member = np.zeros_like(member)
        parent_member[nested] = member[parent[nested]]
        out[metric] = float(dur[member & ~parent_member].sum())
    evals = np.isin(nid, ids(("automaton.Dfao.eval",)))
    out["automaton.eval_self_s"] = float(self_time[evals].sum())
    out["trace.spans"] = float(len(dur))
    out["trace.self_sum_s"] = float(self_time.sum())
    out.update(tracer.counts)
    return out
