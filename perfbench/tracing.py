"""Per-layer tracing from outside the program.

``installed(tracer)`` replaces the public functions of each ``csplab``
module, as ``sieve`` and ``cli`` look them up, with timing wrappers and
puts every original back when it exits.  Boundaries called a few times per
request (building, enumerating, checking, cyclotomic polynomials) record a
span each: name, start, end, parent and request.  Step and label functions
run once per object, up to 145k times a request, so they only add their
time and call count to a per-(request, layer) aggregate.

A span's self time is its duration minus the time its child spans and
aggregates cover, so the self times of one request sum to its root span.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator

# (module, attribute) -> layer.  Names that sieve imported from qpoly are
# wrapped in sieve's namespace, so recursive qpoly functions keep their
# depth; cyclotomic is wrapped in qpoly, where eval_at_root and the poly
# command look it up.
SPANS = {
    ("sieve", "registry_instantiate"): "sieve.build",
    ("sieve", "action_from_objects"): "sieve.materialize",
    ("sieve", "orbit_decompose"): "sieve.orbit_decompose",
    ("sieve", "verify_csp_roots"): "sieve.roots",
    ("sieve", "verify_csp_orbits"): "sieve.orbits_check",
    ("sieve", "eval_at_root"): "qpoly.eval",
    ("sieve", "fold_mod_qn"): "qpoly.fold",
    ("qpoly", "cyclotomic"): "qpoly.cyclotomic",
    ("sieve", "gaussian_binomial"): "qpoly.construct",
    ("sieve", "q_catalan"): "qpoly.construct",
    ("sieve", "q_int"): "qpoly.construct",
    ("sieve", "q_proper_triangulations"): "qpoly.construct",
    ("sieve", "plethysm_h"): "qpoly.construct",
    ("sieve", "plethysm_e"): "qpoly.construct",
    ("sieve", "subst_t_q_inverse"): "qpoly.construct",
    ("tableaux", "q_count_syt"): "qpoly.construct",
    ("perms", "maj_exc_genfun"): "qpoly.construct",
    ("catalan", "enumerate_nc_partitions"): "catalan.enumerate",
    ("catalan", "enumerate_nc_matchings"): "catalan.enumerate",
    ("catalan", "enumerate_triangulations"): "catalan.enumerate",
    ("tableaux", "enumerate_syt"): "tableaux.enumerate",
    ("perms", "conjugacy_class"): "perms.enumerate",
}
AGGREGATES = {
    ("catalan", "rotate_blocks"): "catalan.step",
    ("catalan", "rotate_triangulation"): "catalan.step",
    ("catalan", "is_proper_triangulation"): "catalan.step",
    ("catalan", "partition_label"): "catalan.label",
    ("catalan", "matching_label"): "catalan.label",
    ("catalan", "triangulation_label"): "catalan.label",
    ("tableaux", "promote"): "tableaux.step",
    ("tableaux", "tableau_label"): "tableaux.label",
    ("perms", "conjugate"): "perms.step",
    ("perms", "perm_label"): "perms.label",
}
ROOT_SPAN = "cli"  # the span around cli.main; its self time is argparse and rendering


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    request: int
    parent: int | None
    start: float
    end: float
    self_s: float


class Tracer:
    """Spans, per-(request, layer) aggregates and counters, held in memory."""

    def __init__(self) -> None:
        self.request = -1
        self.spans: list[Span] = []
        self.aggregates: dict[tuple[int, str], list] = {}  # -> [seconds, calls]
        self.counts: Counter = Counter()  # (request, counter) -> n
        self.cyclotomic_orders: set[int] = set()
        self._stack: list[list] = []  # open spans: [id, name, parent, start, child_s]
        self._next_id = 0
        self._in_aggregate = False

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, name, parent, perf_counter(), 0.0])
        self._next_id += 1

    def close(self) -> None:
        end = perf_counter()
        span_id, name, parent, start, child_s = self._stack.pop()
        duration = end - start
        self.spans.append(Span(span_id, name, self.request, parent, start, end, duration - child_s))
        if self._stack:
            self._stack[-1][4] += duration

    def add_aggregate(self, layer: str, seconds: float) -> None:
        slot = self.aggregates.setdefault((self.request, layer), [0.0, 0])
        slot[0] += seconds
        slot[1] += 1
        if self._stack:
            self._stack[-1][4] += seconds

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.request, name)] += n

    # -- wrappers -----------------------------------------------------------

    def wrap_span(self, layer: str, fn: Callable, after: Callable | None = None,
                  on_error: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.count(layer + ".calls")
            self.open(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                self.close()
            if after:
                after(args, result)
            return result

        return wrapped

    def wrap_aggregate(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self._in_aggregate:  # e.g. triangulation_label -> matching_label
                return fn(*args, **kwargs)
            self._in_aggregate = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_aggregate = False
                self.add_aggregate(layer, perf_counter() - start)

        return wrapped

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """Self seconds per layer over the run, the root span as ROOT_SPAN."""
        totals: Counter = Counter()
        for s in self.spans:
            totals[s.name] += s.self_s
        for (_, layer), (seconds, _) in self.aggregates.items():
            totals[layer] += seconds
        return dict(totals)

    def layer_calls(self) -> dict[str, int]:
        calls: Counter = Counter()
        for (_, name), n in self.counts.items():
            calls[name] += n
        for (_, layer), (_, n) in self.aggregates.items():
            calls[layer + ".calls"] += n
        return dict(calls)


def _extras(tracer: Tracer, layer: str, errors) -> dict:
    """Counters beyond .calls that a layer's boundary records."""
    if layer == "qpoly.cyclotomic":
        return {"after": lambda args, result: tracer.cyclotomic_orders.add(args[0])}
    if layer == "qpoly.eval":
        def on_error(exc: Exception) -> None:
            if isinstance(exc, errors.NonIntegerEvaluation):
                tracer.count("qpoly.eval.nonint")
        return {"on_error": on_error}
    if layer == "catalan.enumerate":
        return {"after": lambda args, result: tracer.count("catalan.enumerate.objects", len(result))}
    if layer == "sieve.roots":
        def compose_steps(args, result) -> None:
            action = args[0].action
            tracer.count("sieve.roots.compose_steps", action.order * action.size)
        return {"after": compose_steps}
    return {}


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[list[tuple[object, str, object]]]:
    """Wrap every traced attribute; restore the originals on exit."""
    errors = importlib.import_module("csplab.errors")
    saved: list[tuple[object, str, object]] = []
    try:
        for (mod_name, attr), layer in {**SPANS, **AGGREGATES}.items():
            module = importlib.import_module(f"csplab.{mod_name}")
            original = getattr(module, attr)
            if (mod_name, attr) in SPANS:
                wrapper = tracer.wrap_span(layer, original, **_extras(tracer, layer, errors))
            else:
                wrapper = tracer.wrap_aggregate(layer, original)
            saved.append((module, attr, original))
            setattr(module, attr, wrapper)
        yield saved
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
