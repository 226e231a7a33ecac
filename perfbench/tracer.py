"""Boundary tracing of the fqsimplex modules.

``Tracer.install()`` replaces every public function of the package modules
(and ``PrimeField.__init__``) by a wrapper, in every ``fqsimplex`` namespace
that binds the original object, and ``uninstall()`` puts the originals back.
Every traced call keeps a frame on a per-thread stack so that self time
(duration minus the time of traced callees) is known when the call returns.

Most calls leave a span (name, start, end, parent, op id) in memory;
the hottest small functions listed in ``AGGREGATED`` only add to counters per
(function, parent function) to keep the overhead down.  A call that starts
on a pool thread with an empty stack takes the main thread's innermost open
call as its parent; the parent's self time then excludes the union of those
cross-thread intervals.

Nothing here changes arguments or results, so traced CLI output is
byte-identical to untraced output (a self-test checks this).
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import threading
import time
from collections import defaultdict

MODULES = ("field", "domain", "linalg", "charsums", "fourier", "measures", "counting", "cli")

# Private helpers traced anyway because a layer metric needs their boundary.
PRIVATE = {"counting": ("_count_embeddings",)}

# Per-element helpers of a microsecond or less, called up to 10^5 times per
# op: wrapping them would double an op's time, so they stay unwrapped and
# their time counts as their caller's self time.  span_elements is a
# generator, whose work happens in the caller's loop anyway.
INLINE = {
    "domain.point_of",
    "domain.index_of",
    "domain.as_grid",
    "domain.as_flat",
    "domain.domain_size",
    "linalg.vec_reduce",
    "linalg.vec_add",
    "linalg.vec_sub",
    "linalg.vec_scale",
    "linalg.dot",
    "linalg.length_sq",
    "linalg.span_elements",
    "field.is_prime",
}

# Functions called thousands of times per op: counted per parent, no span.
AGGREGATED = {
    "domain.translate_values",
    "domain.dots_with",
    "domain.coords_matrix",
    "domain.lengths_vector",
    "domain.index_array",
    "linalg.rref",
    "linalg.matrix_rank",
    "linalg.subspace_span",
    "fourier.chi_values",
    "charsums.gauss_sum",
    "charsums.quadratic_sum_closed_form",
    "charsums.quadratic_sum_bruteforce",
    "charsums.twisted_kloosterman",
    "measures.conditional_value",
    "measures.conditional_mask",
    "measures.span_mask",
    "cli.record",
}

SMALL_TRANSFORM = 4096  # points; fourier.fourier_transform.small_s vs .large_s


class _Frame:
    __slots__ = ("name", "start", "child", "xthread", "span")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0
        self.xthread = None
        self.span = None


def _union_length(intervals) -> float:
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class _ThreadState:
    def __init__(self, number: int):
        self.number = number  # order of first traced call; thread idents can be reused
        self.stack: list = []
        self.spans: list = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, incl, self
        self.by_parent = defaultdict(lambda: [0, 0.0])  # (name, parent) -> calls, incl
        self.counters = defaultdict(float)
        self.last_support = 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads: list = []
        self._main_state = self._state()
        self._patches: list = []
        self.op = None

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(len(self._threads))
            self._local.st = st
            self._threads.append(st)
        return st

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        aggregated = name in AGGREGATED
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            cross = False
            if parent is None and st is not tracer._main_state:
                main_stack = tracer._main_state.stack
                if main_stack:
                    parent = main_stack[-1]
                    cross = True
            ctx = hook.pre(st, args, kwargs) if hook else None
            frame = _Frame(name, clock())
            if not aggregated:
                frame.span = len(st.spans)
                st.spans.append(None)
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame.start
                busy = frame.child
                if frame.xthread:
                    busy += _union_length(frame.xthread)
                s = st.stats[name]
                s[0] += 1
                s[1] += dur
                s[2] += dur - busy
                pname = parent.name if parent is not None else None
                if parent is not None:
                    if cross:
                        if parent.xthread is None:
                            parent.xthread = []
                        parent.xthread.append((frame.start, end))
                    else:
                        parent.child += dur
                if aggregated:
                    b = st.by_parent[(name, pname)]
                    b[0] += 1
                    b[1] += dur
                else:
                    st.spans[frame.span] = (name, frame.start, end,
                                            _span_ref(parent, st, cross, tracer), tracer.op)
                if hook:
                    hook.post(st, args, kwargs, result, dur, ctx)

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for mod_name in MODULES:
            mod = importlib.import_module(f"fqsimplex.{mod_name}")
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in PRIVATE.get(mod_name, ())
                if (public and callable(obj) and f"{mod_name}.{attr}" not in INLINE and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    originals[id(obj)] = (obj, self._wrap(f"{mod_name}.{attr}", obj))
        for ns_name, ns in list(sys.modules.items()):
            if ns is None or not (ns_name == "fqsimplex" or ns_name.startswith("fqsimplex.")):
                continue
            for attr, obj in list(vars(ns).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
        field_cls = importlib.import_module("fqsimplex.field").PrimeField
        init = field_cls.__init__
        self._patches.append((field_cls, "__init__", init))
        field_cls.__init__ = self._wrap("field.PrimeField", init)

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def stats(self) -> dict:
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for st in self._threads:
            for name, (c, incl, self_t) in st.stats.items():
                o = out[name]
                o[0] += c
                o[1] += incl
                o[2] += self_t
        return dict(out)

    def by_parent(self) -> dict:
        out = defaultdict(lambda: [0, 0.0])
        for st in self._threads:
            for key, (c, incl) in st.by_parent.items():
                out[key][0] += c
                out[key][1] += incl
        return dict(out)

    def counters(self) -> dict:
        out = defaultdict(float)
        for st in self._threads:
            for key, v in st.counters.items():
                out[key] += v
        return dict(out)

    def write_spans(self, path) -> int:
        """Write every span as one JSON line; parent is [thread, index] or null."""
        n = 0
        with open(path, "w") as fh:
            for st in self._threads:
                for i, sp in enumerate(st.spans):
                    if sp is None:
                        continue
                    name, start, end, parent, op = sp
                    fh.write(json.dumps({"id": [st.number, i], "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")
                    n += 1
        return n


def _span_ref(parent, st, cross, tracer):
    """[thread, index] of the nearest enclosing span, or None."""
    if parent is None:
        return None
    stack = tracer._main_state.stack if cross else st.stack
    owner = tracer._main_state.number if cross else st.number
    if parent.span is not None:
        return [owner, parent.span]
    for f in reversed(stack):
        if f.span is not None:
            return [owner, f.span]
    return None


# ---------------------------------------------------------------------------
# hooks: counters that need arguments or results
# ---------------------------------------------------------------------------

class _Hook:
    def pre(self, st, args, kwargs):
        return None

    def post(self, st, args, kwargs, result, dur, ctx):
        pass


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class _SupportTuples(_Hook):
    def post(self, st, args, kwargs, result, dur, ctx):
        field, simplex, j = _arg(args, kwargs, 0, "field"), _arg(args, kwargs, 1, "simplex"), _arg(args, kwargs, 2, "j")
        st.counters["support.tuples"] += len(result)
        st.counters["support.predicted"] += field.q ** (j * simplex.d - math.comb(j + 1, 2))
        st.last_support = len(result)


class _CountCopies(_Hook):
    def pre(self, st, args, kwargs):
        support = kwargs.get("support", args[3] if len(args) > 3 else None)
        return time.thread_time(), (None if support is None else len(support))

    def post(self, st, args, kwargs, result, dur, ctx):
        cpu0, n_support = ctx
        st.counters["count.wait_s"] += dur - (time.thread_time() - cpu0)
        st.counters["count.support_tuples"] += st.last_support if n_support is None else n_support


class _Transform(_Hook):
    def post(self, st, args, kwargs, result, dur, ctx):
        f = _arg(args, kwargs, 0, "f")
        n = f.q ** f.d
        st.counters["fourier.points"] += n
        st.counters["fourier.small_s" if n <= SMALL_TRANSFORM else "fourier.large_s"] += dur


class _Translate(_Hook):
    def post(self, st, args, kwargs, result, dur, ctx):
        st.counters["translate.bytes"] += _arg(args, kwargs, 0, "values").nbytes


class _Emit(_Hook):
    def pre(self, st, args, kwargs):
        try:
            return sys.stdout.tell()
        except (AttributeError, OSError, ValueError):
            return None

    def post(self, st, args, kwargs, result, dur, ctx):
        if ctx is not None:
            st.counters["emit.bytes"] += sys.stdout.tell() - ctx


_HOOKS = {
    "counting.support_tuples": _SupportTuples(),
    "counting.count_isometric_copies": _CountCopies(),
    "fourier.fourier_transform": _Transform(),
    "domain.translate_values": _Translate(),
    "cli.emit": _Emit(),
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    **{f"{m}.self_s": "s" for m in MODULES},
    "counting.support_tuples.self_s": "s",
    "counting.support_tuples.tuples": "count",
    "counting.support_tuples.predicted_ratio": "ratio",
    "counting.count_isometric_copies.self_s": "s",
    "counting.script_S_indicator_exact.self_s": "s",
    "counting.count_isometric_copies.wait_s": "s",
    "counting.tree_visit_ratio": "ratio",
    "counting.verify_error_lemma.self_s": "s",
    "domain.translate_values.calls": "count",
    "domain.translate_values.s": "s",
    "domain.translate_values.bytes": "B",
    "domain.dots_with.calls": "count",
    "domain.dots_with.s": "s",
    "measures.span_mask.calls": "count",
    "measures.span_mask.self_s": "s",
    "linalg.subspace_span.calls": "count",
    "linalg.subspace_span.s": "s",
    "measures.build_conditional.calls": "count",
    "measures.build_conditional.self_s": "s",
    "measures.measure_suite.self_s": "s",
    "linalg.matrix_rank.calls": "count",
    "linalg.matrix_rank.s": "s",
    "fourier.fourier_transform.calls": "count",
    "fourier.fourier_transform.points": "count",
    "fourier.fourier_transform.small_s": "s",
    "fourier.fourier_transform.large_s": "s",
    "fourier.fourier_transform.ns_per_point": "ns",
    "charsums.weil_bound_audit.s": "s",
    "charsums.quadratic_sum_bruteforce.calls": "count",
    "charsums.quadratic_sum_bruteforce.s": "s",
    "charsums.gauss_sum.calls": "count",
    "field.PrimeField.calls": "count",
    "field.PrimeField.s": "s",
    "cli.resolve_simplex.s": "s",
    "cli.emit.s": "s",
    "cli.emit.bytes": "B",
    "trace.untraced_op_s": "s",
    "trace.traced_op_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, n_ops: int, untraced_s: float, traced_s: float) -> dict:
    """Every LAYER_METRICS value, per op (totals divided by ``n_ops``)."""
    stats = tracer.stats()
    counters = tracer.counters()
    parents = tracer.by_parent()

    def st(name, i):
        return stats.get(name, (0, 0.0, 0.0))[i]

    module_self = defaultdict(float)
    for name, (_, _, self_t) in stats.items():
        module_self[name.split(".", 1)[0]] += self_t
    tree_calls = sum(c for (name, parent), (c, _) in parents.items()
                     if name == "domain.translate_values" and parent == "counting._count_embeddings")
    points = counters.get("fourier.points", 0.0)
    transform_s = st("fourier.fourier_transform", 1)
    tuples = counters.get("support.tuples", 0.0)
    predicted = counters.get("support.predicted", 0.0)
    visits = counters.get("count.support_tuples", 0.0)
    totals = {
        **{f"{m}.self_s": module_self[m] for m in MODULES},
        "counting.support_tuples.self_s": st("counting.support_tuples", 2),
        "counting.support_tuples.tuples": tuples,
        "counting.count_isometric_copies.self_s": st("counting.count_isometric_copies", 2),
        "counting.script_S_indicator_exact.self_s": st("counting.script_S_indicator_exact", 2),
        "counting.count_isometric_copies.wait_s": counters.get("count.wait_s", 0.0),
        "counting.verify_error_lemma.self_s": st("counting.verify_error_lemma", 2),
        "domain.translate_values.calls": st("domain.translate_values", 0),
        "domain.translate_values.s": st("domain.translate_values", 1),
        "domain.translate_values.bytes": counters.get("translate.bytes", 0.0),
        "domain.dots_with.calls": st("domain.dots_with", 0),
        "domain.dots_with.s": st("domain.dots_with", 1),
        "measures.span_mask.calls": st("measures.span_mask", 0),
        "measures.span_mask.self_s": st("measures.span_mask", 2),
        "linalg.subspace_span.calls": st("linalg.subspace_span", 0),
        "linalg.subspace_span.s": st("linalg.subspace_span", 1),
        "measures.build_conditional.calls": st("measures.build_conditional", 0),
        "measures.build_conditional.self_s": st("measures.build_conditional", 2),
        "measures.measure_suite.self_s": st("measures.measure_suite", 2),
        "linalg.matrix_rank.calls": st("linalg.matrix_rank", 0),
        "linalg.matrix_rank.s": st("linalg.matrix_rank", 1),
        "fourier.fourier_transform.calls": st("fourier.fourier_transform", 0),
        "fourier.fourier_transform.points": points,
        "fourier.fourier_transform.small_s": counters.get("fourier.small_s", 0.0),
        "fourier.fourier_transform.large_s": counters.get("fourier.large_s", 0.0),
        "charsums.weil_bound_audit.s": st("charsums.weil_bound_audit", 1),
        "charsums.quadratic_sum_bruteforce.calls": st("charsums.quadratic_sum_bruteforce", 0),
        "charsums.quadratic_sum_bruteforce.s": st("charsums.quadratic_sum_bruteforce", 1),
        "charsums.gauss_sum.calls": st("charsums.gauss_sum", 0),
        "field.PrimeField.calls": st("field.PrimeField", 0),
        "field.PrimeField.s": st("field.PrimeField", 1),
        "cli.resolve_simplex.s": st("cli.resolve_simplex", 1),
        "cli.emit.s": st("cli.emit", 1),
        "cli.emit.bytes": counters.get("emit.bytes", 0.0),
        "trace.untraced_op_s": untraced_s,
        "trace.traced_op_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    out = {name: value / n_ops for name, value in totals.items()}
    # Ratios are not per op.
    out["counting.support_tuples.predicted_ratio"] = tuples / predicted if predicted else 0.0
    out["counting.tree_visit_ratio"] = tree_calls / visits if visits else 0.0
    out["fourier.fourier_transform.ns_per_point"] = transform_s / points * 1e9 if points else 0.0
    return {name: out[name] for name in LAYER_METRICS}
