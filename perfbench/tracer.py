"""Spans around calls into modpoly, installed from the benchmark's own files.

``Tracer.install`` replaces every module-level binding of a public
modpoly function with a wrapper that records one span per call: in the
module that defines the function and in every module that imports it,
so calls from one layer into another are seen.  It also wraps
``IntSeries.__mul__`` (and its alias ``__rmul__``), ``__pow__`` and
``invert`` on the class.  Generator functions (``comb.partitions``) are
left alone: a wrapper would time only the creation of the generator, so
their work stays in the caller's self time.

Spans are kept in flat arrays in memory and written out at the end.  A
span's self time is its duration minus the durations of its direct
children; since calls nest, the self times of all spans inside a task,
plus the time spent updating counters, add up to the task span's
duration.  Only a traced run installs the
wrappers; the untraced run never imports this module.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import time
from array import array

LAYERS = ("qseries", "jfun", "comb", "closedform", "recurrence", "congruence", "io_cli")
SERIES_METHODS = {"__mul__": "mul", "__rmul__": "mul", "__pow__": "pow", "invert": "invert"}
COUNTERS = (
    "qseries.mul.coeff_products",
    "qseries.mul.max_len",
    "qseries.max_coeff_bits",
    "jfun.j_coefficients.count_sum",
    "recurrence.recurrence_row.memo_hits",
    "congruence.records",
)


def _window_products(la: int, lb: int, n: int) -> int:
    """Coefficient products of the schoolbook loop in IntSeries.__mul__.

    The loop multiplies a[i] by b[j] for i < la, j < lb and i + j < n,
    skipping zero coefficients; this counts the zeros too, so it is
    computed from the lengths, not measured.
    """
    k = min(la, n)
    full = max(0, min(k, n - lb + 1))   # rows i where the whole of b fits
    return full * lb + (k - full) * n - (k - 1 + full) * (k - full) // 2


def _coeff_bits(series) -> int:
    c = series.coeffs
    return max(max(c), -min(c)).bit_length() if c else 0


class Tracer:
    """Span recorder and per-function counters for one process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.calls = []
        self.total_s = []
        self.self_s = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._ids = itertools.count()
        self._stack = []      # ids of the open spans, innermost last
        self._covered = []    # per open span: total duration of its closed children
        self.observe_s = 0.0  # time spent updating counters inside some span

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def _close(self, nid, sid, parent, t0, t1, covered):
        dur = t1 - t0
        if self._covered:
            self._covered[-1] += dur
        self.span_id.append(sid)
        self.span_parent.append(parent)
        self.span_name.append(nid)
        self.span_start.append(t0)
        self.span_end.append(t1)
        self.calls[nid] += 1
        self.total_s[nid] += dur
        self.self_s[nid] += dur - covered

    def wrap(self, fn, name: str, observe=None):
        """``fn`` recording a span named ``name`` per call.

        ``observe(args, result)`` runs after the span has closed; its time
        is counted as a child of the enclosing span and reported in
        ``layer.bench.self_s``, so it costs neither ``fn`` nor its caller.
        """
        nid = self.name_id(name)
        clock = time.perf_counter
        ids, stack, covered, close = self._ids, self._stack, self._covered, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            covered.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                close(nid, sid, parent, t0, t1, covered.pop())
            if observe is not None:
                o0 = clock()
                observe(args, result)
                observed = clock() - o0
                # The counters are the harness's work: take them out of the
                # enclosing span's self time and charge them to layer.bench.
                if covered:
                    covered[-1] += observed
                    self.observe_s += observed
            return result

        return traced

    def task(self, kind: str, fn, *args):
        """Run ``fn(*args)`` as the root span of one task."""
        return self.wrap(fn, "task:" + kind)(*args)

    # -- counters -------------------------------------------------------

    def _count_memo_hits(self, fn):
        # A memo hit is a call that multiplied no series, which is visible
        # from outside the package.
        mul = self.name_id("qseries.mul")
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = self.calls[mul]
            result = fn(*args, **kwargs)
            if self.calls[mul] == before:
                counters["recurrence.recurrence_row.memo_hits"] += 1
            return result

        return counted

    def _observe_mul(self, args, result):
        a, b = args
        counters = self.counters
        if isinstance(b, int):
            products, n = len(a.coeffs), len(a.coeffs)
        elif hasattr(b, "coeffs"):
            base = a.base_exponent + b.base_exponent
            n = max(0, min(a.precision + b.base_exponent, b.precision + a.base_exponent) - base)
            products = _window_products(len(a.coeffs), len(b.coeffs), n)
        else:
            return
        counters["qseries.mul.coeff_products"] += products
        if n > counters["qseries.mul.max_len"]:
            counters["qseries.mul.max_len"] = n
        self._observe_bits(args, result)

    def _observe_bits(self, args, result):
        bits = _coeff_bits(result) if hasattr(result, "coeffs") else 0
        if bits > self.counters["qseries.max_coeff_bits"]:
            self.counters["qseries.max_coeff_bits"] = bits

    def _observe_jcount(self, args, result):
        self.counters["jfun.j_coefficients.count_sum"] += args[0]

    def _observe_records(self, args, result):
        self.counters["congruence.records"] += len(result.records)

    # -- installation -----------------------------------------------------

    def install(self, mp) -> None:
        """Wrap the public functions of package ``mp`` and the IntSeries methods."""
        observers = {
            "jfun.j_coefficients": self._observe_jcount,
            "congruence.check_row": self._observe_records,
            "congruence.check_conjecture_div": self._observe_records,
        }
        modules = [mp] + [getattr(mp, layer) for layer in LAYERS]
        wrapped = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(mp.__name__ + ".")
                        or inspect.isgeneratorfunction(obj)):
                    continue
                if id(obj) not in wrapped:
                    name = "%s.%s" % (obj.__module__.rsplit(".", 1)[1], obj.__name__)
                    inner = self._count_memo_hits(obj) if name == "recurrence.recurrence_row" else obj
                    wrapped[id(obj)] = self.wrap(inner, name, observers.get(name))
                setattr(module, attr, wrapped[id(obj)])
        series = mp.qseries.IntSeries
        method_wrappers = {}
        for attr, short in SERIES_METHODS.items():
            fn = getattr(series, attr)
            if id(fn) not in method_wrappers:
                observe = self._observe_mul if short == "mul" else self._observe_bits
                method_wrappers[id(fn)] = self.wrap(fn, "qseries." + short, observe)
            setattr(series, attr, method_wrappers[id(fn)])

    # -- results ----------------------------------------------------------

    def _by_name(self, table, name):
        nid = self._name_ids.get(name)
        return 0 if nid is None else table[nid]

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the spans recorded so far.

        ``wall_s`` is the traced pass's wall time; what no task span
        covers is reported as ``trace.untraced_s``.
        """
        calls = functools.partial(self._by_name, self.calls)
        self_s = functools.partial(self._by_name, self.self_s)
        total_s = functools.partial(self._by_name, self.total_s)
        out = {
            "qseries.mul.calls": calls("qseries.mul"),
            "qseries.mul.self_s": self_s("qseries.mul"),
            "qseries.pow.calls": calls("qseries.pow"),
            "qseries.pow.self_s": self_s("qseries.pow"),
            "qseries.invert.self_s": self_s("qseries.invert"),
            "jfun.j_coefficients.calls": calls("jfun.j_coefficients"),
            "jfun.j_coefficients.self_s": self_s("jfun.j_coefficients"),
            "closedform.coeff_closed.calls": calls("closedform.coeff_closed"),
            "closedform.coeff_closed.self_s": self_s("closedform.coeff_closed"),
            "closedform.term_weight.calls": calls("closedform.term_weight"),
            "closedform.term_weight.s": total_s("closedform.term_weight"),
            "closedform.coeff_small_m.calls": calls("closedform.coeff_small_m"),
            "recurrence.recurrence_row.calls": calls("recurrence.recurrence_row"),
            "recurrence.recurrence_row.self_s": self_s("recurrence.recurrence_row"),
            "recurrence.solve_full_polynomial.calls": calls("recurrence.solve_full_polynomial"),
            "recurrence.solve_full_polynomial.self_s": self_s("recurrence.solve_full_polynomial"),
            "recurrence.polynomial_residual.self_s": self_s("recurrence.polynomial_residual"),
            "congruence.ord_p.calls": calls("congruence.ord_p"),
            "congruence.check_row.s": total_s("congruence.check_row"),
            "congruence.check_conjecture_div.s": total_s("congruence.check_conjecture_div"),
            "io_cli.cli_main.calls": calls("io_cli.cli_main"),
            "io_cli.cli_main.self_s": self_s("io_cli.cli_main"),
            "io_cli.parse_sutherland.s": total_s("io_cli.parse_sutherland"),
            "io_cli.emit.s": total_s("io_cli.emit_sutherland_text") + total_s("io_cli.emit_polynomial_json"),
        }
        out.update(self.counters)
        layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
        layer_self["bench"] = self.observe_s
        tasks_s = 0.0
        for name, value in zip(self.names, self.self_s):
            layer = name.split(".", 1)[0]
            if layer.startswith("task:"):
                layer_self["bench"] += value
                tasks_s += self.total_s[self._name_ids[name]]
            else:
                layer_self[layer] += value
        for layer, value in layer_self.items():
            out["layer.%s.self_s" % layer] = value
        out["trace.untraced_s"] = wall_s - tasks_s
        out["trace.spans"] = len(self.span_id)
        return out

    def write_spans(self, path: str) -> None:
        """Gzipped TSV, one span per line: id, parent, name, start, end.

        Times are seconds from the first span's start; parent -1 marks a
        task span, the root of its task's tree.
        """
        t_zero = min(self.span_start) if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, parent, nid, t0, t1 in zip(self.span_id, self.span_parent, self.span_name,
                                                self.span_start, self.span_end):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\n"
                         % (sid, parent, self.names[nid], t0 - t_zero, t1 - t_zero))
