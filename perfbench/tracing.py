"""In-memory spans around the rotavg layers, installed from outside the package.

Modules bind their collaborators with ``from .x import y``, so wrapping a
function in its defining module alone would miss internal calls.  The tracer
therefore rebinds every attribute of every loaded ``rotavg`` module that is
the original function.  Spans are aggregated per name (calls, total time,
self time); a span's self time is its duration minus the time of the spans
directly inside it.  Counters record work at the same boundaries.  Install
the tracer only for the traced run: the wrappers cost time on every call.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from math import comb


def closed_form_term_count(flat) -> int:
    """Summands of the closed-form sum for a flat matrix (computed, not measured).

    The quadruple sum runs over 0 <= q <= Q, r <= R, t <= T, u <= U with
    q + r + t + u of the rank's parity.
    """
    Q, R, _, T, U = flat[:5]
    ways = [1, 0]  # tuples so far with even / odd index sum
    for top in (Q, R, T, U):
        even, odd = top // 2 + 1, (top + 1) // 2
        ways = [ways[0] * even + ways[1] * odd, ways[0] * odd + ways[1] * even]
    return ways[sum(flat) & 1]


class Tracer:
    """Per-name span aggregates plus named counters."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans as [name, child_s]

    def _enter(self, name):
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, frame, start):
        elapsed = time.perf_counter() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed
        agg = self.spans.setdefault(frame[0], [0, 0.0, 0.0])
        agg[1] += elapsed
        agg[2] += elapsed - frame[1]

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name, fn, on_call=None):
        """Span around each call of fn; on_call(args, kwargs) runs outside the span."""

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            self.spans.setdefault(name, [0, 0.0, 0.0])[0] += 1
            frame, start = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, start)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name, fn, on_call=None):
        """Like wrap, for generator functions: each step runs inside the span."""

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            self.spans.setdefault(name, [0, 0.0, 0.0])[0] += 1
            it = fn(*args, **kwargs)
            while True:
                frame, start = self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(frame, start)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def span_totals(self, *names):
        calls = total = self_s = 0
        for name in names:
            c, t, s = self.spans.get(name, (0, 0.0, 0.0))
            calls, total, self_s = calls + c, total + t, self_s + s
        return calls, total, self_s


def _rebind(original, replacement) -> int:
    """Point every loaded rotavg module attribute bound to original at replacement."""
    bound = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "rotavg" or mod_name.startswith("rotavg.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    if not bound:
        raise RuntimeError(f"no rotavg module binds {original!r}")
    return bound


def install(tracer: Tracer, rv) -> None:
    """Wrap the rotavg entry points of the layers the benchmark reports on.

    ``rv`` is the imported ``rotavg`` package; its submodules must be loaded.
    """
    counts = tracer.counts
    ev = rv.evaluator
    oracle = rv.oracle

    def count_terms(args, kwargs):
        counts["evaluator.closed_form_terms"] += closed_form_term_count(args[0].flat)

    def count_group(args, kwargs):
        # average_component evaluates once per exponent-matrix group
        if tracer.parent() == "tensors.average_component":
            counts["tensors.groups"] += 1

    def count_pairs(args, kwargs):
        tensor = args[1] if len(args) > 1 else kwargs["tensor"]
        counts["tensors.pairs_grouped"] += len(tensor.components)

    def count_lab_space(args, kwargs):
        tensor = args[0] if args else kwargs["tensor"]
        counts["tensors.lab_space"] += 3 ** tensor.rank

    def count_points(args, kwargs):
        spec = args[1] if len(args) > 1 else kwargs.get("spec")
        if spec is None:
            spec = oracle.QuadratureSpec.for_rank(args[0].rank)
        counts["oracle.quadrature_points"] += spec.alpha_points * spec.beta_points * spec.gamma_points

    def count_samples(args, kwargs):
        counts["oracle.mc_samples"] += args[1] if len(args) > 1 else kwargs["samples"]

    def count_scan(args, kwargs):
        n = args[0] if args else kwargs["n"]
        counts["propositions.matrices_scanned"] += comb(n + 8, 8)

    plain = [
        (rv.power_matrix.canonical_flat, "power_matrix.canonical", None),
        (ev.evaluate, "evaluator.evaluate", count_group),
        (ev.closed_form, "evaluator.closed_form", count_terms),
        (ev.beta_path, "evaluator.beta_path", None),
        (rv.tensors.average_tensor, "tensors.average_tensor", count_lab_space),
        (rv.tensors.average_component, "tensors.average_component", count_pairs),
        (oracle.quadrature_average, "oracle.quadrature", count_points),
        (oracle.monte_carlo_average, "oracle.mc", count_samples),
        (rv.propositions.verify_even_rule, "propositions.sweep", count_scan),
        (rv.propositions.verify_odd_rule, "propositions.sweep", count_scan),
        (rv.propositions.verify_prime_nonvanishing, "propositions.sweep", count_scan),
        (rv.propositions.prop_converse_witnesses, "propositions.sweep", count_scan),
        (rv.propositions.canonical_representatives, "propositions.representatives", count_scan),
        (rv.rationals.format_rational, "rationals.format", None),
        (rv.rationals.parse_rational, "rationals.parse", None),
        (rv.cli.main, "cli.main", None),
    ]
    for fn, name, on_call in plain:
        _rebind(fn, tracer.wrap(name, fn, on_call))
    _rebind(
        rv.propositions.rank_table,
        tracer.wrap_generator("propositions.rank_table", rv.propositions.rank_table, count_scan),
    )

    tensor_cls = rv.tensors.DenseTensor
    from_json = tensor_cls.__dict__["from_json_obj"].__func__
    tensor_cls.from_json_obj = classmethod(tracer.wrap("tensors.from_json", from_json))
    tensor_cls.to_json_obj = tracer.wrap("tensors.to_json", tensor_cls.to_json_obj)

    cache_cls = ev.ValueCache
    orig_get, orig_put = cache_cls.get, cache_cls.put

    def get(cache, key):
        value = orig_get(cache, key)
        counts["evaluator.cache_hits" if value is not None else "evaluator.cache_misses"] += 1
        return value

    def put(cache, key, value):
        before = len(cache)
        orig_put(cache, key, value)
        if len(cache) > before:
            counts["evaluator.cache_entries"] += 1
        elif orig_get(cache, key) is None:
            counts["evaluator.cache_refused"] += 1

    cache_cls.get, cache_cls.put = get, put
