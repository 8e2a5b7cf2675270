"""Outside-in tracing of ctpow: spans around the public calls of each layer.

The program itself has no timers, so the benchmark replaces public functions
with wrappers at the place their callers look them up:

    ctpow.recurrence.{exact_coefficient, constant_term_series,
                      search_recurrence, fit_recurrence}      layer recurrence
    ctpow.recurrence.coefficient_mod_prime                   layer engine
    ctpow.interp.inverse_vandermonde_row  (engine calls interp.<name>)  interp
    ctpow.recurrence.{select_primes, reconstruct}            layer rns
    ctpow.recurrence.normalize                               layer laurent

Each wrapper records a span (name, layer, start, end, parent) and the work
counts the layer exposes.  The engine wrapper builds each prime's context
with the public make_context so that its Counters and AllocationMeter can be
read after the call.  Spans inside pool workers are invisible from here, so
a traced operation must run on one thread.

A layer's self time is the time its spans cover minus the part covered by
their child spans; summed over all layers, plus the benchmark's own root
span, the self times add up to the root span's duration.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

COUNT_KEYS = ("mults", "split2_calls", "base_invocations", "pow_mod_calls")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None


@dataclass
class Recorder:
    """Spans in call order plus the work counts read at layer boundaries."""
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    meter_peak: int = 0
    result_bits: int = 0
    modulus_bits: int = 0
    _stack: list[int] = field(default_factory=list)

    def add(self, key: str, n: int):
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        idx = self.open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for s, e in sorted(intervals):
        if e <= reach:
            continue
        total += e - max(s, reach)
        reach = e
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = []
    for sp, kids in zip(spans, children):
        clipped = [(max(s, sp.start), min(e, sp.end)) for s, e in kids]
        out.append((sp.end - sp.start) - _covered(c for c in clipped if c[1] > c[0]))
    return out


def self_by(spans: list[Span], key) -> dict[str, float]:
    """Self time summed over spans grouped by key(span)."""
    out: dict[str, float] = {}
    for sp, t in zip(spans, self_times(spans)):
        k = key(sp)
        out[k] = out.get(k, 0.0) + t
    return out


def install(rec: Recorder, recurrence, interp, engine) -> list[str]:
    """Wrap ctpow's public functions so that every call lands in `rec`.

    Returns the names that were not found; their layers then read zero.
    """
    missing = []

    def wrap(module, name, layer, after=None):
        fn = getattr(module, name, None)
        if fn is None:
            missing.append(name)
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = rec.call(name, layer, fn, *args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        setattr(module, name, traced)

    for name in ("exact_coefficient", "constant_term_series",
                 "search_recurrence"):
        wrap(recurrence, name, "recurrence")

    def count_fit(rel, *args, **kwargs):
        rec.add("fit_calls", 1)
        rec.add("fit_hits", int(rel is not None))

    def count_primes(ms, *args, **kwargs):
        rec.add("primes", len(ms.primes))

    def count_bits(x, v, ms):
        rec.result_bits += abs(x).bit_length()
        rec.modulus_bits += sum(q.bit_length() for q in ms.primes)

    wrap(recurrence, "fit_recurrence", "recurrence", count_fit)
    wrap(recurrence, "normalize", "laurent")
    wrap(recurrence, "select_primes", "rns", count_primes)
    wrap(recurrence, "reconstruct", "rns", count_bits)

    row = getattr(interp, "inverse_vandermonde_row", None)
    # a row counts as built when the row cache missed; with no cache, always
    cache_info = getattr(row, "cache_info", None)

    @functools.wraps(row)
    def traced_row(N, r, modulus=None):
        before = cache_info().misses if cache_info else 0
        out = rec.call("inverse_vandermonde_row", "interp", row, N, r, modulus)
        rec.add("row_calls", 1)
        if cache_info is None or cache_info().misses > before:
            rec.add("rows_built", 1)
            rec.add("row_work", (N + 1) ** 2)
        return out

    if row is None:
        missing.append("inverse_vandermonde_row")
    else:
        interp.inverse_vandermonde_row = traced_row

    coefficient_mod_prime = getattr(recurrence, "coefficient_mod_prime", None)
    if coefficient_mod_prime is None:
        return missing + ["coefficient_mod_prime"]

    @functools.wraps(coefficient_mod_prime)
    def traced_prime(nf, i, p, q, use_split2=True, ctx=None):
        idx = rec.open("coefficient_mod_prime", "engine")
        try:
            if ctx is None:
                ctx = engine.make_context(nf, tuple(int(x) for x in i), p, q,
                                          use_split2)
            out = coefficient_mod_prime(nf, i, p, q, use_split2, ctx=ctx)
        finally:
            rec.close(idx)
        parent = rec.spans[idx].parent
        rec.add("engine_calls", 1)
        if parent is not None and rec.spans[parent].layer == "recurrence":
            rec.add("tasks", 1)
        for key in COUNT_KEYS:
            rec.add(key, getattr(ctx.counters, key))
        rec.meter_peak = max(rec.meter_peak, ctx.meter.peak)
        return out

    recurrence.coefficient_mod_prime = traced_prime
    return missing


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer figures of one traced operation.

    The recorder must hold one root span, opened by the benchmark around the
    timed call; its self time is the benchmark's own share (`trace.other_s`).
    """
    roots = [sp for sp in rec.spans if sp.parent is None]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    by_layer = self_by(rec.spans, lambda sp: sp.layer)
    by_name = self_by(rec.spans, lambda sp: sp.name)
    c = rec.counts.get
    engine_s = by_layer.get("engine", 0.0)
    return {
        "engine.self_s": engine_s,
        "engine.calls": c("engine_calls", 0),
        "engine.mults": c("mults", 0),
        "engine.split2_calls": c("split2_calls", 0),
        "engine.base_invocations": c("base_invocations", 0),
        "engine.pow_mod_calls": c("pow_mod_calls", 0),
        "engine.meter_peak": rec.meter_peak,
        "engine.mults_per_s": c("mults", 0) / engine_s if engine_s else 0.0,
        "interp.row_s": by_layer.get("interp", 0.0),
        "interp.row_calls": c("row_calls", 0),
        "interp.rows_built": c("rows_built", 0),
        "interp.row_work": c("row_work", 0),
        "rns.select_primes_s": by_name.get("select_primes", 0.0),
        "rns.reconstruct_s": by_name.get("reconstruct", 0.0),
        "rns.primes": c("primes", 0),
        "rns.bit_yield": (rec.result_bits / rec.modulus_bits
                          if rec.modulus_bits else 0.0),
        "recurrence.self_s": by_layer.get("recurrence", 0.0),
        "recurrence.tasks": c("tasks", 0),
        "recurrence.fit_s": by_name.get("fit_recurrence", 0.0),
        "recurrence.fit_calls": c("fit_calls", 0),
        "recurrence.fit_hits": c("fit_hits", 0),
        "laurent.normalize_s": by_layer.get("laurent", 0.0),
        "trace.solve_s": roots[0].end - roots[0].start,
        "trace.other_s": by_layer.get(roots[0].layer, 0.0),
    }
