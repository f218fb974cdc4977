"""In-memory spans around calls into each layer's public functions.

The tracer is installed from outside the program: it replaces functions
at every module that bound them by name (``identities`` and ``exprlang``
import ``lattice_rank_sum``, ``euler_E`` and others directly), patches
``TruncSeries`` methods on the class, and restores everything on exit.
Each wrapper of an ``lru_cache`` function keeps ``cache_info`` and
``cache_clear`` reachable.

A span is ``(name, start, end, parent, self)``, where ``self`` is the
span's duration minus the durations of its child spans.  Calls that
happen hundreds of thousands of times (the t-core test and each step
of the partition generator) are folded into one aggregate per
``(name, parent)`` instead of one span each; their time is still taken
off the parent's self time.  The tracer's own counting work is folded
the same way under the name ``trace.count``, and the worker's speed
probes under ``trace.probe``, so neither is charged to any layer.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
from itertools import accumulate, compress
from time import perf_counter

from sevencores import (
    cli,
    exprlang,
    identities,
    inequalities,
    partitions,
    theta,
)
from sevencores.series import TruncSeries

THETA_ATOMS = (
    "euler_E", "theta_f", "phi", "psi", "chi_neg",
    "sigma_at", "omega_at", "jacobi_cube",
)

# Public functions wrapped at every binding site, by span name.
SPANNED = (
    (theta, THETA_ATOMS, "theta.atoms"),
    (theta, ("eta_quotient",), "theta.eta_quotient"),
    (partitions, ("lattice_sum", "lattice_rank_sum"), "partitions.lattice"),
    (identities, ("verify",), "identities.verify"),
    (inequalities, ("core_split",), "inequalities.core_split"),
    (exprlang, ("parse",), "exprlang.parse"),
    (exprlang, ("to_text",), "exprlang.to_text"),
    (exprlang, ("evaluate",), "exprlang.evaluate"),
    (cli, ("main",), "cli.main"),
)

SERIES_METHODS = ("mul", "div", "pow", "invert")


def _nonzero_pairs(support, other, n):
    """Products x_i * y_j with x_i, y_j nonzero and i + j <= n, where
    support lists the nonzero indices i of x."""
    prefix = list(accumulate(map(bool, other[: n + 1])))
    return sum(prefix[n - i] for i in support if i <= n)


def _cache_totals(functions):
    """Summed (hits, misses, entries) of the functions that have a cache."""
    hits = misses = entries = 0
    for fn in functions:
        if not hasattr(fn, "cache_info"):
            continue
        info = fn.cache_info()
        hits, misses, entries = (
            hits + info.hits, misses + info.misses, entries + info.currsize
        )
    return hits, misses, entries


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []  # [span index, time covered by children]
        self.folded = {}  # (name, parent) -> [calls, seconds]
        self.counts = {}
        self.lattice_orders = set()
        self._restore = []

    # -- recording ------------------------------------------------------

    def fold(self, name, seconds):
        """Add one call of seconds to name's aggregate under the open span."""
        parent = self.stack[-1] if self.stack else None
        key = (name, parent[0] if parent else None)
        agg = self.folded.setdefault(key, [0, 0.0])
        agg[0] += 1
        agg[1] += seconds
        if parent:
            parent[1] += seconds

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def spanned(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent, end - start - frame[1])
                if stack:
                    stack[-1][1] += end - start

        wrapper.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- patching -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement):
        """Point every sevencores module's name for original at replacement."""
        for name, module in list(sys.modules.items()):
            if name != "sevencores" and not name.startswith("sevencores."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def __enter__(self):
        self.caches = [getattr(theta, a) for a in THETA_ATOMS]
        self.cache_start = _cache_totals(self.caches)
        self.lattice_cache = [getattr(partitions, "lattice_theta", None)]
        self.lattice_start = _cache_totals(self.lattice_cache)
        self.split_start = _cache_totals([inequalities.core_split])
        for module, attrs, span in SPANNED:
            for attr in attrs:
                original = getattr(module, attr)
                wrapped = self.spanned(span, original)
                if span == "partitions.lattice":
                    wrapped = self._lattice(attr, wrapped)
                self._rebind(original, wrapped)
        self._patch_partitions()
        self._patch_claims()
        self._patch_series()
        return self

    def __exit__(self, *exc):
        self.cache_end = _cache_totals(self.caches)
        self.lattice_end = _cache_totals(self.lattice_cache)
        self.split_end = _cache_totals([inequalities.core_split])
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        return False

    def _lattice(self, attr, wrapped):
        def wrapper(first, order):
            if attr == "lattice_rank_sum" or first == 7:
                self.lattice_orders.add(order)
            return wrapped(first, order)

        return wrapper

    def _patch_partitions(self):
        enum = partitions.enumerate_partitions
        t_core = partitions.is_t_core
        tracer = self

        def enumerate_partitions(n):
            tracer.count("partitions.enum.calls")
            gen = enum(n)
            yielded = 0
            try:
                while True:
                    start = perf_counter()
                    try:
                        part = next(gen)
                    except StopIteration:
                        tracer.fold("partitions.enum", perf_counter() - start)
                        return
                    tracer.fold("partitions.enum", perf_counter() - start)
                    yielded += 1
                    yield part
            finally:
                tracer.count("partitions.enum.partitions", yielded)

        def is_t_core(partition, t):
            start = perf_counter()
            kept = t_core(partition, t)
            tracer.fold("partitions.t_core", perf_counter() - start)
            if kept:
                tracer.count("partitions.t_core.kept")
            return kept

        self._rebind(enum, enumerate_partitions)
        self._rebind(t_core, is_t_core)

    def _patch_claims(self):
        tracer = self

        def counted(runner):
            timed = tracer.spanned("inequalities.claim", runner)

            def run(order):
                report = timed(order)
                lo, hi = report.n_range
                last = report.violation[0] if report.violation else hi
                tracer.count("inequalities.claim.items", max(0, last - lo + 1))
                return report

            return run

        claims = tuple(
            dataclasses.replace(c, runner=counted(c.runner))
            for c in inequalities.CLAIMS
        )
        self._set(inequalities, "CLAIMS", claims)
        self._set(inequalities, "_CLAIMS_BY_ID", {c.id: c for c in claims})

    def _patch_series(self):
        tracer = self
        init = TruncSeries.__init__
        peak = [0]

        def __init__(series, order, coeffs=()):
            cs = list(coeffs)
            init(series, order, cs)
            tracer.count("series.new.calls")
            tracer.count("series.new.coeffs", len(cs))
            if order > peak[0]:
                peak[0] = order

        self.peak_order = peak
        self._set(TruncSeries, "__init__", __init__)
        timed = {
            m: self.spanned(f"series.{m}", getattr(TruncSeries, m))
            for m in SERIES_METHODS
            if hasattr(TruncSeries, m)
        }
        timed_mul, timed_div = timed["mul"], timed["div"]

        def mul(a, b):
            out = timed_mul(a, b)
            start = perf_counter()
            n = out.order
            support = compress(range(n + 1), a.coeffs)
            tracer.count("series.mul.term_products",
                         _nonzero_pairs(support, b.coeffs, n))
            tracer.fold("trace.count", perf_counter() - start)
            return out

        def div(a, b):
            out = timed_div(a, b)
            start = perf_counter()
            n = out.order
            support = compress(range(1, n + 1), b.coeffs[1:])
            tracer.count("series.div.term_products",
                         _nonzero_pairs(support, out.coeffs, n))
            tracer.fold("trace.count", perf_counter() - start)
            return out

        timed.update(mul=mul, div=div)
        for m, wrapper in timed.items():
            self._set(TruncSeries, m, wrapper)

    # -- results ---------------------------------------------------------

    def layer_totals(self):
        """{layer name: [calls, self seconds]} over spans and folds."""
        totals = {}
        for name, _start, _end, _parent, own in self.spans:
            agg = totals.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += own
        for (name, _parent), (calls, seconds) in self.folded.items():
            agg = totals.setdefault(name, [0, 0.0])
            agg[0] += calls
            agg[1] += seconds
        return totals

    def metrics(self, wall_s, lattice_vectors):
        """Per-layer metrics of the traced passes (see perfbench/README.md).

        Cache counts are the deltas between entering and leaving the
        tracer, so calls made after it (digests) do not count.
        """
        totals = self.layer_totals()
        c = self.counts.get
        out = {}

        def layer(name):
            calls, seconds = totals.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = seconds

        for m in SERIES_METHODS:
            layer(f"series.{m}")
        out["series.mul.term_products"] = c("series.mul.term_products", 0)
        out["series.div.term_products"] = c("series.div.term_products", 0)
        out["series.new.calls"] = c("series.new.calls", 0)
        out["series.new.coeffs"] = c("series.new.coeffs", 0)
        out["series.peak_order"] = self.peak_order[0]

        layer("theta.eta_quotient")
        out["theta.atoms.self_s"] = totals.get("theta.atoms", (0, 0.0))[1]
        hits = self.cache_end[0] - self.cache_start[0]
        misses = self.cache_end[1] - self.cache_start[1]
        out["theta.cache.hits"] = hits
        out["theta.cache.misses"] = misses
        out["theta.cache.entries"] = self.cache_end[2]
        out["theta.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

        layer("partitions.lattice")
        out["partitions.lattice.hits"] = self.lattice_end[0] - self.lattice_start[0]
        out["partitions.lattice.misses"] = (
            self.lattice_end[1] - self.lattice_start[1]
        )
        out["partitions.lattice.vectors"] = lattice_vectors

        out["partitions.enum.calls"] = c("partitions.enum.calls", 0)
        out["partitions.enum.self_s"] = totals.get("partitions.enum", (0, 0.0))[1]
        out["partitions.enum.partitions"] = c("partitions.enum.partitions", 0)
        layer("partitions.t_core")
        tested = out["partitions.t_core.calls"]
        kept = c("partitions.t_core.kept", 0)
        out["partitions.t_core.kept_ratio"] = kept / tested if tested else 0.0

        layer("identities.verify")
        verify_ms = [
            (end - start) * 1000.0
            for name, start, end, _p, _s in self.spans
            if name == "identities.verify"
        ]
        out["identities.verify.p50_ms"] = (
            statistics.median(verify_ms) if verify_ms else 0.0
        )
        out["identities.verify.max_ms"] = max(verify_ms, default=0.0)

        layer("inequalities.core_split")
        out["inequalities.core_split.hits"] = self.split_end[0] - self.split_start[0]
        out["inequalities.core_split.misses"] = (
            self.split_end[1] - self.split_start[1]
        )
        layer("inequalities.claim")
        out["inequalities.claim.items"] = c("inequalities.claim.items", 0)

        for name in ("exprlang.parse", "exprlang.to_text", "exprlang.evaluate",
                     "cli.main"):
            layer(name)

        covered = sum(
            s for name, (_c, s) in totals.items() if not name.startswith("trace.")
        )
        out["trace.wall_s"] = wall_s
        out["trace.remainder_s"] = wall_s - covered
        return out

    def dump(self, path):
        """Write every span and fold as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, own in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "self": own}) + "\n")
            for (name, parent), (calls, seconds) in self.folded.items():
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "calls": calls, "self": seconds}) + "\n")
