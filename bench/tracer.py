"""Per-layer tracing of scrollsec from outside the program.

The tracer replaces public functions by timing wrappers, in every scrollsec
module that holds a reference to them, and reads the `cache_info()` of the
program's `lru_cache`s.  No file of the program changes.  An untraced run
uses this module only to find and empty the caches; it installs no wrapper.

Two kinds of hook:

* a *span* records name, start, end and parent, and accumulates calls, whole
  time and self time (the span minus the child spans it covers);
* a *count* only counts calls, for functions called too often to time
  (field multiplication) or whose time is already inside a span.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

from scrollsec import _binpoly, delpezzo, exactfield, oracle, scroll, secant, strata

# Names and units of every per-layer metric, in print order.  A `_self_ms`
# metric is a span minus its child spans; any other `_ms` is the whole span.
LAYER_METRICS = (
    ("binpoly.roots_calls", "count"),
    ("binpoly.roots_ms", "ms"),
    ("binpoly.roots_deg1_calls", "count"),
    ("binpoly.roots_deg1_ms", "ms"),
    ("binpoly.roots_deg2_calls", "count"),
    ("binpoly.roots_deg2_ms", "ms"),
    ("binpoly.roots_deg3p_calls", "count"),
    ("binpoly.roots_deg3p_ms", "ms"),
    ("binpoly.ext_root_calls", "count"),
    ("exactfield.row_reduce_calls", "count"),
    ("exactfield.row_reduce_ms", "ms"),
    ("exactfield.mul_base_calls", "count"),
    ("exactfield.mul_ext_calls", "count"),
    ("scroll.contains_calls", "count"),
    ("scroll.contains_ms", "ms"),
    ("scroll.embed_calls", "count"),
    ("secant.classify_calls", "count"),
    ("secant.classify_self_ms", "ms"),
    ("secant.scan_misses", "count"),
    ("secant.scan_hits", "count"),
    ("secant.fibers_found", "count"),
    ("secant.all_active_points", "count"),
    ("secant.locus_points_ms", "ms"),
    ("strata.stratum_self_ms", "ms"),
    ("strata.member_A_ms", "ms"),
    ("strata.member_B_ms", "ms"),
    ("strata.member_U_ms", "ms"),
    ("strata.member_tangent_ms", "ms"),
    ("strata.member_sec_ms", "ms"),
    ("delpezzo.sample_inside_ms", "ms"),
    ("delpezzo.sample_outside_ms", "ms"),
    ("delpezzo.outside_attempts", "count"),
    ("delpezzo.outside_accepted", "count"),
    ("oracle.table_builds", "count"),
    ("oracle.table_points", "count"),
    ("oracle.table_build_ms", "ms"),
    ("oracle.pair_scan_ms", "ms"),
    ("oracle.brute_membership_ms", "ms"),
    ("oracle.lift_check_ms", "ms"),
    ("bench.points", "count"),
    ("bench.round_ms", "ms"),
)

_ROOT_BUCKETS = ("deg0", "deg1", "deg2", "deg3p")

# (module, function, span name): the layer boundaries timed as spans.
_SPANS = (
    (exactfield, "row_reduce", "exactfield.row_reduce"),
    (scroll, "contains", "scroll.contains"),
    (secant, "classify_with_data", "secant.classify"),
    (secant, "secant_locus_points", "secant.locus_points"),
    (strata, "stratum_geometric", "strata.stratum"),
    (strata, "member_A", "strata.member_A"),
    (strata, "member_B", "strata.member_B"),
    (strata, "member_U", "strata.member_U"),
    (strata, "member_tangent", "strata.member_tangent"),
    (strata, "member_secant_variety", "strata.member_sec"),
    (delpezzo, "sample_inside_locus", "delpezzo.sample_inside"),
    (delpezzo, "sample_outside_locus", "delpezzo.sample_outside"),
    (oracle, "_pair_data", "oracle.pair_scan"),
    (oracle, "brute_membership", "oracle.brute_membership"),
    (oracle, "check_lift_equalities", "oracle.lift_check"),
)

# (module, function, counter name): functions whose calls are only counted.
_COUNTS = (
    (scroll, "embed", "scroll.embed"),
    (delpezzo, "locus_member", "delpezzo.outside_attempts"),
)


def program_modules():
    """Every loaded scrollsec module; a wrapper must replace the original in all."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "scrollsec" or name.startswith("scrollsec."))]


def program_caches():
    """The program's lru_caches, found by their cache_info/cache_clear methods."""
    found = {}
    for mod in program_modules():
        for obj in vars(mod).values():
            if (callable(getattr(obj, "cache_clear", None))
                    and callable(getattr(obj, "cache_info", None))
                    and getattr(obj, "__module__", "").startswith("scrollsec")):
                found[id(obj)] = obj
    return list(found.values())


def clear_program_caches(caches) -> None:
    for cache in caches:
        cache.cache_clear()


class Tracer:
    """Spans and counters for one traced pass; `reset` starts the next pass."""

    def __init__(self):
        self._stack = []
        self._next_id = 0
        self.keep_spans = False
        self.spans = []
        self.point = None
        self.calls = defaultdict(int)
        self.whole = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.scan_cache = None

    def reset(self) -> None:
        """Zero the counters in place: the wrappers hold references to them."""
        for table in (self.calls, self.whole, self.self_time, self.counts):
            table.clear()

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, tracer._next_id]
            tracer._next_id += 1
            parent = tracer._stack[-1][1] if tracer._stack else None
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                nm = name(args) if callable(name) else name
                dur = end - start
                tracer.calls[nm] += 1
                tracer.whole[nm] += dur
                tracer.self_time[nm] += dur - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += dur
                if tracer.keep_spans:
                    tracer.spans.append((frame[1], parent, nm, start, end, tracer.point))

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _replace(module, attr, wrapper_of) -> None:
        """Swap `module.attr` for its wrapper wherever the program refers to it.
        A function the program no longer has is skipped; its metrics read 0."""
        orig = getattr(module, attr, None)
        if orig is None:
            return
        wrapper = wrapper_of(orig)
        for mod in program_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        """Wrap the layer boundaries.  Call once, after the program is imported."""
        for module, attr, name in _SPANS:
            self._replace(module, attr, lambda fn, name=name: self._span(fn, name))
        for module, attr, name in _COUNTS:
            self._replace(module, attr, lambda fn, name=name: self._count(fn, name))
        self._replace(_binpoly, "roots_base_and_ext",
                      lambda fn: self._span(fn, _roots_span_name))
        self._install_ext_roots()
        self._install_scan()
        self._install_tables()
        self._install_sample_outside()
        self._install_mul()

    def _install_ext_roots(self) -> None:
        counts = self.counts

        def wrapper_of(fn):
            def roots_in_field(ctx, f):
                if ctx.d == 2:
                    counts["binpoly.ext_root_calls"] += 1
                return fn(ctx, f)
            roots_in_field.__wrapped__ = fn
            return roots_in_field

        self._replace(_binpoly, "roots_in_field", wrapper_of)

    def _install_scan(self) -> None:
        """Fibers and all-active rulings of the secant scans the cache did not hold."""
        counts = self.counts
        cached = getattr(secant, "_scan_for_point", None)
        if not hasattr(cached, "cache_info"):
            return
        self.scan_cache = cached

        def scan(*args):
            misses = cached.cache_info().misses
            all_active, fibers = result = cached(*args)
            tangency = args[4]
            if not tangency and cached.cache_info().misses > misses:
                counts["secant.fibers_found"] += len(fibers)
                counts["secant.all_active_points"] += int(all_active)
            return result

        scan.__wrapped__ = cached
        self._replace(secant, "_scan_for_point", lambda fn: scan)

    def _install_tables(self) -> None:
        """Time point-table builds apart from the lookups the cache answers."""
        counts = self.counts
        cached = getattr(oracle, "enumerate_points", None)
        if not hasattr(cached, "cache_info"):
            return
        misses_before = [0]

        def span_name(args):
            built = cached.cache_info().misses > misses_before[0]
            return "oracle.table_build" if built else "oracle.table_lookup"

        timed = self._span(cached, span_name)

        def enumerate_points(*args, **kwargs):
            misses_before[0] = cached.cache_info().misses
            table = timed(*args, **kwargs)
            if cached.cache_info().misses > misses_before[0]:
                counts["oracle.table_points"] += len(table)
            return table

        enumerate_points.__wrapped__ = cached
        self._replace(oracle, "enumerate_points", lambda fn: enumerate_points)

    def _install_sample_outside(self) -> None:
        counts = self.counts

        def wrapper_of(fn):
            def sample_outside_locus(*args, **kwargs):
                p = fn(*args, **kwargs)
                if p is not None:
                    counts["delpezzo.outside_accepted"] += 1
                return p
            sample_outside_locus.__wrapped__ = fn
            return sample_outside_locus

        self._replace(delpezzo, "sample_outside_locus", wrapper_of)

    def _install_mul(self) -> None:
        """Count field multiplications by field degree (the class attribute is
        looked up on every `ctx.mul`, so patching the class reaches every call)."""
        counts = self.counts
        mul = exactfield.FieldCtx.mul
        names = {1: "exactfield.mul_base_calls", 2: "exactfield.mul_ext_calls"}

        def counted_mul(ctx, a, b):
            counts[names[ctx.d]] += 1
            return mul(ctx, a, b)

        exactfield.FieldCtx.mul = counted_mul

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw counters of the pass: call counts, whole and self times in ms."""
        out = {f"calls.{k}": v for k, v in self.calls.items()}
        out.update({f"count.{k}": v for k, v in self.counts.items()})
        if self.scan_cache is not None:
            # the caches are cleared before every pass, so these are the pass's own
            info = self.scan_cache.cache_info()
            out["count.secant.scan_hits"] = info.hits
            out["count.secant.scan_misses"] = info.misses
        whole = {k: v * 1000.0 for k, v in self.whole.items()}
        self_ms = {k: v * 1000.0 for k, v in self.self_time.items()}
        return {"counts": out, "whole_ms": whole, "self_ms": self_ms}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, point in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "point": point}) + "\n")


def _roots_span_name(args) -> str:
    f = _binpoly.pnorm(list(args[1]))
    deg = len(f) - 1
    return "binpoly.roots_" + _ROOT_BUCKETS[min(max(deg, 0), 3)]


def layer_metrics(snap: dict) -> dict:
    """The per-layer metrics of one pass (all but the bench.* ones) from a snapshot."""
    counts, whole, self_ms = snap["counts"], snap["whole_ms"], snap["self_ms"]

    def calls(span):
        return counts.get(f"calls.{span}", 0)

    def count(name):
        return counts.get(f"count.{name}", 0)

    def ms(span):
        return whole.get(span, 0.0)

    roots = ["binpoly.roots_" + b for b in _ROOT_BUCKETS]
    out = {
        "binpoly.roots_calls": sum(calls(s) for s in roots),
        "binpoly.roots_ms": sum(ms(s) for s in roots),
        "binpoly.ext_root_calls": count("binpoly.ext_root_calls"),
        "exactfield.row_reduce_calls": calls("exactfield.row_reduce"),
        "exactfield.row_reduce_ms": ms("exactfield.row_reduce"),
        "exactfield.mul_base_calls": count("exactfield.mul_base_calls"),
        "exactfield.mul_ext_calls": count("exactfield.mul_ext_calls"),
        "scroll.contains_calls": calls("scroll.contains"),
        "scroll.contains_ms": ms("scroll.contains"),
        "scroll.embed_calls": count("scroll.embed"),
        "secant.classify_calls": calls("secant.classify"),
        "secant.classify_self_ms": self_ms.get("secant.classify", 0.0),
        "secant.scan_misses": count("secant.scan_misses"),
        "secant.scan_hits": count("secant.scan_hits"),
        "secant.fibers_found": count("secant.fibers_found"),
        "secant.all_active_points": count("secant.all_active_points"),
        "secant.locus_points_ms": ms("secant.locus_points"),
        "strata.stratum_self_ms": self_ms.get("strata.stratum", 0.0),
        "delpezzo.sample_inside_ms": ms("delpezzo.sample_inside"),
        "delpezzo.sample_outside_ms": ms("delpezzo.sample_outside"),
        "delpezzo.outside_attempts": count("delpezzo.outside_attempts"),
        "delpezzo.outside_accepted": count("delpezzo.outside_accepted"),
        "oracle.table_builds": calls("oracle.table_build"),
        "oracle.table_points": count("oracle.table_points"),
        "oracle.table_build_ms": ms("oracle.table_build"),
        "oracle.pair_scan_ms": ms("oracle.pair_scan"),
        "oracle.brute_membership_ms": ms("oracle.brute_membership"),
        "oracle.lift_check_ms": ms("oracle.lift_check"),
    }
    for bucket in ("deg1", "deg2", "deg3p"):
        out[f"binpoly.roots_{bucket}_calls"] = calls(f"binpoly.roots_{bucket}")
        out[f"binpoly.roots_{bucket}_ms"] = ms(f"binpoly.roots_{bucket}")
    for member in ("A", "B", "U", "tangent", "sec"):
        out[f"strata.member_{member}_ms"] = ms(f"strata.member_{member}")
    return out
