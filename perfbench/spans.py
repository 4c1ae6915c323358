"""Span tracing of the kostka layers, installed from outside the package.

The tracer rebinds the module and class attributes the engine calls through
(``kostka.core.kostka``, ``TPoly.__add__``, ``KostkaCache.load`` ...) with
timing wrappers, and puts every original back on exit.  Spans are aggregated
in memory per (name, parent name), because leaf calls run into the millions.

Clock: each thread's CPU time.  Under the interpreter lock a worker of the
``--threads`` pool that waits for the lock burns no CPU, so the self times of
all threads add up to the traced wall time instead of a multiple of it.

Self time is a span's duration minus the part of it its same-thread child
spans cover.  The tracer's own bookkeeping after a call returns is charged to
``trace`` rather than to the caller, and the fixed cost a span adds inside
itself and to its caller is calibrated once and moved to ``trace`` as well.
"""

from __future__ import annotations

import csv
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

MISSING = object()
ROOT = "-"


class _ThreadState:
    __slots__ = ("stack", "spans", "counts", "caches")

    def __init__(self) -> None:
        self.stack: list[list] = [[ROOT, 0]]
        self.spans: dict[tuple[str, str], list[int]] = {}
        self.counts: dict[str, int] = {}
        self.caches: list[Any] = []


class Tracer:
    """Per-thread span stacks and aggregates; merged on `snapshot`."""

    def __init__(self, clock: Callable[[], int] = time.thread_time_ns) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def current(self) -> str:
        return self.state().stack[-1][0]

    def adopt(self, parent: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run fn on this thread with `parent` as the base of its span stack."""
        st = self.state()
        saved = st.stack
        st.stack = [[parent, 0]]
        try:
            return fn(*args, **kwargs)
        finally:
            st.stack = saved

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """A callable that runs fn inside a span called `name`.

        `observe(counts, args, result)` runs after a successful call, outside
        the span's measured interval.
        """
        clock = self.clock
        state = self.state

        def close(st: _ThreadState, frame: list, t0: int, t1: int) -> None:
            stack = st.stack
            stack.pop()
            parent = stack[-1]
            key = (name, parent[0])
            rec = st.spans.get(key)
            if rec is None:
                rec = st.spans[key] = [0, 0, 0, 0]
            dur = t1 - t0
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[1]
            t2 = clock()
            rec[3] += t2 - t1
            parent[1] += t2 - t0

        def traced(*args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            st = state()
            frame = [name, 0]
            st.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(st, frame, t0, clock())
                raise
            t1 = clock()
            if observe is not None:
                observe(st.counts, args, result)
            close(st, frame, t0, t1)
            return result

        traced.__wrapped__ = fn
        return traced

    def reset_stack(self) -> None:
        """Drop frames left open by an unwinding that could not close them."""
        self.state().stack[1:] = []

    def take_caches(self) -> list[Any]:
        with self._lock:
            states = list(self._states)
        out = []
        for st in states:
            out.extend(st.caches)
            st.caches.clear()
        return out

    def snapshot(self) -> tuple[dict[tuple[str, str], list[int]], dict[str, int]]:
        """Merged (name, parent) -> [calls, total_ns, self_ns, after_ns] and counters."""
        with self._lock:
            states = list(self._states)
        spans: dict[tuple[str, str], list[int]] = {}
        counts: dict[str, int] = {}
        for st in states:
            for key, rec in st.spans.items():
                acc = spans.setdefault(key, [0, 0, 0, 0])
                for i, v in enumerate(rec):
                    acc[i] += v
            for key, v in st.counts.items():
                old = counts.get(key, 0)
                counts[key] = max(old, v) if key.startswith("max_") else old + v
        return spans, counts


def self_times(spans: dict[tuple[str, str], list[int]], inner_ns: float = 0.0,
               outer_ns: float = 0.0) -> tuple[dict[str, float], dict[str, int], float]:
    """Per-name self seconds and calls, and the seconds charged to tracing.

    `inner_ns` is the calibrated cost a span adds to its own self time and
    `outer_ns` the cost it adds to its caller's; both move to tracing.
    """
    self_ns: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_calls: dict[str, int] = {}
    trace_ns = 0.0
    for (name, parent), (n, _total, self_part, after) in spans.items():
        self_ns[name] = self_ns.get(name, 0) + self_part
        calls[name] = calls.get(name, 0) + n
        child_calls[parent] = child_calls.get(parent, 0) + n
        trace_ns += after
    for name in self_ns:
        cut = min(self_ns[name], calls[name] * inner_ns + child_calls.get(name, 0) * outer_ns)
        self_ns[name] -= cut
        trace_ns += cut
    return {k: v / 1e9 for k, v in self_ns.items()}, calls, trace_ns / 1e9


def calibrate(rounds: int = 5, calls: int = 20000) -> tuple[float, float]:
    """Median fixed cost in ns a span adds inside itself and to its caller."""
    inner, outer = [], []

    def noop() -> None:
        return None

    for _ in range(rounds):
        tracer = Tracer()
        traced_noop = tracer.wrap("leaf", noop)

        def loop(fn: Callable) -> None:
            for _ in range(calls):
                fn()

        tracer.wrap("plain", loop)(noop)
        tracer.wrap("nested", loop)(traced_noop)
        spans, _ = tracer.snapshot()
        inner.append(spans[("leaf", "nested")][2] / calls)
        outer.append((spans[("nested", ROOT)][2] - spans[("plain", ROOT)][2]) / calls)
    inner.sort()
    outer.sort()
    return inner[rounds // 2], max(0.0, outer[rounds // 2])


# ---------------------------------------------------------------- patching


@dataclass
class Patch:
    owner: Any
    attr: str
    original: Any  # the owner's own attribute, or MISSING when inherited


def _max_bits(counts: dict, args: tuple, result: Any) -> None:
    coeffs = getattr(result, "_coeffs", None)
    if coeffs:
        bits = max(max(coeffs.values()), -min(coeffs.values())).bit_length()
        if bits > counts.get("max_coeff_bits", 0):
            counts["max_coeff_bits"] = bits


def _add(key: str, amount: Callable[[tuple, Any], int]) -> Callable:
    def observe(counts: dict, args: tuple, result: Any) -> None:
        counts[key] = counts.get(key, 0) + amount(args, result)
    return observe


def _kostka_result(counts: dict, args: tuple, result: Any) -> None:
    if not result:
        counts["kostka_zero"] = counts.get("kostka_zero", 0) + 1


def _cache_lookup(counts: dict, args: tuple, result: Any) -> None:
    key = "cache_miss" if result is None else "cache_hit"
    counts[key] = counts.get(key, 0) + 1


class _TracedCsv:
    """Stands in for the csv module inside kostka.cli; rows are traced writes."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __getattr__(self, attr: str) -> Any:
        return getattr(csv, attr)

    def writer(self, *args: Any, **kwargs: Any) -> Any:
        return _TracedWriter(csv.writer(*args, **kwargs), self._tracer)


class _TracedWriter:
    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        self.writerow = tracer.wrap("cli.render", inner.writerow)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)


def _targets(tracer: Tracer, kostka: dict[str, Any]) -> list[tuple[Any, str, Any]]:
    """(owner, attribute, replacement) for every call site the spans cover."""
    cli, core, oracles = kostka["cli"], kostka["core"], kostka["oracles"]
    partitions, polynomials = kostka["partitions"], kostka["polynomials"]
    tpoly = getattr(polynomials, "TPoly", None)
    cache_cls = getattr(core, "KostkaCache", None)
    out: list[tuple[Any, str, Any]] = []

    def span(owners: list, attr: str, name: str, observe: Callable | None = None,
             eager: bool = False) -> None:
        for owner in owners:
            if owner is None:
                continue
            raw = _own_attr(owner, attr)
            if raw is MISSING and not hasattr(owner, attr):
                continue
            fn = getattr(owner, attr) if raw is MISSING else raw
            if isinstance(fn, classmethod):
                out.append((owner, attr, classmethod(tracer.wrap(name, fn.__func__, observe))))
                continue
            if eager:
                fn = _eager(fn)
            out.append((owner, attr, tracer.wrap(name, fn, observe)))

    mods = [core, cli, oracles, partitions]
    span(mods, "dominates", "partitions.dominates")
    span([core], "horizontal_strip_additions", "partitions.strips",
         _add("strip_shapes", lambda a, r: len(r)))
    span([cli, core], "parse_partition", "partitions.io")
    span([cli, core], "format_partition", "partitions.io")
    span([cli], "partitions_of", "partitions.io", eager=True)

    span([tpoly], "__add__", "polynomials.add", _max_bits)
    span([tpoly], "__sub__", "polynomials.add", _max_bits)
    span([tpoly], "shift", "polynomials.shift")
    span([core, polynomials], "exact_divide", "polynomials.divide", _max_bits)

    span([core, cli], "kostka", "core.kostka", _kostka_result)
    span([core, cli], "kostka_auto", "core.dispatch")
    span([cache_cls], "__init__", "core.cache.init",
         lambda counts, a, r: tracer.state().caches.append(a[0]))
    span([cache_cls], "get", "core.cache.get", _cache_lookup)
    span([cache_cls], "put", "core.cache.put")
    span([cache_cls], "load", "core.cache.load")
    span([cache_cls], "save", "core.cache.save",
         _add("cache_file_bytes", lambda a, r: os.path.getsize(a[1])))
    span([cache_cls], "clone", "core.cache.clone_merge")
    span([cache_cls], "merge", "core.cache.clone_merge")
    for attr in ("kostka_one_row", "kostka_hook", "kostka_column"):
        span([core, cli], attr, "core.closed_forms")

    span([oracles, cli], "enumerate_ssyt", "oracles.enumerate_ssyt",
         _add("tableaux", lambda a, r: len(r)))
    span([oracles], "charge", "oracles.charge")
    span([oracles], "reading_word", "oracles.reading_word")
    span([cli], "kostka_via_charge", "oracles.charge_gf")
    span([cli], "kostka_number", "oracles.kostka_number")

    span([cli], "main", "cli.main")
    span([cli], "build_parser", "cli.parse")
    span([getattr(cli, "_Parser", None)], "parse_args", "cli.parse")
    span([cli], "_config_from_args", "cli.parse")
    for attr in ("cmd_compute", "cmd_table", "cmd_verify", "cmd_bench"):
        span([cli], attr, "cli.command")
    span([cli], "_compute_pairs", "cli.pool")
    for attr in ("plain_str", "latex_str", "to_json_obj"):
        span([tpoly], attr, "cli.render")
    span([cli], "_render_poly", "cli.render")

    if hasattr(cli, "csv"):
        out.append((cli, "csv", _TracedCsv(tracer)))
    pool = getattr(cli, "ThreadPoolExecutor", None)
    if pool is not None:
        class AdoptingPool(pool):
            """Workers nest their spans under the span that submitted the work."""

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

        out.append((cli, "ThreadPoolExecutor", AdoptingPool))
    return out


def _eager(gen: Callable) -> Callable:
    # time the whole enumeration, not just the creation of the generator
    return lambda *args, **kwargs: list(gen(*args, **kwargs))


def _own_attr(owner: Any, attr: str) -> Any:
    if isinstance(owner, type):
        return owner.__dict__.get(attr, MISSING)
    return getattr(owner, attr, MISSING)


def install(tracer: Tracer, kostka: dict[str, Any]) -> list[Patch]:
    """Rebind every covered attribute; returns what `uninstall` puts back."""
    patches = []
    try:
        for owner, attr, replacement in _targets(tracer, kostka):
            patches.append(Patch(owner, attr, _own_attr(owner, attr)))
            setattr(owner, attr, replacement)
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: list[Patch]) -> None:
    """Put back every original, last patch first."""
    for p in reversed(patches):
        if p.original is MISSING:
            delattr(p.owner, p.attr)
        else:
            setattr(p.owner, p.attr, p.original)
    patches.clear()
