"""The traced run's span recorder, installed from the benchmark's side.

No instrumentation lives under ``src/``: :class:`Tracer` wraps the
public entry points of each layer (methods on the ``repro`` classes,
and the limb-repacking functions wherever a ``repro`` module bound
them) for the duration of the traced window, then restores them.

Each span records its name, layer, start, end, parent span (per
thread, so nesting is exact on the dispatcher thread) and attributes
carrying the request or batch id. Spans stay in memory; :func:`export`
writes them once, merged with the obs session's own ``serve.*`` /
``par.*`` / ``par.worker.*`` spans, as Perfetto JSON through
``repro.obs.export.to_chrome_trace``.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Lane the client-side request spans render on (the event-loop thread).
CLIENT_LANE_PID = 2

#: The repacking functions whose calls and time the fast layer reports.
REPACK_FUNCTIONS = ("limbs_from_ints", "limbs_to_ints", "r52_split", "r52_join")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    sid: int = 0
    thread: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans plus the patches that produce them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.owners: Dict[int, object] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []
        self._batches = itertools.count()
        #: ``perf_counter`` time the entry points were wrapped (set-up ends).
        self.started = 0.0

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, **attrs) -> Span:
        stack = self._stack()
        with self._lock:
            sid = len(self.spans)
            span = Span(
                name=name,
                layer=layer,
                start=time.perf_counter(),
                parent=stack[-1] if stack else None,
                sid=sid,
                thread=threading.get_ident(),
                attrs=attrs,
            )
            self.spans.append(span)
        stack.append(sid)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span.sid:
            stack.pop()

    def record(self, name: str, layer: str, start: float, end: float, **attrs) -> Span:
        """A span timed by the caller (client-side async requests)."""
        with self._lock:
            span = Span(name, layer, start, end, None, len(self.spans),
                        threading.get_ident(), attrs)
            self.spans.append(span)
        return span

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, fn: Callable, name: str, layer: str, attrs_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of else {}
            span = tracer.open(name, layer, **attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    def wrap_method(self, cls, method: str, name: str, layer: str, attrs_of=None) -> None:
        original = cls.__dict__[method]
        self._restore.append((cls, method, original))
        setattr(cls, method, self._wrapper(original, name, layer, attrs_of))

    def wrap_function(self, module_name: str, func: str, layer: str) -> None:
        """Wrap ``module.func`` in every ``repro`` module that bound it."""
        original = getattr(sys.modules[module_name], func)
        traced = self._wrapper(original, f"{layer}.{func}", layer)
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, traced)

    def batch_attrs(self, args, kwargs) -> Dict[str, object]:
        """Batch id plus the request ids whose operands the call carries."""
        attrs: Dict[str, object] = {"batch": next(self._batches)}
        rows = args[1] if len(args) > 1 else None
        if isinstance(rows, list):
            attrs["rows"] = len(rows)
            reqs = [self.owners.get(id(row)) for row in rows]
            reqs = [r for r in reqs if r is not None]
            if reqs:
                attrs["reqs"] = reqs
        return attrs

    def restore(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def children(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                out[span.parent].append(span)
        return out

    def self_time(self, span: Span, kids: Dict[int, List[Span]]) -> float:
        """Duration minus the part its (nested, same-thread) children cover."""
        return span.duration - sum(c.duration for c in kids.get(span.sid, ()))

    def descendants(self, span: Span, kids: Dict[int, List[Span]]):
        todo = list(kids.get(span.sid, ()))
        while todo:
            child = todo.pop()
            yield child
            todo.extend(kids.get(child.sid, ()))

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def session_spans(self, session, name: str) -> list:
        """The obs session's ``name`` spans that began once tracing did."""
        if session is None:
            return []
        since = self.started - session.spans.epoch_s
        return [r for r in session.spans.records if r.name == name and r.start_s >= since]


def install(tracer: Tracer, layers) -> None:
    """Wrap the entry points of ``layers`` (a subset of serve/par/fast/rns).

    The ``serve`` layer is traced at the benchmark's own call sites
    (``ReproService.submit`` is awaited there), so it needs no patch.
    """
    tracer.started = time.perf_counter()
    if "par" in layers:
        from repro.par import api
        from repro.par.executor import ParallelExecutor

        attrs = tracer.batch_attrs
        tracer.wrap_method(api.ParNegacyclic, "multiply", "par.polymul", "par", attrs)
        tracer.wrap_method(api.ParNtt, "forward", "par.ntt", "par", attrs)
        for op in ("vector_add", "vector_sub", "vector_mul"):
            tracer.wrap_method(api.ParBlasPlan, op, f"par.{op}", "par", attrs)
        tracer.wrap_method(
            api.ParBlasPlan, "axpy", "par.axpy", "par",
            lambda args, kwargs: tracer.batch_attrs(args[1:], kwargs),
        )
        tracer.wrap_method(
            ParallelExecutor, "run", "par.executor.run", "par",
            lambda args, kwargs: {"shards": len(args[1])},
        )
    if "fast" in layers:
        from repro.fast import blas, ntt

        tracer.wrap_method(ntt.FastNegacyclic, "multiply", "fast.polymul", "fast")
        tracer.wrap_method(ntt.FastNtt, "forward", "fast.ntt", "fast")
        tracer.wrap_method(ntt.FastNtt, "inverse", "fast.ntt", "fast")
        tracer.wrap_method(ntt.FastNtt, "pointwise_mul", "fast.pointwise", "fast")
        for op in ("vector_add", "vector_sub", "vector_mul", "axpy"):
            tracer.wrap_method(blas.FastBlasPlan, op, f"fast.blas.{op}", "fast")
    if "fast" in layers or "par" in layers:
        for func in REPACK_FUNCTIONS:
            tracer.wrap_function("repro.fast.limbs", func, "repack")
    if "rns" in layers:
        from repro.rns.poly import RnsPolynomialRing

        tracer.wrap_method(RnsPolynomialRing, "mul", "rns.mul", "rns")
        tracer.wrap_method(RnsPolynomialRing, "add", "rns.add", "rns")


def self_time_table(tracer: Tracer, extra_rows=()) -> Tuple[List[Dict[str, object]], str]:
    """Per-layer and per-entry-point totals: calls, total ms, self ms.

    ``extra_rows`` adds rows computed elsewhere (the serve layer's self
    time is request latency minus its batch's engine call, which lives
    on another thread and so is no nested child).
    """
    kids = tracer.children()
    rows: Dict[Tuple[str, str], Dict[str, float]] = {}
    for span in tracer.spans:
        if span.layer == "serve":
            continue
        row = rows.setdefault(
            (span.layer, span.name), {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        row["calls"] += 1
        row["total_ms"] += span.duration * 1e3
        row["self_ms"] += tracer.self_time(span, kids) * 1e3
    table = [
        {"layer": layer, "name": name, **values}
        for (layer, name), values in sorted(rows.items())
    ]
    table.extend(extra_rows)
    layers: Dict[str, Dict[str, float]] = defaultdict(lambda: {"self_ms": 0.0})
    for row in table:
        layers[row["layer"]]["self_ms"] += row["self_ms"]
    lines = [f"{'layer':<8} {'entry point':<26} {'calls':>8} {'total ms':>12} {'self ms':>12}"]
    for row in table:
        lines.append(
            f"{row['layer']:<8} {row['name']:<26} {int(row['calls']):>8} "
            f"{row['total_ms']:>12.2f} {row['self_ms']:>12.2f}"
        )
    for layer, values in sorted(layers.items()):
        lines.append(f"{layer:<8} {'(layer self time)':<26} {'':>8} {'':>12} {values['self_ms']:>12.2f}")
    return table, "\n".join(lines)


def export(tracer: Tracer, session, process_name: str) -> Dict[str, object]:
    """Perfetto JSON of the session's spans plus the benchmark's spans."""
    from repro.obs.export import LANE_NAME_KEY, LANE_PID_KEY, to_chrome_trace
    from repro.obs.spans import SpanRecord

    records = list(session.spans.records) if session is not None else []
    epoch = session.spans.epoch_s if session is not None else (
        min((s.start for s in tracer.spans), default=0.0)
    )
    offset = len(records)
    client_thread = None
    for span in tracer.spans:
        if span.layer == "serve":
            client_thread = span.thread
            break
    for span in tracer.spans:
        attrs = {"layer": span.layer}
        attrs.update({k: v for k, v in span.attrs.items() if k != "reqs"})
        if "reqs" in span.attrs:
            attrs["reqs"] = ",".join(map(str, span.attrs["reqs"]))
        if span.thread == client_thread:
            attrs[LANE_PID_KEY] = CLIENT_LANE_PID
            attrs[LANE_NAME_KEY] = "benchmark client (event loop)"
        depth = 0
        parent = span.parent
        while parent is not None:
            depth += 1
            parent = tracer.spans[parent].parent
        records.append(
            SpanRecord(
                name=span.name,
                start_s=span.start - epoch,
                duration_s=span.duration,
                depth=depth,
                parent=None if span.parent is None else span.parent + offset,
                index=offset + span.sid,
                attrs=attrs,
            )
        )
    return to_chrome_trace(records, process_name)
