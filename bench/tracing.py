"""Spans recorded by the benchmark around its calls into lampclock.

A span has a name, a start, an end, a parent span and the id of the op
it belongs to. Spans live in flat in-memory arrays while the run goes on
and are written out once, when the run ends. A layer is the part of a
span name before the first dot, which is the lampclock module the call
enters (``codec.encode`` belongs to ``codec``).

Calls made by the library itself (``cli.main`` resolving a scheme, or
``run_tick`` rendering a frame) are reached by temporarily replacing the
module attributes they look up with wrappers that open and close a span;
:meth:`Tracer.instrument` puts the originals back when the traced round
ends.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Fixed-capacity in-memory span store."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)  # figures measured outside spans

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def record(self, name: str, seconds: float) -> None:
        """A root span, in an op of its own, for work timed elsewhere that ended just now."""
        self.new_op()
        end = perf_counter()
        self.name_id.append(self._intern(name))
        self.parent.append(-1)
        self.op.append(self.op_id)
        self.start.append(end - seconds)
        self.end.append(end)

    def rename(self, sid: int, name: str) -> None:
        self.name_id[sid] = self._intern(name)

    def new_op(self) -> None:
        self.op_id += 1

    @contextmanager
    def instrument(self, targets):
        """Replace each ``(module, attr, wrap)`` with ``wrap(self, original)``."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        for (module, attr, wrap), (_, _, original) in zip(targets, saved):
            setattr(module, attr, wrap(self, original))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    # --- analysis ----------------------------------------------------------

    def durations(self, start: int = 0) -> dict[str, list[float]]:
        """Durations in seconds of the spans from number ``start`` on, grouped by span name."""
        by_name: dict[str, list[float]] = defaultdict(list)
        for nid, s, e in zip(self.name_id[start:], self.start[start:], self.end[start:]):
            by_name[self.names[nid]].append(e - s)
        return by_name

    def self_times(self, start: int) -> dict[str, float]:
        """Seconds per layer not covered by a child span, over the spans
        from number ``start`` on (a span's children come after it)."""
        child = [0.0] * len(self.start)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        layers: dict[str, float] = defaultdict(float)
        for sid in range(start, len(self.start)):
            layer = self.names[self.name_id[sid]].split(".", 1)[0]
            layers[layer] += self.end[sid] - self.start[sid] - child[sid]
        return dict(layers)

    def children_named(self, parent_name: str, prefix: str) -> int:
        """Spans whose name starts with ``prefix`` and whose parent is ``parent_name``."""
        parent_id = self._ids.get(parent_name)
        return sum(1 for sid, nid in enumerate(self.name_id)
                   if self.names[nid].startswith(prefix) and self.parent[sid] >= 0
                   and self.name_id[self.parent[sid]] == parent_id)

    def dump(self, path) -> None:
        """Write every span as one JSON line, times relative to the first."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = [json.dumps(name) for name in self.names]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for sid, (nid, s, e, p, op) in enumerate(zip(self.name_id, self.start, self.end, self.parent, self.op)):
                out.write(f'{{"id": {sid}, "name": {names[nid]}, "start_us": {(s - t0) * 1e6:.3f}, '
                          f'"end_us": {(e - t0) * 1e6:.3f}, "parent": {p}, "op": {op}}}\n')


def span(name: str):
    """Wrapper factory: one span named ``name`` around each call."""
    def wrap(tracer: Tracer, fn):
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)
        return traced
    return wrap


def _wrap_render(tracer: Tracer, fn):
    def traced(state, scheme, spec):
        sid = tracer.open("render." + spec.format.value)
        try:
            text = fn(state, scheme, spec)
        finally:
            tracer.close(sid)
        tracer.counters["render.bytes_out"] += len(text.encode("utf-8"))
        return text
    return traced


def _wrap_enumerate(cap_error):
    def wrap(tracer: Tracer, fn):
        def traced(*args, **kwargs):
            sid = tracer.open("schemes.enumerate")
            try:
                shapes = fn(*args, **kwargs)
            except cap_error:
                tracer.close(sid)
                tracer.rename(sid, "schemes.enumerate_cap")
                tracer.counters["schemes.cap_hits"] += 1
                raise
            except BaseException:
                tracer.close(sid)
                raise
            tracer.close(sid)
            tracer.counters["schemes.shapes_returned"] += len(shapes)
            return shapes
        return traced
    return wrap


def _wrap_resolve(builtins):
    def wrap(tracer: Tracer, fn):
        def traced(selector):
            sid = tracer.open("catalog.resolve_builtin" if selector in builtins else "catalog.resolve_file")
            try:
                return fn(selector)
            finally:
                tracer.close(sid)
        return traced
    return wrap


def layer_boundaries():
    """Every lampclock entry point the benchmark reaches, with its wrapper.

    Both the package namespace (used by the in-process workloads) and the
    module globals that ``cli`` and ``catalog`` call through are covered.
    """
    import lampclock
    from lampclock import catalog, cli

    enum = _wrap_enumerate(lampclock.EnumerationCapError)
    return [
        (lampclock, "encode", span("codec.encode")),
        (lampclock, "decode", span("codec.decode")),
        (lampclock, "validate", span("codec.validate")),
        (lampclock, "render", _wrap_render),
        (lampclock, "parse_bits", span("render.parse_bits")),
        (lampclock, "enumerate_shapes", enum),
        (lampclock, "is_triangular_feasible", span("schemes.feasible")),
        (lampclock, "make_scheme", span("catalog.make_scheme")),
        (catalog, "make_scheme", span("catalog.make_scheme")),
        (catalog, "load_scheme", span("catalog.load_scheme")),
        (catalog, "validate", span("codec.validate")),
        (cli, "resolve_scheme", _wrap_resolve(catalog.BUILTIN_SCHEMES)),
        (cli, "encode", span("codec.encode")),
        (cli, "decode", span("codec.decode")),
        (cli, "validate", span("codec.validate")),
        (cli, "render", _wrap_render),
        (cli, "parse_bits", span("render.parse_bits")),
        (cli, "enumerate_shapes", enum),
    ]
