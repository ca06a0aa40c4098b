"""Span recorder that wraps the public functions of the rsv modules.

Tracing lives entirely in the benchmark: `Tracer.install()` replaces module
attributes (and the public methods of classes defined in rsv) with wrappers
that record one span per call, and `uninstall()` puts the originals back, so
an untraced run executes the library untouched.

A span is (name id, start, end, span id, parent id, ok).  The parent is the
innermost open span of the calling thread; a thread with no open span (a
worker of `cli.run_sweep`'s pool) adopts the innermost open span of the
thread that runs the benchmark case.  Spans stay in memory until
`write()` at the end of the run.

Besides the rsv functions, the oracle's calls into scipy.special (the
Bessel / Trefftz table) and numpy.linalg (QR + SVD, lstsq) are wrapped
through proxies that only `rsv.oracle_solver` sees, so numpy calls made by
other modules are not counted.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time

RSV_MODULES = (
    "cli",
    "oracle_solver",
    "sphere_geometry",
    "special_functions",
    "steklov",
    "variations",
    "radial_solutions",
)
ORACLE_SPECIAL = {
    "jv": "bessel",
    "jvp": "bessel",
    "spherical_jn": "bessel",
    "eval_legendre": "legendre",
}
ORACLE_LINALG = ("qr", "svd", "lstsq", "solve")
# dunder methods that are part of a class's public behaviour
PUBLIC_DUNDERS = ("__init__", "__call__")


class _Proxy:
    """Attribute view of `target` with some attributes replaced."""

    def __init__(self, target, overrides: dict):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int, bool]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._case_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span_name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name_id: int, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # pool worker: attach to whatever the case thread is inside
            parent = self._case_stack[-1] if self._case_stack else -1
        span_id = next(self._ids)
        stack.append(span_id)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((name_id, start, end, span_id, parent, ok))

    def case(self, name: str, fn):
        """Run fn() as a root span; its thread becomes the case thread."""
        self._case_stack = self._stack()
        return self.call(self.span_name_id(name), fn, (), {})

    def wrap(self, name: str, fn):
        key = id(fn)
        if key not in self._wrappers:
            name_id = self.span_name_id(name)
            call = self.call

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return call(name_id, fn, args, kwargs)

            self._wrappers[key] = traced
        return self._wrappers[key]

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public functions of every rsv module in `package`."""
        modules = {name: getattr(package, name) for name in RSV_MODULES}
        layer_of = {mod.__name__: short for short, mod in modules.items()}
        layer_of[package.__name__] = "rsv"
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                home = getattr(value, "__module__", None)
                if inspect.isfunction(value) and home in layer_of:
                    name = f"{layer_of[home]}.{value.__qualname__}"
                    self._patch(module, attr, self.wrap(name, value))
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_methods(layer_of[home], value)
        oracle = modules["oracle_solver"]
        for attr, group in ORACLE_SPECIAL.items():
            fn = getattr(oracle, attr)
            self._patch(oracle, attr, self.wrap(f"oracle_solver.{group}.{attr}", fn))
        np = oracle.np
        linalg = _Proxy(
            np.linalg,
            {
                attr: self.wrap(f"oracle_solver.linalg.{attr}", getattr(np.linalg, attr))
                for attr in ORACLE_LINALG
            },
        )
        self._patch(oracle, "np", _Proxy(np, {"linalg": linalg}))

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in PUBLIC_DUNDERS:
                continue
            if inspect.isfunction(value):
                name = f"{layer}.{cls.__qualname__}.{attr}"
                self._patch(cls, attr, self.wrap(name, value))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        doc = {
            "fields": ["name", "start", "end", "id", "parent", "ok"],
            "names": self.names,
            "spans": [list(span) for span in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children may run concurrently (the sweep pool), so their intervals are
    merged before they are subtracted."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _nid, start, end, _sid, parent, _ok in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for _nid, start, end, sid, _parent, _ok in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[sid] = (end - start) - covered
    return out


def ancestors_named(spans, wanted: set[int]) -> dict[int, int | None]:
    """Span id -> id of its nearest ancestor whose name id is in `wanted`."""
    parent = {sid: p for _nid, _s, _e, sid, p, _ok in spans}
    name_of = {sid: nid for nid, _s, _e, sid, _p, _ok in spans}
    out: dict[int, int | None] = {}
    for sid in parent:
        p = parent[sid]
        while p in parent and name_of[p] not in wanted:
            p = parent[p]
        out[sid] = p if p in parent else None
    return out

