"""Span tracing of coiso's layer functions, installed from outside the package.

``instrument(tracer)`` wraps each function named in ``TARGETS`` and rebinds
the wrapper under every name that bound the original in a ``coiso`` module
namespace (``from .symplin import classify_coisotropic`` makes a second
binding in ``grassmann``, ``maslov`` and ``hypergeo``), so calls between the
package's own modules are traced too.  Methods are patched on their class.
It returns a function that puts every original back.

Each call records one span: function id, start, end and parent span, held in
flat arrays in memory.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict

# module -> functions wrapped in it ("Class.method" for methods)
TARGETS = {
    "cli": ["run", "Report.to_json"],
    "grassmann": [
        "loop_from_family",
        "pushforward",
        "CoisotropicLoop.resample",
        "SymplecticMatrixLoop.from_callable",
    ],
    "symplin": [
        "classify_coisotropic",
        "adapted_frame",
        "principal_angles",
        "symplectic_complement",
        "Subspace.from_spanning",
        "measured_grassmannian_dim",
        "random_coisotropic",
    ],
    "maslov": [
        "maslov_index",
        "canonical_section",
        "winding_detail",
        "pushforward_section",
        "tangent_boundary_loop",
        "disc_index_detail",
        "connection_integral_index",
        "is_leafwise_special",
        "MaslovSection.from_function",
    ],
    "hypergeo": [
        "second_fundamental_form",
        "leafwise_mean_curvature",
        "levi_form",
        "transverse_curvature_sff",
        "transverse_curvature_bracket",
        "is_integrable_prekahler",
        "leaf_minimality",
        "tangent_splitting",
        "LevelSetHypersurface.gradient",
        "LevelSetHypersurface.hessian",
        "LevelSetHypersurface.sample_points",
    ],
}

# spans that are not a function of TARGETS: the schema check as cli calls it,
# and the loop-family and matrix-loop closures
EXTRA = ["cli.jsonschema.validate", "grassmann.generator"]

LABELS = sorted(
    [f"{mod}.{qual}" for mod, quals in TARGETS.items() for qual in quals] + EXTRA,
    key=lambda label: list(TARGETS).index(label.split(".", 1)[0]))


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.labels: list[str] = []
        self._fid: dict[str, int] = {}
        self.fids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.errors: dict[str, Counter] = defaultdict(Counter)
        self.loops: list[tuple[int, int]] = []   # (M requested, final M)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._last_exc = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def fid(self, label: str) -> int:
        if label not in self._fid:
            self._fid[label] = len(self.labels)
            self.labels.append(label)
        return self._fid[label]

    def wrap(self, label: str, fn, on_return=None):
        """``fn`` with a span named ``label`` around every call."""
        if getattr(fn, "_span_label", None) == label:
            return fn
        fid = self.fid(label)
        module = label.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                idx = len(self.fids)
                self.fids.append(fid)
                self.parents.append(stack[-1] if stack else -1)
                self.ends.append(0.0)
                self.starts.append(time.perf_counter())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # an exception is counted once, by the innermost span it left
                if exc is not self._last_exc:
                    self._last_exc = exc
                    self.errors[module][type(exc).__name__] += 1
                raise
            finally:
                self.ends[idx] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced._span_label = label
        return traced

    def summary(self) -> dict:
        """Calls and self time per label; self time subtracts each span's
        duration from its parent's."""
        n = len(self.fids)
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += self.ends[i] - self.starts[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            label = self.labels[self.fids[i]]
            calls[label] += 1
            self_s[label] += self.ends[i] - self.starts[i] - child[i]
        return {"calls": dict(calls), "self_s": dict(self_s),
                "self_total": sum(self_s.values()), "spans": n}

    def uncovered(self, begin: float, end: float) -> float | None:
        """Time in [begin, end] outside every span, found by sweeping the span
        boundaries in time order without the parent links; None when spans
        are not properly nested in that order."""
        events = sorted(
            [(self.starts[i], 1, i) for i in range(len(self.fids))]
            + [(self.ends[i], 0, -i) for i in range(len(self.fids))])
        open_spans = []
        gap, last = 0.0, begin
        for t, is_start, i in events:
            if not open_spans:
                gap += t - last
            last = t
            if is_start:
                open_spans.append(i)
            elif not open_spans or open_spans.pop() != -i:
                return None
        return gap + end - last if not open_spans else None


class _SchemaProxy:
    """Stands in for the ``jsonschema`` module inside ``coiso.cli`` only."""

    def __init__(self, module, validate):
        self._module = module
        self.validate = validate

    def __getattr__(self, name):
        return getattr(self._module, name)


def instrument(tracer: Tracer):
    """Wrap every target in the loaded ``coiso`` modules; returns an undo."""
    undo = []
    namespaces = [vars(m) for name, m in list(sys.modules.items())
                  if name == "coiso" or name.startswith("coiso.")]

    def set_item(container: dict, key, value):
        undo.append((container, key, container[key]))
        container[key] = value

    def set_attr(owner, name, value):
        undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def rebind(orig, new):
        for ns in namespaces:
            for name, value in list(ns.items()):
                if value is orig:
                    set_item(ns, name, new)

    def gen(fn):
        return tracer.wrap("grassmann.generator", fn)

    grassmann = importlib.import_module("coiso.grassmann")
    loop_hook = _loop_hook(tracer, grassmann.loop_from_family)

    for mod_name, quals in TARGETS.items():
        mod = importlib.import_module(f"coiso.{mod_name}")
        for qual in quals:
            label = f"{mod_name}.{qual}"
            if "." not in qual:
                orig = getattr(mod, qual)
                hook = loop_hook if label == "grassmann.loop_from_family" else None
                rebind(orig, tracer.wrap(label, orig, hook))
                continue
            cls_name, meth = qual.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if label == "grassmann.SymplecticMatrixLoop.from_callable":
                func = raw.__func__

                def from_callable(cls, space, fn, samples, _func=func):
                    return _func(cls, space, gen(fn), samples)

                set_attr(cls, meth, classmethod(tracer.wrap(label, from_callable)))
            elif isinstance(raw, classmethod):
                set_attr(cls, meth, classmethod(tracer.wrap(label, raw.__func__)))
            else:
                set_attr(cls, meth, tracer.wrap(label, raw))

    # family closures: wrap what each LOOP_FAMILIES factory returns; the
    # random_*_matrix_loop makers build theirs through from_callable above
    for name, factory in list(grassmann.LOOP_FAMILIES.items()):
        @functools.wraps(factory)
        def traced_factory(*args, _factory=factory, **kwargs):
            return gen(_factory(*args, **kwargs))

        set_item(grassmann.LOOP_FAMILIES, name, traced_factory)
        rebind(factory, traced_factory)

    cli = importlib.import_module("coiso.cli")
    schema = cli.jsonschema
    set_item(vars(cli), "jsonschema", _SchemaProxy(
        schema, tracer.wrap("cli.jsonschema.validate", schema.validate)))

    def restore():
        for owner, key, value in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        undo.clear()

    return restore


def _loop_hook(tracer: Tracer, loop_from_family):
    """Records (M requested, final M) for every loop built."""
    signature = inspect.signature(loop_from_family)

    def on_return(args, kwargs, loop):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.loops.append((int(bound.arguments["samples"]), int(loop.m)))

    return on_return
