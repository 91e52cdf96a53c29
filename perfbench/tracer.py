"""Span tracer that wraps fuzzyqrg's public functions from outside the package.

Nothing under ``src/`` is edited.  ``install`` replaces every binding of a
public package function (in every module that imported it with
``from .x import y``, and in the package namespace) and every public method
and arithmetic operator of the package's classes with a wrapper that opens a
span.  Aliased operators (``__radd__ = __add__``) are separate class
attributes and get their own wrapper.  Self time is a span's duration minus
the time covered by its child spans.  Spans inside the package are not
recorded; only the boundaries between layers are.
"""

import functools
import importlib
import inspect
import pkgutil
import time
from contextlib import contextmanager

# Layers are the package's modules (cli is timed as separate processes).
LAYERS = ("scalars", "algebra", "forms", "geometry", "linalg", "monopole",
          "qgravity", "verify")

# Public operations of the exact types that Python reaches through dunders.
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
             "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
             "__matmul__")

# GaussRational is the coefficient type inside ParamScalar polynomials.  Its
# operations run millions of times per pass and are not a layer boundary, so
# their time counts as ParamScalar self time.
SKIP_CLASSES = ("GaussRational",)

# Spans of these layers are counted and timed but not kept one by one: they
# number in the hundreds of thousands per pass.
AGGREGATE_ONLY = ("scalars", "algebra", "forms")


class NullTracer:
    """Stand-in for untraced passes: benchmark-side spans cost nothing."""

    active = False

    @contextmanager
    def span(self, name):
        yield

    def timed(self, name, fn):
        return fn


class Tracer:
    """Records spans and per-name call counts, total and self time.

    ``stats`` maps a span name to [calls, total_s, self_s] for the current
    pass; ``take`` returns the pass's aggregates and starts the next pass.
    """

    active = True

    def __init__(self):
        self.clock = time.perf_counter
        self.pass_id = 0
        self.spans = []          # [name, start, end, parent index, pass id]
        self._stack = []         # open frames: [child_s, layer, span index]
        self._reset()

    def _reset(self):
        self.stats = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.layer_calls = dict.fromkeys(LAYERS, 0)
        self.layer_incl = dict.fromkeys(LAYERS, 0.0)
        self.durations = {}

    def take(self):
        """Aggregates of the pass just finished; the next pass starts."""
        out = {"stats": self.stats, "layer_self": self.layer_self,
               "layer_calls": self.layer_calls,
               "layer_incl": self.layer_incl, "durations": self.durations}
        self._reset()
        self.pass_id += 1
        return out

    # -- spans ------------------------------------------------------------

    def _open(self, name, layer, record, t0):
        idx = None
        if record:
            parent = next((f[2] for f in reversed(self._stack)
                           if f[2] is not None), None)
            idx = len(self.spans)
            self.spans.append([name, t0, None, parent, self.pass_id])
        frame = [0.0, layer, idx]
        self._stack.append(frame)
        return frame

    def _close(self, name, frame, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        own = dur - frame[0]
        layer = frame[1]
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += dur
        s[2] += own
        if frame[2] is not None:
            self.spans[frame[2]][2] = t1
        parent_layer = None
        if self._stack:
            parent = self._stack[-1]
            parent[0] += dur
            parent_layer = parent[1]
        if layer is not None:
            self.layer_self[layer] += own
            self.layer_calls[layer] += 1
            if parent_layer != layer:
                self.layer_incl[layer] += dur
        return dur

    @contextmanager
    def span(self, name):
        """A benchmark-side span: it owns no layer, so its self time is the
        benchmark's own work (argument building and output checks)."""
        t0 = self.clock()
        frame = self._open(name, None, True, t0)
        try:
            yield
        finally:
            dur = self._close(name, frame, t0, self.clock())
            self.durations.setdefault(name, []).append(dur)

    def timed(self, name, fn):
        """``fn`` wrapped in an aggregate-only benchmark-side span."""
        return self._wrap(fn, name, None, False)

    def _wrap(self, fn, name, layer, record):
        clock, open_, close = self.clock, self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            frame = open_(name, layer, record, t0)
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, frame, t0, clock())

        return traced

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap every binding of the package's public functions and methods.

        Returns the number of bindings replaced.
        """
        prefix = package.__name__ + "."
        modules = [package] + [
            importlib.import_module(prefix + info.name)
            for info in pkgutil.iter_modules(package.__path__)]
        wrapped = {}     # one wrapper per function, shared by its bindings
        replaced = 0
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val):
                    layer = _layer_of(val, prefix)
                    if layer is not None:
                        if val not in wrapped:
                            wrapped[val] = self._wrap(
                                val, "%s.%s" % (layer, val.__qualname__),
                                layer, layer not in AGGREGATE_ONLY)
                        setattr(mod, attr, wrapped[val])
                        replaced += 1
                elif (inspect.isclass(val) and val.__module__ == mod.__name__
                      and val.__name__ not in SKIP_CLASSES
                      and not issubclass(val, BaseException)):
                    replaced += self._install_class(val, prefix)
        return replaced

    def _install_class(self, cls, prefix):
        layer = cls.__module__[len(prefix):]
        if layer not in LAYERS:
            return 0
        replaced = 0
        for attr, val in list(vars(cls).items()):
            if not inspect.isfunction(val):
                continue  # classmethods, staticmethods, properties
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            # one wrapper per attribute: an alias gets its own span name
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            setattr(cls, attr, self._wrap(val, name, layer,
                                          layer not in AGGREGATE_ONLY))
            replaced += 1
        return replaced


def _layer_of(fn, prefix):
    mod = getattr(fn, "__module__", None) or ""
    if not mod.startswith(prefix):
        return None
    layer = mod[len(prefix):]
    return layer if layer in LAYERS else None
