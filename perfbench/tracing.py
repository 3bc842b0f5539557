"""Span tracing of the toric_ends layers from outside the library.

Each layer is one module of the package.  `Tracer.install()` replaces every
public module-level function and every public method of a public class
defined in a layer module by a wrapper, rebinds the wrapper in every
``toric_ends`` module namespace that bound the original (so ``cli``'s
``farey_sequence`` and ``ends``'s ``decompose`` are caught too), and
``uninstall()`` puts every original back.

A span opens only where a call crosses into a different layer; a call that
stays inside the layer it was made from is counted but adds no span, since
its time belongs to the same layer's self time either way.  Spans are kept
in memory as tuples and read after the run.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("farey", "blocks", "invariants", "ends", "reduce", "cli")

# span tuple fields
NAME, LAYER, START, END, PARENT, JOB = range(6)


def _bits(*values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


# Per-call observations beyond the call count, keyed by qualified name.  Each
# hook sees the arguments and the result (or the exception) of one call.
def _vertex_bits(tracer, args, result):
    tracer.max_operand_bits = max(tracer.max_operand_bits, _bits(result.p, result.q))


def _surd_bits(tracer, args, result):
    tracer.max_operand_bits = max(tracer.max_operand_bits, _bits(result.a, result.b, result.c))


def _matrix_bits(tracer, args, result):
    m = args[1]
    tracer.max_operand_bits = max(tracer.max_operand_bits, _bits(m.a, m.b, m.c, m.d))


def _decomposed_target(tracer, args, result):
    path = args[0]
    tracer.decomposed_targets.add((path.start, path.target))


def _obstruction_result(tracer, args, result):
    tracer.results[("ends.extension_obstruction", type(result).__name__)] += 1


HOOKS = {
    "farey.next_toward": _vertex_bits,
    "farey.QuadraticValue.mobius": _surd_bits,
    "farey.CFStream.mobius_floor": _matrix_bits,
    "farey.CFStream.mobius": _matrix_bits,
    "blocks.decompose": _decomposed_target,
    "ends.extension_obstruction": _obstruction_result,
}

# exceptions counted by (qualified name, exception class name)
RAISES = {"invariants.equivalent"}


class Tracer:
    """In-memory spans and call counts for one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.results: Counter = Counter()
        self.max_operand_bits = 0
        self.decomposed_targets: set = set()
        self.layer = None
        self.current = None
        self.job = None
        self._patches: list = []

    # ------------------------------------------------------------------ spans

    def span(self, name, layer, fn, args, kwargs):
        spans = self.spans
        index = len(spans)
        spans.append(None)
        parent, outer = self.current, self.layer
        self.current, self.layer = index, layer
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            spans[index] = (name, layer, start, end, parent, self.job)
            self.current, self.layer = parent, outer

    def root(self, job_id, fn, *args):
        """Run one job under a root span with no layer."""
        self.job = job_id
        try:
            return self.span("job", None, fn, args, {})
        finally:
            self.job = None

    def codec(self, name, fn, *args):
        """A span of the cli layer around the benchmark's JSON codec calls."""
        self.calls[name] += 1
        return self.span(name, "cli", fn, args, {})

    # --------------------------------------------------------------- wrapping

    def _wrap(self, fn, layer, name):
        tracer = self
        calls = self.calls
        hook = HOOKS.get(name)
        counts_raises = name in RAISES

        if hook is None and not counts_raises:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if tracer.layer is layer:
                    return fn(*args, **kwargs)
                return tracer.span(name, layer, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                try:
                    if tracer.layer is layer:
                        result = fn(*args, **kwargs)
                    else:
                        result = tracer.span(name, layer, fn, args, kwargs)
                except Exception as exc:
                    if counts_raises:
                        tracer.results[(name, type(exc).__name__)] += 1
                    raise
                if hook is not None:
                    hook(tracer, args, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "toric_ends" or n.startswith("toric_ends."))]
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"toric_ends.{layer}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    replaced[id(value)] = self._wrap(value, layer, f"{layer}.{attr}")
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_methods(value, layer)
        for module in package:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    self._patch(module, attr, replaced[id(value)])

    def _wrap_methods(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, layer, name)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, layer, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, layer, name))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> tuple[dict, dict]:
    """Per-layer self time summed over all spans, and per-job
    (root duration, sum of layer self times, root self time)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] += s[END] - s[START]
    layer_self = {layer: 0.0 for layer in LAYERS}
    jobs: dict = {}
    for i, s in enumerate(spans):
        own = (s[END] - s[START]) - covered[i]
        if s[LAYER] is None:
            entry = jobs.setdefault(s[JOB], [0.0, 0.0, 0.0])
            entry[0] += s[END] - s[START]
            entry[2] += own
        else:
            layer_self[s[LAYER]] += own
            jobs.setdefault(s[JOB], [0.0, 0.0, 0.0])[1] += own
    return layer_self, jobs
