"""Span tracing of geophase layers from outside the package.

Each public function of a traced module is replaced by a wrapper that
records a span (name, start, end, parent span, op id). The wrapper is
rebound in every ``geophase.*`` namespace that holds the original, so
``phases.cached_regularize`` and ``gauge.cached_regularize`` are both
traced, and the lazy ``from .gauge import ...`` inside functions finds the
wrapper too. Nothing under ``src/`` is edited.

Spans are kept in memory and written out when the run ends. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

from geophase.errors import GeophaseError
from geophase.regions import SIMPLE_TOL
from geophase.sphere import DEFAULT_EPSILON

LAYERS = ("motion", "sphere", "regions", "phases", "gauge", "quadrature",
          "rolling", "cli")
# private functions that get spans of their own because a ROADMAP item
# targets them; everything else private is part of its caller's self time
PRIVATE_SPANS = {"rolling": ("_constraint_rows", "_rodrigues_steps")}
ROOT = "bench.op"
INTEGRAND = "gauge.integrand"

# stages that run inline in one function, so no outside wrapper can split
# them; reported as such instead of estimated
NOT_SEPARABLE = {
    "rolling.simulate_rolling.self_s":
        "rotation composition loop, normal-equation solve and spin recovery "
        "run inline in simulate_rolling; only _constraint_rows and "
        "_rodrigues_steps are separate functions",
    "phases.total_rotation.self_s":
        "the method dispatch and pairwise reconciliation loop run inline "
        "in total_rotation and cannot be told apart",
    "quadrature.adaptive_simpson.self_s":
        "the recursion runs in the private _recurse, so its time is the "
        "self time of adaptive_simpson; integrand time is gauge.integrand",
    "cli.main.self_s":
        "argument parsing and dispatch only; run_compute, build_parser and "
        "the rest of the CLI layer are in cli.self_s",
}


def _traced_functions(module):
    layer = module.__name__.rsplit(".", 1)[1]
    private = PRIVATE_SPANS.get(layer, ())
    for name, value in vars(module).items():
        if isinstance(value, type) or not callable(value):
            continue
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if name.startswith("_") and name not in private:
            continue
        yield name, value


class Tracer:
    """Wraps the traced functions on creation; records spans and counters
    while ``active``."""

    def __init__(self):
        self.names = [ROOT, INTEGRAND]   # function id -> "layer.function"
        self.spans = []          # [fid, start, end, parent index, op id]
        self.stack = [-1]
        self.op = -1
        self.counts = Counter()
        self.errors = Counter()  # layer -> GeophaseErrors it raised first
        self._bindings = self._bind_all()

    # -- recording --------------------------------------------------------

    def _spanned(self, fid, fn, before=None, after=None):
        layer = self.names[fid].split(".", 1)[0]
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span = [fid, 0.0, 0.0, stack[-1], self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except GeophaseError as exc:
                if getattr(exc, "_traced_layer", None) is None:
                    exc._traced_layer = layer
                    self.errors[layer] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def run_op(self, op_id, fn, arg):
        """Call fn(arg) inside the benchmark's own root span."""
        self.op = op_id
        return self._spanned(0, fn)(arg)

    def _open_name(self):
        idx = self.stack[-1]
        return self.names[self.spans[idx][0]] if idx >= 0 else None

    # -- hooks that count work where it happens ---------------------------

    def _count_eps_half(self, args, kwargs):
        """eps/2 evaluations, and those on paths whose tilt reaches the
        clamp band (the only ones where the second level changes anything)."""
        path = args[0]
        eps = args[1] if len(args) > 1 else kwargs.get("eps", DEFAULT_EPSILON)
        if eps < 0.75 * DEFAULT_EPSILON and self._open_name() != "sphere.regularize":
            band = 2.0 * eps
            ends = [b for (t0, t1, _th, _dth, b0, db) in path.affine_pieces
                    for b in (b0, b0 + db * (t1 - t0))]
            self.counts["phases.eps_half.evaluations"] += 1
            if min(ends) < band or max(ends) > math.pi - band:
                self.counts["phases.eps_half.useful"] += 1
        return args, kwargs

    def _count_chords(self, args, kwargs):
        curve = args[0]
        tol = args[1] if len(args) > 1 else kwargs.get("tol", SIMPLE_TOL)
        if ("simple", tol) not in curve._cache:
            self.counts["regions.is_simple.chords"] += sum(
                i1 - i0 - 1 for i0, i1 in curve.arcs if i1 - i0 >= 2)
        return args, kwargs

    def _count_samples(self, result, args, kwargs):
        self.counts["sphere.regularize.samples"] += len(result)

    def _count_steps(self, result, args, kwargs):
        self.counts["rolling.steps"] += result.steps

    def _count_mesh(self, result, args, kwargs):
        # size of np.unique(linspace(0, 1, N + 1) + knots), without redoing
        # it: a knot adds a point unless it equals a linspace node exactly
        path = args[0]
        n = args[1] if len(args) > 1 else kwargs["N"]
        step = 1.0 / n
        extra = sum(1 for k in path.knots
                    if k != 1.0 and round(k * n) * step != k)
        self.counts["phases.baumkuchen.mesh_points"] += n + 1 + extra

    def _count_integrand(self, args, kwargs):
        counts = self.counts

        def counted(t, f=args[0]):
            counts["quadrature.integrand_evals"] += 1
            return f(t)

        return (self._spanned(1, counted),) + tuple(args[1:]), kwargs

    # -- installation -----------------------------------------------------

    def _bind_all(self):
        """Wrap every traced function once; (module, attribute, original,
        wrapper) for each geophase namespace that holds one of them."""
        hooks = {
            "sphere.cached_regularize": (self._count_eps_half, None),
            "sphere.clamped_affine_pieces": (self._count_eps_half, None),
            "sphere.regularize": (None, self._count_samples),
            "regions.is_simple": (self._count_chords, None),
            "rolling.simulate_rolling": (None, self._count_steps),
            "phases.geometric_phase_baumkuchen": (None, self._count_mesh),
            "quadrature.adaptive_simpson": (self._count_integrand, None),
        }
        replacement = {}
        for layer in LAYERS:
            module = importlib.import_module(f"geophase.{layer}")
            for name, fn in _traced_functions(module):
                label = f"{layer}.{name.lstrip('_')}"
                before, after = hooks.get(label, (None, None))
                self.names.append(label)
                wrapper = self._spanned(len(self.names) - 1, fn, before, after)
                replacement[id(fn)] = (fn, wrapper)
        bindings = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "geophase" and not mod_name.startswith("geophase."):
                continue
            for attr, value in vars(module).items():
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    bindings.append((module, attr, value, hit[1]))
        return bindings

    @contextlib.contextmanager
    def active(self):
        """Tracing on inside the block: every binding points at its wrapper."""
        for module, attr, _original, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _wrapper in self._bindings:
                setattr(module, attr, original)

    # -- results ----------------------------------------------------------

    def self_times(self):
        """(self seconds, call count) per span name over all spans."""
        child = [0.0] * len(self.spans)
        for fid, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for i, (fid, start, end, _parent, _op) in enumerate(self.spans):
            name = self.names[fid]
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path):
        """All spans as gzip CSV: name, start, end, parent index, op id."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "start", "end", "parent", "op"))
            for i, (fid, start, end, parent, op) in enumerate(self.spans):
                out.writerow((i, self.names[fid], f"{start:.9f}", f"{end:.9f}",
                              parent, op))
