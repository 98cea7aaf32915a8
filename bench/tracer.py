"""Per-layer tracing of anglekit from outside the program.

The layers are the anglekit modules.  ``Tracer.install`` wraps every public
function of each layer and rebinds the wrapper wherever the function is bound
in an anglekit module, so ``from .specfun import ln_gamma`` in whquant is
traced as well as ``specfun.ln_gamma``.  No file under ``src/`` is edited.

Every call is counted, and counted as an error when it raises.  A span
(id, parent id, function, start, end) is recorded only where a call crosses
from one layer into another, or enters one of the KERNELS from another
function, so a layer's or a kernel's self time is its spans' duration minus
that of their child spans.  Calls that stay inside a layer are counted
without a span, which keeps the cost of the ~10^5 scalar special-function
calls low.  Spans stay in memory and are written out once, at the end.

The tracer assumes one thread, which is how the CLI runs by default.
"""

import functools
import hashlib
import itertools
import sys
import time
import types

import numpy as np

LAYERS = ("cli", "checks", "halfcircle", "whquant", "circlecs", "linalg", "specfun", "moments")

# Functions whose own time the benchmark reports, so they get a span even
# when called from their own layer.
KERNELS = frozenset(
    {
        "checks.run_suite",
        "halfcircle.angle_upper",
        "halfcircle.sigma_isometry",
        "halfcircle.full_angle",
        "whquant.displacement_laguerre",
        "whquant.quantize",
        "whquant.lower_symbol",
        "whquant.angle_matrix",
        "circlecs.overlap",
        "circlecs.cs_vector",
        "circlecs.quantize_cyl_grid",
        "linalg.hermitian_eig",
        "linalg.spectral_function",
    }
)

# Pseudo-function for the tracer's own probes; its spans are excluded from
# every layer, so probe time counts as trace overhead only.
PROBE = "trace.probe"


class Tracer:
    def __init__(self):
        self.names = []  # function index -> "layer.function"
        self.layers = []  # function index -> layer
        self.calls = []  # function index -> calls
        self.errors = []  # function index -> calls that raised
        self.spans = []  # (span id, parent span id, function index, start, end)
        self._ids = itertools.count()
        self._stack = [(-1, None, -1)]  # (span id, layer, function index) of open spans
        self._seen_inputs = set()
        # hermitian_eig probe: sum of dim^3, calls on a repeated input, worst residual
        self.eig_work_d3 = 0
        self.eig_repeats = 0
        self.eig_max_residual = 0.0
        self._probe = self._register(PROBE, "trace")

    @classmethod
    def install(cls):
        """Wrap the public functions of every layer; return the tracer."""
        import anglekit.cli  # noqa: F401  (imports every layer)

        tracer = cls()
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"anglekit.{layer}"]
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ != module.__name__:
                    continue  # a binding of another layer's function
                name = f"{layer}.{attr}"
                target = tracer._probe_eig(obj) if name == "linalg.hermitian_eig" else obj
                wrapper = tracer._wrap(tracer._register(name, layer), target, layer, name in KERNELS)
                wrappers[id(obj)] = (obj, functools.wraps(obj)(wrapper))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "anglekit" and not mod_name.startswith("anglekit."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        missing = KERNELS - set(tracer.names)
        if missing:
            print(f"tracer: kernels not found, reported as 0: {sorted(missing)}", file=sys.stderr)
        return tracer

    def _register(self, name, layer):
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.errors.append(0)
        return len(self.names) - 1

    def _wrap(self, idx, fn, layer, kernel):
        calls, errors, spans, stack, ids = self.calls, self.errors, self.spans, self._stack, self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[idx] += 1
            top_id, top_layer, top_idx = stack[-1]
            if top_layer == layer and (not kernel or top_idx == idx):
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    errors[idx] += 1
                    raise
            span_id = next(ids)
            stack.append((span_id, layer, idx))
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, top_id, idx, start, end))

        return traced

    def _probe_span(self, start):
        """Record a probe span from start to now under the innermost open span."""
        self.spans.append((next(self._ids), self._stack[-1][0], self._probe, start, time.perf_counter()))

    def _probe_eig(self, fn):
        """hermitian_eig plus work, repeated-input and residual bookkeeping."""

        def probed(op, *args, **kwargs):
            start = time.perf_counter()
            mat = np.ascontiguousarray(op.entries)
            digest = hashlib.blake2b(repr(mat.shape).encode() + mat.tobytes(), digest_size=16).digest()
            self.eig_repeats += digest in self._seen_inputs
            self._seen_inputs.add(digest)
            self.eig_work_d3 += mat.shape[0] ** 3
            self._probe_span(start)
            es = fn(op, *args, **kwargs)
            start = time.perf_counter()
            vecs = es.eigenvectors
            resid = np.abs(mat @ vecs - vecs * es.eigenvalues).max() if mat.size else 0.0
            scale = np.abs(mat).max() if mat.size else 0.0
            if scale > 0.0:
                self.eig_max_residual = max(self.eig_max_residual, float(resid / scale))
            self._probe_span(start)
            return es

        return probed

    def dump(self, path):
        """Write spans, counts and probe results to an .npz file."""
        spans = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            calls=np.array(self.calls, dtype=np.int64),
            errors=np.array(self.errors, dtype=np.int64),
            spans=spans,
            eig=np.array([self.eig_work_d3, self.eig_repeats, self.eig_max_residual], dtype=float),
        )
