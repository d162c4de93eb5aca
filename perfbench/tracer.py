"""Span tracing of the fvps layers, applied from outside the package.

Every public function of each fvps module is wrapped, and every ``fvps.*``
module attribute that holds the same function object is rebound to the
wrapper.  That catches re-exports (``fvps.cli.wigner_even``,
``fvps.rotator.sign_operator``) and global lookups inside a module
(``_correlation`` calling ``fine_amplitude``).  Spans are kept in memory
and summarised when the run ends; ``restore`` puts the originals back.
"""

import contextlib
import functools
import json
import sys
import time
import tracemalloc
import types

LAYERS = ("cli", "wigner", "moyal", "opmatrix", "rotator", "states", "pairs", "grids", "spectrum")

# cli.main's self time is meant to include argument parsing, so
# build_parser is left inside main's span rather than given one of its own.
UNWRAPPED = frozenset({"cli.build_parser"})

# Functions whose transient allocation peak is recorded with tracemalloc.
PEAK_MB = ("wigner.wigner_even", "moyal.star_product", "opmatrix.sign_operator")

# Per-function metrics reported besides the per-layer self_s/calls/errors.
FUNCTION_METRICS = {
    "cli.main": ("self_s",),
    "wigner.wigner_even": ("self_s", "calls"),
    "wigner.fine_amplitude": ("self_s",),
    "wigner.moments": ("self_s",),
    "wigner.reconstruct_kernel": ("self_s",),
    "wigner.purity_check": ("self_s",),
    "spectrum.eps_factor": ("self_s", "calls"),
    "spectrum.energy": ("calls",),
    "grids.fourier_pair": ("self_s", "calls"),
    "moyal.star_product": ("self_s", "calls"),
    "moyal.evolve_even": ("self_s",),
    "opmatrix.sign_operator": ("self_s", "calls"),
    "opmatrix.even_part": ("self_s",),
    "opmatrix.branch_vectors": ("self_s",),
    "opmatrix.position_kernel": ("self_s",),
    "opmatrix.kernel_relation_check": ("self_s",),
    "rotator.even_ladder": ("self_s", "calls"),
    "rotator.orbit_series": ("self_s",),
    "rotator.modulation_spectrum": ("self_s",),
    "rotator.translational_coupling": ("self_s",),
    "states.gaussian_state": ("self_s",),
    "states.rotator_coherent_state": ("self_s",),
    "pairs.overlap_penalty": ("self_s", "calls"),
}

# The benchmark's own code inside an operation (outside every layer span)
# may take at most this share of the traced time.
UNATTRIBUTED_MAX = 0.05


def layer_metric_units():
    """Name -> unit of every per-layer metric the traced run reports."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.errors"] = "count"
        units[f"{layer}.share"] = "fraction"
    for name, kinds in FUNCTION_METRICS.items():
        for kind in kinds:
            units[f"{name}.{kind}"] = "s" if kind == "self_s" else "count"
    for name in PEAK_MB:
        units[f"{name}.peak_mb"] = "MB"
    units["cli.bytes_written"] = "bytes"
    units["trace.overhead_frac"] = "fraction"
    return units


class Tracer:
    """Wraps the fvps layers and records (name, start, end, parent, op, error) spans.

    With track_memory the PEAK_MB functions also run under tracemalloc,
    which slows functions that allocate many small arrays several-fold;
    such a tracer is used for peak_mb only, never for times.
    """

    def __init__(self, track_memory=False):
        self.track_memory = track_memory
        self.spans = []
        self.peak_mb = {}
        self.op_id = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        track_memory = self.track_memory and name in PEAK_MB

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:  # result checks run outside any operation
                return fn(*args, **kwargs)
            idx = self._open(name)
            measure = track_memory and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            spans[idx][1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[idx][5] = True
                raise
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
                if measure:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)

        return traced

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, False])
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def root(self, name, op_id):
        """The benchmark's own span around one operation; fvps spans nest inside it."""
        self.op_id = op_id
        idx = self._open(name)
        try:
            yield
        except BaseException:
            self.spans[idx][5] = True
            raise
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()
            self.op_id = None

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"fvps.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    wrappers[obj] = self._wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "fvps" and not modname.startswith("fvps."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def restore(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path):
        """Write the raw spans as JSON lines of [name, start, end, parent, op, error]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self, factor=lambda op_id: 1.0):
        """Self time, calls, escaped errors and root time per span name, plus nesting violations.

        Self time is a span's duration minus the durations of its direct
        children; children never overlap because the program is single
        threaded.  Times are divided by factor(op_id), the machine-speed
        calibration of the span's pass.
        """
        child_time = [0.0] * len(self.spans)
        problems = []
        for name, start, end, parent, op, _ in self.spans:
            if end < start:
                problems.append(f"{name}: ends before it starts")
            if parent is None:
                continue
            p_name, p_start, p_end, _, p_op, _ = self.spans[parent]
            if start < p_start or end > p_end or op != p_op:
                problems.append(f"{name} (op {op}) is not inside its parent {p_name} (op {p_op})")
            child_time[parent] += end - start
        per_name = {}
        for (name, start, end, parent, op, error), children in zip(self.spans, child_time):
            self_s = (end - start) - children
            if self_s < 0:
                problems.append(f"{name}: negative self time {self_s:.3e} s")
            entry = per_name.setdefault(name, {"self_s": 0.0, "calls": 0, "errors": 0, "total_s": 0.0})
            entry["self_s"] += self_s / factor(op)
            entry["calls"] += 1
            # an exception counts once, where it leaves the layer
            layer = name.split(".")[0]
            entry["errors"] += error and (parent is None or self.spans[parent][0].split(".")[0] != layer)
            if parent is None:
                entry["total_s"] += (end - start) / factor(op)
        return per_name, problems

