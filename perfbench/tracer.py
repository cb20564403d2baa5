"""Per-layer tracing for the benchmark's traced run.

Two mechanisms, both kept out of the untraced run:

* counting wrappers that the benchmark puts around the layers' public entry
  points (calls, and for two of them the time spent inside);
* a sampling profiler on the wall-clock interval timer (``SIGALRM``, every
  millisecond).  Each sample charges
  the innermost frame's layer: a ``src/ulat`` module, or ``fractions`` for
  the standard library's ``Fraction`` arithmetic.  Frames of other library
  code (``random``, ``abc``) are charged to the nearest layer that called
  them; code that dataclasses generate is charged to the module of the
  class it belongs to.  Samples taken inside the counting wrappers are
  charged to ``trace`` and so leave every layer's self time.

The deterministic profiler, ``cProfile``, costs 3.8x on the ``suites``
workload (95 s for a 25 s round); sampling costs a few percent.
"""

from __future__ import annotations

import fractions
import os
import signal
import sys
import time

LAYERS = ("exact", "carriers", "spaces", "truncation", "semimetrics",
          "entourages", "sequences", "convergence", "subnet", "optrees",
          "catalog", "verdicts", "suites", "cli", "fractions")

SAMPLE_INTERVAL_S = 0.001

_GENERATED = "<generated>"
_UNKNOWN = object()


class Tracer:
    def __init__(self, bench_dir: str, ulat_dir: str):
        self.bench_dir = os.path.realpath(bench_dir)
        self.ulat_dir = os.path.realpath(ulat_dir)
        self.this_file = os.path.realpath(__file__)
        self.fractions_file = os.path.realpath(fractions.__file__)
        self.counts: dict[str, list] = {}
        self.timers: dict[str, list] = {}
        self.samples: dict[str, int] = {}
        self._file_layer: dict[str, object] = {}
        self._undo: list = []
        self._nonneg_depth = [0]
        self._old_handler = None

    # -- counting wrappers

    def _cell(self, name: str) -> list:
        return self.counts.setdefault(name, [0])

    def _counted(self, name: str, fn):
        cell = self._cell(name)

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _timed(self, name: str, fn):
        cell = self._cell(name + ".calls")
        spent = self.timers.setdefault(name + ".s", [0.0])

        def timed(*args, **kwargs):
            cell[0] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - t0
        return timed

    def _patch_method(self, cls, attr: str, make) -> None:
        old = cls.__dict__[attr]
        if isinstance(old, staticmethod):
            new = staticmethod(make(old.__func__))
        else:
            new = make(old)
        self._undo.append((cls, attr, old))
        setattr(cls, attr, new)

    def _patch_function(self, fn, wrapper) -> None:
        """Rebind fn to wrapper in every library module that imported it."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("ulat"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _each_override(self, base, attr: str):
        """base and every library subclass that defines attr itself."""
        seen = [base]
        stack = [base]
        while stack:
            for sub in stack.pop().__subclasses__():
                if sub.__module__.startswith("ulat") and sub not in seen:
                    seen.append(sub)
                    stack.append(sub)
        return [c for c in seen if attr in c.__dict__]

    def install(self, U) -> None:
        """Wrap the entry points of a freshly imported library."""
        carriers = sys.modules["ulat.carriers"]
        exact = sys.modules["ulat.exact"]
        for cls in self._each_override(carriers.Carrier, "check_element"):
            self._patch_method(cls, "check_element",
                               lambda f: self._counted("carriers.check_element.calls", f))
        for op in ("meet", "join", "leq"):
            for cls in self._each_override(carriers.Carrier, op):
                self._patch_method(cls, op,
                                   lambda f: self._counted("carriers.lattice_ops.calls", f))
        self._patch_method(exact.ExtValue, "__init__",
                           lambda f: self._counted("exact.ExtValue.calls", f))
        self._patch_method(U.LatticeSemimetric, "__call__",
                           lambda f: self._counted("semimetrics.distance.calls", f))
        self._patch_method(U.FiniteLattice, "from_leq",
                           lambda f: self._timed("carriers.from_leq", f))
        self._patch_method(U.EvLinSeq, "value",
                           lambda f: self._counted("spaces.EvLinSeq.value.calls", f))
        self._patch_method(U.QVec, "normalize",
                           lambda f: self._counted("spaces.QVec.normalize.calls", f))
        self._patch_method(exact.RatAltSeq, "__post_init__",
                           lambda f: self._counted("exact.RatAltSeq.calls", f))
        self._patch_method(exact.Poly, "eval", self._poly_eval)
        self._patch_method(exact.Poly, "nonneg_from", self._poly_nonneg)
        for fn, wrapper in (
                (U.standard_carriers, self._counted("catalog.standard_carriers.calls",
                                                    U.standard_carriers)),
                (U.truncate_f, self._counted("truncation.truncate_f.calls", U.truncate_f)),
                (U.truncate_sequence, self._timed("convergence.truncate_sequence",
                                                  U.truncate_sequence))):
            self._patch_function(fn, wrapper)
        self._patch_method(fractions.Fraction, "__new__",
                           lambda f: self._counted("fractions.Fraction.calls", f))

    def _poly_eval(self, fn):
        calls = self._cell("exact.Poly.eval.calls")
        scanned = self._cell("exact.scanned")
        depth = self._nonneg_depth

        def poly_eval(*args, **kwargs):
            calls[0] += 1
            if depth[0]:
                scanned[0] += 1
            return fn(*args, **kwargs)
        return poly_eval

    def _poly_nonneg(self, fn):
        calls = self._cell("exact.Poly.nonneg_from.calls")
        depth = self._nonneg_depth

        def poly_nonneg(*args, **kwargs):
            calls[0] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return poly_nonneg

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- sampling

    def start_sampling(self) -> None:
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)

    def _classify(self, filename: str):
        if filename == "<string>":
            return _GENERATED
        path = os.path.realpath(filename)
        if path == self.fractions_file:
            return "fractions"
        if path == self.this_file:
            return "trace"
        if os.path.dirname(path) == self.ulat_dir:
            stem = os.path.splitext(os.path.basename(path))[0]
            return stem if stem in LAYERS else None
        if path.startswith(self.bench_dir + os.sep):
            return "other"
        return None

    def layer_of(self, frame) -> str:
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = self._file_layer.get(filename, _UNKNOWN)
            if layer is _UNKNOWN:
                layer = self._file_layer[filename] = self._classify(filename)
            if layer is _GENERATED:
                owner = frame.f_locals.get("self")
                module = type(owner).__module__ if owner is not None else ""
                if module.startswith("ulat.") and module[5:] in LAYERS:
                    return module[5:]
            elif layer is not None:
                return layer
            frame = frame.f_back
        return "other"

    def _sample(self, signum, frame) -> None:
        layer = self.layer_of(frame)
        self.samples[layer] = self.samples.get(layer, 0) + 1

    # -- results

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def seconds(self, name: str) -> float:
        return self.timers.get(name, [0.0])[0]

    def self_seconds(self, cpu_s: float) -> dict:
        total = sum(self.samples.values()) or 1
        return {layer: cpu_s * self.samples.get(layer, 0) / total for layer in LAYERS}
