"""Outside-in layer tracing for the qmht benchmark.

The tracer rebinds module attributes (``numpy.linalg.eigvalsh``, the names
``qmht.tensorlab`` imported, the public functions of ``qmht.detectors`` and so
on) to thin wrappers that record one span per call: name, start, end, parent
span and job id. Spans stay in memory until the run writes them out. Nothing
inside ``src/`` is touched, so the same tracer measures any later version of
the package; a target that a later version drops is reported as missing and
counts zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name, how to wrap). "m3" also counts sum(m^3) over
# the square matrix argument; "stream" wraps a generator and times each next().
TARGETS = (
    ("numpy.linalg", "eigvalsh", "kernel.eigvalsh", "m3"),
    ("numpy.linalg", "eigh", "kernel.eigh", "m3"),
    ("numpy.linalg", "cholesky", "kernel.cholesky", "call"),
    ("numpy", "einsum", "kernel.einsum", "call"),
    ("qmht.tensorlab", "solve_triangular", "kernel.solve_triangular", "call"),
    ("qmht.tensorlab", "iter_power_eigenpairs", "linalg.iter_power_eigenpairs", "stream"),
    ("qmht.tensorlab", "multiple_qcb", "chernoff.multiple_qcb", "call"),
    ("qmht.tensorlab", "common_eigenbasis", "detectors.common_eigenbasis", "call"),
    ("qmht.tensorlab", "run_power_experiment", "tensorlab.run_power_experiment", "call"),
    ("qmht.cli", "main", "cli.main", "call"),
    ("qmht.cli", "run_power_experiment", "tensorlab.run_power_experiment", "call"),
    ("qmht.cli", "load_scenario", "cli.load_scenario", "call"),
    ("qmht.cli", "render_csv", "cli.render", "call"),
    ("qmht.cli", "render_json", "cli.render", "call"),
    ("qmht.detectors", "gs_detector", "detectors.gs_detector", "call"),
    ("qmht.detectors", "gs_error_bound", "detectors.gs_error_bound", "call"),
    ("qmht.detectors", "epsilon_detector", "detectors.epsilon_detector", "call"),
    ("qmht.detectors", "pgm", "detectors.pgm", "call"),
    ("qmht.detectors", "holevo_helstrom", "detectors.holevo_helstrom", "call"),
    ("qmht.detectors", "bayes_commuting", "detectors.bayes_commuting", "call"),
    ("qmht.detectors", "classical_ml", "detectors.classical_ml", "call"),
    ("qmht.detectors", "evaluate_errors", "detectors.evaluate_errors", "call"),
    ("qmht.detectors", "common_eigenbasis", "detectors.common_eigenbasis", "call"),
    ("qmht.detectors", "verify_bayes_conditions", "detectors.verify_bayes_conditions", "call"),
    ("qmht.detectors", "Detector", "detectors.Detector", "call"),
    ("qmht.detectors", "binary_qcb", "chernoff.binary_qcb", "call"),
    ("qmht.chernoff", "binary_qcb", "chernoff.binary_qcb", "call"),
    ("qmht.linalg", "spectral_decompose", "linalg.spectral_decompose", "call"),
)

def _m3(args, kwargs) -> int:
    """Sum of m^3 over the (possibly batched) square matrix argument."""
    mat = args[0] if args else kwargs.get("a")
    shape = getattr(mat, "shape", ())
    if len(shape) < 2 or shape[-1] != shape[-2]:
        return 0
    batch = 1
    for extent in shape[:-2]:
        batch *= int(extent)
    return batch * int(shape[-1]) ** 3


class Tracer:
    """Span recorder with per-name aggregates.

    ``total_s`` counts only the outermost span of a name, so a name nested in
    itself is not counted twice; ``self_s`` is each span's duration minus the
    time covered by its direct children.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.job: int | None = None
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.m3: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list[list] = []
        self._next_id = 0
        self._depth: Counter = Counter()
        self._patches: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------
    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, name, parent, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self.calls[name] += 1
        self._depth[name] += 1
        frame[3] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        span_id, name, parent, start, child_s = frame
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {name} closed out of order")
        duration = end - start
        self.self_s[name] += duration - child_s
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.total_s[name] += duration
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((span_id, parent, self.job, name, start, end))

    # -- wrappers ---------------------------------------------------------
    def _call_wrapper(self, name: str, fn, count_m3: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            if count_m3:
                tracer.m3[name] += _m3(args, kwargs)
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        if not isinstance(fn, type):  # Detector is a class; keep its dict out
            functools.update_wrapper(wrapper, fn)
        return wrapper

    def _stream_wrapper(self, name: str, fn):
        tracer = self

        def stream(generator):
            while True:
                frame = tracer._enter(name)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    tracer._exit(frame)
                tracer.items[name] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return stream(fn(*args, **kwargs))

        return wrapper

    # -- installation -----------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        """Rebind every target that exists; warn about and skip the rest."""
        for module_name, attr, name, how in targets:
            try:
                owner = importlib.import_module(module_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                print(
                    f"perfbench: warning: trace target {module_name}.{attr} "
                    f"not found; {name} counts zero",
                    file=sys.stderr,
                )
                continue
            if how == "stream":
                wrapper = self._stream_wrapper(name, original)
            else:
                wrapper = self._call_wrapper(name, original, how == "m3")
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------
    def metric(self, key: str) -> float:
        """Value of a per-layer metric such as ``kernel.eigh.m3``."""
        name, _, field = key.rpartition(".")
        if field == "calls":
            return self.calls[name]
        if field == "items":
            return self.items[name]
        if field == "m3":
            return self.m3[name]
        if field == "s":
            return self.total_s[name]
        if field == "self_s":
            return self.self_s[name]
        raise KeyError(key)

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, job, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "job": job,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
