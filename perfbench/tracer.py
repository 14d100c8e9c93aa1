"""Traced launcher: one ``cohgeom`` CLI call with timing shims installed.

    python tracer.py --spans OUT.json --job ID [--alloc] -- <cli argv>

Each shim wraps a public function on the module attribute its caller looks
up (``from .states import hermitian_spectrum`` binds a second name in
``measures`` and ``channels``, so all three are wrapped), records one span per
call and calls through.  A span is ``(id, parent, name, start, end, count)``
and the file records the job id; ``count`` is the work the call did
(elements, triangles, bytes), 0 where none is defined.

Span stacks are thread-local because ``sample_field`` runs its kernels in a
thread pool: a kernel span from a pool thread has no parent, and summed
kernel time may exceed wall time.  A named module or function that no longer
exists is skipped, so it reports zero calls.  Spans stay in memory and are
written when the CLI call returns.

``--alloc`` additionally runs ``sample_field`` under tracemalloc and records
the allocation peak during the call, the bytes of the returned grid and its
non-NaN node count.  It is a separate pass so that tracemalloc does not
inflate the timings of the timed pass.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

KERNELS = (
    "l1_values",
    "bell_relative_entropy_values",
    "x_relative_entropy_values",
    "bell_discord_values",
)

SUITES = (
    "bell_spectrum_vs_jacobi",
    "x_spectrum_vs_jacobi",
    "bell_closed_vs_jacobi",
    "x_closed_vs_jacobi",
    "channel_map_vs_kraus",
    "kraus_completeness",
    "discord_predicate_consistency",
    "trajectory_monotonicity",
)


def _elements(args, kwargs, result) -> int:
    """Elements a kernel evaluates: the broadcast size of its arguments."""
    import numpy as np

    shapes = [np.shape(a) for a in (*args, *kwargs.values())]
    return int(np.prod(np.broadcast_shapes(*shapes)))


def _triangles(args, kwargs, result) -> int:
    return len(getattr(result, "triangles", ()))


def _file_bytes(args, kwargs, result) -> int:
    destination = args[1] if len(args) > 1 else kwargs.get("destination")
    if isinstance(destination, (str, os.PathLike)) and os.path.exists(destination):
        return os.path.getsize(destination)
    return 0


# (span name, module attributes to wrap, work count of one call)
SHIMS = (
    ("cli.main", ("cohgeom.cli.main",), None),
    ("geometry.sample_field", ("cohgeom.geometry.sample_field",), None),
    ("geometry.extract_isosurface", ("cohgeom.geometry.extract_isosurface",), _triangles),
    ("geometry.classify_point", ("cohgeom.geometry.classify_point",), None),
    ("geometry.surface_stats", ("cohgeom.geometry.surface_stats",), None),
    ("geometry.export_obj", ("cohgeom.geometry.export_obj",), _file_bytes),
    *((f"measures.{k}", (f"cohgeom.measures.{k}",), _elements) for k in KERNELS),
    (
        "channels.correlation_map_values",
        ("cohgeom.channels.correlation_map_values",),
        None,
    ),
    (
        "states.hermitian_spectrum",
        (
            "cohgeom.states.hermitian_spectrum",
            "cohgeom.measures.hermitian_spectrum",
            "cohgeom.channels.hermitian_spectrum",
        ),
        None,
    ),
    ("channels.apply_product_channel", ("cohgeom.channels.apply_product_channel",), None),
    (
        "measures.relative_entropy_coherence",
        ("cohgeom.measures.relative_entropy_coherence",),
        None,
    ),
    *((f"verification.{s}", (f"cohgeom.verification.{s}",), None) for s in SUITES),
)


class Tracer:
    """Span recorder for one traced process."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[tuple] = []
        self.alloc: dict = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            work, end = 0, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                if count:
                    work = count(args, kwargs, result)
                return result
            finally:
                if end is None:
                    end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((sid, parent, name, start, end, work))

        return shim

    def install(self, shims=SHIMS) -> None:
        """Wrap every listed attribute that exists; skip the ones that do not."""
        for name, targets, count in shims:
            for target in targets:
                module_name, attr = target.rsplit(".", 1)
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if callable(fn):
                    setattr(module, attr, self.wrap(name, fn, count))

    def install_alloc(self) -> None:
        """Measure tracemalloc peak and physical nodes around ``sample_field``."""
        import tracemalloc

        import numpy as np

        module = importlib.import_module("cohgeom.geometry")
        fn = getattr(module, "sample_field", None)
        if not callable(fn):
            return

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.stop()
            values = np.asarray(getattr(result, "values", result), dtype=float)
            self.alloc = {
                "start": start,
                "end": end,
                "peak_bytes": peak,
                "grid_bytes": values.nbytes,
                "physical": int(np.count_nonzero(~np.isnan(values))),
            }
            return result

        tracemalloc.start()
        setattr(module, "sample_field", shim)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            json.dump({"job": self.job, "spans": self.spans, "alloc": self.alloc}, handle)


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_argv = argv[:split], argv[split + 1 :]
    spans_path = opts[opts.index("--spans") + 1]
    job = int(opts[opts.index("--job") + 1])

    import cohgeom.cli

    tracer = Tracer(job)
    tracer.install()
    if "--alloc" in opts:
        tracer.install_alloc()
    try:
        return cohgeom.cli.main(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
