"""Timing spans around the public functions of the singlering layers.

Run as a script, this is a drop-in for the ``singlering`` console script
that records, per wrapped function, the call count, total time and self
time, and writes them as JSON when the CLI call ends:

    PYTHONPATH=src python3 perfbench/spans.py TRACE.json <singlering args...>

The library is not edited: every public function defined in one of the
layer modules is replaced by a wrapper in *every* singlering module that
binds it, so ``from .freeconv import solve_delta_conv`` in ``ringlaw`` is
traced as well as ``freeconv.solve_delta_conv``.

A span's self time is its duration minus the part of it covered by its
child spans.  ``locallaw.parallel_map`` hands its parent span to the pool
threads: each task runs as a child span ``locallaw.parallel_map.task``
whose time is charged there, and the map's own self time is its wall time
minus the union of the task intervals.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

LAYERS = ("freeconv", "ringlaw", "linalg", "models", "locallaw", "measure")
POOL = "locallaw.parallel_map"
TASK = POOL + ".task"


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _extra_counts(name, args, kwargs, result):
    """Work counters read from a call's arguments or its result."""
    if name in ("freeconv.solve_delta_conv", "freeconv.solve_phi_system"):
        return {name + ".iterations": result.iterations}
    if name == "linalg.hermitian_eigensystem":
        n = args[0].shape[0]
        vectors = kwargs.get("want_vectors", args[1] if len(args) > 1 else False)
        return {name + ".dim3": n**3, name + ".vector_calls": 1 if vectors else 0}
    if name == "linalg.shifted_log_abs_det":
        shifts = kwargs.get("shifts", args[1] if len(args) > 1 else None)
        return {name + ".shifts": len(shifts)}
    return None


class Tracer:
    """Aggregated spans; one instance per traced process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = {}  # counter name -> value
        self.pool = {"task_s": 0.0, "capacity_s": 0.0}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, duration, child_s, extra=None):
        with self._lock:
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_s
            for key, value in (extra or {}).items():
                self.counts[key] = self.counts.get(key, 0) + value

    def call(self, name, fn, args, kwargs, cover=None):
        """Run fn as span `name`; `cover` replaces the summed child time."""
        stack = self._stack()
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            child_s = frame[0] if cover is None else cover()
            extra = None
            if result is not None:
                extra = _extra_counts(name, args, kwargs, result)
            self._record(name, duration, child_s, extra)

    def wrap(self, name, fn):
        if name == POOL:
            return self._wrap_pool(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def _wrap_pool(self, parallel_map):
        @functools.wraps(parallel_map)
        def traced(fn, items, threads=1):
            items = list(items)
            intervals = []

            def task(item):
                # a pool thread has no span of its own: the task span is a
                # child of the map, timed on whichever thread runs it
                saved = getattr(self._local, "stack", None)
                self._local.stack = []
                start = time.perf_counter()
                try:
                    return self.call(TASK, fn, (item,), {})
                finally:
                    intervals.append((start, time.perf_counter()))
                    self._local.stack = saved

            pool_start = time.perf_counter()
            try:
                return self.call(
                    POOL, parallel_map, (task, items, threads), {},
                    cover=lambda: _union_length(intervals),
                )
            finally:
                wall = time.perf_counter() - pool_start
                width = threads if threads > 1 and len(items) > 1 else 1
                with self._lock:
                    self.pool["task_s"] += sum(b - a for a, b in intervals)
                    self.pool["capacity_s"] += width * wall

        return traced

    def install(self):
        """Wrap each public layer function at every module that binds it."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"singlering.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "singlering" and not mod_name.startswith("singlering."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    def to_json(self):
        return {"spans": self.spans, "counts": self.counts, "pool": self.pool}


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import singlering.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.call("cli.main", singlering.cli.main, (cli_args,), {})
    except SystemExit as exc:  # argparse usage errors exit from inside main
        code = exc.code
    record = tracer.to_json()
    record["import_s"] = import_s
    with open(trace_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
