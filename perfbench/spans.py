"""Spans timed from outside the program, for the traced run.

The program has no spans of its own yet, so the benchmark wraps public
methods on the live instances it built: the service's ``process_batch``,
the store's ``prepare``/``commit``, each runtime's ``launch`` and
``observe_commit``, each ``runtime.gpu.launch``, each candidate table's
``refresh_rows`` and each collector's ``consume``. A wrapper is an
instance attribute shadowing the class method, so :meth:`Tracer.uninstall`
restores the untraced program exactly by deleting it.

Spans stay in memory until :meth:`Tracer.write_chrome` writes them out
as Chrome trace-event JSON at the end of the run. A layer's self time
is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

#: span names, by the module that owns the wrapped method
ROOT = "service.process_batch"
PREPARE = "store.prepare"
COMMIT = "store.commit"
LAUNCH = "matching.launch"
OBSERVE = "matching.observe_commit"
GPU = "gpu.launch"
REFRESH = "filtering.refresh"
COLLECTOR = "pipeline.collector"


class Tracer:
    """Nested ``perf_counter`` spans with per-batch self-time totals."""

    def __init__(self) -> None:
        #: (name, start, end, depth, batch) of every closed span
        self.spans: list[tuple[str, float, float, int, int]] = []
        #: per traced batch: {span name: self seconds}
        self.batches: list[dict[str, float]] = []
        self._stack: list[list] = []  # [name, start, child seconds]
        self._installed: list[tuple[object, str]] = []
        self._batch = -1
        self.missing: set[str] = set()

    # -- recording -------------------------------------------------------
    def _wrap(self, name: str, method):
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return method(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                self.batches[-1][name] += dur - frame[2]
                spans.append((name, frame[1], end, len(stack), self._batch))

        return traced

    def _patch(self, obj, attr: str, name: str) -> None:
        method = getattr(obj, attr, None)
        if method is None:
            # a layer the program no longer exposes is reported as
            # missing (its time then shows as lower trace.coverage)
            self.missing.add(f"{type(obj).__name__}.{attr}")
            return
        setattr(obj, attr, self._wrap(name, method))
        self._installed.append((obj, attr))

    def install(self, service, runtimes, collectors) -> None:
        """Wrap the service, its store, the given query runtimes (with
        their virtual GPUs and candidate tables) and the given
        collectors."""
        self._patch(service, "process_batch", ROOT)
        self._patch(service.store, "prepare", PREPARE)
        self._patch(service.store, "commit", COMMIT)
        for rt in runtimes:
            self._patch(rt, "launch", LAUNCH)
            self._patch(rt, "observe_commit", OBSERVE)
            self._patch(rt.gpu, "launch", GPU)
            self._patch(rt.table, "refresh_rows", REFRESH)
        for col in collectors:
            self._patch(col, "consume", COLLECTOR)

    def uninstall(self) -> None:
        for obj, attr in self._installed:
            delattr(obj, attr)
        self._installed.clear()

    def begin_batch(self, index: int) -> None:
        self._batch = index
        self.batches.append(defaultdict(float))

    # -- reading -----------------------------------------------------------
    def mean_self(self, name: str) -> float:
        """Mean self seconds of ``name`` per traced batch."""
        if not self.batches:
            return 0.0
        return sum(b.get(name, 0.0) for b in self.batches) / len(self.batches)

    def table(self) -> list[tuple[str, float, float]]:
        """(layer, mean self seconds per batch, share of process_batch)."""
        names = sorted({n for b in self.batches for n in b})
        wall = sum(sum(b.values()) for b in self.batches)
        rows = [(n, self.mean_self(n), self.mean_self(n) * len(self.batches) / wall if wall else 0.0)
                for n in names]
        return sorted(rows, key=lambda r: -r[1])

    def write_chrome(self, path) -> None:
        """Chrome trace-event JSON ("X" complete events, microseconds)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": round((start - t0) * 1e6, 3), "dur": round((end - start) * 1e6, 3),
             "args": {"batch": batch, "depth": depth}}
            for name, start, end, depth, batch in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
