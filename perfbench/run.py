#!/usr/bin/env python3
"""Serving benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload lj-serve-64q --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports the program from
``src/`` there and nowhere else, and fails (non-zero exit, no result)
when that is missing. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
with ``--trace 1`` the per-layer ones.

A run:

1. re-executes itself with ``PYTHONHASHSEED=0`` and single-threaded
   BLAS/OpenMP, so every run starts from the same interpreter state;
2. loads the seed's inputs, generating them once per seed in a child
   process into ``perfbench/.cache`` (generation is in no metric and
   never raises this process's peak RSS);
3. times the first half of ``setup_reps`` set-ups and keeps the last
   service;
4. runs ``warmup_batches`` through ``process_stream``, whose pipeline
   model gives ``modeled_makespan_s`` (a fixed stream prefix, so it
   repeats exactly for a seed), then ``gc.collect()``;
5. times ``process_batch`` batch after batch for ``--seconds``; a
   single-process workload moves to the next allowed CPU before each
   batch and each set-up (``Run.pin``);
6. runs the correctness gate (``workloads.check_correct``); a violation
   prints the problems, reports ``"correct": false`` and exits 1;
7. times the other set-ups; ``setup_s`` is the median of all of them.
   Host speed drifts over tens of seconds, so set-ups taken at both
   ends of the run repeat better than set-ups taken back to back;
8. on every way out, stops the processes it started and waits for
   them (``stop_children``), the shared-memory resource tracker of the
   sharded tier included.

With ``--trace 1`` each timed batch is traced or not by a seeded coin,
so the same run yields the per-layer self times (traced batches) and
``trace.overhead`` (traced against untraced throughput). The spans are
written to ``perfbench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import pickle
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CACHE = HERE / ".cache"
OUT = HERE / "out"

HYGIENE_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
#: a run times at least this many batches, so the tail percentile has
#: ten samples beyond it even on a very short ``--seconds``
MIN_TIMED_BATCHES = 20
GENERATE_TIMEOUT_S = 600


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def ensure_hygiene(argv) -> None:
    """Re-exec with a fixed hash seed and single-threaded numeric
    libraries unless this process already runs with them."""
    if all(os.environ.get(k) == v for k, v in HYGIENE_ENV.items()):
        return
    env = {**os.environ, **HYGIENE_ENV}
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, str(Path(__file__)), *argv], env)


def load_inputs(family: str, seed: int) -> dict:
    """The seed's inputs, generated on first use and cached; the cache
    key includes a digest of the generator so edits invalidate it."""
    digest = hashlib.sha256((HERE / "inputs.py").read_bytes()).hexdigest()[:12]
    path = CACHE / f"{family}-{seed}-{digest}.pkl"
    if not path.exists():
        CACHE.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--family", family,
             "--seed", str(seed), "--out", str(path)],
            check=True, timeout=GENERATE_TIMEOUT_S,
        )
    with open(path, "rb") as fh:
        return pickle.load(fh)


def tail(times: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond
    it (nearest rank), and its value."""
    n = len(times)
    ordered = sorted(times)
    pct = max(0, min(99, math.floor(100 * (n - 10) / n)))
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live multiprocessing workers."""
    import multiprocessing

    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
        except OSError:
            pass
    return kb / 1024.0


class Run:
    """State of one closed-loop run."""

    def __init__(self, wl, data, seed: int):
        import workloads

        self.wl = wl
        self.seed = seed
        self.g0 = workloads.initial_graph(wl, data)
        self.queries = workloads.queries(wl, data)
        self.period = workloads.stream_period(wl, data)
        self.next_batch = 0
        self.pos_neg: list[tuple[int, int]] = []
        self.cpus = sorted(os.sched_getaffinity(0))

    def pin(self, i: int) -> None:
        """Move a single-process workload to the ``i``-th allowed CPU
        (round robin). Host contention differs between a container's
        CPUs, and an otherwise idle system rarely migrates a busy
        process, so an unpinned run inherits one CPU's contention for
        its whole length; alternating samples every CPU equally. The
        sharded tier is never pinned: its forked workers would inherit
        the mask."""
        if not self.wl.workers:
            os.sched_setaffinity(0, {self.cpus[i % len(self.cpus)]})

    def unpin(self) -> None:
        os.sched_setaffinity(0, self.cpus)

    def batch(self):
        b = self.period[self.next_batch % len(self.period)]
        self.next_batch += 1
        return b

    def setup(self, reps: int, keep: bool = True) -> tuple[object, list[float]]:
        """Time ``reps`` set-ups. Returns the last service, which is
        closed unless ``keep``, and the set-up times."""
        import workloads

        times = []
        service = None
        for i in range(reps):
            if service is not None:
                workloads.close_service(service)
                service = None
            gc.collect()
            self.pin(i)
            t0 = time.perf_counter()
            service = workloads.build_service(self.wl, self.g0, self.queries)
            times.append(time.perf_counter() - t0)
        self.unpin()
        if not keep:
            workloads.close_service(service)
        return service, times

    def warmup(self, service) -> float:
        """Process the warm-up prefix through ``process_stream``; return
        its modeled pipeline makespan."""
        from repro.graph.updates import UpdateStream

        stream = UpdateStream([self.batch() for _ in range(self.wl.warmup_batches)])
        reports, pipeline = service.process_stream(stream)
        self.pos_neg += [(r.total_positives, r.total_negatives) for r in reports]
        return pipeline.makespan


def timed_loop(run: Run, service, seconds: float, on_batch=None):
    """Closed loop: the next batch goes in only after the previous
    report came back. Returns ``(times, ops, attempted, failed)``."""
    import workloads

    times, ops = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        batch = run.batch()
        run.pin(len(times))
        if on_batch is not None:
            on_batch(len(times), True)
        t0 = time.perf_counter()
        report = service.process_batch(batch)
        t1 = time.perf_counter()
        if on_batch is not None:
            on_batch(len(times), False, report)
        times.append(t1 - t0)
        ops.append(len(batch))
        attempted += len(report.queries)
        failed += workloads.failed_results(report)
        run.pos_neg.append((report.total_positives, report.total_negatives))
        if t1 >= deadline and len(times) >= MIN_TIMED_BATCHES:
            run.unpin()
            return times, ops, attempted, failed


def end_to_end(run: Run, service, makespan: float, seconds: float):
    times, ops, attempted, failed = timed_loop(run, service, seconds)
    pct, tail_s = tail(times)
    metrics = {
        "batch_p50_s": (statistics.median(times), "s"),
        "batch_tail_s": (tail_s, "s"),
        "throughput_ops_s": (sum(ops) / sum(times), "ops/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "modeled_makespan_s": (makespan, "model-s"),
        "served_share": (1.0 - failed / attempted, "fraction"),
    }
    print(f"timed batches: {len(times)}; batch_tail_s is p{pct} "
          f"({len(times) - math.ceil(pct * len(times) / 100)} batches beyond it)")
    return metrics, attempted, failed


def per_layer(run: Run, service, seconds: float):
    """Traced run: per-layer metrics from the batches a seeded coin
    traces, trace overhead against the batches it leaves untraced."""
    import spans as sp

    tracer = sp.Tracer()
    if run.wl.workers:
        runtimes, collectors = [], []
    else:
        runtimes = [service.runtime(n) for n in service.query_names]
        collectors = [rt.collector for rt in runtimes if rt.collector is not None]
    coin = random.Random(run.seed * 31 + 7)
    traced_flags: list[bool] = []
    counts = []
    launch_wall = [None]

    def on_batch(i, before, report=None):
        if before:
            traced = coin.random() < 0.5
            traced_flags.append(traced)
            # untraced batches patch and unpatch too, so both groups
            # start from the same cache state and trace.overhead
            # compares only the wrapped calls
            tracer.install(service, runtimes, collectors)
            if traced:
                tracer.begin_batch(i)
            else:
                tracer.uninstall()
            return
        if traced_flags[-1]:
            tracer.uninstall()
            counts.append(layer_counts(report, launch_wall))
        else:
            layer_counts(report, launch_wall)  # keeps the worker launch-wall delta

    times, ops, attempted, failed = timed_loop(run, service, seconds, on_batch)
    tr = [(t, o) for t, o, f in zip(times, ops, traced_flags) if f]
    un = [(t, o) for t, o, f in zip(times, ops, traced_flags) if not f]
    thr = lambda rows: sum(o for _, o in rows) / sum(t for t, _ in rows)  # noqa: E731
    wall = sum(sum(b.values()) for b in tracer.batches)
    root_self = sum(b.get(sp.ROOT, 0.0) for b in tracer.batches)
    n = len(tracer.batches)
    tenth = max(1, n // 10)
    first = sum(b.get(sp.COLLECTOR, 0.0) for b in tracer.batches[:tenth])
    last = sum(b.get(sp.COLLECTOR, 0.0) for b in tracer.batches[-tenth:])
    mean = lambda key: sum(c[key] for c in counts) / len(counts)  # noqa: E731
    tasks = sum(c["tasks"] for c in counts)
    attempts = sum(c["steal_attempts"] for c in counts)
    warp_cycles = sum(c["warp_cycles"] for c in counts)
    ops_traced = sum(c["ops"] for c in counts)
    gpu_self = (mean("worker_launch_wall") if run.wl.workers else tracer.mean_self(sp.GPU))
    metrics = {
        "matching.launch.setup_s": (tracer.mean_self(sp.LAUNCH), "s"),
        "matching.launch.tasks": (tasks / len(counts), "count"),
        "matching.launch.match_yield": (sum(c["matches"] for c in counts) / tasks if tasks else 0.0, "ratio"),
        "gpu.launch.self_s": (gpu_self, "s"),
        "gpu.tasks_completed": (mean("tasks_completed"), "count"),
        "gpu.steal_success": (sum(c["steals"] for c in counts) / attempts if attempts else 0.0, "ratio"),
        "gpu.utilization": (sum(c["busy_cycles"] for c in counts) / warp_cycles if warp_cycles else 0.0, "ratio"),
        "store.prepare.self_s": (tracer.mean_self(sp.PREPARE), "s"),
        "store.prepare.net_share": (sum(c["net"] for c in counts) / ops_traced, "ratio"),
        "store.commit.self_s": (tracer.mean_self(sp.COMMIT), "s"),
        "store.commit.reencoded_rows": (mean("reencoded"), "count"),
        "store.commit.gpma_segments_touched": (mean("segments"), "count"),
        "store.commit.gpma_escalations": (mean("escalations"), "count"),
        "graph.view_materialized": (float(bool(service.graph.is_materialized)), "bool"),
        "filtering.refresh.self_s": (tracer.mean_self(sp.REFRESH), "s"),
        "filtering.refresh.rows": (mean("refresh_rows"), "count"),
        "pipeline.collector.self_s": (tracer.mean_self(sp.COLLECTOR), "s"),
        "pipeline.collector.growth": (last / first if first else 0.0, "ratio"),
        "service.self_s": (tracer.mean_self(sp.ROOT), "s"),
        "sharded.fanout_s": (tracer.mean_self(sp.ROOT) if run.wl.workers else 0.0, "s"),
        "sharded.shard_events": (mean("shard_events"), "count"),
        "trace.coverage": (1.0 - root_self / wall if wall else 0.0, "ratio"),
        "trace.overhead": (thr(tr) / thr(un) - 1.0, "ratio"),
    }
    print(f"traced batches: {n} of {len(times)}")
    print(f"{'layer':<28} {'self s/batch':>12} {'share':>7}")
    for name, secs, share in tracer.table():
        print(f"{name:<28} {secs:>12.6f} {share:>7.1%}")
    if tracer.missing:
        print("not traced (missing on this program): " + ", ".join(sorted(tracer.missing)))
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_chrome(OUT / f"trace-{run.wl.name}-{run.seed}.json")
    return metrics, attempted, failed


def layer_counts(report, launch_wall: list) -> dict:
    """Counts one report carries, per batch."""
    out = dict.fromkeys(
        ("tasks", "matches", "tasks_completed", "steals", "steal_attempts", "busy_cycles",
         "warp_cycles", "refresh_rows"), 0)
    delta = report.delta_inserted + report.delta_deleted
    live = 0
    for q in report.queries.values():
        if q.health == "quarantined":
            continue
        live += 1
        res = q.result
        out["tasks"] += delta
        out["matches"] += len(res.positives) + len(res.negatives)
        for b in res.kernel_stats.blocks:
            out["tasks_completed"] += b.tasks_completed
            out["steals"] += b.steals
            out["steal_attempts"] += b.steal_attempts
            out["busy_cycles"] += b.busy_cycles
            out["warp_cycles"] += b.makespan_cycles * b.n_warps
    out["refresh_rows"] = report.reencoded_vertices * live
    out["ops"] = report.batch_size
    out["net"] = delta
    out["reencoded"] = report.reencoded_vertices
    out["segments"] = report.gpma_stats.segments_touched
    out["escalations"] = report.gpma_stats.escalations
    shard_health = getattr(report, "shard_health", {})
    out["shard_events"] = sum(1 for h in shard_health.values() if h != "ok")
    total = sum(getattr(report, "worker_launch_wall", {}).values())
    out["worker_launch_wall"] = total - launch_wall[0] if launch_wall[0] is not None else 0.0
    launch_wall[0] = total
    return out


def stop_children() -> None:
    """Stop every process this run started and wait for each to end:
    service workers still alive, and the resource tracker that
    multiprocessing spawns when the sharded tier publishes a
    shared-memory snapshot. The tracker otherwise outlives this process
    until it reads end-of-file on its pipe."""
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    ensure_hygiene(argv)
    import inputs
    import workloads

    inputs.import_program()
    wl = workloads.WORKLOADS[args.workload]
    run = Run(wl, load_inputs(wl.family, args.seed), args.seed)
    first_setups = (wl.setup_reps + 1) // 2
    service, setup_times = run.setup(first_setups)
    try:
        makespan = run.warmup(service)
        gc.collect()
        if args.trace:
            metrics, attempted, failed = per_layer(run, service, args.seconds)
        else:
            metrics, attempted, failed = end_to_end(run, service, makespan, args.seconds)
        problems = workloads.check_correct(wl, service, run.queries, run.pos_neg)
    finally:
        workloads.close_service(service)
    if not args.trace:
        setup_times += run.setup(wl.setup_reps - first_setups, keep=False)[1]
        metrics["setup_s"] = (statistics.median(setup_times), "s")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<14} {name:<36} {value:>14.6g} {unit}")
    for p in problems:
        print(f"CORRECTNESS FAILURE: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
