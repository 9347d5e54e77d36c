"""The four serving workloads: what each builds, streams and checks.

Every workload is a closed loop: one synchronous client hands the next
batch to ``process_batch`` only after the previous report came back, as
``process_stream`` does. Every stream is stationary, so a batch's cost
does not depend on its position and a run can be as long as needed:

* LJ workloads cycle a sliding window over a held-out pool of ``N``
  edges. The window holds ``N/2`` of them; batch ``i`` deletes the
  ``k`` oldest window edges and inserts the next ``k`` pool edges, so
  |E| never changes. ``N`` is a multiple of ``k``, so the graph returns
  to its initial state every ``N/k`` batches and the stream is exactly
  periodic.
* ``hub-gen`` alternates inserting and deleting the same 32 hub-leaf
  edges, so every pair of batches repeats identical work.

Why each workload exists, and which layers it exercises, is recorded in
``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from inputs import CHURN_OPS_PER_SIDE, SERVE_OPS_PER_SIDE


@dataclass(frozen=True)
class Workload:
    name: str
    #: input family in :mod:`inputs`
    family: str
    #: standing queries registered (None: the family's only query)
    n_queries: int | None
    #: inserts (= deletes) per batch; hub-gen toggles its edge set
    ops_per_side: int
    bootstrap: bool
    #: fork workers of ShardedMatchingService; 0 runs MatchingService
    workers: int
    #: batches processed through ``process_stream`` before timing; their
    #: modeled pipeline makespan is ``modeled_makespan_s``
    warmup_batches: int
    #: set-ups timed per run; ``setup_s`` is their median
    setup_reps: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lj-serve-64q", "lj", 64, SERVE_OPS_PER_SIDE, True, 0, 16, 5),
        Workload("lj-churn", "lj", 2, CHURN_OPS_PER_SIDE, True, 0, 24, 5),
        Workload("hub-gen", "hub", None, 0, False, 0, 8, 25),
        Workload("lj-shard-2w", "lj", 64, SERVE_OPS_PER_SIDE, True, 2, 16, 5),
    )
}


def _batch(rows_ins: np.ndarray, rows_del: np.ndarray):
    from repro.graph.updates import UpdateBatch

    kind = np.concatenate((np.zeros(len(rows_del), np.int64), np.ones(len(rows_ins), np.int64)))
    rows = np.concatenate((rows_del, rows_ins)).reshape(-1, 3)
    return UpdateBatch.from_columns(kind, rows[:, 0], rows[:, 1], rows[:, 2])


def initial_graph(wl: Workload, data: dict):
    """The graph the stream starts from."""
    from repro.graph import LabeledGraph

    if wl.family == "hub":
        edges = data["edges"]
    else:
        pool = data["pool"]
        edges = np.concatenate((data["base"], pool[: len(pool) // 2]))
    return LabeledGraph.from_edges(data["labels"], [tuple(e) for e in edges.tolist()])


def stream_period(wl: Workload, data: dict) -> list:
    """One period of the workload's stream; the run cycles it."""
    if wl.family == "hub":
        rows = np.column_stack((data["toggled"], np.zeros(len(data["toggled"]), np.int64)))
        empty = np.empty((0, 3), np.int64)
        return [_batch(rows, empty), _batch(empty, rows)]
    k = wl.ops_per_side
    pool = data["pool"]
    n = len(pool)
    window = n // 2
    out = []
    for i in range(n // k):
        dele = np.arange(i * k, (i + 1) * k) % n
        ins = (window + dele) % n
        out.append(_batch(pool[ins], pool[dele]))
    return out


def queries(wl: Workload, data: dict) -> list:
    from repro.graph import LabeledGraph

    if wl.family == "hub":
        return [LabeledGraph.from_edges(*data["query"])]
    return [LabeledGraph.from_edges(labels, edges)
            for _, labels, edges in data["queries"][: wl.n_queries]]


def build_service(wl: Workload, g0, qs):
    """Set-up as ``setup_s`` times it: store, service, registrations."""
    from repro.bench.harness import BENCH_PARAMS
    from repro.matching import WBMConfig
    from repro.service import MatchingService, ShardedMatchingService, ShardPolicy

    if wl.workers:
        service = ShardedMatchingService(
            g0, params=BENCH_PARAMS, shard_policy=ShardPolicy(n_workers=wl.workers)
        )
    else:
        service = MatchingService(g0, params=BENCH_PARAMS)
    for i, q in enumerate(qs):
        service.register_query(q, WBMConfig(), name=f"q{i}", bootstrap=wl.bootstrap)
    return service


def close_service(service) -> None:
    close = getattr(service, "close", None)
    if close is not None:
        close()


def failed_results(report) -> int:
    """(batch, query) results of ``report`` that failed: every result of
    a rolled-back or dropped batch, and each quarantined or aborted one.
    A query on a quarantined shard is reported quarantined."""
    if report.rolled_back or report.failure is not None:
        return len(report.queries)
    return sum(1 for q in report.queries.values()
               if q.health == "quarantined" or q.result.aborted)


def check_correct(wl: Workload, service, qs, reports_pos_neg: list[tuple[int, int]]) -> list[str]:
    """The correctness gate, run after the timed stream. Returns the
    list of violations (empty when the run is correct)."""
    from repro.matching import find_matches

    problems = []
    try:
        service.store.check_consistency()
    except Exception as err:  # noqa: BLE001 - reported as a gate failure
        problems.append(f"store.check_consistency: {type(err).__name__}: {err}")
    if wl.family == "hub":
        bad = [i for i, (p, n) in enumerate(reports_pos_neg) if p or n]
        if bad:
            problems.append(f"hub-gen batch {bad[0]} reported matches (expected none)")
        return problems
    graph = service.graph
    for i, q in enumerate(qs):
        want = find_matches(q, graph)
        got = service.matches(f"q{i}")
        if got != want:
            problems.append(
                f"q{i}: incremental view has {len(got)} matches, static find_matches "
                f"{len(want)} (missing {len(want - got)}, extra {len(got - want)})"
            )
    return problems
