"""Seeded inputs of the serving benchmark.

Everything a workload consumes is made here from the ``--seed``
argument, and only from it: the program under test sees the finished
graph, queries and batches. Generation is deterministic (``random`` and
NumPy generators seeded explicitly, no iteration over hash-ordered
containers), so one seed always yields byte-identical inputs, and
``run.py`` caches them per seed so that generation time falls in no
metric.

Two input families exist:

* **LJ** — the LJ dataset at scale 1.0, a seeded pool of held-out edges
  that a sliding window cycles through, and 64 selective 6-vertex
  standing queries grown from the initial graph (dense / sparse / tree,
  kept only when they have fewer than 200 static matches).
* **hub** — the ``hub_schedule()`` graph and its 5-cycle query, with a
  seeded choice of the missing hub-leaf edges that batches toggle.

Run as a script (``python3 perfbench/inputs.py --family lj --seed 1
--out FILE``) it writes one family's inputs to ``FILE``; ``run.py`` does
this in a child process so that generation never inflates the measured
process's peak RSS.
"""

from __future__ import annotations

import argparse
import os
import pickle
import random
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

LJ_SCALE = 1.0
#: held-out edges the sliding window cycles through, as a share of |E|
POOL_SHARE = 0.2
#: update ops per side (inserts = deletes) of a lj-serve-64q batch, and
#: of a lj-churn batch (864 ops, ~3% of |E|)
SERVE_OPS_PER_SIDE = 36
CHURN_OPS_PER_SIDE = 12 * SERVE_OPS_PER_SIDE
N_QUERIES = 64
QUERY_SIZE = 6
MAX_STATIC_MATCHES = 200
QUERY_KINDS = ("dense", "sparse", "tree")
#: hub-leaf edges every hub-gen batch inserts or deletes
HUB_TOGGLED = 32
#: hub_schedule() leaves have degree span=3; hubs have ~210
HUB_LEAF_MAX_DEGREE = 8
#: growths one query attempt may try before giving up
GROW_TRIES = 20


def import_program():
    """Import the program from the checkout's ``src`` directory only."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"perfbench: no program sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    return repro


# ---------------------------------------------------------------------------
# LJ: graph, sliding-window pool, standing queries
# ---------------------------------------------------------------------------
def _grow(graph, start, rng, prefer_dense):
    """A connected set of QUERY_SIZE vertices grown from ``start``.

    A frontier vertex with ``b`` edges back into the set is drawn with
    weight ``b`` (one ticket per edge), times ``1 + b^2`` for dense
    growth, so dense growth closes triangles."""
    chosen = [start]
    back = {}
    for w in graph.neighbors(start):
        back[w] = back.get(w, 0) + 1
    while len(chosen) < QUERY_SIZE:
        frontier = sorted(w for w in back if w not in chosen)
        if not frontier:
            return None
        if prefer_dense:
            weights = [back[w] * (1 + back[w] ** 2) for w in frontier]
        else:
            weights = [back[w] for w in frontier]
        nxt = rng.choices(frontier, weights=weights, k=1)[0]
        chosen.append(nxt)
        for w in graph.neighbors(nxt):
            back[w] = back.get(w, 0) + 1
    return chosen


def _spanning_tree(sub, rng):
    seen = {0}
    tree = []
    stack = [0]
    while stack:
        u = stack.pop()
        nbrs = list(sub.neighbors(u))
        rng.shuffle(nbrs)
        for w in nbrs:
            if w not in seen:
                seen.add(w)
                tree.append((u, w, sub.edge_label(u, w)))
                stack.append(u)
                stack.append(w)
                break
    return tree if len(seen) == sub.n_vertices else None


def _extract(graph, kind, rng, dense_starts, starts):
    """One query of ``kind`` as ``(vertex_labels, [(u, v, label)])``, or
    None when no growth of this attempt passed its class test.

    Dense keeps every induced edge of the densest of up to
    ``GROW_TRIES`` dense growths (average degree >= 3, or >= 2 when no
    growth reached 3); sparse keeps a random spanning tree plus induced
    extras while the average degree stays below 3; tree keeps only the
    spanning tree."""
    if kind == "dense":
        best, best_deg = None, -1.0
        for _ in range(GROW_TRIES):
            chosen = _grow(graph, rng.choice(dense_starts), rng, True)
            if chosen is None:
                continue
            sub, _ = graph.induced_subgraph(chosen)
            if sub.avg_degree() > best_deg:
                best, best_deg = sub, sub.avg_degree()
            if best_deg >= 3.0:
                break
        if best is None or best_deg < 2.0:
            return None
        return list(best.vertex_labels), sorted(best.labeled_edges())
    for _ in range(GROW_TRIES):
        chosen = _grow(graph, rng.choice(starts), rng, False)
        if chosen is None:
            continue
        sub, _ = graph.induced_subgraph(chosen)
        tree = _spanning_tree(sub, rng)
        if tree is None:
            continue
        if kind == "tree":
            return list(sub.vertex_labels), sorted(tree)
        have = {(u, v) for u, v, _ in tree} | {(v, u) for u, v, _ in tree}
        extras = [e for e in sorted(sub.labeled_edges()) if (e[0], e[1]) not in have]
        if not extras:
            continue
        rng.shuffle(extras)
        edges = list(tree)
        for e in extras:
            if 2.0 * (len(edges) + 1) / QUERY_SIZE >= 3.0:
                break
            edges.append(e)
        return list(sub.vertex_labels), sorted(edges)
    return None


def lj_inputs(seed: int) -> dict:
    """LJ graph split into a fixed base and a held-out pool, plus the
    standing queries, all drawn from ``seed``."""
    import_program()
    from repro.graph import LabeledGraph, load_dataset
    from repro.graph.csr import CSRGraph
    from repro.graph.kcore import core_numbers
    from repro.matching import find_matches

    full = load_dataset("LJ", scale=LJ_SCALE)
    edges = np.array(sorted(full.labeled_edges()), dtype=np.int64)
    perm = np.random.default_rng([seed, 1]).permutation(len(edges))
    # the window holds half the pool and every batch moves it by k
    # edges, so a pool that is a multiple of 2k for both LJ batch sizes
    # makes both streams exactly periodic
    n_pool = int(POOL_SHARE * len(edges))
    n_pool -= n_pool % (2 * CHURN_OPS_PER_SIDE)
    pool = edges[perm[:n_pool]]
    base = edges[np.sort(perm[n_pool:])]
    labels = list(full.vertex_labels)

    # queries are grown from, and must be selective on, the graph the
    # stream starts from: base plus the first window of the pool
    g0 = LabeledGraph.from_edges(labels, [tuple(e) for e in base.tolist()]
                                 + [tuple(e) for e in pool[: n_pool // 2].tolist()])
    csr = CSRGraph.from_graph(g0)
    cores = core_numbers(g0)
    top = max(cores)
    starts = [v for v in range(g0.n_vertices) if g0.degree(v) > 0]
    dense_starts = [v for v in starts if cores[v] >= max(2, top - 1)] or starts
    rng = random.Random(seed * 7919 + 3)
    queries = []
    attempts = 0
    while len(queries) < N_QUERIES:
        kind = QUERY_KINDS[attempts % len(QUERY_KINDS)]
        attempts += 1
        if attempts > 200 * N_QUERIES:
            raise RuntimeError(f"seed {seed}: could not grow {N_QUERIES} selective queries")
        q = _extract(g0, kind, rng, dense_starts, starts)
        if q is None:
            continue
        qg = LabeledGraph.from_edges(*q)
        if len(find_matches(qg, g0, limit=MAX_STATIC_MATCHES, csr=csr)) < MAX_STATIC_MATCHES:
            queries.append((kind, q[0], q[1]))
    return {"family": "lj", "seed": seed, "labels": labels, "base": base,
            "pool": pool, "queries": queries}


# ---------------------------------------------------------------------------
# hub: the hub_schedule() graph with a seeded toggled edge set
# ---------------------------------------------------------------------------
def hub_inputs(seed: int) -> dict:
    """``hub_schedule()``'s graph and query; its 32-edge insert batch
    moved onto seeded leaves. Each leaf of the original batch is
    replaced by a distinct random leaf with the same hub neighbourhood,
    so every seed toggles an isomorphic edge set in the same op order
    and only vertex ids change."""
    import_program()
    from repro.bench.workloads import hub_schedule

    g0, batch, query = hub_schedule()
    by_hubs: dict[tuple, list[int]] = {}
    for v in range(g0.n_vertices):
        if g0.degree(v) <= HUB_LEAF_MAX_DEGREE:
            by_hubs.setdefault(tuple(sorted(g0.neighbors(v))), []).append(v)
    rng = random.Random(seed * 104729 + 11)
    kind, hub, leaf, _ = (c.tolist() for c in batch.op_arrays())
    if set(kind) != {1} or len(kind) != HUB_TOGGLED:
        raise RuntimeError("hub_schedule() no longer yields a 32-edge insert batch")
    moved: dict[int, int] = {}
    taken: set[int] = set()
    for v in leaf:
        if v not in moved:
            choices = [w for w in by_hubs[tuple(sorted(g0.neighbors(v)))] if w not in taken]
            moved[v] = rng.choice(choices)
            taken.add(moved[v])
    toggled = [(h, moved[v]) for h, v in zip(hub, leaf)]
    return {"family": "hub", "seed": seed,
            "labels": list(g0.vertex_labels),
            "edges": np.array(sorted(g0.labeled_edges()), dtype=np.int64),
            "query": (list(query.vertex_labels), sorted(query.labeled_edges())),
            "toggled": np.array(toggled, dtype=np.int64)}


FAMILIES = {"lj": lj_inputs, "hub": hub_inputs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write one seeded input family")
    parser.add_argument("--family", choices=sorted(FAMILIES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    data = FAMILIES[args.family](args.seed)
    tmp = args.out.with_name(args.out.name + f".{os.getpid()}.tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(data, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
