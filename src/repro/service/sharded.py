"""ShardedMatchingService: crash-tolerant multi-process serving tier.

The single-process :class:`~repro.service.MatchingService` fans every
batch across all query runtimes in one interpreter — one hung or
crashed interpreter takes down the whole query population, and one core
caps throughput. This module partitions the *query population* across N
worker processes (gMatch-style fine-grained work partitioning, applied
to standing queries rather than the graph). It is the same batch
transaction as :class:`MatchingService` (``process_batch`` is inherited,
not re-implemented) over two executors:

* a :class:`WorkerPool`: each **worker** process hosts an
  :class:`~repro.service.matching_service.InProcessExecutor` over a
  read-only CSR snapshot attached via ``multiprocessing.shared_memory``
  (the flat int64/uint64 arrays of :class:`~repro.graph.csr.CSRGraph`
  plus the packed encoding matrix) and runs the same guarded phase
  loops the parent runs for its own queries. The pool publishes the
  post-commit snapshot, broadcasts the committed delta, and collects
  the replies under **supervision**: per-worker heartbeats and a
  per-batch deadline. A crashed, hung, or protocol-violating worker
  trips the :class:`~repro.service.resilience.CircuitBreaker`
  machinery at *shard* granularity: the worker is killed and respawned,
  the current snapshot republished, and its queries re-bootstrapped at
  the committed boundary (bounded retries — exhaustion latches the
  shard);
* the parent's in-process executor, which receives a latched shard's
  queries when ``ShardPolicy.degrade_to_inprocess`` is set, so the
  service keeps answering them.

The parent runs the single authoritative
:class:`~repro.service.store.DynamicGraphStore` and commits each batch
exactly once (transactionally).

Failure model. Worker faults never corrupt results: a shard that fails
mid-batch contributes quarantined rows for that batch (its collectors
do not advance) and is re-anchored by a fresh bootstrap before it
serves again, so healthy shards' matches and ``KernelStats`` stay
byte-identical to single-process serving. Per-query faults inside a
worker ride the reply and trip only that query's breaker; a worker-side
``xp.ScalarEscapeError`` is shipped to the parent and re-raised there.
Reports carry per-shard health (:attr:`ShardedBatchReport.shard_health`)
alongside the per-query health.

Determinism. Process-level faults come from the same seeded
:class:`~repro.testing.faults.FaultPlan` as the single-process chaos
suite: the plan is pickled into each worker at spawn, the behavioral
``worker.*`` sites count exactly one arrival per batch message (all
sites are polled via :meth:`FaultPlan.due` at message receipt, then
acted on at their effect points), and the parent pre-seeds a respawned
worker's counters with the number of batch messages already delivered
to that shard — so a kill scheduled at batch k fires at batch k and
does not re-fire after the respawn.

Pipeline view. Each worker is its own kernel-execution resource: query
kernel stages are priced on ``gpu:<shard>`` (in-process queries on
``gpu``), which is what :class:`~repro.pipeline.async_exec.PipelineModel`
overlaps to model the tier's throughput scaling.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as _conn_wait

from repro import xp
from repro.errors import ReproError, ServiceError, ShardFaultError
from repro.graph.csr import AttachedSnapshot, publish_snapshot, unlink_snapshot
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.updates import apply_effective_delta
from repro.matching.wbm import Match, WBMConfig
from repro.pipeline.postprocess import MatchCollector
from repro.service.matching_service import (
    InProcessExecutor,
    MatchingService,
    ServiceBatchReport,
)
from repro.service.resilience import (
    HEALTH_DEGRADED,
    HEALTH_QUARANTINED,
    CircuitBreaker,
    ResiliencePolicy,
)

#: behavioral worker fault sites, polled once per batch message in this
#: order (see module docstring, "Determinism")
WORKER_BATCH_SITES = (
    "worker.snapshot.stale",
    "worker.batch.hang",
    "worker.ipc.torn",
    "worker.ipc.dup",
    "worker.batch.abort",
)

#: how long a hang-faulted worker sleeps; the supervisor kills it long
#: before (bounded by the batch deadline)
_HANG_SLEEP_S = 600.0

_TORN_PAYLOAD = "__torn__"


@dataclass(frozen=True)
class ShardPolicy:
    """Supervisor bounds for the sharded tier (per-query bounds stay in
    :class:`~repro.service.resilience.ResiliencePolicy`)."""

    #: worker processes the query population is partitioned across
    n_workers: int = 2
    #: ``multiprocessing`` start method (``fork`` keeps spawn cost low;
    #: ``spawn`` is supported for portability tests)
    start_method: str = "fork"
    #: wall-clock budget for one broadcast batch before the supervisor
    #: declares the stragglers wedged
    batch_deadline_s: float = 120.0
    #: max silence between worker messages mid-batch before the
    #: supervisor declares the worker hung
    heartbeat_timeout_s: float = 30.0
    #: respawn attempts per shard fault before the shard latches
    max_respawns: int = 3
    #: adopt a latched shard's queries into the parent process so the
    #: service keeps answering them
    degrade_to_inprocess: bool = True


@dataclass
class ShardedBatchReport(ServiceBatchReport):
    """A :class:`ServiceBatchReport` plus the shard-level health map."""

    #: per-shard health for this batch:
    #: ``ok | quarantined | recovered | degraded``
    shard_health: dict[str, str] = field(default_factory=dict)
    #: cumulative worker-side host seconds spent in the virtual-GPU
    #: launch machinery, per shard (instrumentation, not model seconds)
    worker_launch_wall: dict[str, float] = field(default_factory=dict)


@dataclass
class _CommitView:
    """The slice of a :class:`StoreCommit` a worker runtime observes."""

    version: int
    changed_vertices: tuple[int, ...]


def _shippable(err: BaseException, **context) -> BaseException:
    """Make ``err`` safe to send over the worker pipe, attaching
    structured context when the hierarchy supports it."""
    if isinstance(err, ReproError):
        err.with_context(**{k: v for k, v in context.items() if v is not None})
    try:
        pickle.loads(pickle.dumps(err))
        return err
    except Exception:  # noqa: BLE001 - downgrade to a picklable summary
        fallback = ServiceError(f"{type(err).__name__}: {err}")
        return fallback.with_context(**context)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
class _SharedEncodings:
    """Worker-side :class:`~repro.filtering.encoding.EncodingTable`
    facade over the attached shared-memory ``packed`` matrix. The object
    is stable across snapshot swaps (candidate tables hold a reference);
    only the array view underneath changes."""

    def __init__(self, schema, packed, version: int, vectorized: bool) -> None:
        self.schema = schema
        self.packed = packed
        self.version = version
        self.vectorized = vectorized

    def swap(self, packed, version: int) -> None:
        self.packed = packed
        self.version = version

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, v: int) -> int:
        from repro.filtering.encoding import EncodingSchema

        return EncodingSchema.unpack_code(self.packed[v])


class _WorkerStore:
    """Worker-side :class:`DynamicGraphStore` facade: a replica host
    mirror advanced by broadcast deltas plus zero-copy views of the
    published snapshot. Exposes exactly the surface
    :class:`QueryRuntime` reads; it never commits."""

    def __init__(self, graph, encodings, attachment, vectorized, faults) -> None:
        self.graph = graph
        self.encodings = encodings
        self.vectorized = vectorized
        self.faults = faults
        self._attachment = attachment
        self._csr = attachment.csr()
        self.version = attachment.version

    def csr_snapshot(self):
        return self._csr

    def attach(self, handle) -> None:
        """Swap to a newly published snapshot (and release the old one)."""
        att = AttachedSnapshot(handle)
        old = self._attachment
        self._attachment = att
        self._csr = att.csr()
        self.encodings.swap(att.arrays["enc_packed"], handle.version)
        self.version = handle.version
        old.close()

    def advance(self, delta, handle=None) -> None:
        """Absorb one committed batch into the replica.

        With ``handle`` (the normal path) the published post-batch
        snapshot is attached and the replica mirror rebases onto it —
        a derived view advances in O(1) with no per-edge dict writes.
        Without a handle (the ``worker.snapshot.stale`` fault path) the
        mirror replays the delta per edge under the strict contract, so
        a delta that does not match the replica state raises
        :class:`UpdateError` instead of silently desyncing.
        """
        if handle is not None:
            self.attach(handle)
            self.graph.absorb_delta(delta, csr=self._csr, strict=True)
        else:
            apply_effective_delta(self.graph, delta, strict=True)


class _Worker:
    """The loop body of one worker process: an in-process executor
    over the worker's replica store, driven by the parent's messages."""

    def __init__(self, conn, init: dict) -> None:
        self.conn = conn
        self.shard: str = init["shard"]
        plan = init["faults"]
        if plan is not None:
            # resume the behavioral-site counters where the previous
            # incarnation of this shard left off (see module docstring)
            plan._arrivals.update(init["arrival_offsets"])
        self.faults = plan
        self._fired_mark = len(plan.fired) if plan is not None else 0
        attachment = AttachedSnapshot(init["handle"])
        encodings = _SharedEncodings(
            init["schema"],
            attachment.arrays["enc_packed"],
            init["handle"].version,
            init["vectorized"],
        )
        # the replica mirror is a derived view over the attached CSR —
        # nothing graph-sized crosses the pipe, for fork and spawn alike
        graph = LabeledGraph.from_csr(attachment.csr())
        self.store = _WorkerStore(
            graph, encodings, attachment, init["vectorized"], plan
        )
        if plan is not None:
            plan.fire("worker.bootstrap", query=self.shard)
        self.local = InProcessExecutor(self.store, init["params"], init["policy"], collectors=False)
        self.bootstrap_results: dict[str, set[Match] | None] = {
            name: self.local.add(name, query, config, bootstrap)
            for name, query, config, bootstrap in init["queries"]
        }

    # -- protocol ------------------------------------------------------
    def serve(self) -> None:
        while True:
            try:
                msg = self.conn.recv()
            except (EOFError, OSError):
                return
            kind = msg[0]
            if kind == "shutdown":
                return
            if kind == "batch":
                idx, bmsg = msg[1], msg[2]
                try:
                    self._handle_batch(idx, bmsg)
                except Exception as err:  # noqa: BLE001 - ship, don't die
                    self.conn.send(
                        ("batch_error", idx, _shippable(err, shard=self.shard,
                                                        batch_version=bmsg.get("version")))
                    )
            elif kind == "register":
                self._handle_register(*msg[1:])
            elif kind == "unregister":
                self.local.runtimes.pop(msg[1], None)
                self.conn.send(("unregistered", msg[1]))

    def _handle_register(self, name, query, config, bootstrap) -> None:
        try:
            initial = self.local.add(name, query, config, bootstrap)
        except Exception as err:  # noqa: BLE001 - isolation boundary
            self.conn.send(("register_error", name, _shippable(err, query=name)))
        else:
            self.conn.send(("registered", name, initial))

    # -- batch ---------------------------------------------------------
    def _effects(self) -> dict[str, bool]:
        """Poll every behavioral site exactly once per batch message, so
        arrival counters are a pure function of messages delivered."""
        if self.faults is None:
            return {site: False for site in WORKER_BATCH_SITES}
        return {
            site: self.faults.due(site, query=self.shard) is not None
            for site in WORKER_BATCH_SITES
        }

    def _fired_delta(self) -> list[tuple[str, int, str | None, str]]:
        if self.faults is None:
            return []
        new = self.faults.fired[self._fired_mark :]
        self._fired_mark = len(self.faults.fired)
        return [(s.site, s.occurrence, s.query, s.kind) for s in new]

    def _handle_batch(self, idx: int, bmsg: dict) -> None:
        effects = self._effects()
        version = bmsg["version"]
        delta = bmsg["delta"]

        def beat(name):
            self.conn.send(("hb", idx, name))

        # 0. recovery at the *pre-batch* replica state (the parent's
        # recovery boundary too)
        recovered = self.local.rebootstrap(bmsg["rebootstrap"])
        active = list(bmsg["active"]) + [n for n, r in recovered.items() if r[0] == "ok"]
        out = self.local.open(active)

        # 1. negative phase against the pre-update replica
        self.local.launch(out, "neg", list(delta.deleted), beat)

        if effects["worker.batch.abort"]:
            os._exit(1)
        if effects["worker.batch.hang"]:
            time.sleep(_HANG_SLEEP_S)

        # 2. attach the committed snapshot and rebase the replica mirror
        self.store.advance(
            delta, None if effects["worker.snapshot.stale"] else bmsg["handle"]
        )
        if self.store.version != version:
            raise ShardFaultError(
                self.shard,
                f"stale snapshot: attached v{self.store.version}, "
                f"batch committed v{version}",
            ).with_context(batch_version=version, fault_site="worker.snapshot.stale")

        # 3. observe + positive phase against the committed state
        self.local.observe(out, _CommitView(version=version, changed_vertices=bmsg["changed"]))
        self.local.launch(out, "pos", list(delta.inserted), beat)

        for name, q in out.items():
            if q["error"] is not None:
                q["error"] = _shippable(
                    q["error"], query=name, batch_version=version, shard=self.shard
                )
        for name, (status, value) in recovered.items():
            if status == "error":
                recovered[name] = (status, _shippable(value, query=name, batch_version=version))
        payload = {
            "queries": out,
            "recovered": recovered,
            "launch_wall": self.local.launch_wall_seconds(),
            "fired": self._fired_delta(),
        }
        if effects["worker.ipc.torn"]:
            self.conn.send(("batch_reply", idx, _TORN_PAYLOAD))
            return
        self.conn.send(("batch_reply", idx, payload))
        if effects["worker.ipc.dup"]:
            self.conn.send(("batch_reply", idx, payload))


def _worker_main(conn, init: dict) -> None:
    """Worker process entry point (module-level for ``spawn``)."""
    try:
        worker = _Worker(conn, init)
    except Exception as err:  # noqa: BLE001 - report init faults, don't die silently
        try:
            conn.send(("init_error", _shippable(err, shard=init.get("shard"))))
        except Exception:  # noqa: BLE001 - parent already gone
            pass
        return
    conn.send(("ready", worker.bootstrap_results))
    worker.serve()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
class _Shard:
    """Parent-side handle of one worker process."""

    def __init__(self, name: str, index: int) -> None:
        self.name = name
        self.index = index
        self.proc = None
        self.conn = None
        self.spawns = 0  # worker incarnations (init-site offset)
        self.batches_sent = 0  # batch messages delivered (batch-site offset)
        self.last_beat = 0.0
        self.launch_wall = 0.0


@dataclass
class _QueryState:
    """Parent-side ledger for one query placed on a shard. While the
    shard's worker hosts it, the parent's match view is ``collector``
    applied to ``initial``; once the shard degrades, the query's
    runtime lives in the parent's in-process executor."""

    query: LabeledGraph
    config: WBMConfig
    shard: _Shard
    initial: set[Match] | None = None
    collector: MatchCollector = field(default_factory=MatchCollector)


class WorkerPool:
    """Executor over supervised worker processes: publishes the
    committed snapshot, broadcasts each batch, collects the replies under
    heartbeat and deadline supervision, and respawns or latches a
    failing shard."""

    def __init__(self, svc: "ShardedMatchingService", policy: ShardPolicy) -> None:
        if policy.n_workers < 1:
            raise ServiceError("ShardPolicy.n_workers must be >= 1")
        self.svc = svc
        self.policy = policy
        # shard-granularity breaker: respawns retry immediately
        # (cooldown 0) and are bounded by max_respawns before latching
        self.breaker = CircuitBreaker(
            ResiliencePolicy(cooldown_batches=0, max_retries=policy.max_respawns)
        )
        self.fired: list[tuple[str, int, str | None, str]] = []
        self.queries: dict[str, _QueryState] = {}  # registration order
        self._mp = get_context(policy.start_method)
        self.handle = self._publish()
        self.prev_handle = None
        self.shards = [_Shard(f"shard{i}", i) for i in range(policy.n_workers)]
        # per-batch state
        self._rebootstrap: dict[str, list[str]] = {}
        self._sent: list[_Shard] = []
        self._health: dict[str, str] = {}
        for shard in self.shards:
            self._spawn_worker(shard)

    # -- placement -----------------------------------------------------
    def names_on(self, shard: _Shard) -> list[str]:
        return [n for n, s in self.queries.items() if s.shard is shard]

    def degraded(self, shard: _Shard) -> bool:
        """Latched with its queries moved to the parent process."""
        return self.breaker.health(shard.name) == HEALTH_DEGRADED

    def _serving(self) -> list[_Shard]:
        """Shards that receive batch broadcasts (live workers only)."""
        return [
            s for s in self.shards
            if not self.degraded(s) and not self.breaker.is_quarantined(s.name)
        ]

    # -- workers -------------------------------------------------------
    def _publish(self):
        """Publish the store's current snapshot (CSR + packed encodings)."""
        store = self.svc.store
        arrays = dict(store.csr_snapshot().snapshot_arrays())
        arrays["enc_packed"] = store.encodings.packed
        return publish_snapshot(arrays, version=store.version)

    def _arrival_offsets(self, shard: _Shard) -> dict:
        """Pre-seed a fresh worker's behavioral-site counters so specs
        consumed by previous incarnations do not re-fire (one arrival
        per delivered batch message; one ``worker.bootstrap`` arrival
        per spawn)."""
        offsets = {}
        for site in WORKER_BATCH_SITES:
            offsets[(site, shard.name)] = shard.batches_sent
            offsets[(site, None)] = shard.batches_sent
        offsets[("worker.bootstrap", shard.name)] = shard.spawns
        offsets[("worker.bootstrap", None)] = shard.spawns
        return offsets

    def _spawn_worker(self, shard: _Shard) -> dict:
        """Start one worker (initial spawn or supervisor respawn), wait
        for its bootstrap, and return the per-query initial match sets.
        Raises on init fault / crash / timeout."""
        svc = self.svc
        init = {
            "shard": shard.name,
            # no graph in the init payload: the worker derives its
            # replica mirror from the attached shared-memory snapshot
            "params": svc.params,
            "policy": svc.policy,
            "faults": svc.store.faults,
            "arrival_offsets": self._arrival_offsets(shard),
            "handle": self.handle,
            "schema": svc.store.encodings.schema,
            "vectorized": svc.store.vectorized,
            # a worker bootstraps every query it is spawned with: a
            # respawn re-anchors them (same contract as
            # QueryRuntime.rebootstrap), and the first spawn has none
            "queries": [
                (name, self.queries[name].query, self.queries[name].config, True)
                for name in self.names_on(shard)
            ],
        }
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        proc = self._mp.Process(
            target=_worker_main, args=(child_conn, init), daemon=True
        )
        proc.start()
        child_conn.close()
        shard.proc = proc
        shard.conn = parent_conn
        shard.spawns += 1
        try:
            msg = self._await_control(shard, {"ready", "init_error"})
            if msg[0] == "init_error":
                raise msg[1]
        except Exception:
            self._kill_worker(shard)
            raise
        return msg[1]

    def _kill_worker(self, shard: _Shard) -> None:
        if shard.proc is not None:
            if shard.proc.is_alive():
                shard.proc.kill()
            shard.proc.join(timeout=1.0)
            shard.proc = None
        if shard.conn is not None:
            shard.conn.close()
            shard.conn = None

    def _await_control(self, shard: _Shard, kinds: set):
        """Wait (within the batch deadline) for a control reply of one
        of ``kinds``, skipping heartbeats and stale batch replies left
        in the pipe."""
        what = "/".join(sorted(kinds))
        deadline = time.monotonic() + self.policy.batch_deadline_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not shard.conn.poll(max(remaining, 0.0)):
                raise ShardFaultError(shard.name, f"{what} reply timed out")
            try:
                msg = shard.conn.recv()
            except (EOFError, OSError):
                raise ShardFaultError(shard.name, f"worker crashed awaiting {what} reply")
            if msg[0] in kinds:
                return msg

    # -- executor protocol: registration and reads -----------------------
    def register(self, svc, name, query, config, bootstrap):
        """Place a query on the least-loaded serving shard. The shard
        bootstraps it against its current replica (registration churn
        does not stall the parent's commit pipeline); a degraded shard's
        queries run in the parent's in-process executor."""
        candidates = [s for s in self.shards if not self.breaker.is_quarantined(s.name)]
        if not candidates:
            raise ServiceError("no serving shard available for registration")
        shard = min(candidates, key=lambda s: (len(self.names_on(s)), s.index))
        state = _QueryState(query=query, config=config, shard=shard)
        if self.degraded(shard):
            host = svc.local.register(svc, name, query, config, bootstrap)
        else:
            shard.conn.send(("register", name, query, config, bootstrap))
            msg = self._await_control(shard, {"registered", "register_error"})
            if msg[0] == "register_error":
                raise msg[2]
            state.initial = msg[2]
            host = self
        self.queries[name] = state
        return host

    def unregister(self, name: str) -> None:
        shard = self.queries[name].shard
        if shard.proc is not None and shard.proc.is_alive():
            try:
                shard.conn.send(("unregister", name))
                self._await_control(shard, {"unregistered"})
            except (OSError, BrokenPipeError, EOFError, ShardFaultError):
                pass  # the supervisor will catch the dead worker next batch

    def blocked(self, name: str) -> str | None:
        shard = self.queries[name].shard
        if self.breaker.is_quarantined(shard.name):
            return (
                f"shard {shard.name!r} is quarantined: "
                f"{self.breaker.record(shard.name).last_error}"
            )
        return None

    def matches(self, name: str) -> set[Match]:
        state = self.queries[name]
        return state.collector.apply_to(state.initial)

    def consume(self, name: str, result) -> None:
        self.queries[name].collector.consume(result)

    def _reanchor(self, name: str, initial) -> None:
        state = self.queries[name]
        state.initial = initial
        state.collector = MatchCollector()

    def launch_wall_seconds(self) -> float:
        """Latest worker-reported launch-machinery totals."""
        return sum(s.launch_wall for s in self.shards)

    # -- executor protocol: the batch ------------------------------------
    def begin(self, svc, b, due: list[str]) -> None:
        """Worker-hosted recoveries piggyback on the batch broadcast."""
        self._rebootstrap, self._sent, self._health = {}, [], {}
        for name in due:
            shard = self.queries[name].shard
            if not self.breaker.is_quarantined(shard.name):
                self._rebootstrap.setdefault(shard.name, []).append(name)

    def before_commit(self, svc, b, delta) -> None:
        pass

    def after_commit(self, svc, b, delta, commit) -> None:
        """Publish the committed snapshot and broadcast the batch."""
        self._retire()  # left behind by a batch that raised mid-flight
        self.prev_handle, self.handle = self.handle, self._publish()
        for shard in self._serving():
            bmsg = {
                "version": commit.version,
                "handle": self.handle,
                "delta": delta,
                "changed": tuple(commit.changed_vertices),
                "active": [n for n in self.names_on(shard) if not svc.breaker.is_quarantined(n)],
                "rebootstrap": self._rebootstrap.get(shard.name, []),
            }
            try:
                shard.conn.send(("batch", b.index, bmsg))
            except (OSError, BrokenPipeError, ValueError) as send_err:
                self._shard_fault(
                    b, shard, ShardFaultError(shard.name, f"broadcast failed: {send_err}")
                )
                continue
            shard.batches_sent += 1
            self._sent.append(shard)

    def collect(self, svc, b) -> None:
        """Supervised collection; fold every reply into the parent."""
        replies = self._collect_replies(b)
        for shard in self._sent:
            payload = replies.get(shard.name)
            if payload is None:
                continue
            for name, (status, initial) in payload["recovered"].items():
                if status == "ok" and name in self.queries:
                    self._reanchor(name, initial)
            svc._fold_recovery(b, payload["recovered"])
            svc._fold_outcomes(b, payload["queries"])
            shard.launch_wall = payload["launch_wall"]
            self.fired.extend(payload.get("fired", ()))
        self._retire()

    def _retire(self) -> None:
        """Unlink the previous batch's segment — only after reply
        collection and any respawn or degrade has re-attached the live
        one."""
        if self.prev_handle is not None:
            unlink_snapshot(self.prev_handle)
            self.prev_handle = None

    def finish(self, report: ShardedBatchReport) -> None:
        report.shard_health = {
            s.name: self._health.get(s.name, self.breaker.health(s.name)) for s in self.shards
        }
        report.worker_launch_wall = {s.name: s.launch_wall for s in self.shards}
        self.breaker.settle()

    def close(self) -> None:
        """Shut every worker down and free the published segments."""
        for shard in self.shards:
            if shard.conn is not None:
                try:
                    shard.conn.send(("shutdown",))
                except (OSError, BrokenPipeError, ValueError):
                    pass
            if shard.proc is not None:
                shard.proc.join(timeout=1.0)  # a clean exit first
            self._kill_worker(shard)
        for handle in (self.handle, self.prev_handle):
            if handle is not None:
                unlink_snapshot(handle)
        self.handle = self.prev_handle = None

    # -- supervision ---------------------------------------------------
    def _collect_replies(self, b) -> dict[str, dict]:
        """Wait for every broadcast shard's reply under the heartbeat
        and batch-deadline limits; fault the stragglers."""
        t0 = time.monotonic()
        hb_limit = self.policy.heartbeat_timeout_s
        deadline = self.policy.batch_deadline_s
        pending = {s.name: s for s in self._sent}
        for s in pending.values():
            s.last_beat = t0
        replies: dict[str, dict] = {}

        def fault(shard, err):
            self._shard_fault(b, shard, err)
            pending.pop(shard.name, None)

        while pending:
            now = time.monotonic()
            next_hb = min(s.last_beat + hb_limit for s in pending.values())
            wait_s = max(min(next_hb, t0 + deadline) - now, 0.0)
            conns = {s.conn: s for s in pending.values()}
            ready = _conn_wait(list(conns), timeout=wait_s)
            now = time.monotonic()
            for conn in ready:
                shard = conns[conn]
                if shard.name not in pending:
                    continue
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    fault(
                        shard,
                        ShardFaultError(shard.name, "worker process crashed mid-batch"),
                    )
                    continue
                shard.last_beat = now
                kind = msg[0]
                if kind == "hb":
                    continue
                if kind == "batch_reply":
                    if msg[1] != b.index:
                        continue  # stale (or duplicated) reply from an earlier batch
                    payload = msg[2]
                    err = self._validate_payload(shard, payload)
                    if err is not None:
                        fault(shard, err)
                    else:
                        replies[shard.name] = payload
                        pending.pop(shard.name, None)
                elif kind == "batch_error":
                    if isinstance(msg[2], xp.ScalarEscapeError):
                        raise msg[2]  # a kernel bug, not a shard fault
                    fault(shard, msg[2])
                # anything else: a late control reply — ignore
            for shard in list(pending.values()):
                now = time.monotonic()
                if now - shard.last_beat >= hb_limit:
                    fault(
                        shard,
                        ShardFaultError(
                            shard.name, f"heartbeat silence > {hb_limit:.3g}s"
                        ),
                    )
                elif now - t0 >= deadline:
                    fault(
                        shard,
                        ShardFaultError(
                            shard.name, f"batch deadline exceeded ({deadline:.3g}s)"
                        ),
                    )
        return replies

    def _validate_payload(self, shard: _Shard, payload) -> ShardFaultError | None:
        """A malformed reply is a protocol violation (torn IPC write)."""
        if not isinstance(payload, dict) or "queries" not in payload:
            return ShardFaultError(
                shard.name, f"torn IPC message: {type(payload).__name__} payload"
            )
        queries = payload["queries"]
        if not isinstance(queries, dict):
            return ShardFaultError(shard.name, "torn IPC message: bad queries map")
        for name, entry in queries.items():
            if not isinstance(entry, dict) or not InProcessExecutor.OUTCOME.keys() <= entry.keys():
                return ShardFaultError(
                    shard.name, f"torn IPC message: bad entry for query {name!r}"
                )
        if not isinstance(payload.get("recovered"), dict):
            return ShardFaultError(shard.name, "torn IPC message: bad recovery map")
        if "launch_wall" not in payload:
            return ShardFaultError(shard.name, "torn IPC message: missing launch_wall")
        return None

    def _shard_fault(self, b, shard: _Shard, err: BaseException) -> None:
        """Supervisor response to a detected worker failure: quarantine
        the shard for this batch, kill the worker, and attempt bounded
        respawn + re-bootstrap; exhaustion latches (optionally degrading
        the shard's queries to in-process execution)."""
        self._health[shard.name] = HEALTH_QUARANTINED
        reason = f"{type(err).__name__}: {err}"
        for name in self.names_on(shard):
            self.svc._quarantine(b, name, reason)
        self.breaker.trip(shard.name, b.index, err)
        self._kill_worker(shard)
        while self.breaker.retry_due(shard.name, b.index):
            try:
                if self.svc.store.faults is not None:
                    self.svc.store.faults.fire("shard.respawn", query=shard.name)
                boot = self._spawn_worker(shard)
            except Exception as err:  # noqa: BLE001 - isolation boundary
                self.breaker.note_retry_failure(shard.name, b.index, err)
                self._kill_worker(shard)
            else:
                for name, initial in boot.items():
                    if name in self.queries:
                        self._reanchor(name, initial)
                        self.svc.breaker.drop(name)
                self.breaker.mark_recovered(shard.name, b.index)
                return
        # respawn retries exhausted: the shard breaker is latched
        if self.policy.degrade_to_inprocess:
            self._degrade(shard, b.index)

    def _degrade(self, shard: _Shard, batch_index: int) -> None:
        """Move a latched shard's queries into the parent's in-process
        executor, bootstrapped at the current committed boundary."""
        svc = self.svc
        for name in self.names_on(shard):
            state = self.queries[name]
            try:
                svc._hosts[name] = svc.local.register(
                    svc, name, state.query, state.config, True
                )
            except Exception as err:  # noqa: BLE001 - isolation boundary
                svc.breaker.trip(name, batch_index, err)
                continue
            svc.breaker.drop(name)
        self.breaker.latch_degraded(shard.name)


class ShardedMatchingService(MatchingService):
    """N queries over one dynamic graph, partitioned across supervised
    worker processes: :class:`MatchingService`'s transaction over a
    :class:`WorkerPool` plus the parent's in-process executor (which
    hosts the queries of degraded shards)."""

    _report_cls = ShardedBatchReport

    def __init__(
        self,
        graph: LabeledGraph | None = None,
        *,
        shard_policy: ShardPolicy | None = None,
        **kwargs,
    ) -> None:
        super().__init__(graph, **kwargs)  # MatchingService's keyword arguments
        self.shard_policy = shard_policy if shard_policy is not None else ShardPolicy()
        self.pool = WorkerPool(self, self.shard_policy)
        self._executors = [self.pool, self.local]

    def __del__(self) -> None:  # pragma: no cover - GC ordering dependent
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass

    @property
    def _handle(self):
        """The live published snapshot."""
        return self.pool.handle

    def adopt_runtime(self, runtime, name=None) -> str:
        raise ServiceError("a sharded service places its own runtimes; use register_query")

    def unregister_query(self, name: str, *, force: bool = False) -> None:
        super().unregister_query(name, force=force)
        del self.pool.queries[name]

    # -- shard reads ---------------------------------------------------
    def shard_health(self) -> dict[str, str]:
        return {s.name: self.pool.breaker.health(s.name) for s in self.pool.shards}

    def shard_of(self, name: str) -> str:
        return self.pool.queries[name].shard.name

    # -- pricing -------------------------------------------------------
    def _refresh_groups(self) -> list[tuple[str, str, int]]:
        """One candidate-table refresh stage per shard on its own CPU:
        the refresh runs inside each worker's ``observe_commit``, on
        that worker process's core (a degraded shard's on the parent's
        ``cpu``)."""
        groups = []
        for shard in self.pool.shards:
            n = len(self.pool.names_on(shard))
            if n:
                cpu = "cpu" if self.pool.degraded(shard) else f"cpu:{shard.index}"
                groups.append((f"refresh:{shard.name}", cpu, n))
        return groups

    def _kernel_resource(self, name: str) -> str:
        shard = self.pool.queries[name].shard
        return "gpu" if self.pool.degraded(shard) else f"gpu:{shard.index}"

    @staticmethod
    def _pipeline_stages(stages: list[tuple[str, str]]) -> list:
        """Fold a batch's per-shard refresh stages and kernel stages
        into fork-join groups so the pipeline model overlaps distinct
        shards' ``cpu:<k>``/``gpu:<k>`` resources; same-shard stages
        still serialize on their resource's FIFO."""
        pre: list = []
        refresh: list[tuple[str, str]] = []
        kernels: list[tuple[str, str]] = []
        post: list = []
        for stage in stages:
            name = stage[0]
            if name.startswith("refresh:"):
                refresh.append(stage)
            elif name.startswith("kernel:"):
                kernels.append(stage)
            elif kernels or refresh:
                post.append(stage)
            else:
                pre.append(stage)
        return (
            pre
            + ([refresh] if refresh else [])
            + ([kernels] if kernels else [])
            + post
        )
