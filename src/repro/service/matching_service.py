"""MatchingService: N concurrent queries over one dynamic graph.

The multi-query deployment surface the ROADMAP's production setting
needs: queries register and unregister **at runtime** while update
batches stream through. One :class:`DynamicGraphStore` absorbs each
batch exactly once (one ``effective_delta``, one GPMA ``apply_delta``,
one encoding refresh, one PCIe upload) and every registered
:class:`~repro.matching.wbm.QueryRuntime` matches against it — versus
N independent :class:`~repro.pipeline.gamma.GammaSystem` instances,
which would each copy the graph and replay every update N times.

``process_batch`` is the paper's batch step written once, as a staged
transaction (see docs/ARCHITECTURE.md): recovery → prepare → negative
phase → transactional commit → observe → positive phase → assemble →
price. The query phases run on *executors*. :class:`InProcessExecutor`
runs ``QueryRuntime``\\ s in this interpreter; it is the only executor
of a :class:`MatchingService`, and each sharded worker process runs
the same phase loops over its own shard
(:class:`~repro.service.sharded.ShardedMatchingService` is this
transaction over a worker pool plus an in-process executor).

Fault isolation (:mod:`repro.service.resilience`): per-query calls run
inside shared guards, so a fault quarantines that query behind its
circuit breaker; store stages are transactional (a failed commit rolls
back via its journal and is retried within
``ResiliencePolicy.store_retries``; exhaustion drops the batch at the
restored pre-batch boundary). The service never raises for a runtime
or store *fault*. Invalid input batches (``UpdateError``/``GraphError``
from validation) and strict-backend ``xp.ScalarEscapeError``\\ s, which
are kernel bugs rather than faults, propagate to the caller.

Per batch the service emits a :class:`ServiceBatchReport` with
per-query results plus a stage-priced view: the shared ``preprocess``
/ ``transfer`` / ``update`` stages appear once, and each query
contributes its own ``kernel:<name>`` GPU stage, which is exactly what
:class:`~repro.pipeline.async_exec.PipelineModel` schedules to model
multi-query overlap on the virtual GPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import xp
from repro.bench.cost import CostModel, DEFAULT_COST_MODEL
from repro.errors import (
    GraphError,
    MatchingError,
    QueryQuarantinedError,
    ServiceError,
    UpdateError,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.updates import UpdateBatch, UpdateStream
from repro.gpu.params import DEFAULT_PARAMS, DeviceParams
from repro.matching.wbm import BatchResult, Match, QueryRuntime, WBMConfig
from repro.pipeline.async_exec import PipelineModel, PipelineReport
from repro.pipeline.postprocess import MatchCollector, ThroughputMeter
from repro.pma.gpma import GpmaUpdateStats
from repro.service.resilience import (
    HEALTH_DEGRADED,
    HEALTH_OK,
    HEALTH_QUARANTINED,
    HEALTH_RECOVERED,
    CircuitBreaker,
    ResiliencePolicy,
)
from repro.service.store import DynamicGraphStore, StoreCommit

# CPU-side preprocessing cost constants (ops per touched item)
ENCODE_OPS_PER_VERTEX = 24.0
TABLE_OPS_PER_ROW = 8.0
POSTPROCESS_OPS_PER_MATCH = 4.0

#: shared stages of every service batch; each registered query adds its
#: own ``("kernel:<name>", "gpu")`` stage between ``update`` and
#: ``postprocess``
SERVICE_SHARED_STAGES = [
    ("preprocess", "cpu"),
    ("transfer", "pcie"),
    ("update", "gpu"),
]


@dataclass
class QueryBatchReport:
    """One query's slice of a processed batch."""

    name: str
    result: BatchResult
    kernel_seconds: float = 0.0
    #: this query's health for this batch:
    #: ``ok | degraded | quarantined | recovered``
    health: str = HEALTH_OK
    #: the breaker's last recorded error (quarantined rows only)
    error: str | None = None


@dataclass
class ServiceBatchReport:
    """Everything one batch produced across all registered queries."""

    batch_size: int = 0
    delta_inserted: int = 0
    delta_deleted: int = 0
    reencoded_vertices: int = 0
    gpma_stats: GpmaUpdateStats = field(default_factory=GpmaUpdateStats)
    queries: dict[str, QueryBatchReport] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: ordered (stage, resource) pairs for this batch — feeds the
    #: pipeline model's per-batch stage lists
    stages: list[tuple[str, str]] = field(default_factory=list)
    aborted: bool = False
    #: per-query health for this batch (mirrors ``queries[...].health``)
    health: dict[str, str] = field(default_factory=dict)
    #: an unrecoverable store fault rolled the batch back; the store
    #: sits at the consistent pre-batch boundary and no query observed
    #: any part of this batch
    rolled_back: bool = False
    #: ``"<stage>: <error>"`` when the whole batch was dropped
    failure: str | None = None

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def total_positives(self) -> int:
        return sum(len(q.result.positives) for q in self.queries.values())

    @property
    def total_negatives(self) -> int:
        return sum(len(q.result.negatives) for q in self.queries.values())

    @property
    def quarantined(self) -> list[str]:
        return [n for n, h in self.health.items() if h == HEALTH_QUARANTINED]


@dataclass
class _Batch:
    """One transaction's per-query ledger, filled in by the executors."""

    index: int
    health: dict[str, str] = field(default_factory=dict)
    #: queries that contribute a quarantined row this batch
    failed: set[str] = field(default_factory=set)
    #: row error overriding the breaker's (a shard fault's reason)
    row_errors: dict[str, str] = field(default_factory=dict)
    #: (negative, positive) kernel outputs of every query that ran clean
    results: dict[str, tuple] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the per-query guards and the in-process executor
# ---------------------------------------------------------------------------
def _guarded_launch(runtime: QueryRuntime, edges, policy: ResiliencePolicy):
    """One launch inside its isolation guard: ``(output, degraded, error)``.

    With ``policy.degrade_to_scalar`` a failed vectorized launch reruns
    once on the scalar-oracle arm. A strict-backend escape is a kernel
    bug, not a fault — quarantining it would hide the diagnostic — so it
    propagates.
    """
    try:
        return runtime.launch(edges), False, None
    except xp.ScalarEscapeError:
        raise
    except Exception as err:  # noqa: BLE001 — isolation boundary
        if policy.degrade_to_scalar and runtime.config.vectorized:
            try:
                return runtime.launch(edges, degraded=True), True, None
            except Exception as err2:  # noqa: BLE001
                err = err2
        return None, False, err


class InProcessExecutor:
    """Runs :class:`QueryRuntime`\\ s in this interpreter.

    The phase loops (:meth:`rebootstrap`, :meth:`launch`,
    :meth:`observe`) record one outcome per query in the worker IPC
    shape ``{"neg", "pos", "error", "degraded"}`` instead of touching a
    breaker, so a sharded worker runs them unchanged over its shard;
    the service folds outcomes into its breaker. The remaining methods
    are the executor protocol (the other implementation is
    :class:`~repro.service.sharded.WorkerPool`): registration and
    reads, then per batch ``begin`` → ``before_commit`` →
    ``after_commit`` → ``collect`` → ``finish``, as
    :meth:`MatchingService.process_batch` calls them.
    """

    def __init__(self, store, params, policy: ResiliencePolicy, *, collectors: bool = True):
        self.store = store
        self.params = params
        self.policy = policy
        #: give runtimes a collector (the parent's match view); worker
        #: runtimes only run kernels
        self.collectors = collectors
        self.runtimes: dict[str, QueryRuntime] = {}  # insertion-ordered
        self._out: dict[str, dict] = {}

    # -- phase loops (shared with the sharded workers) -----------------
    def add(self, name, query, config, bootstrap: bool) -> set[Match] | None:
        """Build, bootstrap and host one runtime; returns its initial matches."""
        runtime = QueryRuntime(
            query, self.store, self.params, config, name=name,
            collector=MatchCollector() if self.collectors else None,
        )
        initial = runtime.bootstrap() if bootstrap else None
        self.runtimes[name] = runtime
        return initial

    def rebootstrap(self, names) -> dict[str, tuple]:
        """Re-anchor each named runtime at the current store boundary:
        ``{name: ("ok", initial) | ("error", err)}``."""
        recovered = {}
        for name in names:
            try:
                recovered[name] = ("ok", self.runtimes[name].rebootstrap())
            except Exception as err:  # noqa: BLE001 — isolation boundary
                recovered[name] = ("error", err)
        return recovered

    #: one query's outcome of a batch (a worker reply's per-query entry)
    OUTCOME = {"neg": None, "pos": None, "error": None, "degraded": False}

    def open(self, names) -> dict[str, dict]:
        return {n: dict(self.OUTCOME) for n in names}

    def launch(self, out: dict, phase: str, edges, beat=None) -> None:
        """One sign phase (``"neg"``/``"pos"``) for every query of
        ``out`` that has not failed; ``beat(name)`` after each launch."""
        if not edges:
            return
        for name, q in out.items():
            if q["error"] is None:
                q[phase], degraded, q["error"] = _guarded_launch(
                    self.runtimes[name], edges, self.policy
                )
                q["degraded"] |= degraded
                if beat is not None:
                    beat(name)

    def observe(self, out: dict, commit) -> None:
        """Every query of ``out`` that has not failed observes the
        commit, each in its own guard — a mid-loop fault must not leave
        later runtimes on a version they never observed."""
        for name, q in out.items():
            if q["error"] is None:
                try:
                    self.runtimes[name].observe_commit(commit)
                except xp.ScalarEscapeError:
                    raise
                except Exception as err:  # noqa: BLE001 — isolation boundary
                    q["error"] = err

    # -- executor protocol -------------------------------------------------
    def register(self, svc, name, query, config, bootstrap) -> "InProcessExecutor":
        self.add(name, query, config, bootstrap)
        return self

    def unregister(self, name: str) -> None:
        del self.runtimes[name]

    def blocked(self, name: str) -> str | None:
        """Why the executor cannot serve ``name`` right now (never)."""
        return None

    def matches(self, name: str) -> set[Match]:
        return self.runtimes[name].current_matches()

    def consume(self, name: str, result: BatchResult) -> None:
        collector = self.runtimes[name].collector
        if collector is not None:
            collector.consume(result)

    def launch_wall_seconds(self) -> float:
        return sum(rt.gpu.launch_wall_seconds for rt in self.runtimes.values())

    def begin(self, svc, b: _Batch, due: list[str]) -> None:
        svc._fold_recovery(b, self.rebootstrap(due))

    def before_commit(self, svc, b: _Batch, delta) -> None:
        self._out = self.open(n for n in self.runtimes if not svc.breaker.is_quarantined(n))
        self.launch(self._out, "neg", list(delta.deleted))

    def after_commit(self, svc, b: _Batch, delta, commit: StoreCommit) -> None:
        self.observe(self._out, commit)
        self.launch(self._out, "pos", list(delta.inserted))

    def collect(self, svc, b: _Batch) -> None:
        svc._fold_outcomes(b, self._out)
        self._out = {}

    def finish(self, report: ServiceBatchReport) -> None:
        pass

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# the service: one batch transaction over its executors
# ---------------------------------------------------------------------------
class MatchingService:
    """Facade: register queries, stream batches, read per-query results."""

    _report_cls = ServiceBatchReport

    def __init__(
        self,
        graph: LabeledGraph | None = None,
        *,
        store: DynamicGraphStore | None = None,
        params: DeviceParams = DEFAULT_PARAMS,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        bits_per_label: int = 2,
        extra_labels: tuple[int, ...] = (),
        vectorized: bool = True,
        policy: ResiliencePolicy | None = None,
        faults=None,
    ) -> None:
        if store is None:
            if graph is None:
                raise MatchingError(f"{type(self).__name__} needs a data graph or a store")
            store = DynamicGraphStore(
                graph,
                params,
                bits_per_label=bits_per_label,
                extra_labels=extra_labels,
                vectorized=vectorized,
                faults=faults,
            )
        elif faults is not None:
            store.attach_faults(faults)
        self.store = store
        self.params = params
        self.cost_model = cost_model
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.breaker = CircuitBreaker(self.policy)
        self.meter = ThroughputMeter()
        self.local = InProcessExecutor(store, params, self.policy)
        #: executors in phase order; new registrations land on the first
        self._executors: list = [self.local]
        #: registered query -> its executor, in registration order
        self._hosts: dict[str, object] = {}
        self._counter = 0
        self._closed = False
        self.batches_processed = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release every executor's resources (worker processes, shared
        segments); the service refuses batches afterwards."""
        if not self._closed:
            self._closed = True
            for ex in self._executors:
                ex.close()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    @property
    def graph(self) -> LabeledGraph:
        """Current state of the shared data graph."""
        return self.store.graph

    @property
    def n_queries(self) -> int:
        return len(self._hosts)

    @property
    def query_names(self) -> list[str]:
        return list(self._hosts)

    def register_query(
        self,
        query: LabeledGraph,
        config: WBMConfig = WBMConfig(),
        name: str | None = None,
        bootstrap: bool = True,
    ) -> str:
        """Register a query against the *current* graph state.

        With ``bootstrap`` (default) the query is answered immediately
        via a static enumeration, so :meth:`matches` is complete from
        the first batch the new runtime observes. Returns the name the
        query is addressed by.
        """
        name = self._claim(name)
        self._hosts[name] = self._executors[0].register(self, name, query, config, bootstrap)
        self._counter += 1
        return name

    def adopt_runtime(self, runtime: QueryRuntime, name: str | None = None) -> str:
        """Register an externally built runtime (it must already share
        this service's store)."""
        if runtime.store is not self.store:
            raise ServiceError("adopted runtime is bound to a different store")
        name = self._claim(name if name is not None else runtime.name or None)
        runtime.name = name
        if runtime.collector is None:
            runtime.collector = MatchCollector()
        self.local.runtimes[name] = runtime
        self._hosts[name] = self.local
        self._counter += 1
        return name

    def _claim(self, name: str | None) -> str:
        if name is None:
            # explicit registrations may have claimed counter-shaped names
            while f"q{self._counter}" in self._hosts:
                self._counter += 1
            name = f"q{self._counter}"
        if name in self._hosts:
            raise ServiceError(f"query {name!r} already registered")
        return name

    def _host(self, name: str):
        host = self._hosts.get(name)
        if host is None:
            raise ServiceError(f"no registered query named {name!r}")
        return host

    def unregister_query(self, name: str, *, force: bool = False) -> None:
        """Drop a query; only its per-query state (candidate table,
        plan, collector, virtual GPU, breaker record) is freed — the
        shared store is untouched.

        A quarantined query cannot be silently dropped mid-recovery
        (its match view is incomplete and its breaker holds the fault
        evidence): pass ``force=True`` to discard it anyway.
        """
        host = self._host(name)
        if (self.breaker.is_quarantined(name) or host.blocked(name)) and not force:
            raise QueryQuarantinedError(
                name, f"unregister requires force=True; {self.breaker.record(name).last_error}"
            )
        host.unregister(name)
        del self._hosts[name]
        self.breaker.drop(name)

    def runtime(self, name: str) -> QueryRuntime:
        """The in-process runtime of one registered query."""
        self._host(name)
        if name not in self.local.runtimes:
            raise ServiceError(f"query {name!r} runs in a worker process")
        return self.local.runtimes[name]

    def matches(self, name: str) -> set[Match]:
        """Current match set of one registered query (bootstrap state
        plus every observed birth/death).

        A quarantined query's view is incomplete (it missed at least
        one commit), so reading it raises
        :class:`~repro.errors.QueryQuarantinedError` rather than
        returning silently stale matches.
        """
        host = self._host(name)
        if self.breaker.is_quarantined(name):
            raise QueryQuarantinedError(name, self.breaker.record(name).last_error)
        reason = host.blocked(name)
        if reason is not None:
            raise QueryQuarantinedError(name, reason)
        return host.matches(name)

    def query_health(self, name: str) -> str:
        """Current health of one registered query."""
        if self._host(name).blocked(name) is not None:
            return HEALTH_QUARANTINED
        return self.breaker.health(name)

    def health_snapshot(self) -> dict[str, str]:
        """Health of every registered query right now."""
        return {name: self.query_health(name) for name in self._hosts}

    def launch_wall_seconds(self) -> float:
        """Host wall-clock spent inside the virtual-GPU launch machinery
        across every registered query's device (simulator overhead
        instrumentation — *not* model seconds). This is the quantity
        the pooled array-native launch path shrinks; model-second stage
        pricing is identical on both paths."""
        return sum(ex.launch_wall_seconds() for ex in self._executors)

    # ------------------------------------------------------------------
    # batch processing
    # ------------------------------------------------------------------
    def _refresh_groups(self) -> list[tuple[str, str, int]]:
        """``(stage, resource, n_queries)`` of candidate-table refreshes
        priced as their own stages; in-process refreshes are part of
        ``preprocess``."""
        return []

    def _kernel_resource(self, name: str) -> str:
        return "gpu"

    def stage_plan(self) -> list[tuple[str, str]]:
        """Ordered stages of the next batch given current registrations."""
        return (
            list(SERVICE_SHARED_STAGES)
            + [(stage, cpu) for stage, cpu, _ in self._refresh_groups()]
            + [(f"kernel:{name}", self._kernel_resource(name)) for name in self._hosts]
            + [("postprocess", "cpu")]
        )

    def process_batch(self, batch: UpdateBatch) -> ServiceBatchReport:
        """Fan one batch out across every registered query, inside the
        fault-isolation envelope.

        The store computes the net delta once; all negative-phase
        kernels run against the pre-update graph; the store commits the
        GPMA/encoding update exactly once (transactionally — a failed
        commit rolls back and is retried up to ``policy.store_retries``
        times); every healthy runtime observes the commit and runs its
        positive-phase kernel. A fault inside one query's
        launch/observe quarantines that query; healthy queries' results
        are byte-identical to a fault-free run.
        """
        if self._closed:
            raise ServiceError("service is closed")
        b = _Batch(self.batches_processed)

        # 0. recovery: quarantined queries whose cooldown elapsed retry
        # with a full re-bootstrap at the current consistent boundary
        due = [n for n in self._hosts if self.breaker.retry_due(n, b.index)]
        for ex in self._executors:
            ex.begin(self, b, [n for n in due if self._hosts[n] is ex])

        # 1. prepare (reads only — a retry re-runs it from scratch)
        delta, err = self._guarded_store(lambda: self.store.prepare(batch))
        if err is not None:
            return self._dropped_batch_report(batch, b, "prepare", err)
        report = self._report_cls(
            batch_size=len(batch),
            delta_inserted=len(delta.inserted),
            delta_deleted=len(delta.deleted),
            stages=self.stage_plan(),
        )

        # 2. negative phase, against the still-live pre-update graph
        for ex in self._executors:
            ex.before_commit(self, b, delta)

        # 3. commit — transactional: a failing attempt restores the
        # pre-batch boundary (rollback journal) before raising, so a
        # retry replays the identical delta; exhausted retries drop the
        # whole batch at that boundary (negative results are discarded,
        # nothing was observed, no collector advanced)
        commit, err = self._guarded_store(lambda: self.store.commit(batch, delta))
        if err is not None:
            for ex in self._executors:
                ex.collect(self, b)  # negative-phase faults still trip
            return self._dropped_batch_report(batch, b, "commit", err, rolled_back=True)
        report.gpma_stats = commit.gpma_stats
        report.reencoded_vertices = len(commit.changed_vertices)

        # 4.-5. observe + positive phase against the committed graph (a
        # worker pool publishes and broadcasts first), then collect
        for ex in self._executors:
            ex.after_commit(self, b, delta, commit)
        for ex in self._executors:
            ex.collect(self, b)

        # 6. assemble, 7. price
        self._assemble(report, b, commit)
        report.stage_seconds = self._price_stages(report, commit)
        self.meter.record(report.total_seconds, len(batch))
        return report

    def _assemble(self, report: ServiceBatchReport, b: _Batch, commit: StoreCommit | None) -> None:
        """Rows in registration order: healthy queries exactly as a
        fault-free run; quarantined ones — and every query of a dropped
        batch (``commit`` None) — an empty health-only row (their
        collector does not advance). Closes the batch."""
        for name, host in self._hosts.items():
            if commit is None or name in b.failed or name not in b.results:
                report.queries[name] = QueryBatchReport(
                    name=name,
                    result=BatchResult(),
                    health=b.health.setdefault(name, HEALTH_QUARANTINED),
                    error=b.row_errors.get(name) or self.breaker.record(name).last_error,
                )
                continue
            result = self._assemble_result(b.results[name], commit)
            host.consume(name, result)
            state = b.health.get(name)
            if state is None:
                state = (
                    HEALTH_RECOVERED
                    if self.breaker.health(name) == HEALTH_RECOVERED
                    else HEALTH_OK
                )
            b.health[name] = state
            report.queries[name] = QueryBatchReport(
                name=name,
                result=result,
                kernel_seconds=self.cost_model.gpu_seconds(result.kernel_stats.kernel_cycles),
                health=state,
            )
            report.aborted |= result.aborted
        report.health = dict(b.health)
        for ex in self._executors:
            ex.finish(report)
        self.breaker.settle()
        self.batches_processed += 1

    def _dropped_batch_report(
        self, batch: UpdateBatch, b: _Batch, stage: str, err: BaseException,
        rolled_back: bool = False,
    ) -> ServiceBatchReport:
        """The whole batch failed in a store stage. The store sits at
        the consistent pre-batch boundary (verified by the rollback
        path); no runtime observed anything, so every healthy query is
        still synced and the next batch proceeds normally."""
        report = self._report_cls(
            batch_size=len(batch),
            stages=self.stage_plan(),
            aborted=True,
            rolled_back=rolled_back,
            failure=f"{stage}: {type(err).__name__}: {err}",
        )
        b.health = {name: self.breaker.health(name) for name in self._hosts}
        self._assemble(report, b, None)
        report.stage_seconds = {stage_name: 0.0 for stage_name, _ in report.stages}
        return report

    # -- folding executor outcomes into the breaker ---------------------
    def _fold_recovery(self, b: _Batch, recovered: dict[str, tuple]) -> None:
        for name, (status, value) in recovered.items():
            if name not in self._hosts:
                continue
            if status == "ok":
                self.breaker.mark_recovered(name, b.index)
            else:
                self.breaker.note_retry_failure(name, b.index, value)
                self._quarantine(b, name)

    def _fold_outcomes(self, b: _Batch, outcomes: dict[str, dict]) -> None:
        for name, q in outcomes.items():
            if name not in self._hosts:
                continue
            if q["degraded"]:
                b.health[name] = HEALTH_DEGRADED
                self.breaker.note_degraded(name)
            if q["error"] is not None:
                self.breaker.trip(name, b.index, q["error"])
                self._quarantine(b, name)
            else:
                b.results[name] = (q["neg"], q["pos"])

    @staticmethod
    def _quarantine(b: _Batch, name: str, reason: str | None = None) -> None:
        b.health[name] = HEALTH_QUARANTINED
        b.failed.add(name)
        if reason is not None:
            b.row_errors[name] = reason

    def _guarded_store(self, call):
        """Run a store transaction with the policy's bounded retry.

        Returns ``(value, None)`` on success or ``(None, last_error)``
        after exhausting retries. A failed ``commit`` has already rolled
        the store back when it raises, so each retry starts from the
        same consistent boundary. Invalid-batch validation errors are
        caller misuse, not faults — they propagate immediately.
        """
        last: BaseException | None = None
        for _ in range(self.policy.store_retries + 1):
            try:
                return call(), None
            except (UpdateError, GraphError, xp.ScalarEscapeError):
                raise
            except Exception as err:  # noqa: BLE001 — isolation boundary
                last = err
        return None, last

    @staticmethod
    def _assemble_result(outputs: tuple, commit: StoreCommit) -> BatchResult:
        result = BatchResult()
        result.gpma_stats = commit.gpma_stats  # shared: applied once for all
        result.reencoded_vertices = len(commit.changed_vertices)
        result.transfer_words = commit.transfer_words
        # every runtime observes the single shared upload; its cycles
        # appear in each per-query result (as they did when engines
        # uploaded privately) but are priced once at the service level
        result.kernel_stats.transfer_cycles += commit.transfer_cycles
        neg, pos = outputs
        if neg is not None:
            result.negatives = set(neg.matches)
            result.kernel_stats.merge(neg.stats)
            result.aborted |= neg.aborted
        if pos is not None:
            result.positives = set(pos.matches)
            result.kernel_stats.merge(pos.stats)
            result.aborted |= pos.aborted
        return result

    def _price_stages(
        self, report: ServiceBatchReport, commit: StoreCommit
    ) -> dict[str, float]:
        """Model seconds per stage. A batch that nets out to nothing
        after ``effective_delta`` costs zero on every stage. Refreshes
        priced as their own stages (:meth:`_refresh_groups`) leave
        ``preprocess``; the op totals are the same either way."""
        cm = self.cost_model
        if commit.is_noop:
            return {stage: 0.0 for stage, _ in report.stages}
        changed = max(len(commit.changed_vertices), 1)
        n_matches = report.total_positives + report.total_negatives
        refresh = self._refresh_groups()
        # one shared encode pass; each query refreshes its own rows
        rows = 0 if refresh else max(len(self._hosts), 1)
        stage_seconds = {
            "preprocess": cm.cpu_seconds(
                ENCODE_OPS_PER_VERTEX * changed + TABLE_OPS_PER_ROW * changed * rows
            ),
            "transfer": cm.gpu_seconds(commit.transfer_cycles),
            "update": cm.gpu_seconds(commit.gpma_stats.total_cycles),
            "postprocess": cm.cpu_seconds(POSTPROCESS_OPS_PER_MATCH * max(n_matches, 1)),
        }
        for stage, _, n in refresh:
            stage_seconds[stage] = cm.cpu_seconds(TABLE_OPS_PER_ROW * changed * n)
        for name, qrep in report.queries.items():
            stage_seconds[f"kernel:{name}"] = qrep.kernel_seconds
        return stage_seconds

    # ------------------------------------------------------------------
    @staticmethod
    def _pipeline_stages(stages: list[tuple[str, str]]) -> list:
        return stages

    def process_stream(
        self, stream: UpdateStream
    ) -> tuple[list[ServiceBatchReport], PipelineReport]:
        """Process a whole stream and schedule it on the asynchronous
        pipeline model, with one GPU kernel stage per registered query
        (registrations may change between batches — each batch carries
        its own stage list)."""
        reports = [self.process_batch(batch) for batch in stream]
        model = PipelineModel(self.stage_plan())
        pipeline = model.schedule(
            [r.stage_seconds for r in reports],
            batch_stages=[self._pipeline_stages(r.stages) for r in reports],
        )
        return reports, pipeline
