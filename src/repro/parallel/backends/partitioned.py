"""Partitioned multi-pool engine with superstep boundary exchange.

:class:`PartitionedEngine` is the single-machine model of the paper's
distributed deployment: the graph is sharded into vertex partitions
(contiguous ranges by default — road-network ids are locality-ordered —
or the greedy min-edgecut refinement from
:mod:`repro.graph.analysis`), one *inner engine pool* runs per shard
(shared-memory by default; serial/threads for tests), and a dynamic
update executes as a loop of supersteps:

1. **Local fixpoint** — every shard with pending frontier seeds runs
   the ordinary Step-2 kernel
   (:func:`repro.core.kernels.propagate_csr`) over its own sub-CSR on
   its own pool, to a *local* fixpoint.  Shards run concurrently; a
   shard only ever writes vertices it owns (edge destinations are
   owned by construction, see :mod:`repro.graph.shards`), so there are
   no cross-shard races.
2. **Boundary exchange** — each shard emits the ``(vertex, dist)``
   improvements of its cut-edge sources since the last exchange; a
   barrier merges them (deterministically, in shard order) into the
   ghost copies of the subscribing shards, marking and seeding them as
   the next superstep's frontier.
3. The loop terminates when no shard emits.

Because every relaxation is a monotone ``min`` over the same float64
path sums the single-pool kernels compute, the loop converges to the
identical least fixpoint — distances are **bitwise equal** to the
serial oracle, certified by ``tests/test_partitioned_differential.py``.
Parent pointers are equally optimal but may tie-break differently
(the wave structure differs across partition counts), which is why the
differential matrix asserts dist bitwise + parent *cost* via tree
certification rather than parent identity.

The engine plugs into the core update functions by *duck typing*:
``sosp_update`` / ``apply_mixed_batch`` route to
:meth:`partitioned_sosp_update` / :meth:`partitioned_mixed_update`
when the resolved engine provides them (checked/traced wrappers
forward the methods transparently).  Generic ``parallel_for``
supersteps — e.g. MOSP's ensemble build and combined Bellman-Ford —
run inline and serially, a documented degraded mode that keeps every
non-sharded code path bitwise identical to the serial backend.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.errors import AlgorithmError, EngineError
from repro.graph.analysis import (
    partition_by_ranges,
    partition_edgecut,
    refine_partition_greedy,
)
from repro.graph.csr import CSRGraph
from repro.graph.shards import CSRShard, build_shard, build_shards, live_edge_arrays
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.parallel.api import BaseEngine, Engine, resolve_engine
from repro.types import DIST_DTYPE, INF, NO_PARENT, FloatArray, IntArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fully_dynamic import MixedUpdateStats
    from repro.core.tree import SOSPTree
    from repro.dynamic.changes import ChangeBatch
    from repro.graph.digraph import DiGraph

__all__ = ["PartitionedEngine"]

T = TypeVar("T")
R = TypeVar("R")

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=DIST_DTYPE)


class _Plan:
    """Cached sharding of one CSR snapshot (rebuilt on identity change)."""

    __slots__ = ("part", "shards", "source_id", "uid", "n", "cut_edges",
                 "synced")

    def __init__(
        self,
        part: IntArray,
        shards: List[CSRShard],
        source_id: int,
        uid: int,
        n: int,
        cut_edges: int,
    ) -> None:
        self.part = part
        self.shards = shards
        self.source_id = source_id
        self.uid = uid
        self.n = n
        self.cut_edges = cut_edges
        self.synced: Optional[Tuple[int, int, int]] = None


class _ShardRun:
    """One shard's per-update state: local dist/parent/marked plus the
    boundary bookkeeping of what has already been emitted."""

    __slots__ = ("shard", "dist", "parent", "marked", "bnd", "bnd_sent",
                 "pending")

    def __init__(
        self, shard: CSRShard, dist_g: FloatArray, parent_dtype: np.dtype
    ) -> None:
        self.shard = shard
        # ghost copies load the *post-invalidation* global state, so
        # every subsequent change is a monotone decrease the exchange
        # phase can deliver
        self.dist: FloatArray = dist_g[shard.l2g]
        # kernels never read parents, only write improved ones (with
        # local predecessor ids); NO_PARENT marks "untouched"
        self.parent: IntArray = np.full(
            shard.n_local, NO_PARENT, dtype=parent_dtype
        )
        self.marked: IntArray = np.zeros(shard.n_local, dtype=np.int8)
        self.bnd: IntArray = np.fromiter(
            sorted(shard.boundary), dtype=np.int64, count=len(shard.boundary)
        )
        self.bnd_sent: FloatArray = self.dist[self.bnd].copy()
        self.pending: IntArray = _EMPTY_I

    def emit(self) -> Tuple[IntArray, FloatArray]:
        """Boundary vertices improved since the last emit, as global
        ids + distances; updates the sent snapshot."""
        if self.bnd.size == 0:
            return _EMPTY_I, _EMPTY_F
        cur = self.dist[self.bnd]
        imp = cur < self.bnd_sent
        if not imp.any():
            return _EMPTY_I, _EMPTY_F
        self.bnd_sent[imp] = cur[imp]
        return self.shard.l2g[self.bnd[imp]], cur[imp]


class PartitionedEngine(BaseEngine):
    """Multi-pool engine: one inner engine per graph shard, boundary
    exchange between supersteps.

    Parameters
    ----------
    threads:
        Worker count of *each* shard pool (``partitions * threads``
        workers in total for process-backed inner pools).
    partitions:
        Number of shards.  ``1`` degrades to the plain single-pool
        behaviour (no exchange ever fires).
    inner:
        Inner pool backend name: ``"shm"`` (default), ``"serial"``,
        ``"threads"``, ``"processes"``, or ``"simulated"``.
    partition_mode:
        ``"ranges"`` (contiguous balanced vertex ranges, the default)
        or ``"edgecut"`` (ranges refined by
        :func:`repro.graph.analysis.refine_partition_greedy`).
    assignment:
        Explicit length-``n`` owner array overriding the partitioner
        (tests use this to build adversarial cuts).  Values must be in
        ``[0, partitions)``.
    inner_options:
        Extra keyword arguments for shared-memory inner pools (e.g.
        ``{"min_dispatch_items": 1}`` to force real dispatch in tests);
        ignored by other inner backends.
    parallel_shards:
        Drive shard supersteps concurrently from a thread pool
        (``False`` runs shards sequentially in index order — results
        are identical either way; the merge is master-side and
        deterministic).
    """

    name = "partitioned"

    #: Inner shm pools collect worker spans/metrics and ship them back
    #: on the tagged reply; each pool carries a ``{"shard": i}`` label
    #: so merged series/spans stay attributable per shard.
    worker_spans = "collected"

    def __init__(
        self,
        threads: int = 2,
        partitions: int = 2,
        inner: str = "shm",
        partition_mode: str = "ranges",
        assignment: Optional[IntArray] = None,
        inner_options: Optional[Mapping[str, Any]] = None,
        parallel_shards: bool = True,
    ) -> None:
        super().__init__(threads=threads)
        if partitions < 1:
            raise EngineError(f"partitions must be >= 1, got {partitions}")
        if not isinstance(inner, str):
            raise EngineError(
                f"inner pool must be a backend name, got {inner!r}"
            )
        if inner == "partitioned":
            raise EngineError(
                "the partitioned engine cannot nest itself as inner pool"
            )
        if partition_mode not in ("ranges", "edgecut"):
            raise EngineError(
                f"partition_mode must be 'ranges' or 'edgecut', got "
                f"{partition_mode!r}"
            )
        self.partitions = int(partitions)
        self.inner = inner
        self.inner_options: Dict[str, Any] = dict(inner_options or {})
        self.partition_mode = partition_mode
        self.parallel_shards = bool(parallel_shards)
        self._assignment: Optional[IntArray] = None
        if assignment is not None:
            arr = np.asarray(assignment, dtype=np.int64)
            if arr.size and (arr.min() < 0 or arr.max() >= self.partitions):
                raise EngineError(
                    f"assignment values must lie in [0, {self.partitions})"
                )
            self._assignment = arr
        self._pools: Optional[List[Engine]] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._plan: Optional[_Plan] = None
        self._own_csr: Optional[CSRGraph] = None
        self._own_token: Optional[Tuple[int, int]] = None
        #: Exchange profile of the most recent partitioned update.
        self.last_exchange_stats: Dict[str, int] = {
            "supersteps": 0, "messages": 0, "deliveries": 0,
        }

    # ------------------------------------------------- generic engine
    def parallel_for(
        self,
        items: Sequence[T],
        fn: Callable[[T], R],
        work_fn: Optional[Callable[[T, R], float]] = None,
    ) -> List[R]:
        """Generic (non-sharded) supersteps run inline and serially.

        Only the partitioned update drivers exploit the shard pools;
        everything else — MOSP ensemble builds, combined Bellman-Ford,
        ad-hoc callers — gets serial-engine semantics, so results stay
        bitwise identical to the serial backend (documented degraded
        mode, see ``docs/PARALLEL.md``).
        """
        results = [fn(item) for item in items]
        self._account_work(items, results, work_fn)
        return results

    # ------------------------------------------------------ lifecycle
    @property
    def shard_pools(self) -> List[Engine]:
        """The per-shard inner engines (created lazily, cached)."""
        if self._pools is None:
            self._pools = [
                self._make_pool(i) for i in range(self.partitions)
            ]
        return self._pools

    def _make_pool(self, index: int) -> Engine:
        if self.inner == "shm":
            from repro.parallel.backends.shm import SharedMemoryEngine

            pool: Engine = SharedMemoryEngine(
                threads=self.threads, **self.inner_options
            )
        else:
            pool = resolve_engine(
                self.inner, threads=self.threads, checked=False
            )
        # worker spans/metrics merged from this pool carry the shard
        # index, so per-shard series stay separable in exports
        labels = getattr(pool, "obs_labels", None)
        if isinstance(labels, dict):
            labels["shard"] = str(index)
        return pool

    def close(self) -> None:
        """Close every shard pool (workers, shared segments) and the
        shard-driver thread pool.  Idempotent; the engine respawns
        pools lazily if used again."""
        if self._pools is not None:
            for pool in self._pools:
                closer = getattr(pool, "close", None)
                if callable(closer):
                    closer()
            # drop the closed pools so a reused engine respawns fresh
            # ones (and a second close() never re-walks dead engines)
            self._pools = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionedEngine(partitions={self.partitions}, "
            f"inner={self.inner!r}, threads={self.threads})"
        )

    # ------------------------------------------------- sharding state
    def _assignment_for(self, snapshot: CSRGraph) -> IntArray:
        if self._assignment is not None:
            if self._assignment.shape[0] != snapshot.n:
                raise EngineError(
                    f"explicit assignment covers "
                    f"{self._assignment.shape[0]} vertices, graph has "
                    f"{snapshot.n}"
                )
            return self._assignment
        part = partition_by_ranges(snapshot.n, self.partitions)
        if self.partition_mode == "edgecut":
            part = refine_partition_greedy(snapshot, part)
        return part

    def _build_plan(self, snapshot: CSRGraph) -> _Plan:
        part = self._assignment_for(snapshot)
        shards = build_shards(snapshot, part, parts=self.partitions)
        cut = partition_edgecut(snapshot, part)
        return _Plan(part, shards, id(snapshot), snapshot.uid, snapshot.n, cut)

    def _sync_plan(self, snapshot: CSRGraph, batch: "ChangeBatch") -> _Plan:
        """Bring the shard sub-CSRs up to date with ``snapshot``.

        Same snapshot object at the batch's stamp → no-op (e.g. MOSP
        re-enters once per objective with one batch); stamps moved →
        route the batch's records into the owning shards (rebuilding a
        shard from scratch only when an insert introduces a ghost it
        has never seen); anything unrecognised → full rebuild.
        """
        state = (snapshot.uid, snapshot.base_version, snapshot.tail_version)
        plan = self._plan
        if (
            plan is None
            or plan.source_id != id(snapshot)
            or plan.uid != snapshot.uid
            or plan.n != snapshot.n
        ):
            plan = self._build_plan(snapshot)
        elif plan.synced != state:
            self._apply_batch_to_plan(plan, batch, snapshot)
            total = sum(sh.csr.num_edges for sh in plan.shards)
            if total != snapshot.num_edges:
                # the snapshot changed by more than the batch — resync
                plan = self._build_plan(snapshot)
        plan.synced = state
        self._plan = plan
        return plan

    def _apply_batch_to_plan(
        self, plan: _Plan, batch: "ChangeBatch", snapshot: CSRGraph
    ) -> None:
        """Incremental twin of :meth:`CSRGraph.apply_batch`, routed per
        record to the shard owning the edge's destination."""
        from repro.dynamic.changes import KIND_DELETE, KIND_INSERT

        part = plan.part
        shards = plan.shards
        kind = np.asarray(batch.kind)
        bsrc = np.asarray(batch.src, dtype=np.int64)
        bdst = np.asarray(batch.dst, dtype=np.int64)
        bw = np.asarray(batch.weights)
        dirty: Set[int] = set()
        b = int(kind.shape[0])
        i = 0
        while i < b:
            j = i + 1
            while j < b and kind[j] == kind[i]:
                j += 1
            code = int(kind[i])
            rs, rd, rw = bsrc[i:j], bdst[i:j], bw[i:j]
            owners = part[rd]
            for p in np.unique(owners).tolist():
                sel = owners == p
                sh = shards[p]
                ls = sh.g2l[rs[sel]]
                ld = sh.g2l[rd[sel]]
                if code == KIND_INSERT:
                    if bool((ls < 0).any()):
                        dirty.add(p)  # unseen ghost source: rebuild
                    elif p not in dirty:
                        sh.csr.append_edges(ls, ld, rw[sel])
                elif p not in dirty:
                    # deletions / weight changes target existing edges;
                    # unmapped sources simply mean "no such edge here"
                    ok = ls >= 0
                    if bool(ok.any()):
                        if code == KIND_DELETE:
                            sh.csr.delete_edges(ls[ok], ld[ok])
                        else:
                            sh.csr.update_edge_weights(
                                ls[ok], ld[ok], rw[sel][ok]
                            )
            if code == KIND_INSERT:
                # a new cut edge promotes its source to the boundary of
                # the source's owner (rebuilds recompute this anyway)
                so = part[rs]
                cutsel = so != owners
                for u, q in zip(rs[cutsel].tolist(), so[cutsel].tolist()):
                    sq = shards[q]
                    sq.boundary.add(int(sq.g2l[u]))
            i = j
        if dirty:
            src, dst, w = live_edge_arrays(snapshot)
            for p in sorted(dirty):
                plan.shards[p] = build_shard(
                    p, snapshot.n, src, dst, w, plan.part, snapshot.k
                )

    def _resolve_snapshot(
        self,
        graph: "DiGraph",
        batch: "ChangeBatch",
        csr: Optional[CSRGraph],
    ) -> CSRGraph:
        """The post-batch CSR snapshot to shard: the caller's, when
        given, else an internally maintained incremental one."""
        # deferred: repro.core imports repro.parallel at module load
        from repro.core.sosp_update import check_snapshot

        n = graph.num_vertices
        if csr is not None:
            check_snapshot(csr, graph, "apply_batch")
            return csr
        own = self._own_csr
        token = (id(batch), int(batch.num_changes))
        if own is None or own.n != n:
            own = CSRGraph.from_digraph(graph)
        elif self._own_token == token and own.num_edges == graph.num_edges:
            pass  # same batch re-entered (one call per MOSP objective)
        else:
            own.apply_batch(batch)
            if own.num_edges != graph.num_edges:
                # the graph moved by more than this batch — re-freeze
                own = CSRGraph.from_digraph(graph)
        self._own_csr = own
        self._own_token = token
        return own

    # ------------------------------------------------ update drivers
    def partitioned_sosp_update(
        self,
        graph: "DiGraph",
        tree: "SOSPTree",
        batch: "ChangeBatch",
        csr: Optional[CSRGraph] = None,
        check_ownership: bool = False,
    ) -> "MixedUpdateStats":
        """Partitioned Algorithm 1 (insert-only batches).

        Insert-only batches are the empty-dirty-set special case of the
        mixed pipeline — Step D finds nothing, Step I seeds the
        normalised insertions — so one driver serves both entry points
        (``MixedUpdateStats`` extends ``UpdateStats``).
        """
        return self.partitioned_mixed_update(
            graph, tree, batch, csr=csr, check_ownership=check_ownership
        )

    def partitioned_mixed_update(
        self,
        graph: "DiGraph",
        tree: "SOSPTree",
        batch: "ChangeBatch",
        csr: Optional[CSRGraph] = None,
        check_ownership: bool = False,
    ) -> "MixedUpdateStats":
        """Partitioned fully dynamic update: invalidate globally, seed
        per shard, then superstep local fixpoints + boundary exchange
        until no shard emits.  Mutates ``tree`` in place exactly like
        :func:`repro.core.fully_dynamic.apply_mixed_batch`."""
        # deferred: repro.core imports repro.parallel at module load
        import repro.core.kernels as kernels
        from repro.core.fully_dynamic import (
            MixedUpdateStats,
            _gather_stimuli,
            _invalidate,
            _publish_mixed_stats,
        )
        from repro.core.sosp_update import UpdateStats
        from repro.parallel.atomics import OwnershipTracker

        stats = MixedUpdateStats()
        tracer = get_tracer()
        met = get_metrics()
        snapshot = self._resolve_snapshot(graph, batch, csr)
        plan = self._sync_plan(snapshot, batch)
        shards = plan.shards
        pools = self.shard_pools
        dist = tree.dist
        parent = tree.parent
        objective = tree.objective

        # ------------------------------------------------ Step D
        with tracer.span(
            "partitioned.invalidate",
            deletions=int(batch.num_deletions),
            weight_changes=int(batch.num_weight_changes),
        ) as sp_inv:
            dirty = _invalidate(graph, tree, batch, stats)
            dist[dirty] = INF
            parent[dirty] = NO_PARENT
            sp_inv.set(invalidated=stats.invalidated,
                       dirty_roots=stats.dirty_roots)
        stats.step_seconds["invalidate"] = sp_inv.elapsed
        stats.touched_vertices.update(dirty.tolist())

        # ------------------------------------------------ Step I
        trackers: List[Optional[OwnershipTracker]] = [
            OwnershipTracker() if check_ownership else None for _ in shards
        ]
        with tracer.span(
            "partitioned.seed", partitions=len(shards),
            cut_edges=plan.cut_edges,
        ) as sp_seed:
            s_src, s_dst, s_w = _gather_stimuli(
                graph, batch, dirty, objective, snapshot
            )
            stats.seed_stimuli = int(s_src.size)
            # ghost copies load the post-invalidation global state
            runs = [_ShardRun(sh, dist, parent.dtype) for sh in shards]
            owners = plan.part[s_dst] if s_dst.size else _EMPTY_I

            def seed_one(i: int) -> Tuple[int, int]:
                run = runs[i]
                sh = run.shard
                sel = owners == sh.index
                if not bool(sel.any()):
                    return 0, 0
                ls = sh.g2l[s_src[sel]]
                ld = sh.g2l[s_dst[sel]]
                lw = s_w[sel]
                # tombstoned boundary rows carry inf weights and may
                # reference sources outside the shard; neither can
                # improve anything, so dropping them preserves the
                # single-pool seed result bit for bit
                keep = np.isfinite(lw) & (ls >= 0) & (ld >= 0)
                if not bool(keep.all()):
                    ls, ld, lw = ls[keep], ld[keep], lw[keep]
                if ls.size == 0:
                    return 0, 0
                affected, scanned = kernels.relax_batch_groups(
                    ls, ld, lw, run.dist, run.parent, run.marked,
                    engine=pools[i], tracker=trackers[i],
                )
                run.pending = affected
                return int(affected.size), int(scanned)

            seeded = self._run_shard_phase(
                [self._bind(seed_one, i) for i in range(len(shards))]
            )
            n_affected = sum(a for a, _ in seeded)
            stats.relaxations += sum(s for _, s in seeded)
            sp_seed.set(stimuli=stats.seed_stimuli, affected=n_affected)
        stats.step_seconds["seed"] = sp_seed.elapsed
        stats.step1_passes = 1
        stats.affected_initial = n_affected
        stats.affected_total = n_affected

        # --------------------------------- supersteps + exchange loop
        supersteps = 0
        messages = 0
        deliveries = 0
        with tracer.span(
            "partitioned.propagate", partitions=len(shards),
        ) as sp_prop:
            while True:
                active = [i for i, r in enumerate(runs) if r.pending.size]
                if active:
                    supersteps += 1
                    n_seeds = sum(int(runs[i].pending.size) for i in active)
                    with tracer.span(
                        "partitioned.superstep", superstep=supersteps,
                        shards=len(active), seeds=n_seeds,
                    ):

                        def prop_one(i: int) -> "UpdateStats":
                            run = runs[i]
                            seeds = run.pending
                            run.pending = _EMPTY_I
                            st = UpdateStats()
                            kernels.propagate_csr(
                                run.shard.csr, run.dist, run.parent,
                                run.marked, seeds, objective=objective,
                                engine=pools[i], stats=st,
                                tracker=trackers[i],
                            )
                            return st

                        for st in self._run_shard_phase(
                            [self._bind(prop_one, i) for i in active]
                        ):
                            stats.iterations += st.iterations
                            stats.relaxations += st.relaxations
                            stats.affected_total += st.affected_total
                            stats.frontier_sizes.extend(st.frontier_sizes)

                emit_g: List[IntArray] = []
                emit_d: List[FloatArray] = []
                for run in runs:
                    gs, ds = run.emit()
                    if gs.size:
                        emit_g.append(gs)
                        emit_d.append(ds)
                if not emit_g:
                    break
                gs = np.concatenate(emit_g)
                ds = np.concatenate(emit_d)
                delivered = 0
                with tracer.span(
                    "partitioned.exchange", superstep=supersteps,
                    messages=int(gs.size),
                ) as sp_x:
                    for run in runs:
                        sh = run.shard
                        lid = sh.g2l[gs]
                        ghost = lid >= sh.n_owned  # own/absent excluded
                        if not bool(ghost.any()):
                            continue
                        lids = lid[ghost]
                        dv = ds[ghost]
                        better = dv < run.dist[lids]
                        if not bool(better.any()):
                            continue
                        tl = lids[better]
                        run.dist[tl] = dv[better]
                        run.marked[tl] = 1
                        run.pending = tl
                        delivered += int(tl.size)
                    sp_x.set(deliveries=delivered)
                messages += int(gs.size)
                deliveries += delivered
                if met.enabled:
                    met.histogram(
                        "partitioned_exchange_messages",
                        "boundary messages per exchange phase",
                    ).observe(float(gs.size))
                if delivered == 0:
                    break
        stats.step_seconds["propagate"] = sp_prop.elapsed

        # --------------------------------------------- gather results
        for run in runs:
            sh = run.shard
            changed = np.flatnonzero(run.marked[: sh.n_owned])
            if changed.size == 0:
                continue
            gl = sh.l2g[changed]
            dist[gl] = run.dist[changed]
            lp = run.parent[changed]
            if int(lp.min(initial=0)) < 0:  # pragma: no cover - invariant
                raise AlgorithmError(
                    "internal error: marked vertex without a parent"
                )
            parent[gl] = sh.l2g[lp]
            stats.affected_vertices.update(int(v) for v in gl)
        stats.touched_vertices |= stats.affected_vertices

        self.last_exchange_stats = {
            "supersteps": supersteps,
            "messages": messages,
            "deliveries": deliveries,
        }
        if met.enabled:
            met.counter(
                "boundary_messages_total",
                "boundary dist improvements exchanged between shards",
            ).inc(messages)
            met.counter(
                "partitioned_supersteps_total",
                "local-fixpoint supersteps across partitioned updates",
            ).inc(supersteps)
        _publish_mixed_stats(stats, batch)
        return stats

    # ---------------------------------------------------- shard pool
    @staticmethod
    def _bind(fn: Callable[[int], T], i: int) -> Callable[[], T]:
        return lambda: fn(i)

    def _run_shard_phase(self, thunks: List[Callable[[], T]]) -> List[T]:
        """Run one phase's shard tasks, concurrently when enabled.

        Each task gets a fresh copy of the current context so tracer
        spans opened inside shard threads parent correctly.  Results
        come back in shard order, so everything the master merges stays
        deterministic regardless of completion order.
        """
        if len(thunks) <= 1 or not self.parallel_shards:
            return [t() for t in thunks]
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.partitions,
                thread_name_prefix="repro-partitioned",
            )
        futures = [
            self._executor.submit(contextvars.copy_context().run, t)
            for t in thunks
        ]
        return [f.result() for f in futures]
