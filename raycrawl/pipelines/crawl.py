"""The crawl loop: frontier scheduling → fetch/extract → dedup.

Rebuilds the reference crawler's processOne loop
(the reference's test/unit/processingTests.js:48-51 pins its observable
behavior: pop → fetch → visit → store → queue children → done/abandon)
over two executors that share every kernel:

``mode='ray'`` — the continuous pull scheduler (``PullScheduler`` in
scheduler.py): the driver keeps every fetch-worker actor ~2 chunks
deep with take waves from the FrontierShard actors, with no epoch
barrier. Retries run worker-side; candidate links go straight from the
workers to their owning shards. Every 16 cycles a checkpoint drains the
pipeline, acks the workers' offers, flushes the shards' admitted spools
and advances the manifest.

``mode='local'`` — the single-process golden executor: a barriered
epoch loop (the reference's InMemory crawler mode,
lib/crawlerFactory.js:117-130) with exact traversal order, used for
the golden-parity tests:

    loop epoch e:
      take: weighted per-queue quotas from the shards
            (pop weights events 10 / immediate 3 / soon 2 / normal 3 /
             later 2 — reference lib/crawlerFactory.js:80)
      fetch+visit+sink+route+retry: the CrawlWorkerStage kernel
            (stages/fetch.py) — documents to Parquet, candidate links
            offered to the owning shard, failed rows re-queued to the
            'immediate' queue with attempt_count+1 (reference
            _retryQueue, lib/crawlerFactory.js:678) until max_attempts,
            then deadlettered (reference routes/deadletters.js); only a
            BatchStats record per batch returns
      lineage: every shard flushes its admitted rows per epoch
            (delta-store analogue, providers/storage/deltaStore.js)

Both executors enforce politeness and compute-budget benching in one
place, inside the shards' take() (FrontierShardState.
configure_politeness / set_benched): one take wave or epoch is one
logical window, each shard admits its rotating share of a host's
per-window allowance (rate × window, lowered by a robots Crawl-delay),
and overflow rows stay in the shard with not_before = the next window
start (the reference's deferral, lib/crawlerFactory.js:74).

The driver only ever holds frontier METADATA rows; page bodies live
entirely inside the fetch workers. Termination: all shards drained.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from glob import glob

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .. import wire
from ..corpus import BASE_TS_US
from ..functions.urlnorm import canonicalize_batch
from ..schemas import (
    CHILD_QUEUE,
    DEADLETTER_SCHEMA,
    FRONTIER_SCHEMA,
    LINEAGE_SCHEMA,
    METRICS_SCHEMA,
    QUEUE_WEIGHTS,
    QUEUES,
)
from ..stages.fetch import (
    BatchStats,
    CrawlWorkerStage,
    build_fetch_index,
    prepare_corpus,
    shard_split,
)
from ..state.frontier import FrontierShardState, create_shards
from ..state.politeness import PolitenessPolicy
from .scheduler import PullScheduler, wave_cap


# BatchStats counter -> metric name of its per-second series
_PERSEC_METRICS = (
    ("fetched", "fetch"),
    ("docs", "done"),
    ("offered", "offered"),
    ("admitted", "push"),
    ("failed", "abandon"),
    ("deadlettered", "deadletter"),
)


@dataclass
class CrawlConfig:
    state_dir: str
    num_shards: int = 4
    epoch_budget: int = 100_000
    max_epochs: int = 100_000
    max_attempts: int = 3
    host_rate_per_sec: float = 1e9   # politeness budget; tests lower it
    epoch_seconds: float = 1.0
    seen_filter: str = "exact"       # 'exact' | 'bloom'
    # frontier spill: max in-memory pending rows PER SHARD; beyond it
    # the coldest (depth, discovery_ts) runs spill to Parquet under
    # state_dir/spill/ and reload as the frontier drains. None = no cap.
    pending_cap: int | None = None
    seen_capacity: int = 1_000_000   # per shard (bloom)
    seen_fpr: float = 1e-3
    # 'ray': the continuous pull executor; 'local': the single-process
    # epoch loop. epoch_budget and max_epochs bind only in 'local' —
    # the pull executor sizes each take wave by its pool's free depth.
    # Both take one politeness window (epoch_seconds) per epoch or
    # take wave.
    mode: str = "ray"                # 'ray' | 'local'
    fetch_concurrency: int = 8
    # max rows per worker call. The pull executor slices a small take
    # wave finer, into ceil(wave / free workers) rows so every idle
    # worker gets a piece, but never below min(192, this).
    fetch_batch_size: int = 2048
    # pull-executor dispatch tier (BASELINE.md "dispatch ceiling" scale
    # path #2): 0 = the driver dispatches every chunk itself (measured
    # ceiling ~74 workers at 4096-url chunks); N > 0 groups the workers
    # under N NodeDispatcher actors (one per node on a real cluster)
    # and the driver dispatches LEASES of ~group_size chunks, cutting
    # its per-work-unit cost by the group factor.
    node_dispatchers: int = 0
    fetcher_cls: type | None = None  # X3 injection; None = TableFetcher
    # M5 crawl-scope filter (reference orgList, lib/crawlerFactory.js:62,
    # 633-641): when non-empty, DISCOVERED links are dropped unless
    # their host matches an entry exactly or is a subdomain of one.
    # Seeds are exempt, matching the reference (orgList gates the
    # expansion, not the operator-provided seeds).
    scope_hosts: tuple[str, ...] = ()
    # T6 adaptive compute limiter (reference computeLimiter.js:27-77,
    # charged per fetch at lib/crawlerFactory.js:306-346): each host is
    # budgeted `compute_limit_ms` of fetch-duration OVERAGE (above the
    # rolling-min baseline) per `compute_window_sec` window; an
    # exhausted host is benched until window/4. The sandbox fetch is a
    # deterministic lookup, so duration is proxied as
    # body_bytes / compute_bytes_per_ms; a fetcher that measures real
    # wall time reports it via ``elapsed_ms(row)`` and its cost rows
    # then carry measured microseconds instead (the A7 contract,
    # pinned by test_real_latency_fetcher_feeds_compute_budget).
    # 0 = off.
    compute_limit_ms: float = 0.0
    compute_window_sec: float = 15.0
    compute_bytes_per_ms: float = 1000.0
    # T7/T8 robots half: ingest http://<host>/robots.txt pages from the
    # corpus at engine construction — Crawl-delay throttles the host's
    # politeness allowance, Disallow prefixes drop discovered links in
    # the candidate path (never fetched). The crawl-delay allowance
    # binds per logical window inside the shards' take() (see
    # FrontierShardState.configure_politeness).
    respect_robots: bool = False
    # T7/T8 multi-identity fetch pool (reference tokenFactory.js:6-29,
    # limitedTokenFactory.js:19-51; caps at lib/crawlerFactory.js:68-69):
    # spec string "value#trait1,trait2;value2#..."; each worker gets its
    # own seeded pool (identity subsets are per-worker on a cluster).
    # token_traits maps request type -> ordered fallback trait sets.
    token_specs: str | None = None
    token_call_cap: int = 30
    token_call_window_sec: float = 1.0
    token_traits: dict = field(default_factory=dict)
    # reserve the first N cores for the driver + shard actors: workers
    # restrict their affinity to the remaining cores so frontier RPCs
    # are not starved by compute-bound workers. 0 = off.
    reserve_cores: int = 0
    # W3 fault tolerance: fetch workers restart up to this many times on
    # actor death (OOM, node loss) and their in-flight process_range
    # calls replay transparently (max_task_retries). Replay is
    # AT-LEAST-ONCE: a partially-completed batch may have flushed some
    # child offers (absorbed by the shards' insert-if-absent dedup) and
    # spooled some document rows (salted per-incarnation part names;
    # duplicates collapse in the last-wins `latest_documents`
    # compaction), so the crawled URL-seen SET is exact under failure —
    # only the docs/offered throughput counters can over-count by the
    # replayed fraction. Post-constructor worker state (live-config
    # deltas like set_track_host_cost) reverts to constructor values on
    # restart. 0 = fail fast (round-2 behavior).
    worker_max_restarts: int = 2
    # simulated-network corpus sharding (stages/corpus_shards.py):
    # number of url_hash-range shards (rounded up to a power of two);
    # 0 = auto (~1 shard per 512 MB of raw corpus). Only the default
    # ray path shards; local mode and injected fetchers keep the plain
    # (table, index) pair.
    corpus_shards: int = 0
    # max corpus shards a fetch worker keeps pinned at once (LRU);
    # None = unbounded (single node: every resolve is a zero-copy
    # plasma mmap, so "all shards" costs address space, not heap).
    # Set on a real cluster to bound per-node corpus footprint.
    corpus_max_resident: int | None = None
    # HARD corpus residency (the documented round-5 locality bound,
    # corpus_shards.py module docstring): route frontier rows by the
    # TOP bits of the u64 url-hash prefix — the corpus shards' range
    # function — instead of mod, and bind each frontier shard's
    # dispatch chunks to a fixed worker group. A worker then only ever
    # touches the corpus shards nested in its frontier range:
    # max(1, C/S) of them, for ANY corpus size, with zero cold-shard
    # re-pulls. Requires a power-of-two num_shards; pull executor
    # (affinity lives in its dispatch loop) without the dispatcher
    # tier (a tier lease fans chunks to any group member — per-NODE
    # residency under the tier needs one group per node, a placement
    # concern the sandbox cannot express). Changes worker visit order
    # (golden-order tests pin the default router), never the crawled
    # set.
    align_corpus_ranges: bool = False
    snapshot_id: str = "s0"
    base_ts_us: int = BASE_TS_US + 86_400_000_000  # crawl clock: corpus ts + 1d


@dataclass
class CrawlResult:
    state_dir: str
    epochs: int
    docs_written: int
    failed: int
    deadlettered: int
    seen_count: int
    seen_digest: str
    metrics: pa.Table

    @property
    def documents_dir(self) -> str:
        return os.path.join(self.state_dir, "documents")

    def documents_table(self) -> pa.Table:
        files = sorted(glob(os.path.join(self.documents_dir, "epoch=*", "*.parquet")))
        if not files:
            from ..schemas import DOCUMENT_SCHEMA

            return DOCUMENT_SCHEMA.empty_table()
        return pa.concat_tables(pq.read_table(f) for f in files)

    def deadletters_table(self) -> pa.Table:
        files = sorted(glob(os.path.join(self.state_dir, "deadletters", "*.parquet")))
        if not files:
            return DEADLETTER_SCHEMA.empty_table()
        return pa.concat_tables(pq.read_table(f) for f in files)


def build_frontier_rows(
    specs: list[dict], *, base_ts: int, depth: int = 0
) -> pa.Table:
    """Seed specs ({url, type?, queue?, policy?, payload_etag?}) →
    canonicalized frontier rows (reference seeding:
    routes/requests.js:57-81 + lib/crawlerFactory.js:633-650)."""
    urls = [s["url"] for s in specs]
    norm, digests, hosts = canonicalize_batch(urls)
    n = len(specs)
    return pa.Table.from_arrays(
        [
            pa.array(norm, pa.string()),
            pa.array(digests, pa.binary(20)),
            pa.array(hosts, pa.string()),
            pa.array([s.get("type", "page") for s in specs], pa.string()),
            pa.array([s.get("policy", "default") for s in specs], pa.string()),
            pa.array([s.get("queue", "normal") for s in specs], pa.string()),
            pa.array(
                [int(s.get("depth", depth)) for s in specs], pa.int32()
            ),
            pa.array([base_ts + i for i in range(n)], pa.int64()),
            pa.array([0] * n, pa.int32()),
            pa.array([0] * n, pa.int64()),
            pa.array([s.get("parent_urn", "") for s in specs], pa.string()),
            pa.array([s.get("relation", "") for s in specs], pa.string()),
            pa.array([s.get("payload_etag", "") for s in specs], pa.string()),
            pa.array([s.get("payload_body", "") for s in specs], pa.string()),
        ],
        schema=FRONTIER_SCHEMA,
    )


class CrawlEngine:
    def __init__(self, corpus, cfg: CrawlConfig) -> None:
        """``corpus``: the simulated network — a pa.Table, or (ray
        default path only) a parquet path/dir/list so a corpus larger
        than driver memory never materializes anywhere whole."""
        self.cfg = cfg
        if cfg.align_corpus_ranges:
            if cfg.num_shards & (cfg.num_shards - 1):
                raise ValueError(
                    "align_corpus_ranges requires a power-of-two "
                    f"num_shards, got {cfg.num_shards}"
                )
            if cfg.node_dispatchers > 0:
                raise ValueError(
                    "align_corpus_ranges + dispatcher tier is not "
                    "supported: a lease fans chunks to any group "
                    "member (see CrawlConfig.align_corpus_ranges)"
                )
            if cfg.mode != "ray":
                raise ValueError(
                    "align_corpus_ranges is a pull-executor feature "
                    "(the affinity lives in its dispatch loop); got "
                    f"mode={cfg.mode!r}"
                )
        os.makedirs(cfg.state_dir, exist_ok=True)
        self.docs_dir = os.path.join(cfg.state_dir, "documents")
        self.dead_dir = os.path.join(cfg.state_dir, "deadletters")
        os.makedirs(self.docs_dir, exist_ok=True)
        os.makedirs(self.dead_dir, exist_ok=True)
        # Default ray path: url_hash-range-SHARDED corpus (round-4
        # verdict item 1) — per-shard tables + indexes built by a
        # distributed task wave, resolved on demand by the workers; the
        # driver holds only ObjectRefs. The single-broadcast path
        # survives for mode='local' (one process, nothing to broadcast)
        # and for injected fetcher_cls (instrumented test fetchers take
        # a plain (table, index) — and a REAL injected fetcher is the
        # network itself, lib/crawlerFactory.js:240-262, needing no
        # corpus at all).
        sharded = cfg.mode == "ray" and cfg.fetcher_cls is None
        self.corpus_handle = None
        robots_rows = None
        index = None
        self._fetch_index = None
        if sharded:
            from ..stages.corpus_shards import build_sharded_corpus

            self.corpus = corpus if isinstance(corpus, pa.Table) else None
            self.corpus_handle, robots_rows = build_sharded_corpus(
                corpus,
                cfg.corpus_shards,
                max_resident=cfg.corpus_max_resident,
            )
        else:
            corpus = prepare_corpus(corpus)  # large_binary html, 1 chunk
            self.corpus = corpus
            index = build_fetch_index(corpus)
            # kept for crash recovery: resume_crawl distinguishes
            # corpus-backed suspect docs from payload-backed (event)
            # ones (the sharded path probes shard indexes instead —
            # corpus_membership())
            self._fetch_index = index
        self.politeness = PolitenessPolicy(
            host_rate_per_sec=cfg.host_rate_per_sec,
            epoch_seconds=cfg.epoch_seconds,
        )
        self.robots_rules: dict = {}
        if cfg.respect_robots:
            from ..state.politeness import parse_robots

            if robots_rows is None:
                mask = pc.ends_with(corpus.column("url"), "/robots.txt")
                robots_rows = corpus.filter(mask)
            rows = robots_rows
            for url, body in zip(
                rows.column("url").to_pylist(),
                rows.column("html").to_pylist(),
            ):
                host = url.split("://", 1)[1].split("/", 1)[0].lower()
                rules = parse_robots(body.decode("utf-8", "replace"))
                self.politeness.robots[host] = rules
                if rules.rules:  # Allow/Disallow rules, RFC 9309 match
                    self.robots_rules[host] = rules
        self.compute_budget = None
        self._benched_hosts: dict[str, int] = {}  # host -> bench_until_us
        if cfg.compute_limit_ms > 0:
            from ..state.politeness import ComputeBudget

            self.compute_budget = ComputeBudget(
                limit_ms=cfg.compute_limit_ms,
                window_sec=cfg.compute_window_sec,
            )
        # T11/X5 live config: subsystem option dicts with change hooks;
        # patches queue via patch_config() and land at the next epoch
        # (local) or pull-cycle (ray) boundary.
        from ..state.liveconfig import RefreshingConfig

        self._live = {
            "crawler": RefreshingConfig(
                {
                    "host_rate_per_sec": cfg.host_rate_per_sec,
                    "epoch_budget": cfg.epoch_budget,
                }
            ),
            "fetcher": RefreshingConfig(
                {
                    "concurrency": cfg.fetch_concurrency,
                    "compute_limit_ms": cfg.compute_limit_ms,
                }
            ),
        }
        self._live["crawler"].on_change(self._on_crawler_change)
        self._live["fetcher"].on_change(self._on_fetcher_change)
        # keys the change hooks read unconditionally — a PATCH removing
        # one would crash the hook mid-crawl, so patch_config rejects it
        # up front (the reference rejects bad PATCHes at the route and
        # the crawl continues, routes/config.js)
        self._baseline_keys = {
            sub: frozenset(c.values) for sub, c in self._live.items()
        }
        self._pending_patches: list[dict] = []
        self._epoch_callbacks: list = []
        self._cached_counts = None  # per-epoch counts piggybacked on flush
        self._route_refs: list = []     # pull mode: in-flight shard RPCs
        self.scheduler: PullScheduler | None = None  # the running pull loop
        self._metrics_rows: list[dict] = []
        # lifecycle event log: append to any prior engine's trace on
        # this state_dir (resume/recrawl post-mortems see the events of
        # the run that died, like the reference's persistent insights)
        self._trace_rows: list[dict] = []
        trace_path = os.path.join(cfg.state_dir, "trace.parquet")
        if os.path.exists(trace_path):
            self._trace_rows = pq.read_table(trace_path).to_pylist()
        # (name, wall second) -> count; see _absorb
        self._persec: dict[tuple[str, int], int] = {}
        self._lineage_rows: list[dict] = []
        # run totals of the workers' BatchStats counters
        self._totals = dict.fromkeys(
            ("docs", "offered", "admitted", "failed", "deadlettered",
             "unchanged"),
            0,
        )

        if cfg.mode == "ray":
            import ray

            if self.corpus_handle is not None:
                # sharded path: workers receive the handle (refs only)
                # and resolve shards lazily inside the fetcher
                self.corpus_ref = self.corpus_handle
                self.index_ref = None
            else:
                # injected-fetcher path: prepared ONCE above so
                # per-actor fetcher wrapping is zero-copy instead of a
                # per-actor concatenation/cast
                self.corpus_ref = ray.put(corpus)
                self.index_ref = ray.put(index)
            self.shards = create_shards(
                cfg.num_shards,
                seen_kind=cfg.seen_filter,
                seen_capacity=cfg.seen_capacity,
                seen_fpr=cfg.seen_fpr,
                state_dir=cfg.state_dir,
                snapshot_id=cfg.snapshot_id,
                pending_cap=cfg.pending_cap,
            )
            # never request more CPU-reserving actors than the cluster
            # has — a pool larger than the CPU count leaves actors
            # pending forever and the crawl waits on them
            self._total_cpus = int(ray.cluster_resources().get("CPU", 1))
            self.workers = [
                self._spawn_worker(wi)
                for wi in range(self._clamp_pool(cfg.fetch_concurrency))
            ]
            # target pool size of a live /fetcher/concurrency patch,
            # applied by the pull loop at its next checkpoint
            self._pool_target = len(self.workers)
            # Block until every shard and worker has finished its
            # __init__ (a whole-table corpus ref resolves there, and
            # each actor finishes pyarrow's lazy pandas import,
            # wire.warm). Spawning 30+ actor processes costs seconds of
            # interpreter startup; paying it at construction keeps
            # cold-start out of the crawl itself — on a real cluster
            # this is pool provisioning, like ray.init.
            ray.get(
                [s.counts.remote() for s in self.shards]
                + [w.ping.remote() for w in self.workers]
            )
        else:
            self.shards = [
                FrontierShardState(
                    i,
                    cfg.num_shards,
                    seen_kind=cfg.seen_filter,
                    seen_capacity=cfg.seen_capacity,
                    seen_fpr=cfg.seen_fpr,
                    state_dir=cfg.state_dir,
                    snapshot_id=cfg.snapshot_id,
                    pending_cap=cfg.pending_cap,
                )
                for i in range(cfg.num_shards)
            ]
            self._local_worker = CrawlWorkerStage(
                corpus,
                index,
                self.shards,
                docs_dir=self.docs_dir,
                max_attempts=cfg.max_attempts,
                dead_dir=self.dead_dir,
                fetcher_cls=cfg.fetcher_cls,
                scope_hosts=cfg.scope_hosts,
                robots_rules=self.robots_rules,
                track_host_cost=cfg.compute_limit_ms > 0,
                compute_bytes_per_ms=cfg.compute_bytes_per_ms,
                range_route=cfg.align_corpus_ranges,
                token_specs=cfg.token_specs,
                token_call_cap=cfg.token_call_cap,
                token_call_window_sec=cfg.token_call_window_sec,
                token_traits=cfg.token_traits,
            )
        self._trace(
            "engine_start",
            mode=cfg.mode,
            num_shards=cfg.num_shards,
            workers=len(getattr(self, "workers", []) or []),
            corpus_shards=(
                self.corpus_handle.num_shards if self.corpus_handle else 0
            ),
            snapshot_id=cfg.snapshot_id,
        )

    def _trace(self, event: str, **detail) -> None:
        """Trace-level lifecycle event (reference mockInsights
        trackTrace/trackEvent, providers/logger/mockInsights.js:20-60):
        buffered on the driver, persisted to state_dir/trace.parquet
        with every metrics flush and at abort time — so a post-mortem
        of a dead crawl sees the events leading up to the failure."""
        import json as _json
        import time as _time

        self._trace_rows.append(
            {
                "ts_us": _time.time_ns() // 1_000,
                "event": event,
                "detail": _json.dumps(detail, sort_keys=True, default=str),
            }
        )

    def _write_trace(self) -> None:
        from ..schemas import TRACE_SCHEMA

        rows = self._trace_rows
        table = (
            pa.Table.from_pylist(rows, schema=TRACE_SCHEMA)
            if rows
            else TRACE_SCHEMA.empty_table()
        )
        tmp = os.path.join(self.cfg.state_dir, ".trace.parquet.tmp")
        pq.write_table(table, tmp)
        os.replace(tmp, os.path.join(self.cfg.state_dir, "trace.parquet"))

    def _clamp_pool(self, want: int) -> int:
        return max(1, min(int(want), self._total_cpus))

    def _spawn_worker(self, wi: int):
        """One fetch-worker actor (ray mode). Factored out so the live
        config's pool-resize (the AMQP credit-resize analogue,
        amqp10Queue.js:303-310) can grow the pool mid-crawl.

        The crawl drives persistent actors rather than a Ray Data
        ``map_batches`` stage on purpose: a Dataset's schema peek
        re-executes a prefix of the plan, so a SIDE-EFFECTING stage
        (offers, retries, deadletter writes) runs twice, and its actor
        pool is torn down after every execution while the crawl is
        iterative (both re-checked on ray 2.49.2). Every non-iterative
        pipeline (analytics.py, textops.py) stays on Dataset."""
        import ray

        cfg = self.cfg
        total = self._total_cpus
        pin = ()
        if cfg.reserve_cores > 0 and total > cfg.reserve_cores + 1:
            pin = tuple(range(cfg.reserve_cores, total))
        worker_cls = ray.remote(
            num_cpus=1,
            max_restarts=cfg.worker_max_restarts,
            # retry an in-flight call once per allowed restart — bounded
            # by max_restarts, so a poison batch cannot loop forever
            max_task_retries=(-1 if cfg.worker_max_restarts else 0),
        )(CrawlWorkerStage)
        return worker_cls.remote(
            self.corpus_ref,
            self.index_ref,
            self.shards,
            docs_dir=self.docs_dir,
            max_attempts=cfg.max_attempts,
            dead_dir=self.dead_dir,
            fetcher_cls=cfg.fetcher_cls,
            scope_hosts=cfg.scope_hosts,
            robots_rules=self.robots_rules,
            track_host_cost=cfg.compute_limit_ms > 0,
            compute_bytes_per_ms=cfg.compute_bytes_per_ms,
            range_route=cfg.align_corpus_ranges,
            pin_cpu=pin,
            token_specs=cfg.token_specs,
            token_call_cap=cfg.token_call_cap,
            token_call_window_sec=cfg.token_call_window_sec,
            token_traits=cfg.token_traits,
            token_seed=wi,
        )

    def corpus_membership(self, digests: list[bytes]) -> np.ndarray:
        """Found-mask: is each url-hash digest fetchable from the
        corpus? Crash recovery's suspect-doc classification. Sharded
        path: per-shard INDEX probes (bodies never move); legacy paths:
        the driver-held whole-corpus index."""
        if self.corpus_handle is not None:
            return self.corpus_handle.membership(digests)
        from ..stages.fetch import index_lookup

        return index_lookup(self._fetch_index, digests)[0]

    def close(self) -> None:
        """Tear down the actor pools deterministically. Two live ray
        engines deadlock on CPU slots (the second's blocking warm-up in
        ``__init__`` waits for workers the first still holds), so
        benchmarks/scripts that build engines in a loop MUST close the
        previous engine (or let it go fully out of scope) first."""
        if self.cfg.mode != "ray":
            return
        import ray

        for a in list(getattr(self, "workers", [])) + list(self.shards):
            try:
                ray.kill(a, no_restart=True)
            except Exception:
                pass
        self.workers = []
        self.shards = []

    # -- live config (T11/X5; reference routes/config.js:12-50) ------------

    def patch_config(self, patches) -> None:
        """Queue a config PATCH; it lands at the NEXT epoch (or pull
        cycle) boundary so every cycle runs under one consistent
        snapshot — except a ``/fetcher/concurrency`` pool resize, which
        the pull executor applies at its next checkpoint, when nothing
        is in flight and every offer is acked. Accepts the reference's
        flat op list (``[{"op", "path", "value"}]``, paths like
        ``/crawler/host_rate_per_sec``) or a convenience dict
        ``{"crawler": {"host_rate_per_sec": 50}}``.

        Validation is EAGER (the reference rejects an invalid PATCH at
        the route while the crawl continues, routes/config.js): unknown
        subsystems, unsupported ops, malformed paths, and removal of
        hook-read baseline keys raise HERE, so _apply_config_patches —
        which runs mid-crawl — is infallible and a bad request can
        never abort a running crawl or drop sibling patches. A pool
        resize under the dispatcher tier (node_dispatchers > 0) is
        rejected: the tier's worker groups are fixed for a run. So is
        ``/crawler/epoch_budget`` under ``mode='ray'``, where the pull
        executor sizes its take waves by pool depth and never reads
        it."""
        if isinstance(patches, dict):
            patches = [
                {"op": "replace", "path": f"/{sub}/{key}", "value": v}
                for sub, vals in patches.items()
                for key, v in vals.items()
            ]
        from ..state.liveconfig import collect_patches

        try:
            grouped = collect_patches(patches)
        except (KeyError, IndexError, TypeError) as exc:
            raise ValueError(f"malformed config patch: {exc!r}") from exc
        for sub, ops in grouped.items():
            if sub not in self._live:
                raise ValueError(f"unknown config subsystem: {sub!r}")
            for op_ in ops:
                op = op_.get("op", "replace")
                if op not in ("add", "replace", "remove"):
                    raise ValueError(f"unsupported patch op: {op!r}")
                key = op_["path"].lstrip("/")
                if not key:
                    raise ValueError(
                        f"patch path names no key in {sub!r}"
                    )
                if op == "remove" and key in self._baseline_keys[sub]:
                    raise ValueError(
                        f"cannot remove baseline config key "
                        f"{sub}/{key} (change hooks depend on it)"
                    )
                if (sub, key) == ("fetcher", "concurrency") and (
                    self.cfg.node_dispatchers > 0
                ):
                    raise ValueError(
                        "cannot resize the fetch pool under the "
                        "dispatcher tier (node_dispatchers > 0)"
                    )
                if (sub, key) == ("crawler", "epoch_budget") and (
                    self.cfg.mode == "ray"
                ):
                    raise ValueError(
                        "epoch_budget binds only in mode='local'; the "
                        "pull executor never reads it"
                    )
        self._pending_patches.extend(patches)

    def on_epoch(self, callback) -> None:
        """Register a per-epoch hook ``cb(engine, epoch, stats)`` —
        the monitoring/ops surface tests and dashboards use (the
        reference's change-listener analogue). ``mode='local'`` calls
        it after every epoch; the pull executor calls it once per
        checkpoint with that interval's counters, the cycle label as
        ``epoch`` and the same stats keys."""
        self._epoch_callbacks.append(callback)

    def config_snapshot(self) -> dict:
        """GET /config analogue (routes/config.js:20-28)."""
        return {sub: dict(c.values) for sub, c in self._live.items()}

    def _apply_config_patches(self) -> bool:
        """Apply queued patches; returns True when any landed (both
        executors then re-sync the shards' politeness gate)."""
        if not self._pending_patches:
            return False
        from ..state.liveconfig import collect_patches

        grouped = collect_patches(self._pending_patches)
        self._pending_patches = []
        for sub, ops in grouped.items():
            if sub not in self._live:
                raise ValueError(f"unknown config subsystem: {sub!r}")
            self._live[sub].apply(ops)
        self._trace("config_patch", subsystems=sorted(grouped))
        return True

    def _sync_politeness(self) -> None:
        """Push the current politeness window config to the frontier
        shards, whose take() runs the gate for both executors
        (FrontierShardState.configure_politeness). One local epoch or
        one pull cycle is one logical window. An allowance at or above
        the most rows one window can take can never defer a row, so the
        unbounded headline config pushes allowance=None and the shards
        keep their gate-free take fast path. That cap is the take-wave
        cap (scheduler.wave_cap) under 'ray'; under 'local' it is
        epoch_budget plus one row per queue and per (queue, shard),
        which _quotas' rounding up can add."""
        pol = self.politeness
        cfg = self.cfg
        if cfg.mode == "ray":
            cap = wave_cap(cfg.fetch_batch_size, len(self.workers))
        else:
            cap = cfg.epoch_budget + len(QUEUES) * (cfg.num_shards + 1)
        base = max(1, int(pol.host_rate_per_sec * pol.epoch_seconds))
        overrides = {
            h: pol.allowance(h)
            for h, r in pol.robots.items()
            if r.crawl_delay
        }
        bounded = base < cap or any(v < cap for v in overrides.values())
        self._call(
            "configure_politeness",
            epoch_us=int(cfg.epoch_seconds * 1e6),
            allowance=base if bounded else None,
            overrides=overrides if bounded else None,
        )

    def _push_benched(self, now_us: int) -> None:
        """T6: push the benched hosts (expired entries dropped) to the
        shards, whose take()-side gate defers their rows until
        bench_until. Benching binds from the next take. Fire-and-forget
        under 'ray', settled with the other routing RPCs."""
        self._benched_hosts = {
            h: u for h, u in self._benched_hosts.items() if u > now_us
        }
        if self.cfg.mode == "ray":
            self._route_refs.extend(
                s.set_benched.remote(self._benched_hosts)
                for s in self.shards
            )
        else:
            for s in self.shards:
                s.set_benched(self._benched_hosts)

    def load_etag_index(self, docs: pa.Table) -> None:
        """Install a prior run's (url_hash, etag) map for conditional
        fetches (incremental re-crawl): hash-split once by the workers'
        shard router, one RPC per shard — each shard holds only its
        slice (docs/num_shards rows), exactly how a multi-node cluster
        would hold a 10^10-doc etag store. Shards stamp payload_etag on
        admitted rows; the fetch stage 304s unchanged bodies."""
        cfg = self.cfg
        refs = []
        for sid, sub in shard_split(
            docs, cfg.num_shards, cfg.align_corpus_ranges
        ):
            hashes = sub.column("url_hash").to_pylist()
            etags = sub.column("etag").to_pylist()
            if cfg.mode == "ray":
                refs.append(
                    self.shards[sid].load_etag_index.remote(hashes, etags)
                )
            else:
                self.shards[sid].load_etag_index(hashes, etags)
        if refs:
            import ray

            ray.get(refs)

    def _set_worker_host_cost(self, on: bool) -> None:
        if self.cfg.mode == "ray":
            import ray

            ray.get(
                [w.set_track_host_cost.remote(on) for w in self.workers]
            )
        elif hasattr(self, "_local_worker"):
            self._local_worker.set_track_host_cost(on)

    def _on_crawler_change(self, patches: list[dict]) -> None:
        vals = self._live["crawler"].values
        self.politeness.host_rate_per_sec = float(
            vals["host_rate_per_sec"]
        )
        self.cfg.epoch_budget = int(vals["epoch_budget"])

    def _on_fetcher_change(self, patches: list[dict]) -> None:
        vals = self._live["fetcher"].values
        limit = float(vals["compute_limit_ms"])
        if limit > 0:
            from ..state.politeness import ComputeBudget

            if self.compute_budget is None:
                self.compute_budget = ComputeBudget(
                    limit_ms=limit, window_sec=self.cfg.compute_window_sec
                )
                self._set_worker_host_cost(True)
            else:
                self.compute_budget.limit_ms = limit
        elif self.compute_budget is not None:
            self.compute_budget = None
            self._set_worker_host_cost(False)
        # pool resize (credit-resize analogue, amqp10Queue.js:303-310):
        # recorded here, applied by the pull loop at its next checkpoint
        if self.cfg.mode == "ray":
            self._pool_target = self._clamp_pool(vals["concurrency"])

    # -- shard RPC helpers (transparent local/ray) -------------------------

    def _call(self, method: str, *args, **kw):
        if self.cfg.mode == "ray":
            import ray

            return ray.get(
                [getattr(s, method).remote(*args, **kw) for s in self.shards]
            )
        return [getattr(s, method)(*args, **kw) for s in self.shards]

    def _route(self, rows: pa.Table, method: str) -> int:
        """Driver-side routing for small row sets (seeds, resume
        replay); bulk candidate routing happens inside the
        distributed stage. Uses the same vectorized splitter as the
        workers (single-owner invariant); shard actors get each part
        as a ``wire.dump`` buffer, as from the workers."""
        if rows.num_rows == 0:
            return 0
        cfg = self.cfg
        parts = list(
            shard_split(rows, cfg.num_shards, cfg.align_corpus_ranges)
        )
        if cfg.mode == "ray":
            import ray

            return sum(
                ray.get(
                    [
                        getattr(self.shards[sid], method).remote(
                            wire.dump(sub)
                        )
                        for sid, sub in parts
                    ]
                )
            )
        return sum(
            getattr(self.shards[sid], method)(sub) for sid, sub in parts
        )

    # -- seeding -----------------------------------------------------------

    def seed(self, specs: list[dict]) -> int:
        rows = build_frontier_rows(specs, base_ts=self.cfg.base_ts_us)
        return self._route(rows, "offer")

    def _seed_parallel(self, specs: list[dict]) -> int:
        """Seed via the worker pool when the list is large and uniform:
        each worker canonicalizes + offers one chunk (seed_chunk),
        preserving global discovery_ts order via per-chunk offsets.
        Falls back to the driver-side seed() for small or mixed lists.
        Cuts the driver's sequential canonicalize+route constant (~2-4 s
        at 80k seeds) to one parallel wave."""
        uniform = (
            len(specs) >= 4096
            and self.workers
            and all(
                s.get("type", "page") == "page"
                and s.get("policy", "default") == "default"
                and s.get("queue", "normal") == "normal"
                and not s.get("payload_etag")
                and not s.get("parent_urn")
                for s in specs
            )
        )
        if not uniform:
            return self.seed(specs)
        import ray

        urls = [s["url"] for s in specs]
        n = len(urls)
        w = len(self.workers)
        chunk = math.ceil(n / w)
        refs = [
            self.workers[i].seed_chunk.remote(
                urls[i * chunk : (i + 1) * chunk],
                self.cfg.base_ts_us + i * chunk,
            )
            for i in range(w)
            if i * chunk < n
        ]
        # fire-and-forget: the crawl loop starts immediately and picks
        # up seeds as their offers land in the shards (the first refill
        # polls counts anyway). Blocking here was a measured ~5 s
        # constant at 60k seeds — identical at every cluster size,
        # exactly the Amdahl term the scaling bar punishes. The refs
        # are settled with the other in-flight routing RPCs.
        self._route_refs.extend(refs)
        return -1

    # -- scheduling --------------------------------------------------------

    def _quotas(
        self, shard_counts: list[dict[str, int]], budget: int | None = None
    ):
        """Weighted split of the epoch budget across queue classes
        (reference QueueSet pop weights, lib/crawlerFactory.js:80),
        then proportional split across shards."""
        totals = {q: sum(c.get(q, 0) for c in shard_counts) for q in QUEUES}
        active = [q for q in QUEUES if totals[q] > 0]
        if not active:
            return None, 0
        if budget is None:
            budget = self.cfg.epoch_budget
        wsum = sum(QUEUE_WEIGHTS[q] for q in active)
        quota: dict[str, int] = {}
        for q in active:
            quota[q] = min(
                totals[q], math.ceil(budget * QUEUE_WEIGHTS[q] / wsum)
            )
        # redistribute leftover budget in priority order (events first)
        leftover = budget - sum(quota.values())
        for q in active:
            if leftover <= 0:
                break
            extra = min(leftover, totals[q] - quota[q])
            quota[q] += extra
            leftover -= extra
        # per-shard proportional quotas
        per_shard = []
        for c in shard_counts:
            sq = {}
            for q in active:
                if totals[q] == 0 or quota[q] == 0:
                    continue
                share = math.ceil(quota[q] * c.get(q, 0) / totals[q])
                if share > 0:
                    sq[q] = share
            per_shard.append(sq)
        return per_shard, sum(totals.values())

    # -- epoch body --------------------------------------------------------

    def _process(
        self, epoch_table: pa.Table, epoch: int, now_us: int
    ) -> list[BatchStats]:
        chunk = self.cfg.fetch_batch_size
        self._local_worker.set_epoch(epoch, now_us)
        return [
            self._local_worker(epoch_table.slice(off, chunk))
            for off in range(0, epoch_table.num_rows, chunk)
        ]

    def _epoch(self, epoch: int, now_us: int) -> dict:
        counts = self._cached_counts
        if counts is None:
            counts = self._call("counts")
        self._cached_counts = None
        per_shard, pending = self._quotas(counts)
        stats = {"pending": pending, "taken": 0, "deferred": 0, "docs": 0,
                 "offered": 0, "admitted": 0, "failed": 0, "unchanged": 0,
                 "deadlettered": 0}
        if pending == 0:
            return stats
        # the shards' take() defers over-allowance and benched hosts
        # (see _sync_politeness); their defer counter is the only ledger
        defer0 = sum(s.metrics["defer"] for s in self.shards)
        takes = [s.take(q, now_us) for s, q in zip(self.shards, per_shard)]
        stats["deferred"] = (
            sum(s.metrics["defer"] for s in self.shards) - defer0
        )
        taken = [t for t in takes if t.num_rows]
        if not taken:
            return stats  # everything deferred; caller advances the clock
        epoch_table = pa.concat_tables(taken)
        # priority sort matters only when the epoch is budget-limited
        # (which rows go first); when the whole frontier fits, skip the
        # O(n log n) driver sort
        if epoch_table.num_rows < pending:
            order = pc.sort_indices(
                epoch_table,
                sort_keys=[
                    ("depth", "ascending"),
                    ("discovery_ts", "ascending"),
                    ("url", "ascending"),
                ],
            )
            epoch_table = epoch_table.take(order)
        stats["taken"] = epoch_table.num_rows

        batches = self._process(epoch_table, epoch, now_us)
        got, benched = self._absorb(batches, now_us)
        stats.update(got)
        if benched:
            self._push_benched(now_us)
        return stats

    # -- run loop ----------------------------------------------------------

    def run(
        self,
        seeds: list[dict] | None = None,
        *,
        start_epoch: int = 0,
        max_urls: int | None = None,
    ) -> CrawlResult:
        """Run the crawl to completion (or ``max_urls``): the pull
        executor in ray mode, the epoch loop in local mode.

        Failure domains: fetch WORKERS restart transparently
        (worker_max_restarts, at-least-once replay). A frontier SHARD
        death is not maskable in-flight (it holds seen-filter + pending
        state), so it surfaces as RayActorError — the on-disk
        checkpoint (admitted spools + WAL-ordered manifest) stays
        consistent, and ``resume_crawl(corpus, cfg)`` on the same
        state_dir converges to the exact same crawl (tested under
        SIGKILL)."""
        cfg = self.cfg
        if cfg.mode == "ray":
            # held only while it runs: the scheduler refers back to the
            # engine, and a lasting cycle would keep the actor handles
            # alive after the engine goes out of scope
            self.scheduler = PullScheduler(self, max_urls, start_epoch)
            try:
                label = self.scheduler.run(seeds)
            finally:
                self.scheduler = None
            return self._finish(label, cycles=label)
        self._trace(
            "crawl_start", executor="epochs",
            seeds=len(seeds or []), start_epoch=start_epoch,
        )
        self._sync_politeness()
        if seeds:
            self.seed(seeds)
        epoch = start_epoch
        epoch_us = int(cfg.epoch_seconds * 1e6)
        clock_us = cfg.base_ts_us + epoch * epoch_us
        processed = 0
        while epoch < cfg.max_epochs:
            if self._apply_config_patches():  # T11/X5: epoch boundary
                self._sync_politeness()
            stats = self._epoch(epoch, clock_us)
            for cb in self._epoch_callbacks:
                cb(self, epoch, stats)
            if stats["pending"] == 0:
                break
            if stats["taken"] == 0:
                clock_us = self._idle_clock(clock_us)
                if clock_us is None:
                    break
                epoch += 1
                continue
            self._record_epoch(epoch, stats)
            processed += stats["taken"]
            epoch += 1
            clock_us += epoch_us
            self._write_manifest(epoch - 1, completed=False)
            if max_urls is not None and processed >= max_urls:
                break
        return self._finish(epoch, epochs=epoch)

    def _idle_clock(self, clock_us: int) -> int | None:
        """Idle tick for both executors, when every pending row is
        deferred: jump the clock at least one window, to the earliest
        not_before (pollingDelay analogue). None when nothing is
        deferred."""
        nbs = [x for x in self._call("min_not_before") if x is not None]
        if not nbs:
            return None
        return max(clock_us + int(self.cfg.epoch_seconds * 1e6), min(nbs))

    def _finish(self, label: int, **stop):
        """Close a crawl: the shards' cumulative counters (spill
        round-trips, bounces, politeness deferrals) as final metric
        rows — the shards' own ledger, not the driver's — then metrics,
        lineage, trace, the seen-set digest and the completed
        manifest."""
        import hashlib

        for name in ("spilled", "unspilled", "bounce", "defer"):
            total = sum(
                m.get(name, 0)
                for m in getattr(self, "_last_shard_metrics", [])
            )
            self._metrics_rows.append(
                {"epoch": label, "name": name, "value": total}
            )
        self._flush_persec_rows()
        tot = self._totals
        self._trace(
            "crawl_stop", docs=tot["docs"], failed=tot["failed"],
            deadlettered=tot["deadlettered"], **stop,
        )
        metrics = self._metrics_table()
        self._write_tables(metrics)
        seen_counts = self._call("seen_count")
        digests = self._call("seen_digest")
        self._write_manifest(label, completed=True)
        return CrawlResult(
            state_dir=self.cfg.state_dir,
            epochs=label,
            docs_written=tot["docs"],
            failed=tot["failed"],
            deadlettered=tot["deadlettered"],
            seen_count=sum(seen_counts),
            seen_digest=hashlib.sha1("".join(digests).encode()).hexdigest(),
            metrics=metrics,
        )

    def _ingest_lineage(self, lineage: list[dict], epoch: int) -> None:
        self._last_shard_metrics = [rec["metrics"] for rec in lineage]
        for rec in lineage:
            self._lineage_rows.append(
                {
                    "frontier_epoch": epoch,
                    "shard_id": rec["shard_id"],
                    "filter_snapshot_id": rec["filter_snapshot_id"],
                    "admitted": rec["admitted"],
                    "op_ts": 0,
                }
            )

    # -- bookkeeping -------------------------------------------------------

    def _record_epoch(self, epoch: int, stats: dict) -> None:
        lineage = self._call("flush_epoch", epoch)
        self._cached_counts = [rec["counts"] for rec in lineage]
        self._ingest_lineage(lineage, epoch)
        self._record_stats(epoch, stats)

    def _record_stats(self, label: int, stats: dict) -> None:
        """Counter rows under the reference's metric names; the pull
        executor records its run totals once. Deferrals are shard
        counters (see _finish)."""
        for key, metric in (
            ("taken", "fetch"),
            ("docs", "done"),
            ("failed", "abandon"),
            ("admitted", "push"),
            ("offered", "offered"),
            ("unchanged", "unchanged"),
            ("deadlettered", "deadletter"),
        ):
            if key in stats:
                self._metrics_rows.append(
                    {"epoch": label, "name": metric, "value": stats[key]}
                )

    def _absorb(
        self, batches: list[BatchStats], now_us: int
    ) -> tuple[dict, bool]:
        """Fold worker BatchStats records into the engine — the one
        decode both executors share. Adds them to the run totals and to
        the per-second series (reference redis-metrics with
        timeGranularity 'second', lib/crawlerFactory.js:264-277:
        _flush_persec_rows emits them with a 'sec:' name prefix and
        epoch=-1, so consumers summing bare names never double-count),
        and charges host costs to the T6 compute budget. Returns these
        batches' summed counters and whether any host's bench_until in
        ``_benched_hosts`` changed."""
        got = dict.fromkeys(self._totals, 0)
        budget = self.compute_budget
        changed = False
        for b in batches:
            for key in got:
                got[key] += getattr(b, key)
            for attr, name in _PERSEC_METRICS:
                v = getattr(b, attr)
                if v:
                    sec = (name, b.second)
                    self._persec[sec] = self._persec.get(sec, 0) + v
            if budget is None:
                continue
            for h, ms in b.host_cost_ms.items():
                until = budget.consume(h, ms, now_us)
                if until is not None and self._benched_hosts.get(h) != until:
                    self._benched_hosts[h] = until
                    changed = True
        for key, v in got.items():
            self._totals[key] += v
        return got, changed

    def _flush_persec_rows(self) -> None:
        for (name, sec), v in sorted(self._persec.items()):
            self._metrics_rows.append(
                {"epoch": -1, "name": f"sec:{name}", "second": sec,
                 "value": v}
            )
        self._persec = {}

    def _metrics_table(self) -> pa.Table:
        if not self._metrics_rows:
            return METRICS_SCHEMA.empty_table()
        return pa.Table.from_pylist(self._metrics_rows, schema=METRICS_SCHEMA)

    def _write_tables(self, metrics: pa.Table) -> None:
        self._write_trace()
        pq.write_table(
            metrics, os.path.join(self.cfg.state_dir, "metrics.parquet")
        )
        lineage = (
            pa.Table.from_pylist(self._lineage_rows, schema=LINEAGE_SCHEMA)
            if self._lineage_rows
            else LINEAGE_SCHEMA.empty_table()
        )
        pq.write_table(
            lineage, os.path.join(self.cfg.state_dir, "lineage.parquet")
        )

    def _write_manifest(self, last_epoch: int, *, completed: bool) -> None:
        manifest = {
            "last_epoch": last_epoch,
            "completed": completed,
            "snapshot_id": self.cfg.snapshot_id,
            "num_shards": self.cfg.num_shards,
            "seen_filter": self.cfg.seen_filter,
        }
        tmp = os.path.join(self.cfg.state_dir, ".manifest.json.tmp")
        with open(tmp, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp, os.path.join(self.cfg.state_dir, "manifest.json"))


def resume_crawl(corpus: pa.Table, cfg: CrawlConfig) -> CrawlResult:
    """Resume an interrupted crawl from on-disk state (north rule):
    rebuild every shard's URL-seen filter by replaying lineage —
    processed keys (documents + deadletters) are marked seen first,
    then all admitted rows are re-offered: already-processed rows
    bounce off the filter, unprocessed rows re-enter the pending heaps.
    The rebuilt seen set is IDENTICAL to the pre-kill set (asserted in
    tests via seen_digest). Deviation (documented): in-flight retry
    counters and deferrals reset to the admitted-time row state.
    """
    with open(os.path.join(cfg.state_dir, "manifest.json")) as f:
        manifest = json.load(f)
    engine = CrawlEngine(corpus, cfg)

    # Crash-window recovery: the manifest only advances after a cycle's
    # admitted spools are durable (WAL order), so docs under
    # epoch dirs > last_epoch are SUSPECT — they were processed, but the
    # admissions their processing produced (their children) may have
    # died in shard memory. Marking a suspect doc seen would orphan
    # those children forever (nothing else re-offers them). Instead the
    # suspect docs are RE-OFFERED as frontier rows carrying their stored
    # etag: the T9 conditional-fetch path 304s them (no duplicate doc
    # row) while still extracting and offering their children, which
    # bounce off the seen filter when already processed. Deviations on
    # the suspect window only (bounded by the flush cadence): queue
    # resets to CHILD_QUEUE, traversal policy to 'default', and
    # collection-page URNs lose their parent chain (page corpora derive
    # urns from the url, so only entity crawls notice).
    last_epoch = int(manifest["last_epoch"])

    def _doc_epoch(path: str) -> int:
        return int(os.path.basename(os.path.dirname(path)).split("=", 1)[1])

    doc_files = sorted(
        glob(os.path.join(cfg.state_dir, "documents", "epoch=*", "*.parquet"))
    )
    suspect_files = [f for f in doc_files if _doc_epoch(f) > last_epoch]
    processed_files = [
        f for f in doc_files if _doc_epoch(f) <= last_epoch
    ] + sorted(glob(os.path.join(cfg.state_dir, "deadletters", "*.parquet")))
    if processed_files:
        # one vectorized shard split over ALL processed keys (the same
        # uint64-prefix router the workers use), one mark_seen RPC per
        # shard — the earlier per-file per-digest Python loop would
        # take hours at 10^10 keys
        processed = pa.concat_tables(
            pq.read_table(f, columns=["url_hash"])
            for f in processed_files
        ).combine_chunks()
        refs = []
        for sid, sub in shard_split(
            processed, cfg.num_shards, cfg.align_corpus_ranges
        ):
            if cfg.mode == "ray":
                refs.append(engine.shards[sid].mark_seen.remote(
                    wire.dump(sub.select(["url_hash"]))
                ))
            else:
                engine.shards[sid].mark_seen(sub.column("url_hash"))
        if refs:
            import ray

            ray.get(refs)

    if suspect_files:
        # offered BEFORE the admitted-spool replay (_route is
        # synchronous): the etag-carrying suspect row must win the
        # shards' insert-if-absent dedup over its own earlier spooled
        # admission, so the re-visit 304s instead of re-writing the doc
        suspect = pa.concat_tables(
            pq.read_table(
                f, columns=["url", "url_hash", "type", "depth", "etag",
                            "body"]
            )
            for f in suspect_files
        )
        # ADVICE r3 (medium): payload-backed (event-delivered) docs have
        # no corpus row — re-offered as plain fetchable rows they would
        # 404 → deadletter and their unflushed children stay orphaned,
        # exactly the gap this recovery closes for corpus pages. The doc
        # spool persists their payload body, so suspect rows ABSENT from
        # the corpus re-offer with payload_body (zero-fetch) + stored
        # etag: the 304 path re-traverses their children identically.
        in_corpus = engine.corpus_membership(
            suspect.column("url_hash").to_pylist()
        )
        specs = [
            {
                "url": u,
                "type": t,
                "depth": d,
                "queue": CHILD_QUEUE,
                "payload_etag": e or "",
                "payload_body": "" if inc else (b or ""),
            }
            for u, t, d, e, b, inc in zip(
                suspect.column("url").to_pylist(),
                suspect.column("type").to_pylist(),
                suspect.column("depth").to_pylist(),
                suspect.column("etag").to_pylist(),
                suspect.column("body").to_pylist(),
                in_corpus,
            )
        ]
        engine._route(
            build_frontier_rows(specs, base_ts=cfg.base_ts_us), "offer"
        )

    admitted_files = sorted(
        glob(os.path.join(cfg.state_dir, "admitted", "epoch=*", "*.parquet"))
    )
    for f in admitted_files:
        engine._route(pq.read_table(f), "offer")

    engine._trace(
        "resume", last_epoch=last_epoch,
        suspect_files=len(suspect_files),
        processed_files=len(processed_files),
        admitted_files=len(admitted_files),
    )
    return engine.run(start_epoch=last_epoch + 1)


def recrawl(
    corpus: pa.Table, cfg: CrawlConfig, seeds: list[dict]
) -> CrawlResult:
    """Incremental re-crawl against an existing state_dir (reference
    tracker-TTL + etag store: an expired tracker lets the same URL
    queue again, and the fetcher's etag store turns unchanged bodies
    into 304s — config ttl + githubFetcher etag path). Composition:

    1. a NEW filter snapshot (next snapshot_id) so every URL is
       re-admittable — the documented snapshot analogue of the
       reference's tracker TTL expiry;
    2. the prior run's compacted (url_hash, etag) map is hash-split to
       the frontier shards (load_etag_index) so offered rows carry
       their prior etag;
    3. unchanged bodies 304 (no new document version, children still
       traverse), changed bodies write new versions that
       ``latest_documents`` compaction upserts (D3 last-write-wins).

    The crawl result's ``docs_written`` is exactly the changed-doc
    count; the ``unchanged`` metric carries the 304 count."""
    import dataclasses

    from ..api import latest_documents

    with open(os.path.join(cfg.state_dir, "manifest.json")) as f:
        manifest = json.load(f)
    prior_snap = str(manifest.get("snapshot_id", cfg.snapshot_id))
    digits = "".join(c for c in prior_snap if c.isdigit())
    next_snap = (
        prior_snap.rstrip("0123456789") + str(int(digits) + 1)
        if digits
        else prior_snap + ".1"
    )
    prior = latest_documents(cfg.state_dir)
    # advance the logical clock past the prior run so the new versions'
    # processed_at strictly dominates in last-write-wins compaction
    base_ts = cfg.base_ts_us
    if prior.num_rows:
        base_ts = max(
            base_ts,
            int(pc.max(prior.column("processed_at")).as_py())
            + int(cfg.epoch_seconds * 1e6),
        )
    cfg = dataclasses.replace(
        cfg, snapshot_id=next_snap, base_ts_us=base_ts
    )
    engine = CrawlEngine(corpus, cfg)
    engine._trace(
        "recrawl", prior_snapshot=prior_snap, snapshot=next_snap,
        prior_docs=prior.num_rows,
    )
    if prior.num_rows:
        engine.load_etag_index(prior.select(["url_hash", "etag"]))
    return engine.run(seeds=seeds)
