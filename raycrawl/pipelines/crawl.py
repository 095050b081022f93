"""The crawl loop: frontier scheduling → fetch/extract → dedup.

Rebuilds the reference crawler's processOne loop
(the reference's test/unit/processingTests.js:48-51 pins its observable
behavior: pop → fetch → visit → store → queue children → done/abandon)
over two executors that share every kernel:

``mode='ray'`` — the continuous pull scheduler (``_run_pull``): the
driver keeps every fetch-worker actor ~2 chunks deep with take waves
from the FrontierShard actors, with no epoch barrier. Retries run
worker-side; candidate links go straight from the workers to their
owning shards. Every 16 cycles a checkpoint drains the pipeline, acks
the workers' offers, flushes the shards' admitted spools and advances
the manifest.

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
from collections import deque
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
)
from ..state.frontier import FrontierShardState, create_shards
from ..state.politeness import PolitenessPolicy


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


def _route_holder(cfg: "CrawlConfig"):
    """Duck-typed ``self`` for ``CrawlWorkerStage._shard_split`` on the
    driver: carries the shard count AND the routing mode, so driver-side
    routing (seeds, retries, etag loads, resume replay) matches the
    workers' router bit-for-bit (single-owner invariant) under both the
    default mod router and align_corpus_ranges' range router."""
    bits = cfg.num_shards.bit_length() - 1
    return type(
        "S",
        (),
        {
            "num_shards": cfg.num_shards,
            "range_route": cfg.align_corpus_ranges,
            "_shard_bits": bits if cfg.align_corpus_ranges else 0,
        },
    )()


class NodeDispatcher:
    """Per-node dispatch tier for the pull executor (BASELINE.md
    "dispatch ceiling" scale path #2). The driver sends one LEASE — a
    list of (table_ref, offset, size, clock_us) chunks, each stamped
    with the clock of the take wave that admitted it — per RPC; this
    actor fans the chunks out to its node-local worker group and
    returns their BatchStats records in one list, so the driver pays
    O(leases) instead of O(chunks). At the measured ~4 ms driver CPU
    per RPC and 8-16 workers per group, the single-driver ceiling
    moves from ~74 workers to the thousands.

    Concurrency model: created with max_concurrency > 1 so consecutive
    leases OVERLAP — each lease() call immediately queues its chunks
    onto the group's worker actors (Ray actors execute queued calls
    serially), so two in-flight leases reproduce the flat executor's
    per-worker double-buffer without dispatcher-side scheduling state.
    Chunks within a wave are uniform-sized, so rotating round-robin
    placement balances the group. On a real cluster, one dispatcher is
    scheduled per node (placement-group or node-affinity) so worker
    results never leave the node before merging; a dispatcher death is
    a node-sized failure domain handled the way node loss is —
    checkpoint recovery via resume_crawl.
    """

    def __init__(self, workers: list, pin_cpus: tuple = ()) -> None:
        if pin_cpus:
            # share the reserved cores with the shards/driver: an
            # unpinned dispatcher competes with the compute-bound
            # workers for timeslices and its lease hops eat scheduling
            # latency (same rationale as the workers' reserve_cores)
            try:
                os.sched_setaffinity(0, set(pin_cpus))
            except (AttributeError, OSError):  # pragma: no cover
                pass
        self.workers = workers
        # per-worker in-flight chunk counts, shared across the
        # concurrent lease() threads: min-outstanding placement keeps
        # the group balanced when leases overlap (blind round-robin
        # measured ~5% slower at 10M pages — two leases landing chunks
        # on the same worker while a sibling idles)
        import threading

        self._out = [0] * len(workers)
        self._lock = threading.Lock()

    def ping(self) -> bool:
        return True

    def lease(self, chunks: list, cycle: int) -> list[BatchStats]:
        import ray

        remaining: dict = {}
        for tref, off, size, clock_us in chunks:
            with self._lock:
                w = min(
                    range(len(self.workers)), key=self._out.__getitem__
                )
                self._out[w] += 1
            ref = self.workers[w].process_range.remote(
                tref, off, size, cycle, clock_us
            )
            remaining[ref] = w
        results = []
        while remaining:
            done, _ = ray.wait(
                list(remaining), num_returns=1, fetch_local=True
            )
            extra, _ = ray.wait(
                [r for r in remaining if r != done[0]],
                num_returns=len(remaining) - 1,
                timeout=0,
                fetch_local=True,
            )
            done += extra
            with self._lock:
                for r in done:
                    self._out[remaining.pop(r)] -= 1
            results.extend(ray.get(done))
        return results


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

        for a in (
            list(getattr(self, "workers", []))
            + list(self.shards)
            + list(getattr(self, "_tiers", []))
        ):
            try:
                ray.kill(a, no_restart=True)
            except Exception:
                pass
        self.workers = []
        self.shards = []
        self._tiers = []

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
        keep their gate-free take fast path. That cap is
        fetch_batch_size x 4 x pool under 'ray' (the refill `want`
        cap); under 'local' it is epoch_budget plus one row per queue
        and per (queue, shard), which _quotas' rounding up can add."""
        pol = self.politeness
        cfg = self.cfg
        if cfg.mode == "ray":
            cap = cfg.fetch_batch_size * 4 * max(1, len(self.workers))
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
        splitter = CrawlWorkerStage._shard_split
        holder = _route_holder(self.cfg)
        refs = []
        for sid, sub in splitter(holder, docs):
            hashes = sub.column("url_hash").to_pylist()
            etags = sub.column("etag").to_pylist()
            if self.cfg.mode == "ray":
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
        splitter = CrawlWorkerStage._shard_split
        holder = _route_holder(self.cfg)
        parts = list(splitter(holder, rows))
        if self.cfg.mode == "ray":
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
            return self._run_pull(seeds, max_urls, start_cycle=start_epoch)
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
                # all pending rows deferred — idle tick: jump the clock
                # to the earliest not_before (pollingDelay analogue)
                nbs = [x for x in self._call("min_not_before") if x is not None]
                if not nbs:
                    break
                clock_us = max(clock_us + epoch_us, min(nbs))
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

    # -- continuous (pull) executor ---------------------------------------

    def _run_pull(
        self,
        seeds: list[dict] | None,
        max_urls: int | None,
        start_cycle: int = 0,
    ) -> CrawlResult:
        """Continuous scheduler: no epoch barrier. The driver keeps
        every worker ~2 chunks deep; takes, dispatches, offers
        (flushed per batch by the workers), retries and lineage
        flushes all overlap. A barriered Ray epoch loop (take →
        process → drain → flush) was measured at ~40-60% worker
        utilization at 32 CPUs — the barrier tail plus per-epoch
        serial phases are Amdahl's-law poison for the N→4N scaling
        criterion.

        Priority is approximate global (each shard's take is exact
        (depth, discovery_ts) order; waves interleave shards), which is
        the documented production ordering (SURVEY §2.9 W7) — exact
        traversal parity stays with the single-threaded local mode.

        Politeness runs INSIDE the shards' take()
        (FrontierShardState.configure_politeness): each take wave is
        one logical window (start_refill advances the clock by
        epoch_us per wave) and each shard admits its rotating share of
        the global per-host allowance. Every chunk is processed — and
        its documents stamped — at the clock of the wave that admitted
        it, so no host exceeds its allowance in any one window of
        ``processed_at``, with no driver barrier. Token pools (T7/T8)
        gate worker-side; compute budgets (T6) charge in _absorb() and
        bench hosts via the shards' set_benched."""
        import ray
        import time as _time

        _tm = {"seed": 0.0, "refill": 0.0, "dispatch": 0.0, "wait": 0.0,
               "absorb": 0.0, "stall": 0.0, "final": 0.0,
               "cycles": 0, "chunks": 0, "sweeps": 0, "leases": 0}
        _t = _time.perf_counter()
        cfg = self.cfg
        self._trace(
            "crawl_start", executor="pull",
            seeds=len(seeds or []), start_cycle=start_cycle,
        )
        self._apply_config_patches()  # patches queued before run()
        self._sync_politeness()
        if seeds:
            self._seed_parallel(seeds)
        _tm["seed"] = _time.perf_counter() - _t
        epoch_us = int(cfg.epoch_seconds * 1e6)
        cycle = start_cycle
        clock_us = cfg.base_ts_us
        chunk = cfg.fetch_batch_size
        pool = self.workers
        # per-worker dispatch depth: each worker keeps DEPTH chunks in
        # flight (double buffer) so a completed chunk never leaves the
        # actor idle for a driver round trip — the 1-deep dispatch was
        # measured as a ~1.7x per-worker utilization gap at 24 workers
        # (completions arrive faster than the driver's turnaround).
        DEPTH = 2
        # dispatch tier (BASELINE.md scale path #2): group the workers
        # under NodeDispatcher actors and dispatch LEASES of ~group
        # chunks — one driver RPC per lease instead of per chunk. The
        # dispatcher's max_concurrency lets consecutive leases overlap,
        # reproducing the per-worker double-buffer one level up.
        tiers: list = []
        group = 1
        lease_n = 1
        depth_cap = DEPTH
        if cfg.node_dispatchers > 0:
            group = max(1, math.ceil(len(pool) / cfg.node_dispatchers))
            # half-group leases at double slot depth: same in-flight
            # chunk budget (2 x group per dispatcher) but 2x finer
            # completion granularity — a lease frees its slot when its
            # SLOWEST chunk finishes, and the measured lease-tail idle
            # at full-group leases was ~12% of wall at 10M pages
            lease_n = max(1, math.ceil(group / 2))
            depth_cap = 2 * DEPTH
            disp_cls = ray.remote(
                num_cpus=0, max_concurrency=depth_cap + 1
            )(NodeDispatcher)
            disp_pin = (
                tuple(range(cfg.reserve_cores))
                if cfg.reserve_cores > 0
                else ()
            )
            tiers = [
                disp_cls.remote(pool[i : i + group], pin_cpus=disp_pin)
                for i in range(0, len(pool), group)
            ]
            ray.get([d.ping.remote() for d in tiers])
        self._tiers = tiers  # close() kills leftovers on error paths
        targets = tiers or pool
        # corpus-range affinity (align_corpus_ranges; tier combination
        # rejected at construction): frontier shard s's chunks go only
        # to its worker group, so each worker's ShardedTableFetcher
        # touches exactly the corpus shards nested in s's hash range —
        # max(1, C/S) of them, zero cold re-pulls (asserted with
        # fetcher_stats in tests/test_corpus_align.py).
        aligned = cfg.align_corpus_ranges
        shard_workers: list[list[int]] = []  # frontier shard -> workers

        def align_workers() -> None:
            S, P = len(self.shards), len(pool)
            shard_workers[:] = [
                [w for w in range(P) if w % S == s]
                if P >= S
                else [s % P]
                for s in range(S)
            ]

        if aligned:
            align_workers()
            S = len(self.shards)
            if self.corpus_handle is not None:
                # warm each worker's range slice NOW (fire-and-forget,
                # drained with the other async RPCs): under alignment
                # a worker's corpus shards are known before the first
                # row is taken, so restores/mmaps overlap the seed
                # ramp instead of serializing into the first waves —
                # the spill-pressure cost measured in the 20M-page
                # aligned run (BASELINE.md hard-residency table).
                C = self.corpus_handle.num_shards
                for s in range(S):
                    rng_ = (
                        list(range(s * (C // S), (s + 1) * (C // S)))
                        if C >= S
                        else [s * C // S]
                    )
                    self._route_refs.extend(
                        pool[w].warm_corpus_shards.remote(rng_)
                        for w in shard_workers[s]
                    )
        outstanding = [0] * len(targets)
        inflight: dict = {}  # ref -> (target_idx, n_rows, replay_desc)
        inflight_rows = 0
        # Checked-drain state (the at-least-once offer contract's ack
        # point): offers are fire-and-forget and buffered across ranges
        # for throughput, so a worker death can lose children of ranges
        # whose results already surfaced — and Ray's transparent task
        # retry never replays a DELIVERED result. The driver therefore
        # keeps every returned dispatch descriptor in `unacked` until
        # the next drain wave proves (pid unchanged since the previous
        # wave) that one incarnation both ran the window and acked its
        # offers. On a pid mismatch the window replays side-effect-only
        # (shard insert-if-absent dedups re-offers; duplicate doc parts
        # collapse in the last-wins compaction; the replayed results
        # are DISCARDED so counters are not double-absorbed). Cost off
        # the failure path: holding take-table refs alive for one flush
        # interval (<= ~16 cycles of waves in plasma) and one dict/pid
        # compare per drain — the hot loop itself stays async.
        last_pids: list[int] = ray.get([w.pid.remote() for w in pool])
        unacked: dict[int, list] = {}

        def drain_workers() -> None:
            nonlocal last_pids
            for _ in range(cfg.worker_max_restarts + 2):
                infos = ray.get([w.drain_info.remote() for w in pool])
                self._totals["admitted"] += sum(i["admits"] for i in infos)
                pids = [i["pid"] for i in infos]
                hit = {
                    (widx // group if tiers else widx)
                    for widx in range(len(pool))
                    if pids[widx] != last_pids[widx]
                }
                last_pids = pids
                if not hit:
                    unacked.clear()
                    return
                self._trace("worker_restart", workers=sorted(hit),
                            executor="pull")
                replay = []
                for tidx in hit:
                    for desc in unacked.get(tidx, ()):
                        if tiers:
                            lease, cyc = desc
                            replay.append(
                                targets[tidx].lease.remote(lease, cyc)
                            )
                        else:
                            tref, off, size, cyc, ck = desc
                            replay.append(
                                targets[tidx].process_range.remote(
                                    tref, off, size, cyc, ck
                                )
                            )
                    unacked.pop(tidx, None)
                ray.get(replay)  # results discarded: absorbed once already
                # loop: ack the replay's own offers and re-verify pids
            self._trace("abort", reason="offer-drain worker restart loop")
            self._write_trace()
            raise RuntimeError(
                "fetch workers kept restarting during offer drain; "
                "aborting — resume from the last checkpoint"
            )
        work_q: deque = deque()  # (take_ref, offset, size, clock, shard)
        last_flushed_cycle = -1
        processed = 0

        last_counts: list[dict[str, int]] | None = None

        def resize_pool() -> None:
            """Apply a live /fetcher/concurrency patch (recorded by
            _on_fetcher_change). Runs inside the checkpoint, after
            drain_workers(): nothing is in flight and every offer is
            acked, so workers join or leave outside any replay window.
            The tier rejects the patch (patch_config)."""
            want, have = self._pool_target, len(pool)
            if want == have:
                return
            if want > have:
                new = [self._spawn_worker(wi) for wi in range(have, want)]
                last_pids.extend(ray.get([w.pid.remote() for w in new]))
                pool.extend(new)
                outstanding.extend([0] * (want - have))
            else:
                # settle fire-and-forget RPCs before their actor dies
                ray.get(self._route_refs)
                self._route_refs.clear()
                for w in pool[want:]:
                    ray.kill(w, no_restart=True)
                del pool[want:], last_pids[want:], outstanding[want:]
            if aligned:
                align_workers()
            self._sync_politeness()  # its cap scales with the pool

        def totals() -> dict:
            return dict(self._totals, taken=processed)

        # counters at the last checkpoint: on_epoch hooks get deltas
        mark = dict(totals(), deferred=0)

        def report_checkpoint(label: int, lineage: list[dict]) -> None:
            now = dict(
                totals(),
                deferred=sum(
                    rec["metrics"].get("defer", 0) for rec in lineage
                ),
            )
            stats = {k: v - mark[k] for k, v in now.items()}
            stats["pending"] = sum(
                sum(rec["counts"].values()) for rec in lineage
            )
            mark.update(now)
            for cb in self._epoch_callbacks:
                cb(self, label, stats)

        def lineage_flush() -> None:
            """Checkpoint = a CONSISTENT cut, so resume_crawl's
            suspect-window rule ('doc dirs > manifest last_epoch may
            have unflushed children') is airtight:

            1. generation barrier — absorb every in-flight
               process_range (their doc files carry cycle labels
               <= the manifest we are about to write);
            2. drain the workers' async offer RPCs (a completed
               batch's children can otherwise still be in flight to
               the shards and land in the NEXT spool);
            3. flush the shards' admitted spools, THEN advance the
               manifest (WAL order — a manifest ahead of its spools
               made a SIGKILL in that window lose frontier rows,
               measured);
            4. bump the cycle label so every post-checkpoint batch
               writes doc dirs STRICTLY above the manifest.

            A pending pool resize applies between steps 2 and 3, and
            the on_epoch hooks run last.

            Cost: one pipeline drain per flush interval (16 cycles) —
            the bounded-depth pipeline (<= pool x DEPTH chunks) drains
            in one wave, unlike the per-cycle epoch barrier this
            executor exists to avoid."""
            nonlocal last_flushed_cycle, cycle, inflight_rows
            while inflight:
                done, _ = ray.wait(
                    list(inflight), num_returns=len(inflight),
                    fetch_local=True,
                )
                for r in done:
                    tidx, rows, desc = inflight.pop(r)
                    outstanding[tidx] -= 1
                    inflight_rows -= rows
                    unacked.setdefault(tidx, []).append(desc)
                absorb(ray.get(done))
            drain_workers()
            resize_pool()
            refs = [s.flush_epoch.remote(cycle) for s in self.shards]
            last_flushed_cycle = label = cycle
            lineage = ray.get(refs)
            self._ingest_lineage(lineage, cycle)
            self._write_manifest(cycle, completed=False)
            cycle += 1
            # config heartbeat: a worker that RESTARTED since the last
            # flush re-ran __init__ with its constructor-time config,
            # silently reverting live-patched deltas; re-pushing the
            # current value every flush bounds that revert window to
            # one flush interval (idempotent, fire-and-forget)
            self._route_refs.extend(
                w.set_track_host_cost.remote(
                    self.compute_budget is not None
                )
                for w in pool
            )
            report_checkpoint(label, lineage)

        pending_take: list | None = None  # in-flight (meta_ref, table_ref)
        take_clock = clock_us  # the clock pending_take was issued at
        starved = False  # last refill saw an empty frontier; wait for offers

        def start_refill() -> None:
            """Issue one take wave (fire-and-forget). The take RPC round
            trip is ~tens of ms — resolving it synchronously per refill
            was a measured driver bottleneck, so the refs resolve later
            (finish_refill) while workers keep crunching. take_split's
            two-part return keeps the wave's row data in plasma: the
            driver reads only the tiny meta objects and dispatches the
            table refs untouched."""
            nonlocal cycle, clock_us, pending_take, last_counts, starved
            nonlocal take_clock
            take_clock = clock_us
            if last_counts is None:
                # async counts-only poll (empty quotas): a synchronous
                # counts round per starvation stutter was measurable
                pending_take = [
                    s.take_split.options(num_returns=2).remote({}, clock_us)
                    for s in self.shards
                ]
                cycle += 1
                clock_us += epoch_us
                return
            pending = sum(sum(c.values()) for c in last_counts)
            queued = sum(item[2] for item in work_q)
            want = chunk * 4 * len(pool) - queued - inflight_rows
            if pending and want > 0:
                per_shard, _ = self._quotas(last_counts, budget=want)
                if per_shard is None:
                    per_shard = [{} for _ in self.shards]
                pending_take = [
                    s.take_split.options(num_returns=2).remote(q, clock_us)
                    for s, q in zip(self.shards, per_shard)
                ]
            else:
                last_counts = None  # force a fresh poll next round
                starved = True
            cycle += 1
            clock_us += epoch_us

        def finish_refill() -> int:
            """Resolve the in-flight take wave's META objects only and
            enqueue (table_ref, offset, size, wave clock, shard)
            dispatch chunks — the row data stays in plasma; the driver
            never touches it. The wave's clock travels with each chunk:
            the shard gate admitted its rows for that window."""
            nonlocal pending_take, last_counts, processed, starved
            refs = pending_take
            pending_take = None
            metas = ray.get([m for m, _ in refs])
            last_counts = [m["counts"] for m in metas]
            wave = sum(m["num"] for m in metas)
            # adaptive slicing: a small wave (BFS ramp, crawl tail) is
            # split so every worker with spare depth gets a piece — a
            # fixed batch_size slice left 19 of 24 workers idle on the
            # 20k-seed first wave. Under the tier, capacity is counted
            # in CHUNKS (free lease slots x lease_n chunks per lease,
            # capped at the pool) — counting each non-full dispatcher
            # as one lease undercounted an idle pool ~2x and split the
            # ramp wave across only half the workers.
            if tiers:
                free = min(
                    len(pool),
                    sum(
                        lease_n * (depth_cap - o)
                        for o in outstanding
                        if o < depth_cap
                    ),
                )
            else:
                free = min(
                    len(pool),
                    sum(1 for o in outstanding if o < depth_cap),
                )
            # A slice holds at most fetch_batch_size rows and, unless
            # the wave is smaller, at least min(192, fetch_batch_size).
            eff_chunk = max(
                min(192, chunk), min(chunk, math.ceil(wave / max(1, free)))
            )
            took = 0
            for sid, ((_, table_ref), m) in enumerate(zip(refs, metas)):
                n = m["num"]
                took += n
                for off in range(0, n, eff_chunk):
                    work_q.append(
                        (table_ref, off, min(eff_chunk, n - off),
                         take_clock, sid)
                    )
            processed += took
            if took == 0:
                starved = True
            return took

        def refill_sync() -> int:
            start_refill()
            return finish_refill() if pending_take is not None else 0

        def absorb(results: list) -> None:
            """Fold completed calls: one BatchStats per process_range,
            a list of them per tier lease."""
            nonlocal starved
            starved = False  # completions flushed fresh offers to shards
            if tiers:
                results = [b for lease in results for b in lease]
            if self._absorb(results, clock_us)[1]:
                self._push_benched(clock_us)

        while True:
            # refill only when the queue is genuinely low — counts/take
            # RPC rounds per completion were measured to starve the pool
            taking = max_urls is None or processed < max_urls
            if (
                pending_take is None
                and taking
                and not starved
                and len(work_q) < 2 * len(pool)
            ):
                # T11/X5: pull-CYCLE boundary — live-config patches land
                # here, as the local epoch loop applies them per epoch
                # (patch_config already validated them, so this cannot
                # abort the crawl); a landed patch re-syncs the
                # shard-side politeness gate so rate changes bind from
                # the next window
                if self._apply_config_patches():
                    self._sync_politeness()
                _t = _time.perf_counter()
                start_refill()
                _tm["refill"] += _time.perf_counter() - _t
                _tm["cycles"] += 1
                if cycle - last_flushed_cycle >= 16:
                    lineage_flush()
            if pending_take is not None:
                _t = _time.perf_counter()
                if not work_q:
                    finish_refill()  # queue dry: block on the take wave
                else:
                    metas = [m for m, _ in pending_take]
                    ready, _ = ray.wait(
                        metas, num_returns=len(metas), timeout=0
                    )
                    if len(ready) == len(metas):
                        finish_refill()
                _tm["refill"] += _time.perf_counter() - _t
            _t = _time.perf_counter()
            while work_q:
                if aligned:
                    # hard-residency affinity: a chunk may only go to
                    # its frontier shard's worker group. Scan for the
                    # first chunk whose group has depth capacity (no
                    # head-of-line block on a busy group; the refill
                    # trigger caps the queue at ~2x pool chunks, so
                    # the scan is tens of items).
                    pick = None
                    for qi, item in enumerate(work_q):
                        w = min(
                            shard_workers[item[4]],
                            key=outstanding.__getitem__,
                        )
                        if outstanding[w] < depth_cap:
                            pick = (qi, w)
                            break
                    if pick is None:
                        break
                    qi, widx = pick
                    take_ref, off, size, ck, _sid = work_q[qi]
                    del work_q[qi]
                    rows = size
                    ref = targets[widx].process_range.remote(
                        take_ref, off, size, cycle, ck
                    )
                    desc = (take_ref, off, size, cycle, ck)
                    _tm["chunks"] += 1
                    inflight[ref] = (widx, rows, desc)
                    outstanding[widx] += 1
                    inflight_rows += rows
                    continue
                widx = min(
                    range(len(targets)), key=outstanding.__getitem__
                )
                if outstanding[widx] >= depth_cap:
                    break
                if tiers:
                    lease = [
                        work_q.popleft()[:4]
                        for _ in range(min(len(work_q), lease_n))
                    ]
                    rows = sum(c[2] for c in lease)
                    ref = targets[widx].lease.remote(lease, cycle)
                    desc = (lease, cycle)
                    _tm["chunks"] += len(lease)
                    _tm["leases"] += 1
                else:
                    take_ref, off, size, ck, _sid = work_q.popleft()
                    rows = size
                    ref = targets[widx].process_range.remote(
                        take_ref, off, size, cycle, ck
                    )
                    desc = (take_ref, off, size, cycle, ck)
                    _tm["chunks"] += 1
                inflight[ref] = (widx, rows, desc)
                outstanding[widx] += 1
                inflight_rows += rows
            _tm["dispatch"] += _time.perf_counter() - _t
            if inflight:
                # block for one completion, then sweep up everything
                # else already finished — one driver pass per sweep
                _t = _time.perf_counter()
                done, _ = ray.wait(
                    list(inflight), num_returns=1, fetch_local=True
                )
                extra, _ = ray.wait(
                    [r for r in inflight if r != done[0]],
                    num_returns=len(inflight) - 1,
                    timeout=0,
                    fetch_local=True,
                )
                done += extra
                for r in done:
                    tidx, rows, desc = inflight.pop(r)
                    outstanding[tidx] -= 1
                    inflight_rows -= rows
                    unacked.setdefault(tidx, []).append(desc)
                _tm["sweeps"] += 1
                _t2 = _time.perf_counter()
                _tm["wait"] += _t2 - _t
                absorb(ray.get(done))
                _tm["absorb"] += _time.perf_counter() - _t2
                continue
            # pipeline empty: drain worker offer buffers, then re-check
            _t = _time.perf_counter()
            if self._route_refs:
                ray.get(self._route_refs)
                self._route_refs.clear()
            drain_workers()
            last_counts = self._call("counts")
            pending = sum(sum(c.values()) for c in last_counts)
            _tm["stall"] += _time.perf_counter() - _t
            if pending == 0 or (max_urls is not None and processed >= max_urls):
                break
            starved = False
            if refill_sync() == 0:
                # all remaining rows deferred: advance the clock
                nbs = [
                    x
                    for x in self._call("min_not_before")
                    if x is not None
                ]
                if not nbs:
                    break
                clock_us = max(clock_us + epoch_us, min(nbs))
                starved = False

        _t = _time.perf_counter()
        if self._route_refs:
            ray.get(self._route_refs)
            self._route_refs.clear()
        lineage_flush()  # drains inflight + workers itself
        self._record_stats(cycle, totals())
        result = self._finish(cycle, cycles=cycle)
        for d in tiers:  # per-run actors; workers/shards outlive them
            try:
                ray.kill(d, no_restart=True)
            except Exception:
                pass
        self._tiers = []
        _tm["final"] = _time.perf_counter() - _t
        # driver-loop time budget, read by tools/dispatch_ceiling.py.
        # Seconds: seed, refill (take waves), dispatch, wait, absorb,
        # stall (empty-pipeline drains) and final (close-out); every
        # bucket except `wait` is driver work, `wait` is blocked-on-
        # completion idle (fetch_local transfer overlaps worker
        # compute). Counts: cycles, chunks, sweeps, leases.
        self._pull_timing = dict(_tm)
        return result

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
        splitter = CrawlWorkerStage._shard_split
        holder = _route_holder(cfg)
        refs = []
        for sid, sub in splitter(holder, processed):
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
