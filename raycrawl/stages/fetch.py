"""Fetch + visit + sink + route: the crawl's one heavy distributed stage.

Design: one pool of persistent fetch-worker actors (``process_range``,
driven by the pull executor; ``mode='local'`` calls the same kernel
in-process) does, per frontier batch —

1. **fetch**: look up each URL's body in the pages corpus (the
   simulated network; a real deployment swaps
   ``TableFetcher`` for an HTTP fetcher with the same interface). The
   default ray path range-shards the corpus (corpus_shards.py) and
   resolves each shard zero-copy from plasma on first use; otherwise
   the corpus table and its hash index are ``ray.put`` ONCE and read
   in each actor's ``__init__`` — never re-shipped per batch.
   Lookup is by the 20-byte ``url_hash`` the frontier rows already
   carry: binary search over a sorted uint64 prefix array + 12-byte
   tail verification (no Python-string comparisons in the hot path).
   Conditional fetch: a row whose ``payload_etag`` matches the body
   etag is a 304 (reference etag path,
   providers/storage/mongodocstore.js:48-60).
2. **visit**: run the visitor map (stages/visitor.py) — extract text +
   child links (pages) or JSON children (GitHub entities).
3. **sink**: write this batch's documents straight to partitioned
   Parquet (``documents/epoch=K/part-<digest>.parquet``, deterministic
   name ⇒ task retries overwrite instead of duplicating).
4. **route**: canonicalize child URLs, pre-dedup within the batch (the
   attenuation window, providers/queuing/attenuatedQueue.js:24-52),
   and offer them to the owning FrontierShard actors by
   ``hash(url_hash) % S`` — candidates never pass through the driver.
5. **retry ledger**: a 404 requeues to the retry queue with
   ``attempt_count + 1`` until ``max_attempts``, then writes a
   deadletter row (reference ``_retryQueue`` + routes/deadletters.js).

Each batch returns one typed ``BatchStats`` record (counters, the wall
second and per-host fetch cost) and nothing else, so driver traffic is
O(batches), not O(pages) or O(failures). The raw ``html`` never leaves
the stage at all. Tables that do cross Ray (take waves in, offers and
requeues out) travel as Arrow IPC buffers (``raycrawl/wire.py``), so a
worker never runs Ray's table serializer and its ``ray.air`` import.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .. import wire
from ..functions.urlnorm import canonicalize_batch
from ..schemas import (
    CHILD_QUEUE,
    DOCUMENT_SCHEMA,
    FRONTIER_SCHEMA,
    RETRY_QUEUE,
)
from ..state.seenfilter import Digests, digest_matrix
from .extract import extract_page
from .visitor import visit


@dataclass
class BatchStats:
    """What one worker batch reports to the driver. ``fetched`` counts
    the rows that reached the fetcher (token-gated rows excluded),
    ``docs`` the documents written, ``failed`` the 404s, ``unchanged``
    the 304s, ``offered`` the discovered links before dedup,
    ``admitted`` the synchronous shard admits (local shards only;
    actor shards report theirs at drain). ``second`` is the
    batch-completion wall second for the per-second metric series
    (reference redis-metrics timeGranularity 'second').
    ``host_cost_ms`` is each host's T6 compute-budget charge, filled
    only while the compute limiter is on."""

    fetched: int
    docs: int
    offered: int
    admitted: int
    failed: int
    deadlettered: int
    unchanged: int
    second: int
    host_cost_ms: dict[str, float]


def build_fetch_index(corpus: pa.Table) -> dict[str, np.ndarray]:
    """One-time (per run) index over the corpus: canonical-url SHA-1 →
    row number. Pure numpy arrays (~28 B/row) so broadcast + per-actor
    deserialization is near-zero-cost. This whole-table variant serves
    the local mode and the instrumented-fetcher injection path; the
    production ray path builds ONE SUCH INDEX PER RANGE SHARD inside a
    distributed task wave (stages/corpus_shards.py) — the corpus is
    never a single in-memory table there."""
    _, digests, _ = canonicalize_batch(corpus.column("url").to_pylist())
    return build_fetch_index_from_digests(digests)


def build_fetch_index_from_digests(
    digests: Digests,
) -> dict[str, np.ndarray]:
    """Index from precomputed canonical-url digests (row i holds the
    digest of corpus row i): h64-sorted prefix array + 12-byte tails +
    row numbers."""
    h64, tail = _digests_to_h64_tail(digests)
    order = np.argsort(h64, kind="stable")
    return {
        "h64": h64[order],
        "tail": tail[order],
        "row": order.astype(np.int64),
    }


def _digests_to_h64_tail(digests: Digests):
    raw = digest_matrix(digests)
    h64 = raw[:, :8].copy().view(np.dtype("<u8")).reshape(-1)
    return h64, raw[:, 8:]


def shard_split(frontier_rows: pa.Table, num_shards: int, range_route: bool):
    """Vectorized shard routing, shared by the workers and every
    driver-side path (seeds, etag loads, resume replay) so a url_hash
    has exactly one owning shard: the uint64 prefix of url_hash mod
    ``num_shards`` — or, under ``range_route``, the top
    ``log2(num_shards)`` bits of that prefix (the corpus shards' range
    function, corpus_shards.py ``ShardedCorpus.route``), so frontier and
    corpus partitions nest. Yields (shard id, rows) per non-empty
    shard."""
    if frontier_rows.num_rows == 0:  # all candidates pre-deduped
        return
    h64, _ = _digests_to_h64_tail(frontier_rows.column("url_hash"))
    if range_route:
        bits = num_shards.bit_length() - 1
        sids = (
            (h64 >> np.uint64(64 - bits)).astype(np.int64)
            if bits
            else np.zeros(len(h64), dtype=np.int64)
        )
    else:
        sids = (h64 % np.uint64(num_shards)).astype(np.int64)
    order = np.argsort(sids, kind="stable")
    sorted_sids = sids[order]
    bounds = np.r_[
        0, np.flatnonzero(np.diff(sorted_sids)) + 1, len(sorted_sids)
    ]
    for b in range(len(bounds) - 1):
        idxs = order[bounds[b] : bounds[b + 1]]
        yield int(sorted_sids[bounds[b]]), frontier_rows.take(pa.array(idxs))


def prepare_corpus(corpus: pa.Table) -> pa.Table:
    """Normalize the corpus for zero-copy broadcast: EVERY
    variable-width column cast to its large (int64-offset) type and
    everything in ONE chunk. int32 offsets cap a chunk at 2 GB —
    beyond that combine_chunks silently keeps multiple chunks, and a
    multi-chunk column made every fetch worker privately re-combine
    ~3.5 GB in __init__ (measured: identical 3.65 GB anon RSS per
    worker at 10M pages = 27x the corpus text column -> system OOM;
    at 3M pages text fit int32 offsets and the bug was invisible).
    Run once on the driver BEFORE ray.put, never per actor."""
    large = {
        pa.binary(): pa.large_binary(),
        pa.string(): pa.large_string(),
    }
    for i, field in enumerate(corpus.schema):
        to = large.get(field.type)
        if to is not None:
            corpus = corpus.set_column(
                i, field.name, corpus.column(field.name).cast(to)
            )
    return corpus.combine_chunks()


def index_lookup(
    index: dict[str, np.ndarray], digests
) -> tuple[np.ndarray, np.ndarray]:
    """Membership probe of url-hash digests against a prepared corpus
    index (h64/tail/row arrays): -> (found_mask, corpus_row_indexes).
    THE single definition of "is this url in the corpus" — the fetch
    path (TableFetcher.lookup) and crash recovery's suspect-doc
    classification (resume_crawl) must never diverge on it."""
    n = len(digests)
    if not n or not len(index["h64"]):
        return np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
    h64, tail = _digests_to_h64_tail(digests)
    return index_lookup_arrays(index, h64, tail)


def index_lookup_arrays(
    index: dict[str, np.ndarray], h64: np.ndarray, tail: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`index_lookup` body over pre-split (h64, tail) arrays — shared
    with the per-shard probes in stages/corpus_shards.py, which route
    a batch by h64 range and must not re-split the digests."""
    h64_arr, tail_arr, row = index["h64"], index["tail"], index["row"]
    n = len(h64)
    if not n or not len(h64_arr):
        return np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
    pos = np.searchsorted(h64_arr, h64)
    clip = np.minimum(pos, len(h64_arr) - 1)
    found = (
        (pos < len(h64_arr))
        & (h64_arr[clip] == h64)
        & (tail_arr[clip] == tail).all(axis=1)
    )
    return found, row[clip]


class TableFetcher:
    """Corpus-backed simulated network: url_hash → page row."""

    def __init__(self, corpus: pa.Table, index: dict[str, np.ndarray]) -> None:
        # NO combine_chunks here: on a plasma-backed table with a
        # multi-chunk column it silently COPIES the column into each
        # actor's private heap (~3.5 GB x workers at 10M pages — the
        # measured OOM). prepare_corpus() guarantees single-chunk
        # large-offset columns; refuse anything else.
        for name in ("html", "lang", "warc_ts"):
            if corpus.column(name).num_chunks != 1:
                raise ValueError(
                    f"corpus column {name!r} is multi-chunk — run "
                    "prepare_corpus() on the driver before ray.put"
                )
        self._corpus = corpus
        self._html = corpus.column("html").chunk(0)
        self._lang = self._corpus.column("lang").chunk(0)
        self._ts = self._corpus.column("warc_ts").chunk(0)
        self._index = index

    def lookup(self, digests: list[bytes]):
        """-> (found_mask, corpus_row_indexes) for a batch of url hashes."""
        return index_lookup(self._index, digests)

    def body(self, idx: int) -> bytes:
        return self._html[idx].as_py()

    def bodies(self, idx: np.ndarray) -> list[bytes]:
        """Batch body materialization: one take + to_pylist pass."""
        return self._html.take(pa.array(idx, pa.int64())).to_pylist()

    def lang(self, idx: int) -> str:
        return self._lang[idx].as_py()

    def fetched_at(self, idx: int) -> int:
        return self._ts[idx].value


def etag_of(body: bytes) -> str:
    return hashlib.sha1(body).hexdigest()[:16]


class CrawlWorkerStage:
    """The fetch kernel: frontier rows in → one ``BatchStats`` out (see
    module docstring).

    ``corpus``/``index`` may be ObjectRefs (ray mode: resolved once per
    actor here in ``__init__``) or in-memory objects (local mode).
    ``shards``: FrontierShardState actor handles (ray; tables go to
    them as ``wire.dump`` buffers) or plain instances (local parity
    mode — same code path, direct calls).
    """

    def __init__(
        self,
        corpus,
        index,
        shards,
        *,
        docs_dir: str | None,
        epoch: int = 0,
        now_us: int = 0,
        max_attempts: int = 0,
        dead_dir: str | None = None,
        fetcher_cls: type | None = None,
        scope_hosts: tuple[str, ...] = (),
        robots_rules: dict | None = None,
        track_host_cost: bool = False,
        compute_bytes_per_ms: float = 1000.0,
        range_route: bool = False,
        pin_cpu: tuple = (),
        token_specs=None,
        token_call_cap: int = 30,
        token_call_window_sec: float = 1.0,
        token_traits: dict | None = None,
        token_seed: int = 0,
    ) -> None:
        if pin_cpu:
            # restrict this actor to a core SET (the engine's
            # reserve_cores policy — workers vacate the first cores so
            # the shard actors + driver get dedicated CPU instead of
            # competing with 30 compute-bound workers for timeslices;
            # shard RPC latency under load was measured at ~10 ms when
            # starved).
            try:
                os.sched_setaffinity(0, set(pin_cpu))
            except (AttributeError, OSError):  # pragma: no cover
                pass
        try:
            import ray

            if isinstance(corpus, ray.ObjectRef):
                corpus = ray.get(corpus)
            if isinstance(index, ray.ObjectRef):
                index = ray.get(index)
        except ImportError:  # pragma: no cover
            pass
        # component injection (reference X3, lib/crawlerFactory.js:168-179
        # + the fetcher swap in test/unit/processingTests.js:93-109): any
        # class with the TableFetcher interface (lookup/body/lang/
        # fetched_at) — e.g. an HTTP fetcher in a real deployment.
        # A ShardedCorpus handle (the production ray path) selects the
        # sharded fetcher: shards resolve lazily from plasma in lookup,
        # never here, so worker __init__ stays O(1) in corpus size.
        if fetcher_cls is None and hasattr(corpus, "table_refs"):
            from .corpus_shards import ShardedTableFetcher

            fetcher_cls = ShardedTableFetcher
        self.fetcher = (fetcher_cls or TableFetcher)(corpus, index)
        # A7 latency contract: a fetcher that measures real wall time
        # (an HTTP fetcher in a real deployment) exposes
        # ``elapsed_ms(row) -> float`` and the host cost is then that
        # measured time instead of the body-bytes proxy — the
        # ComputeBudget baseline becomes a true network floor
        # (reference probes real GET latency,
        # lib/crawlerFactory.js:315-346).
        self._elapsed_ms = getattr(self.fetcher, "elapsed_ms", None)
        self.shards = shards
        self.num_shards = len(shards)
        # corpus-range-aligned routing (CrawlConfig.align_corpus_ranges):
        # frontier shards partition by the TOP bits of the same u64
        # url-hash prefix the corpus shards range on, instead of mod —
        # shard s then owns a contiguous h64 range nested inside (or
        # containing) whole corpus-shard ranges, so a worker bound to s
        # only ever touches those corpus shards (hard residency).
        self.range_route = range_route
        if range_route and self.num_shards & (self.num_shards - 1):
            raise ValueError(
                "range_route requires a power-of-two shard count, got "
                f"{self.num_shards}"
            )
        self.docs_dir = docs_dir
        self._write_salt = os.urandom(8)  # unique doc part names per run
        self._doc_seq = 0
        self.epoch = epoch
        self.now_us = now_us
        # the retry ledger: failures are requeued / deadlettered INSIDE
        # the stage — at 32 CPUs a driver-side failure round trip
        # (~300k returned rows over a crawl) was a measured scaling
        # bottleneck, and at 10^10-URL scale failed rows must never
        # funnel through one process anyway. max_attempts <= 1
        # deadletters every failure on its first attempt.
        self.max_attempts = max_attempts
        self.dead_dir = dead_dir
        # M5 crawl-scope filter (reference orgList,
        # lib/crawlerFactory.js:62,633-641): discovered links outside
        # the allowed hosts are dropped before attenuation/offer.
        self.scope_hosts = tuple(h.lower() for h in scope_hosts)
        self._scope_memo: dict[str, bool] = {}
        # robots rules per host (T7/T8 robots half, RFC 9309
        # Allow/Disallow + longest-match): a discovered link whose path
        # is disallowed is dropped in the candidate path — never
        # offered, never fetched.
        self.robots_rules: dict = dict(robots_rules or {})
        # T6: when set, each batch's BatchStats carries every host's
        # fetch cost in ms (measured latency, or body bytes /
        # compute_bytes_per_ms) so the engine can charge the
        # ComputeBudget without shipping bodies anywhere.
        self.track_host_cost = track_host_cost
        self.compute_bytes_per_ms = compute_bytes_per_ms
        # T7/T8 multi-identity fetch pool (reference tokenFactory.js /
        # limitedTokenFactory.js): each WORKER owns its identity subset
        # (disjoint per worker on a real cluster — no shared mutable
        # state across actors). Every fetch selects a trait-matched
        # token; a benched/capped identity defers the row via
        # not_before requeue (the deferDelay analogue). None = off
        # (zero hot-path cost).
        self.token_pool = None
        self.token_traits: dict = dict(token_traits or {})
        self.token_deferred = 0
        self.token_unmatched = 0
        if token_specs:
            from ..state.tokens import LimitedTokenPool, TokenPool

            self.token_pool = LimitedTokenPool(
                TokenPool(token_specs, seed=token_seed),
                call_cap=token_call_cap,
                window_sec=token_call_window_sec,
            )
        self._local = not hasattr(shards[0].offer, "remote")
        self._pending_offers: list = []
        self._pending_misc: list = []  # requeue RPCs (not admit-counted)
        self._offer_buf: dict[int, list[pa.Table]] = {}
        self._buf_rows: dict[int, int] = {}
        self._canon_cache: dict[str, tuple[str, bytes, str]] = {}
        # cross-batch offer suppressor: RAW link strings this worker
        # has already offered (zipf-hot links appear in EVERY batch;
        # the shard would bounce them anyway, but canonicalizing +
        # serializing + shipping them costs worker CPU). Correctness-
        # neutral — shard insert-if-absent is authoritative; this only
        # removes guaranteed bounces. Capped to bound memory; clearing
        # resets to at-least-once behavior.
        self._offered_seen: set[str] = set()
        self.OFFERED_SEEN_CAP = 1 << 20
        wire.warm()

    def set_track_host_cost(self, on: bool) -> None:
        """Live-config hook: start/stop reporting host costs when the
        compute limiter is toggled mid-crawl (T6 x T11). Also the
        engine's per-flush config HEARTBEAT target: a restarted actor
        re-runs __init__ with its constructor-time value, so the engine
        re-pushes the live value at every lineage flush, bounding the
        revert window to one flush interval."""
        self.track_host_cost = on

    def host_cost_enabled(self) -> bool:
        """Probe for the heartbeat test: the worker's CURRENT live
        track_host_cost value (reverts to the constructor value on
        restart until the next heartbeat re-push)."""
        return self.track_host_cost

    def ping(self) -> bool:
        """Readiness probe: returns once ``__init__`` has completed —
        the engine warms the pool at construction so actor cold-start
        (process start, module imports, pyarrow's pandas import) never
        lands inside the crawl. A whole-table corpus ref resolves in
        ``__init__``; a sharded corpus resolves each shard at its first
        lookup instead."""
        return True

    def seed_chunk(
        self,
        urls: list[str],
        ts_base: int,
        *,
        queue: str = "normal",
        req_type: str = "page",
        policy: str = "default",
    ) -> int:
        """Parallel seeding: canonicalize one chunk of seed URLs and
        offer the rows to the owning shards, returning the admitted
        count after this worker's offers drain. The driver-side
        sequential canonicalize+route of a large seed list was a
        measured constant (~2-4 s at 80k seeds) that lands identically
        at every cluster size — exactly the Amdahl term the scaling
        bar punishes. discovery_ts = ts_base + position preserves the
        global seed order (the caller passes each chunk's offset)."""
        norm, digests, hosts = canonicalize_batch(urls)
        n = len(urls)
        rows = pa.Table.from_arrays(
            [
                pa.array(norm, pa.string()),
                pa.array(digests, pa.binary(20)),
                pa.array(hosts, pa.string()),
                pa.array([req_type] * n, pa.string()),
                pa.array([policy] * n, pa.string()),
                pa.array([queue] * n, pa.string()),
                pa.array([0] * n, pa.int32()),
                pa.array(
                    np.arange(ts_base, ts_base + n, dtype=np.int64)
                ),
                pa.array([0] * n, pa.int32()),
                pa.array([0] * n, pa.int64()),
                pa.array([""] * n, pa.string()),
                pa.array([""] * n, pa.string()),
                pa.array([""] * n, pa.string()),
                pa.array([""] * n, pa.string()),
            ],
            schema=FRONTIER_SCHEMA,
        )
        admitted = self._offer(rows)
        if admitted < 0:  # buffered path: resolve at the drain barrier
            admitted = self.drain()
        return admitted

    def set_epoch(self, epoch: int, now_us: int) -> None:  # local-mode reuse
        self.epoch = epoch
        self.now_us = now_us

    def process_range(
        self, buf: pa.Buffer, off: int, size: int, epoch: int, now_us: int
    ) -> BatchStats:
        """The pull executor's entry point on a persistent worker
        actor (the crawl is iterative, so one pool serves every take
        wave). The wave lives in plasma as the IPC buffer a shard's
        ``take_split`` returned, and every dispatch passes (ref,
        offset, size) — driver-side per-chunk serialization of table
        slices was a measured scaling bottleneck; ``wire.load`` reads
        the buffer zero-copy. ``epoch`` labels the doc dir (the
        checkpoint cycle); ``now_us`` is the clock of the take wave
        that admitted the rows.

        Child offers stay fire-and-forget and buffered across ranges;
        their durability is the engine's checked drain (drain_info pid
        comparison + side-effect replay of the ranges returned since
        the last ack) — a per-range synchronous ack was measured to
        serialize every range on shard RPC latency."""
        self.set_epoch(epoch, now_us)
        return self(wire.load(buf).slice(off, size))

    # -- candidate routing -------------------------------------------------

    OFFER_FLUSH_ROWS = 16_384

    def _offer(self, frontier_rows: pa.Table) -> int:
        """Route candidates to their owning shards. Local shards admit
        synchronously (returns the admitted count). Shard actors get
        offers BUFFERED per shard across batches and flushed as larger
        tables — at a row threshold, at the end of a batch with a
        backlog (__call__), or at drain() — fire-and-forget; one RPC per
        batch per shard was measured to inflate in-worker CPU 30-60%
        via Ray serialization/IPC contention at high worker counts.
        drain() is the ack point: it flushes the buffers and waits for
        every ObjectRef, returning the admitted count."""
        parts = shard_split(frontier_rows, self.num_shards, self.range_route)
        if self._local:
            return sum(self.shards[sid].offer(sub) for sid, sub in parts)
        for sid, sub in parts:
            self._offer_buf.setdefault(sid, []).append(sub)
            self._buf_rows[sid] = self._buf_rows.get(sid, 0) + sub.num_rows
            if self._buf_rows[sid] >= self.OFFER_FLUSH_ROWS:
                self._flush_shard(sid)
        return -1  # admitted count resolved at drain()

    def _flush_shard(self, sid: int) -> None:
        tables = self._offer_buf.pop(sid, None)
        self._buf_rows[sid] = 0
        if not tables:
            return
        # combine_chunks before the RPC: buffered offers are many small
        # per-batch tables, and the IPC stream writes (and the shard
        # reads back) one record batch per chunk — one memcpy ships them
        # as a single batch instead. No re-dedup here: _build_candidates
        # already attenuates across batches (the _offered_seen
        # suppressor), and shard insert-if-absent is authoritative.
        t = (
            tables[0]
            if len(tables) == 1
            else pa.concat_tables(tables).combine_chunks()
        )
        self._pending_offers.append(
            self.shards[sid].offer.remote(wire.dump(t))
        )

    def warm_corpus_shards(self, sids: list[int]) -> int:
        """Pre-resolve (mmap, or restore-from-spill) corpus shards —
        the aligned executor fires one of these per worker at crawl
        start with the worker's OWN range slice, so shard restores
        overlap the BFS seed ramp instead of serializing into the
        first take waves. Idempotent (resolve is get-or-insert); a
        no-op for non-sharded fetchers."""
        shard = getattr(self.fetcher, "_shard", None)
        if shard is None:
            return 0
        for sid in sids:
            shard(int(sid))
        return len(sids)

    def fetcher_stats(self) -> dict:
        """Corpus-residency telemetry (sharded fetcher only): how many
        shard resolves this worker performed and how many DISTINCT
        shards it touched. Equal counts = no LRU thrash; under
        corpus-range-aligned dispatch the distinct count is the
        worker's range slice (tests/test_corpus_align.py)."""
        stats = getattr(self.fetcher, "residency_stats", None)
        return stats() if stats else {}

    def pid(self) -> int:
        """Incarnation stamp for the checked-drain contract: a restarted
        actor lives in a NEW process, so a pid change between two drains
        tells the engine that buffered / fire-and-forget offers may have
        died with the old process and the since-last-ack range window
        must replay (side-effect-only; shard insert-if-absent and the
        last-wins doc compaction make the replay idempotent)."""
        return os.getpid()

    def drain_info(self) -> dict:
        """Checked drain: the ack point of the at-least-once offer
        contract. Flushes + awaits every offer/requeue RPC and returns
        {pid, admits}. The engine compares pid against the value it saw
        at the PREVIOUS ack: equality proves one incarnation performed
        every range since then AND acked their offers, so nothing was
        lost; a mismatch triggers replay of that window. This keeps the
        hot path fire-and-forget (a per-range synchronous ack was
        measured to serialize ranges on shard RPC latency) while closing
        even the narrow submitted-but-undelivered RPC race — those
        offers are acked here or their ranges replay."""
        return {"pid": os.getpid(), "admits": self.drain()}

    def drain(self) -> int:
        """Barrier: flush buffered offers, wait for every in-flight
        offer/requeue of this worker, return the summed admitted count
        (requeues are at-least-once re-inserts, not admits)."""
        for sid in list(self._offer_buf):
            self._flush_shard(sid)
        if not self._pending_offers and not self._pending_misc:
            return 0
        import ray

        total = sum(ray.get(self._pending_offers))
        if self._pending_misc:
            ray.get(self._pending_misc)
            self._pending_misc = []
        self._pending_offers = []
        return total

    def _retry_ledger(self, failed: pa.Table) -> int:
        """The retry ledger (reference W3/S13): returns the deadlettered
        count."""
        attempts = pc.add(failed.column("attempt_count"), 1)
        failed = failed.set_column(
            FRONTIER_SCHEMA.names.index("attempt_count"),
            "attempt_count",
            attempts.cast(pa.int32()),
        )
        retriable_mask = pc.less(attempts, self.max_attempts)
        retriable = failed.filter(retriable_mask)
        exhausted = failed.filter(pc.invert(retriable_mask))
        if retriable.num_rows:
            names = FRONTIER_SCHEMA.names
            retriable = retriable.set_column(
                names.index("queue"),
                "queue",
                pa.array(
                    [RETRY_QUEUE] * retriable.num_rows, pa.string()
                ),
            ).select(names)
            for sid, sub in shard_split(
                retriable, self.num_shards, self.range_route
            ):
                if self._local:
                    self.shards[sid].requeue(sub)
                else:
                    self._pending_misc.append(
                        self.shards[sid].requeue.remote(wire.dump(sub))
                    )
        if exhausted.num_rows and self.dead_dir is not None:
            dead = exhausted.select(FRONTIER_SCHEMA.names).append_column(
                "error",
                pa.array(["not found"] * exhausted.num_rows, pa.string()),
            ).append_column(
                "failed_at",
                pa.array([self.now_us] * exhausted.num_rows, pa.int64()),
            )
            part = hashlib.sha1(
                exhausted.column("url_hash")[0].as_py()
                + exhausted.num_rows.to_bytes(4, "big")
                + self.epoch.to_bytes(4, "big")
            ).hexdigest()[:16]
            tmp = os.path.join(self.dead_dir, f".dead-{part}.tmp")
            pq.write_table(dead, tmp)
            os.replace(
                tmp, os.path.join(self.dead_dir, f"dead-{part}.parquet")
            )
        return exhausted.num_rows

    def _token_gate(self, batch: pa.Table) -> tuple[pa.Table, int]:
        """T7/T8: select a trait-matched identity per request. Benched /
        call-capped identities DEFER the row (requeue with not_before =
        the restore time — the deferDelay analogue); rows no identity
        matches go through the retry ledger like any failed fetch
        (reference: a null token errors the request). Returns
        (admitted_batch, deadlettered)."""
        types = batch.column("type").to_pylist()
        pool = self.token_pool
        now = self.now_us
        keep, defer_i, defer_until, fail = [], [], [], []
        for i, ty in enumerate(types):
            got = pool.get_token(self.token_traits.get(ty), now)
            if got is None:
                fail.append(i)
            elif isinstance(got, int):
                defer_i.append(i)
                defer_until.append(got)
            else:
                keep.append(i)
        if len(keep) == len(types):
            return batch, 0
        dead = 0
        if defer_i:
            self.token_deferred += len(defer_i)
            deferred = batch.take(pa.array(defer_i, pa.int64())).select(
                FRONTIER_SCHEMA.names
            )
            deferred = deferred.set_column(
                FRONTIER_SCHEMA.names.index("not_before"),
                "not_before",
                pa.array(defer_until, pa.int64()),
            )
            for sid, sub in shard_split(
                deferred, self.num_shards, self.range_route
            ):
                if self._local:
                    self.shards[sid].requeue(sub)
                else:
                    self._pending_misc.append(
                        self.shards[sid].requeue.remote(wire.dump(sub))
                    )
        if fail:
            self.token_unmatched += len(fail)
            dead = self._retry_ledger(batch.take(pa.array(fail, pa.int64())))
        return batch.take(pa.array(keep, pa.int64())), dead

    def token_stats(self) -> dict:
        return {
            "deferred": self.token_deferred,
            "unmatched": self.token_unmatched,
        }

    def _in_scope(self, host: str) -> bool:
        """Host allowlist check (M5): exact match or subdomain of an
        allowed host; an empty scope admits everything. Memoized per
        worker — distinct-host cardinality is small relative to links."""
        if not self.scope_hosts:
            return True
        hit = self._scope_memo.get(host)
        if hit is None:
            hit = any(
                host == a or host.endswith("." + a)
                for a in self.scope_hosts
            )
            self._scope_memo[host] = hit
        return hit

    def _build_candidates(
        self, children: list[tuple], depths: list[int]
    ) -> pa.Table:
        """children: (type, url, parent_urn, relation, parent_row,
        parent_policy) — children inherit the parent's policy (X4)."""
        # Cross-batch attenuation FIRST, keyed on the RAW link string,
        # so only novel links pay canonicalization at all: ~90% of
        # discovered links at bench scale are repeats of zipf-hot
        # targets with byte-identical hrefs, and canonicalize was the
        # dominant term of this kernel. Raw-keyed dedup is
        # correctness-neutral like the digest-keyed version it
        # replaces: shard insert-if-absent stays authoritative, and
        # distinct raw spellings of one canonical url (~variant_frac)
        # simply reach the shard instead of being pre-deduped here.
        # (A canonical-url memo was tried and REGRESSED at scale —
        # 24 workers x millions of dict entries = GC pressure + hit
        # rate falling as 1/pool; the suppressor set stores only the
        # RAW string it already holds a reference to.)
        in_scope = self._in_scope
        # in/cross-batch pre-dedup (attenuation, D1)
        if len(self._offered_seen) > self.OFFERED_SEEN_CAP:
            self._offered_seen.clear()
        seen = self._offered_seen
        keep = [
            i
            for i, c in enumerate(children)
            if c[1] not in seen and not seen.add(c[1])
        ]
        norm, digests, hosts = canonicalize_batch(
            [children[i][1] for i in keep]
        )
        if self.scope_hosts or self.robots_rules:
            # Vectorized per host-GROUP (round-2 verdict item 7; the
            # previous per-link Python closure was the hottest kernel's
            # worst path on politeness-enabled crawls): scope is
            # decided once per UNIQUE host and broadcast via the
            # inverse index; robots longest-match runs as numpy
            # prefix-matching over each ruled host's path group.
            harr = np.asarray(hosts, dtype=object)
            uniq, inv = np.unique(harr, return_inverse=True)
            host_ok = np.fromiter(
                (in_scope(h) for h in uniq), dtype=bool, count=len(uniq)
            )
            mask = host_ok[inv]
            if self.robots_rules:
                for hi, h in enumerate(uniq):
                    rules = self.robots_rules.get(h)
                    if rules is None or not host_ok[hi]:
                        continue
                    rows = np.flatnonzero((inv == hi) & mask)
                    if not rows.size:
                        continue
                    paths = []
                    for j in rows:
                        u = norm[j]
                        slash = u.find("/", u.find("://") + 3)
                        paths.append(u[slash:] if slash >= 0 else "/")
                    ok = rules.allowed_many(paths)
                    mask[rows[~ok]] = False
            sel = np.flatnonzero(mask)
            keep = [keep[j] for j in sel]
            norm = [norm[j] for j in sel]
            digests = [digests[j] for j in sel]
            hosts = [hosts[j] for j in sel]
        n = len(keep)
        return pa.Table.from_arrays(
            [
                pa.array(norm, pa.string()),
                pa.array(digests, pa.binary(20)),
                pa.array(hosts, pa.string()),
                pa.array([children[i][0] for i in keep], pa.string()),
                pa.array([children[i][5] for i in keep], pa.string()),
                pa.array([CHILD_QUEUE] * n, pa.string()),
                pa.array([depths[children[i][4]] + 1 for i in keep], pa.int32()),
                pa.array([self.now_us] * n, pa.int64()),
                pa.array([0] * n, pa.int32()),
                pa.array([0] * n, pa.int64()),
                pa.array([children[i][2] for i in keep], pa.string()),
                pa.array([children[i][3] for i in keep], pa.string()),
                pa.array([""] * n, pa.string()),
                pa.array([""] * n, pa.string()),
            ],
            schema=FRONTIER_SCHEMA,
        )

    def _write_docs(self, doc_rows: dict[str, list]) -> None:
        docs = pa.Table.from_arrays(
            [
                pa.array(doc_rows[name], typ)
                for name, typ in zip(DOCUMENT_SCHEMA.names, DOCUMENT_SCHEMA.types)
            ],
            schema=DOCUMENT_SCHEMA,
        )
        out_dir = os.path.join(self.docs_dir, f"epoch={self.epoch}")
        os.makedirs(out_dir, exist_ok=True)
        # per-stage random salt + sequence: the content-derived name
        # alone could collide ACROSS runs against the same state_dir
        # (an incremental re-crawl repeating a batch composition would
        # silently replace the prior run's version file)
        part = hashlib.sha1(
            b"".join(doc_rows["url_hash"][:4])
            + len(doc_rows["urn"]).to_bytes(4, "big")
            + self._write_salt
            + self._doc_seq.to_bytes(4, "big")
        ).hexdigest()[:16]
        self._doc_seq += 1
        tmp = os.path.join(out_dir, f".part-{part}.tmp")
        pq.write_table(docs, tmp)
        os.replace(tmp, os.path.join(out_dir, f"part-{part}.parquet"))

    # -- the batch body ----------------------------------------------------

    def __call__(self, batch: pa.Table) -> BatchStats:
        gate_dead = 0
        if self.token_pool is not None:
            batch, gate_dead = self._token_gate(batch)
        urls = batch.column("url").to_pylist()
        types = batch.column("type").to_pylist()
        depths = batch.column("depth").to_pylist()
        parent_urns = batch.column("parent_urn").to_pylist()
        relations = batch.column("relation").to_pylist()
        payload_etags = batch.column("payload_etag").to_pylist()
        payload_bodies = batch.column("payload_body").to_pylist()
        url_hashes = batch.column("url_hash").to_pylist()

        # rows carrying an embedded payload body never fetch: the
        # reference marks event payloads pre-fetched with etag=1 so the
        # fetcher skips the GET (lib/crawlerFactory.js:670). Masking
        # `found` keeps them out of the bodies() materialization —
        # zero corpus/wire reads for pushed events. Computed BEFORE the
        # lookup so a url-addressed fetcher (real HTTP) can skip the
        # GET itself, not just the materialization.
        has_payload = None
        if any(payload_bodies):
            has_payload = np.fromiter(
                (bool(p) for p in payload_bodies),
                dtype=bool,
                count=len(payload_bodies),
            )
        if getattr(self.fetcher, "wants_urls", False):
            # url-addressed fetcher (sources/httpfetch.py): the wire is
            # the source of truth — fetches by URL over real sockets
            found, idxs = self.fetcher.lookup_urls(
                urls, url_hashes, skip=has_payload
            )
        else:
            found, idxs = self.fetcher.lookup(url_hashes)
        if has_payload is not None:
            found = found & ~has_payload
        # batch-materialize the found bodies in ONE Arrow take + pylist
        # pass instead of per-row __getitem__/.as_py() calls
        bodies = self.fetcher.bodies(idxs[found]) if found.any() else []
        body_pos = np.cumsum(found) - 1  # row i -> bodies[body_pos[i]]

        statuses = np.full(len(urls), 404, dtype=np.int32)
        doc_rows: dict[str, list] = defaultdict(list)
        children: list[tuple] = []
        policies = batch.column("policy").to_pylist()
        row_hosts = (
            batch.column("url_host").to_pylist()
            if self.track_host_cost
            else None
        )
        host_cost: dict[str, float] = defaultdict(int)

        for i in range(len(urls)):
            from_payload = has_payload is not None and has_payload[i]
            if not found[i] and not from_payload:
                continue
            if from_payload:
                row = -1  # no corpus row backs this document
                body = payload_bodies[i].encode("utf-8")
            else:
                row = int(idxs[i])
                body = bodies[body_pos[i]]
            if row_hosts is not None and not from_payload:
                # T6: every FETCH charges its cost; embedded payloads
                # cost no fetch. Real measured latency when the fetcher
                # reports it (A7 contract), else the body-bytes proxy.
                if self._elapsed_ms is not None:
                    host_cost[row_hosts[i]] += self._elapsed_ms(row)
                else:
                    host_cost[row_hosts[i]] += len(body)
            etag = etag_of(body)
            # 304-unchanged (etag match): no new document version is
            # written, but children STILL traverse — the reference
            # re-processes from the cached store content on 304 without
            # re-saving (githubFetcher _getCachedContent semantics), so
            # an incremental re-crawl reaches changed docs through
            # unchanged ancestors.
            unchanged = bool(payload_etags[i]) and payload_etags[i] == etag
            # X4 traversal policy (reference policy.getShortForm(),
            # routes/requests.js:79; the policy table maps to
            # depth/scope rules per SURVEY §2.10): 'default' follows
            # links; 'shallow' stores the document and queues NO
            # children; 'depth:K' queues children only while the
            # child's depth stays <= K. Children INHERIT the parent
            # policy, so a depth:K seed bounds its whole subtree.
            policy = policies[i]
            expand = True
            if policy != "default":
                if policy == "shallow":
                    expand = False
                elif policy.startswith("depth:"):
                    expand = depths[i] + 1 <= int(policy[6:])
            if types[i] in ("page", "event_trigger"):
                # inlined page visit (the dominant type): same
                # semantics as stages/visitor.visit but no dataclass
                # per child, and the urn reuses the row's url_hash
                # (sha1 of the canonical url — identical to
                # page_urn()'s digest, asserted by the crawl goldens).
                # Measured: the dataclass + re-hash overhead was ~15%
                # of the visit kernel.
                text, links = extract_page(body, urls[i], want_links=expand)
                urn = "urn:page:" + url_hashes[i].hex()
                # payload-backed (event-delivered) rows persist their
                # payload in the doc body column: no corpus row backs
                # them, so crash recovery re-offers them WITH this body
                # (zero-fetch + stored-etag 304) instead of deadlettering
                # them as unfetchable pages (ADVICE r3)
                doc_text, doc_type = text, "page"
                doc_body = payload_bodies[i] if from_payload else ""
                n_children = len(links)
                for link in links:
                    children.append(("page", link, urn, "links", i, policy))
            else:
                result = visit(
                    types[i], urls[i], body,
                    parent_urn=parent_urns[i], relation=relations[i],
                    child_queue=CHILD_QUEUE,
                )
                urn = result.urn
                doc_text, doc_body = result.text, result.body
                doc_type = result.doc_type
                kids = result.children if expand else []
                n_children = len(kids)
                for ch in kids:
                    children.append(
                        (ch.type, ch.url, ch.parent_urn, ch.relation, i,
                         policy)
                    )
            if unchanged:
                statuses[i] = 304
                continue
            statuses[i] = 200
            doc_rows["urn"].append(urn)
            doc_rows["type"].append(doc_type)
            doc_rows["url"].append(urls[i])
            doc_rows["url_hash"].append(url_hashes[i])
            doc_rows["etag"].append(etag)
            doc_rows["fetched_at"].append(
                self.now_us if row < 0 else self.fetcher.fetched_at(row)
            )
            doc_rows["processed_at"].append(self.now_us)
            doc_rows["depth"].append(depths[i])
            doc_rows["text"].append(doc_text)
            doc_rows["body"].append(doc_body)
            doc_rows["lang"].append("" if row < 0 else self.fetcher.lang(row))
            doc_rows["n_links"].append(n_children)

        offered = len(children)  # pre-dedup (golden queued-children counts)
        admitted = (
            self._offer(self._build_candidates(children, depths))
            if children
            else 0
        )
        admitted = max(admitted, 0)  # -1 = deferred to drain()

        n_docs = len(doc_rows["urn"])
        if n_docs and self.docs_dir is not None:
            self._write_docs(doc_rows)

        dead = gate_dead
        failed_mask = statuses == 404
        if failed_mask.any():
            dead += self._retry_ledger(batch.filter(pa.array(failed_mask)))
        # T6 host cost in ms: the fetcher's measured latency rounded to
        # the microsecond, or the body-bytes proxy
        if self._elapsed_ms is not None:
            cost_ms = {
                h: round(v * 1000) / 1000 for h, v in host_cost.items()
            }
        else:
            cost_ms = {
                h: v / self.compute_bytes_per_ms for h, v in host_cost.items()
            }
        # flush shards with a meaningful backlog so they admit rows
        # continuously and the driver's next take sees them without a
        # barrier — flushing all shards every batch was measured at
        # ~100 ms/batch of RPC serialization; small residues land at
        # the next threshold crossing or at drain()
        for sid, nbuf in list(self._buf_rows.items()):
            if nbuf >= 2048:
                self._flush_shard(sid)
        return BatchStats(
            fetched=len(urls),
            docs=n_docs,
            offered=offered,
            admitted=admitted,
            failed=int(failed_mask.sum()),
            deadlettered=dead,
            unchanged=int((statuses == 304).sum()),
            second=int(time.time()),
            host_cost_ms=cost_ms,
        )
