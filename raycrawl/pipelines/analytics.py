"""Operator inventory as Ray Data pipelines over the driver testdata.

Each entry implements one operator family from SURVEY.md §2 against the
TPC-H-ish tables in ``/root/testdata/sf*`` (the crawl-table stand-ins,
FIXTURES.md §6) and is paired with an ANSI-SQL oracle the driver runs
through DuckDB. Column names and dtypes match the oracle exactly; all
float aggregations are computed in integer cents so partial-aggregation
order cannot perturb the value hash.

Registry: ``QUERIES[name] -> fn(sf_dir)``, ``ORACLES[name] -> sql``
(omitted for non-SQL-expressible ops → driver does a rows-only check).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

QUERIES: dict = {}
ORACLES: dict[str, str] = {}


def query(name: str, sql: str | None = None):
    def deco(fn):
        QUERIES[name] = fn
        if sql is not None:
            ORACLES[name] = sql
        return fn

    return deco


def _nblocks(sf_dir: str, table: str) -> int:
    """Size-aware block count of _read; every keyed merge downstream
    (_by_key) keeps it, so the partition count tracks the data like
    the read fan-out does."""
    import os

    path = f"{sf_dir}/{table}.parquet"
    return max(16, int(os.path.getsize(path)) // (64 << 20))


def _read(sf_dir: str, table: str, columns=None):
    """Pruned parquet read with size-aware block count: Ray's default
    minimum parallelism splits even a 10 MB table into 64 blocks, and
    the per-block scheduling tax dominated the small-file queries
    (TPC-H Q1 warm: 1.21 s at 64 blocks -> 0.54 s at 16). One block
    per ~64 MB with a floor of 16 (so actor-pool stages still fan out)
    keeps the same fan-out curve at 100 TB."""
    import ray.data

    return ray.data.read_parquet(
        f"{sf_dir}/{table}.parquet",
        columns=columns,
        override_num_blocks=_nblocks(sf_dir, table),
    )


# Per-PROCESS digest-cache policy shared by the task-pool sketch stages
# here and in textops.py: Ray reuses worker processes across tasks, so a
# module-level dict amortizes repeated hashing without actor-pool
# spin-up; cleared when it outgrows the cap so long-lived workers
# running many queries cannot leak.
_CACHE_CAP = 2_000_000


def _bounded(cache: dict) -> dict:
    if len(cache) > _CACHE_CAP:
        cache.clear()
    return cache


# ---------------------------------------------------------------------------
# Queue / frontier analogues (SURVEY §2.5 A1-A6, §2.6 O1/O4, §2.4 J2-J4)
# ---------------------------------------------------------------------------


@query(
    "frontier_queue_depth",
    "SELECT event_type, COUNT(*) AS depth FROM events GROUP BY event_type",
)
def frontier_queue_depth(sf_dir: str):
    """A1 queue-depth counts (reference getInfo.count,
    providers/queuing/inmemorycrawlqueue.js:65-70)."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["event_type"])
    return ds.groupby("event_type").aggregate(Count(alias_name="depth"))


@query(
    "doc_count_by_prefix",
    "SELECT COUNT(*) AS n FROM documents WHERE source LIKE 'src1%'",
)
def doc_count_by_prefix(sf_dir: str):
    """A2 prefix count (reference segmented blob count,
    providers/storage/storageDocStore.js:143-177)."""
    ds = _read(sf_dir, "documents", ["source"])
    n = ds.map_batches(
        lambda t: t.filter(pc.starts_with(t["source"], "src1")),
        batch_format="pyarrow",
    ).count()
    return pa.table({"n": pa.array([n], pa.int64())})


@query(
    "doc_list_by_prefix",
    "SELECT doc_id, source, lang FROM documents WHERE source LIKE 'src2%' "
    "ORDER BY doc_id LIMIT 100",
)
def doc_list_by_prefix(sf_dir: str):
    """A3 metadata projection of matching docs, capped
    (storageDocStore.js:93-129)."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "lang"])
    return (
        ds.map_batches(
            lambda t: t.filter(pc.starts_with(t["source"], "src2")),
            batch_format="pyarrow",
        )
        .sort("doc_id")
        .limit(100)
    )


@query(
    "peek_topk",
    "SELECT event_id, ts, event_type, user_id FROM events "
    "ORDER BY ts, event_id LIMIT 100",
)
def peek_topk(sf_dir: str):
    """O4 peek N requests in priority order (routes/requests.js:30-44)."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type", "user_id"])
    return ds.sort(["ts", "event_id"]).limit(100)


@query(
    "weighted_queue_order",
    "SELECT event_id, event_type, ts, "
    "CASE event_type WHEN 'error' THEN 10 WHEN 'signup' THEN 3 "
    "WHEN 'purchase' THEN 3 WHEN 'click' THEN 2 ELSE 1 END AS w "
    "FROM events ORDER BY w DESC, ts, event_id LIMIT 200",
)
def weighted_queue_order(sf_dir: str):
    """O1 weighted queue-class scheduling (pop weights,
    lib/crawlerFactory.js:80): priority classes drain by weight rank.
    The weight projection is pure Arrow (index_in + take) — no pandas
    conversion for a dict lookup."""
    keys = pa.array(["error", "signup", "purchase", "click"])
    wvals = pa.array([10, 3, 3, 2], pa.int32())

    def add_w(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["event_type"], value_set=keys)
        w = pc.fill_null(pc.take(wvals, idx), pa.scalar(1, pa.int32()))
        return t.append_column("w", w)

    ds = _read(sf_dir, "events", ["event_id", "event_type", "ts"])
    return (
        ds.map_batches(add_w, batch_format="pyarrow")
        .sort(["w", "ts", "event_id"], descending=[True, False, False])
        .limit(200)
    )


def _by_key(ds, key, fn):
    """The keyed merge every per-key query here uses: co-locate rows by
    ``key`` (a column or a list of columns), then run ``fn`` once per
    block. Ray's sort range-partitions on the key itself, so all rows
    of a key land in one block, and it emits as many blocks as its
    input has: the block count is the input's, sized by _read /
    _nblocks. ``fn`` sees whole blocks (``batch_size=None``) holding
    many keys, so it must be vectorized over them; this is
    ``map_groups`` without its per-group split. Ray's sort still emits
    zero-column blocks for empty key ranges (an empty input, or fewer
    distinct keys than blocks); ``map_batches`` passes those through
    without calling ``fn``."""
    return ds.sort(key).map_batches(
        fn, batch_size=None, batch_format="pyarrow"
    )


def _first_run_mask(sorted_keys: np.ndarray) -> np.ndarray:
    """Row i is the first of its key's run (array sorted by key)."""
    return np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]


@query(
    "dedup_first_by_key",
    "SELECT user_id, event_id AS first_event_id, ts AS first_ts FROM ("
    "  SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id "
    "  ORDER BY ts, event_id) AS rn FROM events) WHERE rn = 1",
)
def dedup_first_by_key(sf_dir: str):
    """D2 exact dedup — first request per identity key wins
    (redisRequestTracker.js:17-53). Co-locate by key (_by_key), then
    ONE vectorized sort + first-of-run kernel per block (round-1
    verdict item #3: the previous per-key map_groups paid a Python
    round trip per user_id)."""

    def first_per_key(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            t, sort_keys=[("user_id", "ascending"), ("ts", "ascending"),
                          ("event_id", "ascending")]
        )
        t = t.take(order)
        mask = _first_run_mask(t.column("user_id").to_numpy())
        t = t.filter(pa.array(mask))
        return pa.table(
            {
                "user_id": t["user_id"],
                "first_event_id": t["event_id"],
                "first_ts": t["ts"],
            }
        )

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    return _by_key(ds, "user_id", first_per_key)


@query(
    "upsert_latest",
    "SELECT user_id, event_id AS last_event_id, ts AS last_ts FROM ("
    "  SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id "
    "  ORDER BY ts DESC, event_id DESC) AS rn FROM events) WHERE rn = 1",
)
def upsert_latest(sf_dir: str):
    """D3 last-write-wins upsert by natural key (mongodocstore.js:25-32
    updateOne upsert). Same keyed merge + vectorized run-mask shape as
    dedup_first_by_key, descending within key."""

    def last_per_key(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            t, sort_keys=[("user_id", "ascending"), ("ts", "descending"),
                          ("event_id", "descending")]
        )
        t = t.take(order)
        mask = _first_run_mask(t.column("user_id").to_numpy())
        t = t.filter(pa.array(mask))
        return pa.table(
            {
                "user_id": t["user_id"],
                "last_event_id": t["event_id"],
                "last_ts": t["ts"],
            }
        )

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    return _by_key(ds, "user_id", last_per_key)


@query(
    "etag_join",
    "SELECT c_mktsegment, "
    "CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) "
    "AS revenue_cents, "
    "COUNT(*) AS n_orders FROM orders JOIN customer "
    "ON o_custkey = c_custkey GROUP BY c_mktsegment",
)
def etag_join(sf_dir: str):
    """J2 etag-lookup join: big fact stream joined against a broadcast
    small side (the documents(url,etag) analogue) — ray.put once
    (sorted key array + dictionary codes, the anti_join_unseen pattern),
    np.searchsorted probe per Arrow batch, partial-aggregate via
    np.bincount before the tiny final groupby. No per-row dict probe."""
    import ray
    from ray.data.aggregate import Sum

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    seg_dict = cust.column("c_mktsegment").combine_chunks().dictionary_encode()
    seg_labels = seg_dict.dictionary.to_pylist()
    keys = cust.column("c_custkey").to_numpy()
    order = np.argsort(keys, kind="stable")
    lookup_ref = ray.put(
        (keys[order], seg_dict.indices.to_numpy()[order], seg_labels)
    )

    def join_agg(t: pa.Table) -> pa.Table:
        # task pool: setup is one zero-copy plasma get (see knn_cosine)
        keys, seg_codes, labels = ray.get(lookup_ref)
        probe = t.column("o_custkey").to_numpy()
        idx = np.searchsorted(keys, probe)
        idx_c = np.minimum(idx, len(keys) - 1)
        hit = (idx < len(keys)) & (keys[idx_c] == probe)
        codes = seg_codes[idx_c[hit]]
        cents = np.floor(
            t.column("o_totalprice").to_numpy()[hit] * 100 + 0.5
        ).astype(np.int64)
        nseg = len(labels)
        # float64 bincount is exact while a batch's per-segment sum
        # stays < 2^53 cents (~9e13 dollars) — holds per batch; the
        # cross-batch Sum below runs on int64.
        rev = np.bincount(codes, weights=cents, minlength=nseg).astype(np.int64)
        cnt = np.bincount(codes, minlength=nseg).astype(np.int64)
        nz = cnt > 0
        return pa.table(
            {
                "c_mktsegment": pa.array(
                    [labels[i] for i in np.flatnonzero(nz)]
                ),
                "revenue_cents": pa.array(rev[nz]),
                "n_orders": pa.array(cnt[nz]),
            }
        )

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    partials = ds.map_batches(join_agg, batch_format="pyarrow")
    return partials.groupby("c_mktsegment").aggregate(
        Sum("revenue_cents", alias_name="revenue_cents"),
        Sum("n_orders", alias_name="n_orders"),
    )


@query(
    "anti_join_unseen",
    "SELECT c_custkey FROM customer WHERE c_custkey NOT IN "
    "(SELECT o_custkey FROM orders WHERE o_totalprice > 250000) "
    "ORDER BY c_custkey",
)
def anti_join_unseen(sf_dir: str):
    """J4 anti-join against the seen set (tracker membership test,
    redisRequestTracker.js:22-39): broadcast key set, filter in place."""
    import ray

    orders = pq.read_table(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    seen = np.unique(
        orders.filter(pc.greater(orders.column("o_totalprice"), 250000.0))
        .column("o_custkey")
        .to_numpy()
    )
    seen_ref = ray.put(seen)

    def anti_join(t: pa.Table) -> pa.Table:
        # task pool: setup is one zero-copy plasma get (see knn_cosine)
        b_seen = ray.get(seen_ref)
        keys = t.column("c_custkey").to_numpy()
        idx = np.searchsorted(b_seen, keys)
        idx_c = np.minimum(idx, len(b_seen) - 1)
        mask = ~((idx < len(b_seen)) & (b_seen[idx_c] == keys))
        return t.filter(pa.array(mask))

    ds = _read(sf_dir, "customer", ["c_custkey"])
    return ds.map_batches(anti_join, batch_format="pyarrow").sort(
        "c_custkey"
    )


@query(
    "metrics_rollup",
    "SELECT event_type, date_trunc('minute', ts) AS minute, COUNT(*) AS n "
    "FROM events GROUP BY 1, 2",
)
def metrics_rollup(sf_dir: str):
    """A5 per-second op counters rolled up (redis-metrics analogue,
    lib/crawlerFactory.js:264-277).

    Shape: co-locate on the group key (_by_key), then ONE vectorized
    Arrow ``Table.group_by`` per block. Ray's built-in
    ``aggregate(Count)`` walks group boundaries in Python inside
    AggregateMap/Reduce — measured ~120 us/row on this multi-key
    group (1.4 s at sf0.1 vs 0.77 s for this shape, identical 80k-group
    output). A per-batch partial-count combiner was also tried and
    measured 3-4x slower still: at ~1 row per (type, minute) group
    partials cannot shrink the shuffle.
    The block count tracks the read fan-out (_nblocks), so the shape
    is unchanged at 100 TB: the shuffle carries only (key, minute)
    pairs and every block aggregates vectorized."""

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "minute": pc.floor_temporal(t["ts"], unit="minute"),
            }
        )

    def agg(g: pa.Table) -> pa.Table:
        out = g.group_by(["event_type", "minute"]).aggregate(
            [([], "count_all")]
        )
        return out.rename_columns(
            ["n" if c == "count_all" else c for c in out.column_names]
        ).select(["event_type", "minute", "n"])

    ds = _read(sf_dir, "events", ["event_type", "ts"]).map_batches(
        project, batch_format="pyarrow"
    )
    return _by_key(ds, ["event_type", "minute"], agg)


@query(
    "rate_limit_violations",
    "SELECT user_id, date_trunc('minute', ts) AS minute, COUNT(*) AS n "
    "FROM events GROUP BY 1, 2 HAVING COUNT(*) > 1",
)
def rate_limit_violations(sf_dir: str):
    """T4 fixed-window rate limiter: windows where a key exceeds its
    budget (inmemoryRateLimiter.js:17-36 `over = count > limit`).
    Same keyed vectorized-group_by shape as metrics_rollup (see its
    note on why both Ray's Count and a partial combiner lose at this
    group density)."""

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "minute": pc.floor_temporal(t["ts"], unit="minute"),
            }
        )

    def agg(g: pa.Table) -> pa.Table:
        out = g.group_by(["user_id", "minute"]).aggregate(
            [([], "count_all")]
        )
        out = out.rename_columns(
            ["n" if c == "count_all" else c for c in out.column_names]
        ).select(["user_id", "minute", "n"])
        return out.filter(pc.greater(out["n"], 1))

    ds = _read(sf_dir, "events", ["user_id", "ts"]).map_batches(
        project, batch_format="pyarrow"
    )
    return _by_key(ds, ["user_id", "minute"], agg)


@query(
    "deadletter_requeue",
    "SELECT event_id, user_id, ts, 'immediate' AS queue, 0 AS attempt_count "
    "FROM events WHERE event_type = 'error' ORDER BY ts, event_id LIMIT 500",
)
def deadletter_requeue(sf_dir: str):
    """J3/S13 deadletter list + requeue projection
    (routes/deadletters.js:30-38): failed items re-enter the frontier
    on the immediate queue with a reset attempt count."""

    def project(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "error"))
        n = t.num_rows
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts": t["ts"],
                "queue": pa.array(["immediate"] * n, pa.string()),
                "attempt_count": pa.array([0] * n, pa.int32()),
            }
        )

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    return ds.map_batches(project, batch_format="pyarrow").sort(
        ["ts", "event_id"]
    ).limit(500)


@query(
    "tpch_q1_pricing",
    "SELECT l_returnflag, l_linestatus, "
    "CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty, "
    "CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * (1 + l_tax) "
    "* 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_charge_cents, "
    "COUNT(*) AS count_order "
    "FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02' "
    "GROUP BY l_returnflag, l_linestatus",
)
def tpch_q1_pricing(sf_dir: str):
    """Baseline wide aggregate with in-batch partial aggregation
    (combiner, Arrow-native hash aggregation); the tiny final combine
    runs on the driver — SURVEY §2.5/§4 pattern."""
    import datetime

    cutoff = pa.scalar(
        datetime.datetime(1998, 9, 2), pa.timestamp("us")
    )

    def rename(t: pa.Table, mapping: dict) -> pa.Table:
        return t.rename_columns(
            [mapping.get(c, c) for c in t.column_names]
        )

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t.column("l_shipdate"), cutoff))
        charge = np.floor(
            t.column("l_extendedprice").to_numpy()
            * (1 - t.column("l_discount").to_numpy())
            * (1 + t.column("l_tax").to_numpy())
            * 100
            + 0.5
        ).astype(np.int64)
        grouped = pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "l_linestatus": t.column("l_linestatus"),
                "qty": pa.array(
                    t.column("l_quantity").to_numpy().astype(np.int64)
                ),
                "charge": pa.array(charge),
            }
        ).group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("charge", "sum"), ("qty", "count")]
        )
        return rename(
            grouped,
            {
                "qty_sum": "sum_qty",
                "charge_sum": "sum_charge_cents",
                "qty_count": "count_order",
            },
        )

    ds = _read(
        sf_dir,
        "lineitem",
        [
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
    )
    parts = list(
        ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    )
    # ~(blocks x 6) partial rows: the final combine belongs on the
    # driver — a distributed Aggregate on 384 rows costs more in
    # shuffle machinery than it computes (measured 1.35 s of a 2.1 s
    # query)
    out = (
        pa.concat_tables(parts)
        .group_by(["l_returnflag", "l_linestatus"])
        .aggregate(
            [
                ("sum_qty", "sum"),
                ("sum_charge_cents", "sum"),
                ("count_order", "sum"),
            ]
        )
    )
    return rename(
        out,
        {
            "sum_qty_sum": "sum_qty",
            "sum_charge_cents_sum": "sum_charge_cents",
            "count_order_sum": "count_order",
        },
    )


@query(
    "top_sources",
    "SELECT source, COUNT(*) AS n FROM documents GROUP BY source "
    "ORDER BY n DESC, source LIMIT 10",
)
def top_sources(sf_dir: str):
    """A1/skew stats: hot-host histogram (the url_host skew the fetch
    partitioner must contain, SURVEY §4). Classic combiner shape:
    hosts repeat heavily within a batch (zipf), so a per-batch Arrow
    group_by shrinks the shuffle to (source, partial n) rows; the
    per-block final sum is vectorized too."""

    def partial(t: pa.Table) -> pa.Table:
        return t.select(["source"]).group_by("source").aggregate(
            [([], "count_all")]
        )

    def total(g: pa.Table) -> pa.Table:
        out = g.group_by("source").aggregate([("count_all", "sum")])
        return out.rename_columns(
            ["n" if c == "count_all_sum" else c for c in out.column_names]
        ).select(["source", "n"])

    ds = _read(sf_dir, "documents", ["source"]).map_batches(
        partial, batch_format="pyarrow"
    )
    return (
        _by_key(ds, "source", total)
        .sort(["n", "source"], descending=[True, False])
        .limit(10)
    )


@query(
    "topk_orders_per_status",
    "SELECT o_orderstatus, o_orderkey, o_totalprice FROM orders "
    "QUALIFY ROW_NUMBER() OVER (PARTITION BY o_orderstatus "
    "ORDER BY o_totalprice DESC, o_orderkey) <= 3",
)
def topk_orders_per_status(sf_dir: str):
    """O4 generalized: top-k per group (per-queue peek). Co-locate by
    key; inside each block one vectorized sort + run-relative rank
    (arange minus run start) keeps rank <= k — no per-key
    callbacks."""

    def topk(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            t,
            sort_keys=[
                ("o_orderstatus", "ascending"),
                ("o_totalprice", "descending"),
                ("o_orderkey", "ascending"),
            ],
        )
        t = t.take(order).select(
            ["o_orderstatus", "o_orderkey", "o_totalprice"]
        )
        keys = np.asarray(t.column("o_orderstatus").to_pylist(), dtype=object)
        starts = _first_run_mask(keys)
        run_id = np.cumsum(starts) - 1
        run_start_idx = np.flatnonzero(starts)
        rank = np.arange(len(keys)) - run_start_idx[run_id]
        return t.filter(pa.array(rank < 3))

    ds = _read(
        sf_dir, "orders", ["o_orderstatus", "o_orderkey", "o_totalprice"]
    )
    return _by_key(ds, "o_orderstatus", topk)


@query(
    "events_sessionize",
    "SELECT user_id, COUNT(*) AS n_sessions FROM ("
    "  SELECT user_id, CASE WHEN ts - LAG(ts) OVER "
    "  (PARTITION BY user_id ORDER BY ts, event_id) > INTERVAL 30 MINUTE "
    "  OR LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) IS NULL "
    "  THEN 1 ELSE 0 END AS new_session FROM events) "
    "WHERE new_session = 1 GROUP BY user_id",
)
def events_sessionize(sf_dir: str):
    """W streaming-window analogue: session counts with a 30-minute gap
    rule, per key. Co-locate by user, then one vectorized kernel per
    block: sort by (user, ts, event_id); a session starts at each
    user boundary or >30-min gap; per-user counts are np.add.reduceat
    over the user runs — zero per-key Python."""
    gap_us = 30 * 60 * 1_000_000

    def sessions(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            t, sort_keys=[("user_id", "ascending"), ("ts", "ascending"),
                          ("event_id", "ascending")]
        )
        t = t.take(order)
        uid = t.column("user_id").to_numpy()
        ts = t.column("ts").cast(pa.int64()).to_numpy()  # microseconds
        new_user = _first_run_mask(uid)
        gap_hit = np.r_[True, (ts[1:] - ts[:-1]) > gap_us]
        new_sess = (new_user | gap_hit).astype(np.int64)
        run_starts = np.flatnonzero(new_user)
        n_sessions = np.add.reduceat(new_sess, run_starts)
        starts_idx = pa.array(run_starts, pa.int64())
        return pa.table(
            {
                # take from the arrow column: keeps the source dtype
                "user_id": t.column("user_id").take(starts_idx),
                "n_sessions": pa.array(n_sessions, pa.int64()),
            }
        )

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    return _by_key(ds, "user_id", sessions)


# ---------------------------------------------------------------------------
# Temporal joins + windowed aggregates (W-family extensions: the custom
# operators Ray Data lacks natively — as-of join, interval/range join,
# hopping window — each expressed as one keyed merge (_by_key) + one
# vectorized per-block kernel, the same shape every other per-key query
# here uses. Partitioning assumption (documented per the brief): both
# sides are unioned and sorted on the SAME join key, so each block sees
# every row for its keys and the kernel never needs cross-block
# state.
# ---------------------------------------------------------------------------


@query(
    "asof_join_latest_order",
    "SELECT event_id, user_id, ts, asof_orderkey, asof_orderdate FROM ("
    "  SELECT e.event_id, e.user_id, e.ts,"
    "         o.o_orderkey AS asof_orderkey,"
    "         o.o_orderdate AS asof_orderdate,"
    "         ROW_NUMBER() OVER (PARTITION BY e.event_id"
    "           ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn"
    "  FROM events e LEFT JOIN orders o"
    "    ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts"
    ") WHERE rn = 1",
)
def asof_join_latest_order(sf_dir: str):
    """As-of join: each event picks the key's most recent order at or
    before the event timestamp (ties on o_orderdate break to the max
    o_orderkey; events with no prior order keep nulls — LEFT
    semantics). Both sides are co-located on the key as one tagged
    union; per block ONE vectorized kernel: lexsort by (key, ts,
    side) with orders before same-ts events, then a running cummax of
    order-row indexes — an event's match is the latest order row above
    it, validated by key equality (a cummax that leaks across a key
    boundary fails the equality check and yields null). Zero per-key
    Python; the shuffle carries only the join columns."""

    def tag_events(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table(
            {
                "key": t.column("user_id"),
                "ts": t.column("ts"),
                "side": pa.array(np.ones(n, np.int8)),
                "event_id": t.column("event_id"),
                "o_orderkey": pa.nulls(n, pa.int64()),
            }
        )

    def tag_orders(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table(
            {
                "key": t.column("o_custkey"),
                "ts": t.column("o_orderdate"),
                "side": pa.array(np.zeros(n, np.int8)),
                "event_id": pa.nulls(n, pa.int64()),
                "o_orderkey": t.column("o_orderkey"),
            }
        )

    def asof(t: pa.Table) -> pa.Table:
        key = t.column("key").to_numpy()
        ts = t.column("ts").cast(pa.int64()).to_numpy()
        side = t.column("side").to_numpy()
        okey = pc.fill_null(t.column("o_orderkey"), -1).to_numpy()
        # orders (side 0) before events (side 1) at equal (key, ts)
        # => an order AT the event's own timestamp is visible to it;
        # among same-(key, ts) orders the larger o_orderkey sorts
        # later and wins the cummax (accumulate keeps the max INDEX,
        # and ascending-okey order puts the max okey last in the tie).
        order = np.lexsort((okey, side, ts, key))
        key, ts, side = key[order], ts[order], side[order]
        idx = np.arange(len(key), dtype=np.int64)
        last_order = np.maximum.accumulate(np.where(side == 0, idx, -1))
        ev = np.flatnonzero(side == 1)
        match = last_order[ev]
        valid = (match >= 0) & (key[match.clip(min=0)] == key[ev])
        match_idx = pa.array(
            np.where(valid, match, -1), pa.int64(), mask=~valid
        )
        sorted_t = t.take(pa.array(order, pa.int64()))
        ev_idx = pa.array(ev, pa.int64())
        return pa.table(
            {
                "event_id": sorted_t.column("event_id").take(ev_idx),
                "user_id": sorted_t.column("key").take(ev_idx),
                "ts": sorted_t.column("ts").take(ev_idx),
                "asof_orderkey": sorted_t.column("o_orderkey").take(
                    match_idx
                ),
                "asof_orderdate": sorted_t.column("ts").take(match_idx),
            }
        )

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"]).map_batches(
        tag_events, batch_format="pyarrow"
    )
    od = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(tag_orders, batch_format="pyarrow")
    return _by_key(ev.union(od), "key", asof)


@query(
    "range_join_order_events",
    "SELECT o.o_orderkey, COUNT(e.event_id) AS n_events"
    " FROM orders o LEFT JOIN events e"
    "   ON e.user_id = o.o_custkey"
    "  AND e.ts >= o.o_orderdate"
    "  AND e.ts < o.o_orderdate + INTERVAL 7 DAY"
    " GROUP BY o.o_orderkey",
)
def range_join_order_events(sf_dir: str):
    """Range (interval) join: per order, the count of the customer's
    events inside [o_orderdate, o_orderdate + 7 days). Keyed merge of
    a tagged union; per block ONE vectorized probe-row kernel: each
    order contributes a lo and a hi probe row, the union lexsorts by
    (key, ts, probes-before-equal-ts-events), and the per-order count
    is the difference of the running event cumsum at its two probe
    positions — same-key containment falls out of the sort order, so
    there is no per-key loop and no pairwise expansion (the shuffle
    carries O(orders + events) rows, never O(matches))."""
    window_us = 7 * 24 * 3600 * 1_000_000

    def probes(t: pa.Table) -> pa.Table:
        key = t.column("o_custkey").to_numpy()
        lo = t.column("o_orderdate").cast(pa.int64()).to_numpy()
        okey = t.column("o_orderkey").to_numpy()
        n = len(t)
        return pa.table(
            {
                "key": pa.array(np.tile(key, 2), pa.int64()),
                "ts_us": pa.array(
                    np.r_[lo, lo + window_us], pa.int64()
                ),
                "is_event": pa.array(np.zeros(2 * n, np.int8)),
                # +orderkey = lo probe, -orderkey-1 = hi probe
                "probe": pa.array(np.r_[okey, -okey - 1], pa.int64()),
            }
        )

    def ev_rows(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table(
            {
                "key": t.column("user_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
                "is_event": pa.array(np.ones(n, np.int8)),
                "probe": pa.nulls(n, pa.int64()),
            }
        )

    def count_ranges(t: pa.Table) -> pa.Table:
        key = t.column("key").to_numpy()
        ts = t.column("ts_us").to_numpy()
        is_ev = t.column("is_event").to_numpy()
        probe = t.column("probe").to_numpy(zero_copy_only=False)
        # probes before events at equal ts: lo probe at ts==lo counts
        # the equal-ts event (inclusive lower bound); hi probe at
        # ts==hi excludes it (exclusive upper bound).
        order = np.lexsort((is_ev, ts, key))
        cum = np.cumsum(is_ev[order])
        probe_sorted = probe[order]
        pmask = is_ev[order] == 0
        pcode = probe_sorted[pmask].astype(np.int64)
        pcum = cum[pmask]
        is_lo = pcode >= 0
        okeys = np.where(is_lo, pcode, -pcode - 1)
        # align lo and hi readings per order key via argsort
        lo_order = np.argsort(okeys[is_lo], kind="stable")
        hi_order = np.argsort(okeys[~is_lo], kind="stable")
        n_events = pcum[~is_lo][hi_order] - pcum[is_lo][lo_order]
        return pa.table(
            {
                "o_orderkey": pa.array(
                    okeys[is_lo][lo_order], pa.int64()
                ),
                "n_events": pa.array(n_events, pa.int64()),
            }
        )

    od = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(probes, batch_format="pyarrow")
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"]).map_batches(
        ev_rows, batch_format="pyarrow"
    )
    return _by_key(od.union(ev), "key", count_ranges)


@query(
    "window_hopping_counts",
    "SELECT make_timestamp((epoch_us(ts) // 900000000 - i) * 900000000)"
    "         AS window_start,"
    "       event_type, COUNT(*) AS n"
    " FROM events, (SELECT UNNEST(range(4)) AS i) g"
    " GROUP BY 1, 2",
)
def window_hopping_counts(sf_dir: str):
    """Hopping-window aggregate: event counts per (1-hour window
    hopping every 15 minutes, event_type) — each event lands in
    window_size/hop = 4 overlapping windows. The 4x expansion is
    pre-aggregated INSIDE each batch (Arrow group_by on the emitted
    (window_start, event_type) pairs), so the shuffle carries one
    partial row per distinct pair per batch, not 4x the events — the
    combiner-before-groupby pattern every windowed aggregate at 100 TB
    needs."""
    from ray.data.aggregate import Sum

    hop_us = 15 * 60 * 1_000_000
    fanout = 4  # window 1h / hop 15min

    def partial(t: pa.Table) -> pa.Table:
        ts = t.column("ts").cast(pa.int64()).to_numpy()
        base = ts // hop_us
        ws = (
            (base[:, None] - np.arange(fanout, dtype=np.int64)[None, :])
            * hop_us
        ).ravel()
        etype = t.column("event_type").take(
            pa.array(np.repeat(np.arange(len(ts)), fanout), pa.int64())
        )
        exploded = pa.table(
            {
                "window_start": pa.array(ws, pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "event_type": etype,
            }
        )
        part = exploded.group_by(
            ["window_start", "event_type"]
        ).aggregate([([], "count_all")])
        return part.rename_columns(
            ["window_start", "event_type", "partial_n"]
        )

    ds = _read(sf_dir, "events", ["ts", "event_type"])
    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["window_start", "event_type"])
        .aggregate(Sum("partial_n", alias_name="n"))
    )
    return out


@query(
    "event_funnel_counts",
    "WITH s AS (SELECT user_id, MIN(ts) AS ts0 FROM events "
    "WHERE event_type = 'signup' GROUP BY user_id), "
    "p AS (SELECT DISTINCT e.user_id FROM events e JOIN s USING (user_id) "
    "WHERE e.event_type = 'purchase' AND e.ts > s.ts0) "
    "SELECT 'signup' AS stage, CAST(COUNT(*) AS BIGINT) AS n_users FROM s "
    "UNION ALL "
    "SELECT 'signup_then_purchase', CAST(COUNT(*) AS BIGINT) FROM p",
)
def event_funnel_counts(sf_dir: str):
    """Ordered funnel analysis over the event stream: how many users
    signed up, and how many of those purchased STRICTLY AFTER their
    first signup (order matters — a purchase before the signup does
    not convert; the strict-> tie rule is identical in the twin).
    Filter-before-shuffle: only signup/purchase rows leave the read
    stage, as three int columns (user, ts_us, kind). Then the
    dedup_first_by_key shape — ONE keyed merge by user and one
    vectorized kernel per block (sort + reduceat min/max per user run;
    a user converts iff max purchase ts > min signup ts). Each block
    emits ONE partial row; the driver combine is block-count-bounded."""
    _I64_MAX = np.iinfo(np.int64).max
    _I64_MIN = np.iinfo(np.int64).min

    def pick(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        tt = t.filter(
            pc.or_(pc.equal(et, "signup"), pc.equal(et, "purchase"))
        )
        kind = pc.equal(tt.column("event_type"), "purchase")
        return pa.table(
            {
                "user_id": tt["user_id"],
                "ts_us": pa.array(
                    tt.column("ts").to_numpy().astype("datetime64[us]")
                    .astype(np.int64),
                    pa.int64(),
                ),
                "kind": pc.cast(kind, pa.int8()),
            }
        )

    def funnel_part(g: pa.Table) -> pa.Table:
        g = g.take(
            pc.sort_indices(g, sort_keys=[("user_id", "ascending")])
        )
        users = g.column("user_id").to_numpy()
        ts = g.column("ts_us").to_numpy()
        kind = g.column("kind").to_numpy()
        starts = _first_run_mask(users).nonzero()[0]
        s_min = np.minimum.reduceat(
            np.where(kind == 0, ts, _I64_MAX), starts
        )
        p_max = np.maximum.reduceat(
            np.where(kind == 1, ts, _I64_MIN), starts
        )
        signed = s_min < _I64_MAX
        converted = signed & (p_max > s_min)
        return pa.table(
            {
                "n_signup": pa.array([int(signed.sum())], pa.int64()),
                "n_conv": pa.array([int(converted.sum())], pa.int64()),
            }
        )

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    parts_df = _by_key(
        ds.map_batches(pick, batch_format="pyarrow"), "user_id", funnel_part
    ).to_pandas()  # bounded: one row per block
    return pa.table(
        {
            "stage": pa.array(
                ["signup", "signup_then_purchase"], pa.string()
            ),
            "n_users": pa.array(
                [
                    int(parts_df["n_signup"].sum()),
                    int(parts_df["n_conv"].sum()),
                ],
                pa.int64(),
            ),
        }
    )


@query(
    "orders_trailing_window",
    "SELECT o_orderkey, "
    "CAST(SUM(CAST(FLOOR(o_totalprice*100+0.5) AS BIGINT)) OVER w "
    "AS BIGINT) AS window_cents, "
    "CAST(COUNT(*) OVER w AS BIGINT) AS window_n "
    "FROM orders "
    "WINDOW w AS (PARTITION BY o_custkey ORDER BY CAST(o_orderdate AS DATE) "
    "RANGE BETWEEN INTERVAL 30 DAYS PRECEDING AND CURRENT ROW)",
)
def orders_trailing_window(sf_dir: str):
    """Per-order trailing 30-day window aggregate within each customer
    (the moving-average family the hopping-window operator does not
    cover: RANGE frames are value-based, include same-day peers, and
    are per-row, not per-bucket). Day-granular by definition on both
    sides; sums in integer cents.

    ONE keyed merge by customer; inside each block the whole frame
    computation is three vectorized calls — lexsort by
    (cust, day), a composite-key searchsorted pair for the frame
    bounds (key = cust * 2^32 + day; a 30-day underflow cannot reach
    the previous customer's run because day_max << 2^32 - 30), and a
    cents cumsum differenced at the bounds. No per-customer Python."""
    _DAY_US = 86_400_000_000

    def pick(t: pa.Table) -> pa.Table:
        cust = t.column("o_custkey").to_numpy()
        day = (
            t.column("o_orderdate").to_numpy().astype("datetime64[us]")
            .astype(np.int64)
            // _DAY_US
        )
        cents = np.floor(
            t.column("o_totalprice").to_numpy() * 100 + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "cust": pa.array(cust, pa.int64()),
                "day": pa.array(day, pa.int64()),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    def frame_part(g: pa.Table) -> pa.Table:
        cust = g.column("cust").to_numpy()
        day = g.column("day").to_numpy()
        # ValueError, not assert: under python -O a silent int64
        # overflow in the composite key would corrupt frame bounds
        if not ((cust < (1 << 31)).all() and (day < (1 << 31)).all()):
            raise ValueError(
                "composite frame key needs o_custkey and day < 2^31"
            )
        order = np.lexsort((day, cust))
        cust, day = cust[order], day[order]
        cents = g.column("cents").to_numpy()[order]
        keys = (cust << np.int64(32)) + day
        cum = np.r_[0, np.cumsum(cents)]
        lo = np.searchsorted(keys, keys - 30, side="left")
        hi = np.searchsorted(keys, keys, side="right")
        return pa.table(
            {
                "o_orderkey": pc.take(
                    g["o_orderkey"], pa.array(order, pa.int64())
                ),
                "window_cents": pa.array(cum[hi] - cum[lo], pa.int64()),
                "window_n": pa.array(hi - lo, pa.int64()),
            }
        )

    ds = _read(
        sf_dir,
        "orders",
        ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )
    return _by_key(
        ds.map_batches(pick, batch_format="pyarrow"), "cust", frame_part
    )


# ---------------------------------------------------------------------------
# KMV distinct-count sketch (the "novel sketch" slot of SURVEY §2.11):
# approximate COUNT(DISTINCT user_id) per event_type via the k-minimum-
# values estimator — at 100 TB an exact distinct is a full shuffle of
# every key, while the KMV state is K hashes per group, mergeable by
# set-union + truncate (per-batch partials below). Unlike HLL the whole
# sketch is DETERMINISTIC given the hash, so the DuckDB twin reproduces
# it bit-for-bit: md5-prefix hashes compare identically as hex strings
# and as integers, the kth minimum is a window rank, and the estimate
# (K-1) * 2^64 // kth_min is one HUGEINT floor division. Groups with
# fewer than K distinct hashes degrade to the EXACT count (every batch
# then keeps all its hashes, so the merged union is the full set).
# ---------------------------------------------------------------------------

_KMV_K = 64


def _kmv_oracle_sql() -> str:
    return f"""
    WITH h AS (
      SELECT DISTINCT event_type,
             substr(md5(CAST(user_id AS VARCHAR)), 1, 16) AS hx
      FROM events
    ),
    rk AS (
      SELECT event_type, hx,
             ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY hx) AS rn,
             COUNT(*) OVER (PARTITION BY event_type) AS cnt
      FROM h
    ),
    kth AS (
      SELECT event_type, CAST(LEAST(cnt, {_KMV_K}) AS BIGINT) AS n_kept,
             hx AS kth_min, cnt
      FROM rk WHERE rn = LEAST(cnt, {_KMV_K})
    ),
    num AS (
      SELECT event_type, n_kept, kth_min, cnt,
        list_sum(list_transform(range(1, 17),
          i -> CAST(strpos('0123456789abcdef',
                           substr(kth_min, CAST(i AS INT), 1)) - 1
                    AS HUGEINT)
               * CAST(power(2, 4 * (16 - i)) AS HUGEINT))) AS kv
      FROM kth
    )
    SELECT event_type, n_kept, kth_min,
      CAST(CASE WHEN cnt < {_KMV_K} THEN cnt
           ELSE (CAST({_KMV_K - 1} AS HUGEINT) * 18446744073709551616)
                // kv END AS BIGINT) AS est_distinct
    FROM num
    """


@query("kmv_distinct_users", _kmv_oracle_sql())
def kmv_distinct_users(sf_dir: str):
    """Approximate distinct users per event_type via a KMV sketch
    (family comment above). Shape:

      pass 1  map_batches partials — per (batch, event_type) the K
              smallest DISTINCT md5-prefix hashes (vectorized: one
              np.unique over the batch's (event_type, hash) pairs,
              then a per-group head-K on the already-sorted runs),
      pass 2  groupby(event_type).map_groups merge — set-union the
              partials, truncate to K, emit ONE row per group with
              the exact-integer estimate.

    Partial volume is <= K x groups x batches rows (28 B each); no
    row-level shuffle ever happens — the groupby moves sketches, not
    events. The md5 cost is amortized by a per-process digest cache
    keyed by user_id (users repeat across events)."""
    import hashlib

    def partial(t: pa.Table) -> pa.Table:
        ets = np.asarray(t.column("event_type").to_pylist(), dtype=str)
        uids = t.column("user_id").to_numpy()
        # hash distinct uids once per batch (and per process via cache)
        u_uids, inv = np.unique(uids, return_inverse=True)
        cache = _bounded(_KMV_CACHE)
        hs = np.array(
            [
                cache.get(int(u))
                or cache.setdefault(
                    int(u),
                    hashlib.md5(str(int(u)).encode()).hexdigest()[:16],
                )
                for u in u_uids
            ],
            dtype=str,
        )[inv]
        if ets.size == 0:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "hx": pa.array([], pa.string()),
                }
            )
        # distinct (event_type, hash) pairs, sorted by (type, hash):
        # one lexsort + neighbor mask (no string concatenation — numpy
        # unicode arrays truncate NUL padding, so a sep-join is unsafe)
        order = np.lexsort((hs, ets))
        se, sh = ets[order], hs[order]
        first = np.r_[True, (se[1:] != se[:-1]) | (sh[1:] != sh[:-1])]
        g_et, g_hx = se[first], sh[first]
        # each event_type's hashes now form a sorted run; keep the
        # first K of each run
        starts = np.r_[0, np.flatnonzero(g_et[1:] != g_et[:-1]) + 1]
        ends = np.r_[starts[1:], g_et.size]
        keep = np.zeros(g_et.size, dtype=bool)
        for s, e in zip(starts, ends):
            keep[s : min(e, s + _KMV_K)] = True
        return pa.table(
            {
                "event_type": pa.array(g_et[keep].tolist(), pa.string()),
                "hx": pa.array(g_hx[keep].tolist(), pa.string()),
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        hs = np.unique(np.asarray(g.column("hx").to_pylist(), dtype=str))
        n_kept = min(_KMV_K, hs.size)
        kth = str(hs[n_kept - 1])
        if hs.size < _KMV_K:
            est = int(hs.size)
        else:
            est = ((_KMV_K - 1) << 64) // int(kth, 16)
        return pa.table(
            {
                "event_type": pa.array(
                    [g.column("event_type")[0].as_py()], pa.string()
                ),
                "n_kept": pa.array([n_kept], pa.int64()),
                "kth_min": pa.array([kth], pa.string()),
                "est_distinct": pa.array([est], pa.int64()),
            }
        )

    return (
        _read(sf_dir, "events", ["event_type", "user_id"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(merge, batch_format="pyarrow")
    )


_KMV_CACHE: dict[int, str] = {}
