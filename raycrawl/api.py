"""Control-surface library API — the reference's REST routes as calls.

The reference exposes queue/doc/deadletter management over Express
(/root/reference/app.js:26-33, routes/*); the rebuild is a library the
driver calls directly (SURVEY §2.10 X6). Everything operates on a
CrawlEngine (live shards) or on a finished crawl's state_dir (parquet).
"""

from __future__ import annotations

import os
import shutil
from glob import glob

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import wire
from .pipelines.crawl import CrawlEngine
from .schemas import DEADLETTER_SCHEMA, FRONTIER_SCHEMA, QUEUES
from .state.auth import guarded


# -- queue surface (routes/queues.js, routes/requests.js) -------------------


@guarded
def queue_depths(engine: CrawlEngine) -> dict[str, int]:
    """GET /queues depth per class (A1; inmemorycrawlqueue.js:65-70)."""
    totals = {q: 0 for q in QUEUES}
    for c in engine._call("counts"):
        for q, n in c.items():
            totals[q] = totals.get(q, 0) + n
    return totals


def _take_sorted(engine: CrawlEngine, queue: str, count: int) -> pa.Table:
    """Take up to ``count`` rows of ``queue`` from every shard, in
    priority order, past the politeness gate. Shards return
    ``wire.dump`` buffers (take_split), so no shard actor ships a table
    through Ray's own serializer."""
    takes = [
        wire.load(buf)
        for _, buf in engine._call(
            "take_split", {queue: count}, 2**62, gate=False
        )
    ]
    table = pa.concat_tables(takes)
    order = pc.sort_indices(
        table,
        sort_keys=[("depth", "ascending"), ("discovery_ts", "ascending"),
                   ("url", "ascending")],
    )
    return table.take(order)


@guarded
def peek(engine: CrawlEngine, queue: str, count: int = 25) -> pa.Table:
    """GET /requests/:queue?count — top-N pending requests in priority
    order WITHOUT consuming them (O4, routes/requests.js:30-44, capped
    at 100 like the reference)."""
    count = min(count, 100)
    table = _take_sorted(engine, queue, count)
    # peek ≠ pop: put EVERYTHING taken back (requeue skips dedup), then
    # return only the top slice — requeuing just the slice would silently
    # drop the rest of the taken rows from the frontier.
    engine._route(table, "requeue")
    return table.slice(0, count)


@guarded
def pop(engine: CrawlEngine, queue: str, count: int = 25) -> pa.Table:
    """DELETE /requests/:queue?count — consume top-N (routes/requests.js:11-14)."""
    count = min(count, 100)
    table = _take_sorted(engine, queue, count)
    engine._route(table.slice(count), "requeue")
    return table.slice(0, count)


@guarded
def queue_requests(engine: CrawlEngine, specs: list[str | dict],
                   queue: str = "normal") -> int:
    """POST /requests — the request rationalizer (M1,
    routes/requests.js:57-81): a string spec containing '/' is a repo,
    otherwise an org; dicts pass through."""
    gh = "https://api.github.com"
    out = []
    for s in specs:
        if isinstance(s, str):
            if "/" in s:
                out.append({"url": f"{gh}/repos/{s.lower()}", "type": "repo",
                            "queue": queue})
            else:
                out.append({"url": f"{gh}/orgs/{s.lower()}", "type": "org",
                            "queue": queue})
        else:
            out.append({**s, "queue": s.get("queue", queue)})
    return engine.seed(out)


@guarded
def flush_queue(engine: CrawlEngine, queue: str) -> int:
    """DELETE /queues/:name (D4, routes/queues.js:11-17): drop all
    pending rows of one class; the seen filter keeps its snapshot.
    Executes shard-side (FrontierShardState.drop_queue) — only counts
    cross to the driver, never the rows themselves."""
    return sum(engine._call("drop_queue", queue))


@guarded
def patch_config(engine: CrawlEngine, patches) -> None:
    """PATCH /config (T11/X5, routes/config.js:12-18): queue config
    patches; they land at the engine's next epoch boundary. Accepts the
    reference's flat op list or a {subsystem: {key: value}} dict."""
    engine.patch_config(patches)


@guarded
def get_config(engine: CrawlEngine) -> dict:
    """GET /config (routes/config.js:20-28)."""
    return engine.config_snapshot()


@guarded
def status(engine: CrawlEngine) -> dict:
    """GET /status (A6, routes/status.js:10-20)."""
    return {
        "queues": queue_depths.__wrapped__(engine),
        "seen": sum(engine._call("seen_count")),
        "docs_written": engine._totals["docs"],
        "deadlettered": engine._totals["deadlettered"],
        "mode": engine.cfg.mode,
        "num_shards": engine.cfg.num_shards,
    }


# -- document store surface (storageDocStore.js list/count) -----------------


def _docs_files(state_dir: str) -> list[str]:
    return sorted(glob(os.path.join(state_dir, "documents", "epoch=*", "*.parquet")))


@guarded
def doc_count(state_dir: str, urn_prefix: str = "") -> int:
    """A2 segmented count by urn prefix (storageDocStore.js:143-177) —
    column-pruned parquet scan, no full-table load."""
    total = 0
    for f in _docs_files(state_dir):
        col = pq.read_table(f, columns=["urn"]).column("urn")
        if urn_prefix:
            total += int(pc.sum(pc.starts_with(col, urn_prefix)).as_py() or 0)
        else:
            total += len(col)
    return total


@guarded
def doc_list(state_dir: str, urn_prefix: str = "", limit: int = 10_000) -> pa.Table:
    """A3 metadata projection, capped at 10 000 like the reference
    (storageDocStore.js:93-129)."""
    cols = ["urn", "type", "url", "etag", "fetched_at", "processed_at"]
    out = []
    remaining = limit
    for f in _docs_files(state_dir):
        t = pq.read_table(f, columns=cols)
        if urn_prefix:
            t = t.filter(pc.starts_with(t.column("urn"), urn_prefix))
        if t.num_rows:
            out.append(t.slice(0, remaining))
            remaining -= min(remaining, t.num_rows)
        if remaining <= 0:
            break
    if not out:
        return pa.schema([(c, pa.string()) for c in cols]).empty_table()
    return pa.concat_tables(out)


@guarded
def latest_documents_dataset(state_dir: str):
    """D3 last-write-wins compaction as a streaming Ray Data pipeline —
    the 100-TB path (the driver-side ``latest_documents`` below is the
    small-result admin variant). Co-locate by urn (_by_key), then ONE
    vectorized sort + first-of-run kernel per block; no per-key
    Python, no driver materialization."""
    import numpy as np
    import ray.data

    from .pipelines.analytics import _by_key

    def last_per_urn(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            t,
            sort_keys=[("urn", "ascending"), ("processed_at", "descending")],
        )
        t = t.take(order)
        urns = t.column("urn").combine_chunks()
        if len(urns) <= 1:
            return t
        neq = pc.not_equal(urns.slice(1), urns.slice(0, len(urns) - 1))
        keep = np.concatenate(
            ([True], neq.to_numpy(zero_copy_only=False))
        )
        return t.filter(pa.array(keep))

    ds = ray.data.read_parquet(os.path.join(state_dir, "documents"))
    return _by_key(ds, "urn", last_per_urn)


@guarded
def latest_documents(state_dir: str) -> pa.Table:
    """D3 last-write-wins compaction: one row per urn, max processed_at
    (re-crawl upsert semantics, mongodocstore.js:25-32). Driver-side
    admin variant — use ``latest_documents_dataset`` at scale."""
    files = _docs_files(state_dir)
    if not files:
        from .schemas import DOCUMENT_SCHEMA

        return DOCUMENT_SCHEMA.empty_table()
    table = pa.concat_tables(pq.read_table(f) for f in files)
    order = pc.sort_indices(
        table,
        sort_keys=[("urn", "ascending"), ("processed_at", "descending")],
    )
    table = table.take(order)
    # first-row-per-urn-run mask, vectorized: row i survives iff its urn
    # differs from row i-1's (table is sorted urn asc, processed_at desc)
    urns = table.column("urn").combine_chunks()
    if len(urns) <= 1:
        return table
    import numpy as np

    neq = pc.not_equal(urns.slice(1), urns.slice(0, len(urns) - 1))
    keep = np.concatenate(([True], neq.to_numpy(zero_copy_only=False)))
    return table.filter(pa.array(keep))


# -- metrics surface (routes/status.js + the dashboard's live counters) -----


@guarded
def metrics_series(
    state_dir: str,
    metric: str,
    t0: int | None = None,
    t1: int | None = None,
) -> pa.Table:
    """Per-second time series of one counter from a finished (or
    checkpointed) crawl's metrics table — the queryable analogue of the
    reference dashboard's live redis-metrics buckets
    (timeGranularity 'second', lib/crawlerFactory.js:264-277; served
    via routes/status.js:10-20). Returns (second, value) rows in
    [t0, t1] (epoch-second bounds, inclusive; None = open), sorted by
    second. Unknown metrics yield an empty series."""
    path = os.path.join(state_dir, "metrics.parquet")
    if not os.path.exists(path):
        return pa.table(
            {"second": pa.array([], pa.int64()),
             "value": pa.array([], pa.int64())}
        )
    t = pq.read_table(path, columns=["name", "second", "value"])
    mask = pc.equal(t.column("name"), f"sec:{metric}")
    if t0 is not None:
        mask = pc.and_(mask, pc.greater_equal(t.column("second"), t0))
    if t1 is not None:
        mask = pc.and_(mask, pc.less_equal(t.column("second"), t1))
    out = t.filter(mask).select(["second", "value"])
    return out.take(pc.sort_indices(out, sort_keys=[("second", "ascending")]))


@guarded
def trace_log(state_dir: str, event: str | None = None) -> pa.Table:
    """Lifecycle trace rows (mockInsights trackTrace/trackEvent
    analogue, providers/logger/mockInsights.js:20-60) from a crawl's
    state_dir, optionally filtered by event name, in emission order."""
    from .schemas import TRACE_SCHEMA

    path = os.path.join(state_dir, "trace.parquet")
    if not os.path.exists(path):
        return TRACE_SCHEMA.empty_table()
    t = pq.read_table(path)
    if event is not None:
        t = t.filter(pc.equal(t.column("event"), event))
    return t


# -- deadletter surface (routes/deadletters.js) -----------------------------


@guarded
def deadletter_list(state_dir: str) -> pa.Table:
    files = sorted(glob(os.path.join(state_dir, "deadletters", "*.parquet")))
    if not files:
        return DEADLETTER_SCHEMA.empty_table()
    return pa.concat_tables(pq.read_table(f) for f in files)


@guarded
def deadletter_count(state_dir: str) -> int:
    return deadletter_list.__wrapped__(state_dir).num_rows


@guarded
def requeue_deadletters(engine: CrawlEngine, state_dir: str,
                        urls: list[str] | None = None) -> int:
    """POST /deadletters?op=requeue (J3, routes/deadletters.js:30-38):
    failed rows re-enter the frontier with attempt_count reset; the
    deadletter files are cleared for the requeued rows."""
    dead = deadletter_list.__wrapped__(state_dir)
    if dead.num_rows == 0:
        return 0
    if urls is not None:
        mask = pc.is_in(dead.column("url"), value_set=pa.array(urls))
        requeue, keep = dead.filter(mask), dead.filter(pc.invert(mask))
    else:
        requeue, keep = dead, dead.slice(0, 0)
    rows = requeue.select(FRONTIER_SCHEMA.names)
    names = FRONTIER_SCHEMA.names
    rows = rows.set_column(
        names.index("attempt_count"), "attempt_count",
        pa.array([0] * rows.num_rows, pa.int32()),
    )
    n = engine._route(rows, "requeue")
    dead_dir = os.path.join(state_dir, "deadletters")
    shutil.rmtree(dead_dir, ignore_errors=True)
    os.makedirs(dead_dir, exist_ok=True)
    if keep.num_rows:
        pq.write_table(keep, os.path.join(dead_dir, "epoch=requeued.parquet"))
    return n
