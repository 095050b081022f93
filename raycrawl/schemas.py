"""Fixed Arrow schemas for the engine's tables (SURVEY §1.3).

The reference is schemaless JSON with a `_metadata` contract
(/root/reference/providers/storage/storageDocStore.js:36-48); the
rebuild pins typed Arrow schemas and keeps the open payload as a JSON
string column. Timestamps are int64 microseconds since epoch (UTC,
naive) so they survive Arrow⇄pandas⇄parquet round-trips untouched.
"""

from __future__ import annotations

import pyarrow as pa

QUEUES = ("events", "immediate", "soon", "normal", "later")
# weighted pop order, reference lib/crawlerFactory.js:80
QUEUE_WEIGHTS = {"events": 10, "immediate": 3, "soon": 2, "normal": 3, "later": 2}
CHILD_QUEUE = "normal"      # discovered links
RETRY_QUEUE = "immediate"   # failed fetches (reference _retryQueue)

FRONTIER_SCHEMA = pa.schema(
    [
        ("url", pa.string()),            # canonical (RFC-3986 normalized)
        ("url_hash", pa.binary(20)),     # SHA-1 of canonical url
        ("url_host", pa.string()),
        ("type", pa.string()),           # visitor-map entity type
        ("policy", pa.string()),
        ("queue", pa.string()),          # one of QUEUES
        ("depth", pa.int32()),
        ("discovery_ts", pa.int64()),    # us — priority key with depth
        ("attempt_count", pa.int32()),
        ("not_before", pa.int64()),      # us — deferral (0 = eligible)
        ("parent_urn", pa.string()),
        ("relation", pa.string()),
        ("payload_etag", pa.string()),   # conditional-fetch etag ('' = none)
        # pre-fetched body carried on event_trigger rows ('' = none):
        # the reference embeds the webhook payload in the request with
        # etag=1 so the fetcher skips the GET entirely
        # (lib/crawlerFactory.js:670, routes/webhook.js:34)
        ("payload_body", pa.string()),
    ]
)

DOCUMENT_SCHEMA = pa.schema(
    [
        ("urn", pa.string()),
        ("type", pa.string()),
        ("url", pa.string()),
        ("url_hash", pa.binary(20)),
        ("etag", pa.string()),
        ("fetched_at", pa.int64()),
        ("processed_at", pa.int64()),
        ("depth", pa.int32()),
        ("text", pa.string()),           # extracted text (pages)
        ("body", pa.string()),           # raw JSON body (entities)
        ("lang", pa.string()),
        ("n_links", pa.int32()),
    ]
)

DEADLETTER_SCHEMA = pa.schema(
    list(zip(FRONTIER_SCHEMA.names, FRONTIER_SCHEMA.types))
    + [("error", pa.string()), ("failed_at", pa.int64())]
)

LINEAGE_SCHEMA = pa.schema(
    [
        ("frontier_epoch", pa.int32()),
        ("shard_id", pa.int32()),
        ("filter_snapshot_id", pa.string()),
        ("admitted", pa.int64()),
        ("op_ts", pa.int64()),
    ]
)

METRICS_SCHEMA = pa.schema(
    [
        ("epoch", pa.int32()),
        ("name", pa.string()),           # push/repush/done/abandon/fetch/...
        ("value", pa.int64()),
        # per-second time-series rows (reference redis-metrics with
        # timeGranularity 'second', lib/crawlerFactory.js:264-277):
        # name carries a 'sec:' prefix, `second` is the wall-clock
        # epoch second, epoch is -1. Null on per-epoch total rows, so
        # aggregate consumers summing by bare name never double-count.
        ("second", pa.int64()),
    ]
)

# trace-level lifecycle event log (reference mockInsights trackTrace/
# trackEvent, providers/logger/mockInsights.js:20-60): one row per
# engine lifecycle event — start/stop, config patches, worker
# restarts, aborts, resume/recrawl — persisted to state_dir/
# trace.parquet. `detail` is a sorted-key JSON object.
TRACE_SCHEMA = pa.schema(
    [
        ("ts_us", pa.int64()),           # wall clock (telemetry, not logic)
        ("event", pa.string()),
        ("detail", pa.string()),
    ]
)


def empty_table(schema: pa.Schema) -> pa.Table:
    return schema.empty_table()
