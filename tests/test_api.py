"""Control-surface API tests (reference routes/* as library calls)."""

import pyarrow.parquet as pq

from raycrawl import api
from raycrawl.corpus import default_seeds, make_pages_corpus
from raycrawl.pipelines.crawl import CrawlConfig, CrawlEngine


def _engine(tmp_path, **kw):
    corpus = make_pages_corpus(num_hosts=4, pages_per_host=10, seed=42)
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"), mode="local", num_shards=2,
        epoch_budget=30, **kw,
    )
    return corpus, CrawlEngine(corpus, cfg)


def test_queue_depths_and_status(tmp_path):
    _, engine = _engine(tmp_path)
    engine.seed(default_seeds(2))
    depths = api.queue_depths(engine)
    assert depths["normal"] == 2
    st = api.status(engine)
    assert st["seen"] == 2 and st["queues"]["normal"] == 2


def test_peek_does_not_consume(tmp_path):
    _, engine = _engine(tmp_path)
    engine.seed(default_seeds(2))
    peeked = api.peek(engine, "normal", 1)
    assert peeked.num_rows == 1
    assert api.queue_depths(engine)["normal"] == 2  # put back


def test_peek_across_shards_requeues_every_taken_row(tmp_path):
    # ADVICE r1: peek takes up to `count` rows from EVERY shard; all of
    # them (not just the returned slice) must go back to the frontier.
    _, engine = _engine(tmp_path)
    engine.seed(default_seeds(8))  # spread across both shards
    assert api.queue_depths(engine)["normal"] == 8
    peeked = api.peek(engine, "normal", 2)  # count < per-shard take
    assert peeked.num_rows == 2
    assert api.queue_depths(engine)["normal"] == 8  # nothing dropped


def test_peek_skips_the_politeness_gate(tmp_path):
    # operator takes read the queue as stored: after a crawl under a
    # binding rate, peek neither caps at the host allowance nor defers
    # the rows it puts back
    _, engine = _engine(tmp_path, host_rate_per_sec=1)
    engine.run(seeds=default_seeds(2), max_urls=5)
    pending = api.queue_depths(engine)["normal"]
    assert pending > 4  # more than one window's allowance per host
    defers = sum(s.metrics["defer"] for s in engine.shards)
    wake = engine._call("min_not_before")
    assert api.peek(engine, "normal", 100).num_rows == pending
    assert sum(s.metrics["defer"] for s in engine.shards) == defers
    assert engine._call("min_not_before") == wake


def test_pop_consumes_in_priority_order(tmp_path):
    _, engine = _engine(tmp_path)
    engine.seed(default_seeds(2))
    popped = api.pop(engine, "normal", 1)
    assert popped.num_rows == 1
    assert popped.column("url").to_pylist() == ["http://host0.example.com/p/0"]
    assert api.queue_depths(engine)["normal"] == 1


def test_queue_requests_rationalizer(tmp_path):
    _, engine = _engine(tmp_path)
    n = api.queue_requests(engine, ["MyOrg", "myorg/repo1"], queue="soon")
    assert n == 2
    rows = api.pop(engine, "soon", 10)
    got = dict(zip(rows.column("type").to_pylist(), rows.column("url").to_pylist()))
    assert got["org"] == "https://api.github.com/orgs/myorg"
    assert got["repo"] == "https://api.github.com/repos/myorg/repo1"


def test_flush_queue(tmp_path):
    _, engine = _engine(tmp_path)
    engine.seed(default_seeds(2))
    assert api.flush_queue(engine, "normal") == 2
    assert api.queue_depths(engine)["normal"] == 0


def test_doc_count_list_and_deadletters(tmp_path):
    corpus, engine = _engine(tmp_path)
    result = engine.run(seeds=default_seeds(2))
    state = engine.cfg.state_dir
    assert api.doc_count(state) == result.docs_written
    assert api.doc_count(state, "urn:page:") == result.docs_written
    assert api.doc_count(state, "urn:nothing") == 0
    listed = api.doc_list(state, limit=5)
    assert listed.num_rows == 5
    assert api.deadletter_count(state) == result.deadlettered
    # requeue deadletters -> pending again with attempt_count reset
    n = api.requeue_deadletters(engine, state)
    assert n == result.deadlettered
    assert api.deadletter_count(state) == 0
    assert sum(api.queue_depths(engine).values()) == n


def test_latest_documents_upsert(tmp_path):
    corpus, engine = _engine(tmp_path)
    result = engine.run(seeds=default_seeds(2))
    latest = api.latest_documents(engine.cfg.state_dir)
    assert latest.num_rows == result.docs_written  # already unique per urn
    urns = latest.column("urn").to_pylist()
    assert len(set(urns)) == len(urns)


def test_latest_documents_dataset_matches_driver_path(tmp_path, ray_session):
    """The streaming compaction returns the same (urn, processed_at,
    etag) set as the driver-side admin variant."""
    import pandas as pd

    corpus, engine = _engine(tmp_path)
    engine.run(seeds=default_seeds(2))
    want = (
        api.latest_documents(engine.cfg.state_dir)
        .select(["urn", "processed_at", "etag"]).to_pandas()
        .sort_values("urn").reset_index(drop=True)
    )
    got = (
        api.latest_documents_dataset(engine.cfg.state_dir)
        .to_pandas()[["urn", "processed_at", "etag"]]
        .sort_values("urn").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)


def test_metrics_series_window(tmp_path):
    """api.metrics_series (status-endpoint analogue of the reference's
    per-second redis-metrics buckets): seconds come back sorted and
    unique, the open-window sum equals the per-epoch counter totals,
    [t0, t1] bounds are inclusive and compose, and unknown metrics
    yield an empty series."""
    corpus, engine = _engine(tmp_path)
    result = engine.run(seeds=default_seeds(2))
    assert result.docs_written > 0

    series = api.metrics_series(result.state_dir, "done")
    secs = series.column("second").to_pylist()
    vals = series.column("value").to_pylist()
    assert secs == sorted(secs) and len(secs) == len(set(secs))
    assert all(v > 0 for v in vals)
    epoch_total = sum(
        m["value"]
        for m in result.metrics.to_pylist()
        if m["name"] == "done"
    )
    assert sum(vals) == epoch_total == result.docs_written

    # inclusive window bounds: clipping to the exact [first, last]
    # seconds returns the whole series; excluding the first second
    # drops exactly its bucket
    whole = api.metrics_series(
        result.state_dir, "done", t0=secs[0], t1=secs[-1]
    )
    assert whole.num_rows == series.num_rows
    tail = api.metrics_series(result.state_dir, "done", t0=secs[0] + 1)
    assert sum(tail.column("value").to_pylist()) == sum(vals) - sum(
        v for s, v in zip(secs, vals) if s == secs[0]
    )

    assert api.metrics_series(result.state_dir, "nope").num_rows == 0
    assert api.metrics_series(str(tmp_path / "ghost"), "done").num_rows == 0
