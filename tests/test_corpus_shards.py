"""Sharded simulated-network corpus (stages/corpus_shards.py): the
round-4 verdict's last whole-dataset materialization replaced with
url_hash-range shards + per-shard indexes built distributed. Pins:
fetcher parity with the whole-table TableFetcher (same found set, same
bodies/lang/timestamps through the encoded row ids), LRU residency
bound, driver-side membership probes, parquet-path sources, and crawl
parity local vs sharded-ray incl. crash-resume over shard probes."""

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from raycrawl.corpus import default_seeds, make_pages_corpus
from raycrawl.functions.urlnorm import canonicalize_batch


@pytest.fixture(scope="module")
def corpus():
    return make_pages_corpus(num_hosts=7, pages_per_host=25, seed=11)


@pytest.fixture(scope="module")
def handle(ray_session, corpus):
    from raycrawl.stages.corpus_shards import build_sharded_corpus

    h, robots = build_sharded_corpus(corpus, 4, piece_rows=40)
    assert h.num_shards == 4
    assert robots.num_rows == 0  # no robots in this corpus
    return h


def test_sharded_fetcher_matches_whole_table_fetcher(
    ray_session, corpus, handle
):
    from raycrawl.stages.corpus_shards import ShardedTableFetcher
    from raycrawl.stages.fetch import (
        TableFetcher,
        build_fetch_index,
        prepare_corpus,
    )

    prepared = prepare_corpus(corpus)
    whole = TableFetcher(prepared, build_fetch_index(prepared))
    shard = ShardedTableFetcher(handle)

    urls = corpus.column("url").to_pylist()
    _, digests, _ = canonicalize_batch(urls + ["http://nowhere.example.com/x"])
    f_w, r_w = whole.lookup(digests)
    f_s, r_s = shard.lookup(digests)
    assert np.array_equal(f_w, f_s)
    assert f_s[:-1].all() and not f_s[-1]
    # row ids are encoded differently, but every accessor must agree
    got_w = whole.bodies(r_w[f_w])
    got_s = shard.bodies(r_s[f_s])
    assert got_w == got_s
    for i in np.random.default_rng(0).choice(len(urls), 10, replace=False):
        iw, isd = int(r_w[i]), int(r_s[i])
        assert whole.body(iw) == shard.body(isd)
        assert whole.lang(iw) == shard.lang(isd)
        assert whole.fetched_at(iw) == shard.fetched_at(isd)


def test_lru_residency_bound(ray_session, corpus, handle):
    from raycrawl.stages.corpus_shards import (
        ShardedCorpus,
        ShardedTableFetcher,
    )

    bounded = ShardedCorpus(
        handle.table_refs,
        handle.index_refs,
        handle.shard_bits,
        max_resident=2,
        num_rows=handle.num_rows,
    )
    f = ShardedTableFetcher(bounded)
    _, digests, _ = canonicalize_batch(corpus.column("url").to_pylist())
    found, rows = f.lookup(digests)
    assert found.all()
    assert len(f._resident) <= 2  # never more than the bound pinned
    assert f.bodies(rows[:20]) == corpus.column("html").to_pylist()[:20]
    assert len(f._resident) <= 2


def test_membership_probes_match_whole_index(ray_session, corpus, handle):
    from raycrawl.stages.fetch import (
        build_fetch_index,
        index_lookup,
        prepare_corpus,
    )

    urls = corpus.column("url").to_pylist()[:30] + [
        "http://ghost.example.com/a",
        "http://ghost.example.com/b",
    ]
    _, digests, _ = canonicalize_batch(urls)
    prepared = prepare_corpus(corpus)
    want, _ = index_lookup(build_fetch_index(prepared), digests)
    got = handle.membership(digests)
    assert np.array_equal(want, got)
    assert handle.membership([]).shape == (0,)


def test_empty_shard_lookup_misses(ray_session, corpus):
    """A range shard no corpus row hashes into still resolves: a
    lookup routed to it misses instead of raising."""
    from raycrawl.stages.corpus_shards import (
        ShardedTableFetcher,
        build_sharded_corpus,
    )

    h, _ = build_sharded_corpus(corpus.slice(0, 0), 2)
    f = ShardedTableFetcher(h)
    _, digests, _ = canonicalize_batch(corpus.column("url").to_pylist()[:20])
    found, _ = f.lookup(digests)
    assert not found.any()
    assert len(f.shards_touched) == 2  # both (empty) shards resolved


def test_parquet_dir_source_builds_identical_shards(ray_session, corpus):
    import ray

    from raycrawl import wire
    from raycrawl.stages.corpus_shards import build_sharded_corpus

    d = tempfile.mkdtemp(prefix="corpus_src_", dir="/tmp")
    pq.write_table(corpus.slice(0, 70), os.path.join(d, "a.parquet"))
    pq.write_table(corpus.slice(70), os.path.join(d, "b.parquet"))
    h_tab, _ = build_sharded_corpus(corpus, 4, piece_rows=40)
    h_dir, _ = build_sharded_corpus(d, 4)
    assert h_dir.num_shards == h_tab.num_shards == 4
    for sid in range(4):
        a = wire.load(ray.get(h_tab.table_refs[sid]))
        b = wire.load(ray.get(h_dir.table_refs[sid]))
        # same row SET per range shard regardless of source layout
        assert sorted(a.column("url").to_pylist()) == sorted(
            b.column("url").to_pylist()
        )


def test_crawl_parity_and_resume_with_sharded_corpus(
    ray_session, corpus, tmp_path
):
    """End-to-end: sharded-ray crawl == local crawl (docs, seen set,
    digest); resume_crawl classifies suspects through the per-shard
    membership probes (no driver-held whole-corpus index exists)."""
    from raycrawl.pipelines.crawl import (
        CrawlConfig,
        CrawlEngine,
        resume_crawl,
    )

    seeds = default_seeds(2)
    local = CrawlEngine(
        corpus,
        CrawlConfig(state_dir=str(tmp_path / "local"), mode="local",
                    num_shards=3),
    ).run(seeds=seeds)

    cfg = CrawlConfig(
        state_dir=str(tmp_path / "ray"), mode="ray",
        num_shards=3, fetch_concurrency=2, fetch_batch_size=16,
        corpus_shards=4, corpus_max_resident=2,
    )
    eng = CrawlEngine(corpus, cfg)
    assert eng._fetch_index is None  # no whole-corpus index anywhere
    ray_res = eng.run(seeds=seeds)
    assert (local.docs_written, local.seen_count, local.seen_digest) == (
        ray_res.docs_written,
        ray_res.seen_count,
        ray_res.seen_digest,
    )

    # resume over the finished state: membership probes classify every
    # suspect/processed key; the rebuilt seen set is identical
    resumed = resume_crawl(corpus, cfg)
    assert resumed.seen_digest == ray_res.seen_digest

    # trace log (mockInsights analogue): the resume left its lifecycle
    # rows — a 'resume' event and a second engine_start/crawl_stop pair
    from raycrawl import api

    trace = api.trace_log(cfg.state_dir)
    events = trace.column("event").to_pylist()
    assert "resume" in events
    # history accumulates: the original crawl's rows survive the resume
    assert events.count("engine_start") == 2
    assert events.count("crawl_stop") == 2
    ts = trace.column("ts_us").to_pylist()
    assert ts == sorted(ts)
