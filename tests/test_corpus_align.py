"""Corpus-range-aligned frontier routing + dispatch affinity
(CrawlConfig.align_corpus_ranges): the round-5 hard-residency answer to
the documented locality bound in stages/corpus_shards.py — frontier
shards partition by the SAME top-bits range function as the corpus
shards, and each frontier shard's chunks dispatch only to its worker
group, so a worker's corpus footprint is max(1, C/S) shards with zero
cold re-pulls, for ANY corpus size.

Pins: (1) range routing nests frontier ranges inside corpus ranges in
both directions (C >= S and C < S); (2) an aligned crawl produces the
identical document set / seen count as the default router (visit ORDER
differs; seen_digest is shard-layout-dependent by construction so the
comparison is on content); (3) hard residency measured via the
fetchers' residency telemetry — each worker touches exactly one corpus
shard at C == S == P and never re-resolves despite max_resident=1,
while the unaligned twin thrashes its LRU; (4) config validation."""

import numpy as np
import pyarrow as pa
import pytest

from raycrawl.corpus import default_seeds, make_pages_corpus
from raycrawl.functions.urlnorm import canonicalize_batch


@pytest.fixture(scope="module")
def corpus():
    return make_pages_corpus(num_hosts=7, pages_per_host=25, seed=11)


def _frontier_rows(corpus):
    from raycrawl.pipelines.crawl import build_frontier_rows

    return build_frontier_rows(
        [{"url": u} for u in corpus.column("url").to_pylist()], base_ts=0
    )


def test_range_route_nests_in_corpus_ranges(corpus):
    """Every url lands on the frontier shard whose hash range contains
    (C >= S) or is contained by (C < S) its corpus shard's range."""
    from raycrawl.stages.fetch import _digests_to_h64_tail, shard_split

    rows = _frontier_rows(corpus)
    digests = rows.column("url_hash").to_pylist()
    h64, _ = _digests_to_h64_tail(digests)

    S = 4
    sids = np.full(len(digests), -1, dtype=np.int64)
    for sid, sub in shard_split(rows, S, True):
        idx = [digests.index(d) for d in sub.column("url_hash").to_pylist()]
        sids[idx] = sid
    assert (sids >= 0).all()
    # frontier sid IS the top-2-bits range
    assert np.array_equal(sids, (h64 >> np.uint64(62)).astype(np.int64))

    # C = 8 corpus shards (bits 3): corpus shard // (C/S) == frontier sid
    corpus_sid = (h64 >> np.uint64(64 - 3)).astype(np.int64)
    assert np.array_equal(corpus_sid // 2, sids)
    # C = 2 (bits 1): frontier sid // (S/C) == corpus shard
    corpus_sid2 = (h64 >> np.uint64(64 - 1)).astype(np.int64)
    assert np.array_equal(sids // 2, corpus_sid2)

    # default router unchanged: mod, not range
    mod_sids = np.full(len(digests), -1, dtype=np.int64)
    for sid, sub in shard_split(rows, S, False):
        idx = [digests.index(d) for d in sub.column("url_hash").to_pylist()]
        mod_sids[idx] = sid
    assert np.array_equal(mod_sids, (h64 % np.uint64(S)).astype(np.int64))
    assert not np.array_equal(mod_sids, sids)  # genuinely different


def test_align_config_validation(corpus, tmp_path):
    from raycrawl.pipelines.crawl import CrawlConfig, CrawlEngine

    with pytest.raises(ValueError, match="power-of-two"):
        CrawlEngine(
            corpus,
            CrawlConfig(state_dir=str(tmp_path / "a"), mode="ray",
                        num_shards=3,
                        align_corpus_ranges=True),
        )
    with pytest.raises(ValueError, match="dispatcher tier"):
        CrawlEngine(
            corpus,
            CrawlConfig(state_dir=str(tmp_path / "b"), mode="ray",
                        num_shards=4,
                        node_dispatchers=2, align_corpus_ranges=True),
        )
    with pytest.raises(ValueError, match="pull-executor"):
        CrawlEngine(
            corpus,
            CrawlConfig(state_dir=str(tmp_path / "c"), mode="local",
                        num_shards=4, align_corpus_ranges=True),
        )


def test_aligned_crawl_parity_and_hard_residency(
    ray_session, corpus, tmp_path
):
    import ray

    from raycrawl import api
    from raycrawl.pipelines.crawl import CrawlConfig, CrawlEngine

    seeds = default_seeds(2)
    base = dict(
        mode="ray", num_shards=4, fetch_concurrency=4,
        fetch_batch_size=16, corpus_shards=4, corpus_max_resident=1,
    )

    plain = CrawlEngine(
        corpus, CrawlConfig(state_dir=str(tmp_path / "plain"), **base)
    )
    r_plain = plain.run(seeds=seeds)
    stats_plain = ray.get(
        [w.fetcher_stats.remote() for w in plain.workers]
    )
    plain.close()

    aligned = CrawlEngine(
        corpus,
        CrawlConfig(
            state_dir=str(tmp_path / "aligned"),
            align_corpus_ranges=True,
            **base,
        ),
    )
    r_aligned = aligned.run(seeds=seeds)
    stats_aligned = ray.get(
        [w.fetcher_stats.remote() for w in aligned.workers]
    )
    aligned.close()

    # identical crawl CONTENT (order and shard layout differ)
    assert r_aligned.docs_written == r_plain.docs_written > 0
    assert r_aligned.seen_count == r_plain.seen_count
    urls_plain = sorted(
        api.doc_list(r_plain.state_dir).column("url").to_pylist()
    )
    urls_aligned = sorted(
        api.doc_list(r_aligned.state_dir).column("url").to_pylist()
    )
    assert urls_plain == urls_aligned

    # hard residency at C == S == P: every worker that fetched at all
    # touched EXACTLY one corpus shard and resolved it exactly once —
    # max_resident=1 never evicts because nothing else ever arrives
    touched = [s for s in stats_aligned if s.get("resolves")]
    assert touched, stats_aligned
    for s in touched:
        assert s["distinct_shards"] == 1, stats_aligned
        assert s["resolves"] == 1, stats_aligned
    # and the four groups together cover all four shards
    assert sum(s["distinct_shards"] for s in touched) == len(touched)

    # the unaligned twin has NO such bound: with the same
    # max_resident=1 its workers see chunks from every hash range, so
    # at least one worker touches multiple corpus shards and the LRU
    # re-pulls (resolves > distinct) — the measured cost alignment
    # removes
    assert max(s.get("distinct_shards", 0) for s in stats_plain) > 1
    assert any(
        s.get("resolves", 0) > s.get("distinct_shards", 0)
        for s in stats_plain
    )
