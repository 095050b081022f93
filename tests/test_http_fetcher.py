"""Round-4 verdict item 2: the A7/fetcher contract proven against a
REAL transport. A stdlib HTTP origin serves the corpus over TCP
sockets (keep-alive, per-host injected latency); the engine runs with
``HttpFetcher`` swapped in (reference fetcher-swap pattern,
test/unit/processingTests.js:93-109) so fetches, 404→deadletter
retries, politeness deferral, and the compute budget's measured-µs
cost rows all cross an actual wire instead of a table lookup."""

import pytest

from raycrawl.corpus import default_seeds, make_pages_corpus
from raycrawl.pipelines.crawl import CrawlConfig, CrawlEngine
from tests.test_crawl_pages import _check_against_oracle, bfs_oracle


@pytest.fixture(scope="module")
def corpus():
    return make_pages_corpus(num_hosts=6, pages_per_host=25, seed=5)


@pytest.fixture(scope="module")
def origin(corpus):
    from raycrawl.sources.httpfetch import serve_corpus_http

    server, addr = serve_corpus_http(
        corpus, latency_ms_by_host={"host0.example.com": 45.0}
    )
    yield addr
    server.shutdown()


@pytest.mark.parametrize("mode", ["local", "pull"])
def test_golden_traversal_over_http(
    corpus, origin, tmp_path, ray_session, mode
):
    """The full crawl (BFS set, byte-identical text, dangling links →
    deadletters after 3 wire 404s) with every byte arriving over a TCP
    socket."""
    from raycrawl.sources.httpfetch import HttpFetcher

    common = dict(num_shards=3, fetcher_cls=HttpFetcher.at(origin))
    if mode == "local":
        cfg = CrawlConfig(
            state_dir=str(tmp_path / mode), mode="local", **common
        )
    else:
        cfg = CrawlConfig(
            state_dir=str(tmp_path / mode), mode="ray",
            fetch_concurrency=2, fetch_batch_size=16, **common,
        )
    result = CrawlEngine(corpus, cfg).run(seeds=default_seeds(2))
    _check_against_oracle(
        corpus, result, bfs_oracle(corpus, default_seeds(2))
    )


@pytest.mark.parametrize("mode", ["local", "pull"])
def test_compute_budget_fed_by_real_wire_latency(
    corpus, origin, tmp_path, ray_session, mode
):
    """A7 over a real wire: host0's origin sleeps 45 ms per GET, every
    other host answers in ~1 ms — the MEASURED elapsed_ms rows exhaust
    host0's compute budget and bench it (defers > 0), while a control
    run with an astronomically high byte-proxy rate and the same knobs
    never defers. The crawled set stays exact both ways."""
    from raycrawl.sources.httpfetch import HttpFetcher

    knobs = dict(
        compute_limit_ms=90.0,        # ~2 slow GETs of ~44ms overage
        compute_window_sec=40.0,
        compute_bytes_per_ms=1e12,    # byte proxy ~ 0 ms: cannot bench
    )

    def crawl(tag, fetcher_cls):
        if mode == "local":
            cfg = CrawlConfig(
                state_dir=str(tmp_path / tag), mode="local",
                num_shards=3, epoch_budget=50,
                fetcher_cls=fetcher_cls, **knobs,
            )
        else:
            cfg = CrawlConfig(
                state_dir=str(tmp_path / tag), mode="ray",
                num_shards=3, fetch_concurrency=2,
                fetch_batch_size=16, fetcher_cls=fetcher_cls, **knobs,
            )
        return CrawlEngine(corpus, cfg).run(seeds=default_seeds(2))

    def defers(result):
        return sum(
            m["value"]
            for m in result.metrics.to_pylist()
            if m["name"] == "defer"
        )

    wired = crawl(f"http_{mode}", HttpFetcher.at(origin))
    _check_against_oracle(
        corpus, wired, bfs_oracle(corpus, default_seeds(2))
    )
    assert defers(wired) > 0   # real socket latency fed the budget
    control = crawl(f"ctrl_{mode}", None)
    _check_against_oracle(
        corpus, control, bfs_oracle(corpus, default_seeds(2))
    )
    assert defers(control) == 0
