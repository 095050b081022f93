"""End-to-end web crawl over the synthetic pages corpus.

Oracle: a pure-Python BFS over the corpus link graph (canonicalized)
computes the exact reachable set; the engine must crawl exactly that
set, with byte-identical extracted text per url (north rule), dangling
links deadlettered after max_attempts, and identical results under
politeness throttling, multi-shard ray mode, and resume-from-checkpoint.
"""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from raycrawl.corpus import default_seeds, make_pages_corpus
from raycrawl.functions.urlnorm import rfc3986_normalize
from raycrawl.pipelines.crawl import CrawlConfig, CrawlEngine, resume_crawl
from raycrawl.stages.extract import extract_links


def bfs_oracle(corpus, seeds):
    """Reachable canonical urls + dangling canonical urls encountered."""
    pages = {}
    for url, html in zip(
        corpus.column("url").to_pylist(), corpus.column("html").to_pylist()
    ):
        pages[rfc3986_normalize(url)] = html
    frontier = [rfc3986_normalize(s["url"]) for s in seeds]
    seen = set(frontier)
    reachable, dangling = set(), set()
    while frontier:
        nxt = []
        for u in frontier:
            if u not in pages:
                dangling.add(u)
                continue
            reachable.add(u)
            for link in extract_links(pages[u], u):
                c = rfc3986_normalize(link)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return reachable, dangling


@pytest.fixture(scope="module")
def corpus():
    return make_pages_corpus(num_hosts=6, pages_per_host=20, seed=42)


@pytest.fixture(scope="module")
def oracle(corpus):
    return bfs_oracle(corpus, default_seeds(2))


def _run(corpus, tmp_path, **overrides):
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        mode="local",
        num_shards=3,
        epoch_budget=50,
        **overrides,
    )
    engine = CrawlEngine(corpus, cfg)
    return cfg, engine.run(seeds=default_seeds(2))


def _check_against_oracle(corpus, result, oracle):
    reachable, dangling = oracle
    docs = result.documents_table()
    assert set(docs.column("url").to_pylist()) == reachable
    assert docs.num_rows == len(reachable)  # no duplicate crawls
    # byte-identical text per url (north rule)
    golden = dict(
        zip(corpus.column("url").to_pylist(), corpus.column("text").to_pylist())
    )
    canon_golden = {rfc3986_normalize(u): t for u, t in golden.items()}
    for url, text in zip(
        docs.column("url").to_pylist(), docs.column("text").to_pylist()
    ):
        assert text == canon_golden[url]
    # dangling links exhausted retries -> deadletter table
    dead = result.deadletters_table()
    assert set(dead.column("url").to_pylist()) == dangling
    assert (
        dead.column("attempt_count").to_pylist()
        == [3] * dead.num_rows
    )


def test_local_crawl_matches_bfs_oracle(corpus, oracle, tmp_path):
    _, result = _run(corpus, tmp_path)
    _check_against_oracle(corpus, result, oracle)


def test_politeness_throttled_same_result(corpus, oracle, tmp_path):
    _, result = _run(corpus, tmp_path, host_rate_per_sec=5)
    _check_against_oracle(corpus, result, oracle)
    defer = sum(
        m["value"] for m in result.metrics.to_pylist() if m["name"] == "defer"
    )
    assert defer > 0  # throttling actually deferred work


def scoped_bfs_oracle(corpus, seeds, scope):
    """BFS where discovered links outside `scope` hosts are never
    followed (seeds exempt, like the reference orgList)."""
    pages = {}
    for url, html in zip(
        corpus.column("url").to_pylist(), corpus.column("html").to_pylist()
    ):
        pages[rfc3986_normalize(url)] = html

    def in_scope(u):
        host = u.split("://", 1)[1].split("/", 1)[0]
        return any(host == a or host.endswith("." + a) for a in scope)

    frontier = [rfc3986_normalize(s["url"]) for s in seeds]
    seen = set(frontier)
    reachable, dangling = set(), set()
    while frontier:
        nxt = []
        for u in frontier:
            if u not in pages:
                dangling.add(u)
                continue
            reachable.add(u)
            for link in extract_links(pages[u], u):
                c = rfc3986_normalize(link)
                if c not in seen and in_scope(c):
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return reachable, dangling


def test_scope_filter_limits_expansion(corpus, tmp_path):
    """M5 crawl-scope filter golden: out-of-scope discovered links are
    never offered; the crawl equals a BFS restricted to the scope."""
    scope = ("host0.example.com", "host1.example.com")
    want_reachable, want_dangling = scoped_bfs_oracle(
        corpus, default_seeds(2), scope
    )
    _, result = _run(corpus, tmp_path, scope_hosts=scope)
    docs = result.documents_table()
    assert set(docs.column("url").to_pylist()) == want_reachable
    hosts = {u.split("://")[1].split("/")[0] for u in docs.column("url").to_pylist()}
    assert hosts <= set(scope)
    dead = result.deadletters_table()
    assert set(dead.column("url").to_pylist()) == want_dangling
    # scope actually pruned something vs the unscoped crawl
    full_reachable, _ = bfs_oracle(corpus, default_seeds(2))
    assert len(want_reachable) < len(full_reachable)


def test_compute_budget_benches_hosts_same_result(corpus, oracle, tmp_path):
    """T6 ComputeBudget wiring: with a tiny per-host compute budget the
    heavy hosts exhaust their window and defer (bench), yet the crawl
    still converges to the exact oracle result."""
    _, result = _run(
        corpus, tmp_path,
        compute_limit_ms=2.0,          # exhaust after ~2KB of overage
        compute_window_sec=40.0,       # bench = window/4 = 10 epochs
        compute_bytes_per_ms=1000.0,
    )
    _check_against_oracle(corpus, result, oracle)
    defer = sum(
        m["value"] for m in result.metrics.to_pylist() if m["name"] == "defer"
    )
    assert defer > 0  # budget exhaustion actually benched hosts


def test_pull_compute_budget_same_result(corpus, oracle, tmp_path, ray_session):
    """T6 under the pull executor: workers emit per-host byte-cost rows,
    the driver charges the budget in absorb() and pushes benched hosts to
    the shards, whose take()-side gate defers them until bench_until.
    The crawl still converges to the exact BFS oracle."""
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"), mode="ray",
        num_shards=3, fetch_concurrency=2, fetch_batch_size=16,
        compute_limit_ms=2.0, compute_window_sec=40.0,
        compute_bytes_per_ms=1000.0,
    )
    result = CrawlEngine(corpus, cfg).run(seeds=default_seeds(2))
    _check_against_oracle(corpus, result, oracle)
    defer = sum(
        m["value"] for m in result.metrics.to_pylist() if m["name"] == "defer"
    )
    assert defer > 0  # budget exhaustion actually benched hosts


def _latency_fetcher_cls():
    """TableFetcher + the A7 real-latency contract: a fetcher that
    measures wall time exposes ``elapsed_ms(row)`` and the worker then
    reports that measured time as each host's cost instead of the
    body-bytes proxy. Here latency is deterministic:
    host0 is a slow origin (60 ms), everything else 1 ms (the rolling-
    min baseline). Defined inside a function so cloudpickle ships the
    class BY VALUE to worker actors (a test-module-level class would
    pickle by reference, unimportable in the worker)."""

    class LatencyFetcher:
        def __init__(self, corpus, index):
            import numpy as np

            from raycrawl.stages.fetch import TableFetcher

            self._inner = TableFetcher(corpus, index)
            hosts = [
                u.split("://")[1].split("/")[0]
                for u in corpus.column("url").to_pylist()
            ]
            self._ms = np.array(
                [60.0 if h == "host0.example.com" else 1.0 for h in hosts]
            )

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def elapsed_ms(self, row: int) -> float:
            return float(self._ms[row])

    return LatencyFetcher


def test_ray_crawl_actors_never_import_ray_air(
    corpus, oracle, tmp_path, ray_session
):
    """The actor-module contract. Every fetch worker and frontier
    shard has finished pyarrow's lazy pandas import once the engine is
    built (wire.warm in __init__), so no actor pays it inside run().
    Tables cross the crawl's actor boundaries as IPC buffers
    (raycrawl/wire.py), so no actor runs Ray's table serializer, whose
    first use imports ``ray.air`` and ``ray.data`` (~0.5 s of CPU per
    fresh actor). The API's peek takes the same way."""
    import sys

    import ray

    from raycrawl import api

    def loaded(actors, module):
        return ray.get(
            [
                a.__ray_call__.remote(lambda self: module in sys.modules)
                for a in actors
            ]
        )

    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"), mode="ray",
        num_shards=3, fetch_concurrency=2, fetch_batch_size=16,
    )
    engine = CrawlEngine(corpus, cfg)
    assert engine.corpus_handle is not None  # the sharded corpus path
    try:
        actors = engine.workers + engine.shards
        assert len(actors) == 5
        assert loaded(actors, "pandas") == [True] * len(actors)
        result = engine.run(seeds=default_seeds(2))
        _check_against_oracle(corpus, result, oracle)
        assert api.queue_requests(engine, ["someorg", "someorg/repo"]) == 2
        assert api.peek(engine, "normal").num_rows == 2
        for module in ("ray.air", "ray.data"):
            assert loaded(actors, module) == [False] * len(actors), module
    finally:
        engine.close()


@pytest.mark.parametrize("mode", ["local", "pull"])
def test_real_latency_fetcher_feeds_compute_budget(
    corpus, oracle, tmp_path, ray_session, mode
):
    """A7 contract: when the injected fetcher reports real elapsed ms,
    the ComputeBudget charges THOSE (not the byte proxy) — the slow
    host exhausts its budget and benches, while a control run with the
    byte-proxy fetcher at the same knobs never benches (the proxy rate
    is set astronomically high). The crawl still converges exactly."""
    knobs = dict(
        compute_limit_ms=100.0,        # ~2 slow fetches of 59ms overage
        compute_window_sec=40.0,
        compute_bytes_per_ms=1e12,     # byte proxy ~ 0 ms: can't bench
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

    result = crawl("latency", _latency_fetcher_cls())
    _check_against_oracle(corpus, result, oracle)
    assert defers(result) > 0  # measured latency actually fed the budget
    control = crawl("control", None)
    _check_against_oracle(corpus, control, oracle)
    assert defers(control) == 0  # byte proxy at these knobs cannot bench


def test_bloom_filter_same_result(corpus, oracle, tmp_path):
    _, result = _run(
        corpus, tmp_path, seen_filter="bloom", seen_capacity=100_000
    )
    _check_against_oracle(corpus, result, oracle)


def test_ray_mode_matches_oracle(corpus, oracle, tmp_path, ray_session):
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        mode="ray",
        num_shards=3,
        epoch_budget=50,
        fetch_concurrency=2,
        fetch_batch_size=16,
    )
    result = CrawlEngine(corpus, cfg).run(seeds=default_seeds(2))
    _check_against_oracle(corpus, result, oracle)


def test_resume_reproduces_seen_set(corpus, oracle, tmp_path):
    # uninterrupted reference run
    _, full = _run(corpus, tmp_path / "full")
    # interrupted run: stop after ~3 epochs, then resume
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "partial" / "state"),
        mode="local",
        num_shards=3,
        epoch_budget=50,
    )
    engine = CrawlEngine(corpus, cfg)
    partial = engine.run(seeds=default_seeds(2), max_urls=120)
    assert partial.docs_written < full.docs_written  # actually interrupted
    resumed = resume_crawl(corpus, cfg)
    assert resumed.seen_digest == full.seen_digest  # identical URL-seen set
    docs = resumed.documents_table()
    assert set(docs.column("url").to_pylist()) == oracle[0]
    assert docs.num_rows == len(oracle[0])  # resume did not re-crawl


def test_pull_executor_matches_oracle(corpus, oracle, tmp_path, ray_session):
    """The continuous (no-epoch-barrier) scheduler crawls exactly the
    same reachable set with the same per-url text and deadletters."""
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        mode="ray",
        num_shards=3,
        fetch_concurrency=2,
        fetch_batch_size=16,
    )
    result = CrawlEngine(corpus, cfg).run(seeds=default_seeds(2))
    _check_against_oracle(corpus, result, oracle)


def _persec_check(result, names):
    """Shared assertions for the per-second metric series (reference
    redis-metrics timeGranularity 'second'): sec:* rows exist, carry a
    wall second and epoch=-1, and each name's series sums to its
    per-epoch total so the sub-epoch view never disagrees with the
    rollup."""
    rows = result.metrics.to_pylist()
    sec_rows = [r for r in rows if r["name"].startswith("sec:")]
    assert sec_rows
    assert all(
        r["second"] is not None and r["epoch"] == -1 for r in sec_rows
    )
    assert all(
        r["second"] is None
        for r in rows
        if not r["name"].startswith("sec:")
    )

    def tot(name):
        return sum(r["value"] for r in rows if r["name"] == name)

    def sec_tot(name):
        return sum(
            r["value"] for r in sec_rows if r["name"] == f"sec:{name}"
        )

    for name in names:
        assert sec_tot(name) == tot(name), name
    assert sec_tot("done") == result.docs_written


def test_per_second_metric_buckets_epoch(corpus, tmp_path):
    _, result = _run(corpus, tmp_path)
    # local/epoch mode resolves offers per batch -> push series too
    _persec_check(result, ("fetch", "done", "offered", "push"))


def test_per_second_metric_buckets_pull(corpus, tmp_path, ray_session):
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        mode="ray",
        num_shards=3,
        fetch_concurrency=2,
        fetch_batch_size=16,
    )
    result = CrawlEngine(corpus, cfg).run(seeds=default_seeds(2))
    # buffered offers resolve at drain(), not per batch, so the pull
    # executor has no per-second push series — fetch/done/offered do
    _persec_check(result, ("fetch", "done", "offered"))


@pytest.mark.parametrize("mode", ["local", "ray"])
@pytest.mark.parametrize("max_attempts", [0, 1])
def test_first_failure_deadletters(
    corpus, oracle, tmp_path, ray_session, max_attempts, mode
):
    """max_attempts <= 1: the workers' retry ledger deadletters every
    failure on its first attempt, under both executors — each dangling
    url once, with attempt_count 1, and the abandon / deadletter
    totals and per-second series all count exactly those urls."""
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        mode=mode,
        num_shards=3,
        max_attempts=max_attempts,
        fetch_concurrency=2,
        fetch_batch_size=16,
    )
    engine = CrawlEngine(corpus, cfg)
    result = engine.run(seeds=default_seeds(2))
    engine.close()
    dangling = oracle[1]
    dead = result.deadletters_table()
    assert sorted(dead.column("url").to_pylist()) == sorted(dangling)
    assert dead.column("attempt_count").to_pylist() == [1] * len(dangling)
    sums: dict[str, int] = {}
    for r in result.metrics.to_pylist():
        sums[r["name"]] = sums.get(r["name"], 0) + r["value"]
    for name in ("abandon", "deadletter", "sec:abandon", "sec:deadletter"):
        assert sums.get(name) == len(dangling), name
    assert result.deadlettered == result.failed == len(dangling)


def test_pull_resume_reproduces_seen_set(corpus, oracle, tmp_path, ray_session):
    """Kill a pull-mode crawl mid-flight; resume must converge to the
    identical URL-seen set / documents (north rule)."""
    full_cfg = CrawlConfig(
        state_dir=str(tmp_path / "full"),
        mode="ray",
        num_shards=3,
        fetch_concurrency=2,
        fetch_batch_size=16,
    )
    full = CrawlEngine(corpus, full_cfg).run(seeds=default_seeds(2))
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "partial"),
        mode="ray",
        num_shards=3,
        fetch_concurrency=2,
        fetch_batch_size=16,
    )
    partial = CrawlEngine(corpus, cfg).run(
        seeds=default_seeds(2), max_urls=40
    )
    assert partial.docs_written < full.docs_written  # actually interrupted
    resumed = resume_crawl(corpus, cfg)
    assert resumed.seen_digest == full.seen_digest
    assert resumed.seen_count == full.seen_count
    _check_against_oracle(corpus, resumed, oracle)


def test_pull_dispatch_tier_matches_oracle_and_resumes(
    corpus, oracle, tmp_path, ray_session
):
    """node_dispatchers>0 (the per-node lease tier, BASELINE.md scale
    path #2): the driver dispatches leases to NodeDispatcher actors
    that fan chunks onto their worker group. Must crawl the exact
    oracle set, and a mid-flight interrupt + resume must converge to
    the identical URL-seen set — the lineage-flush barrier drains
    LEASE refs, so the consistent-cut guarantee carries over."""

    def cfg_for(tag):
        return CrawlConfig(
            state_dir=str(tmp_path / tag),
            mode="ray",
            num_shards=3,
            fetch_concurrency=4,
            fetch_batch_size=16,
            node_dispatchers=2,
        )

    full = CrawlEngine(corpus, cfg_for("full")).run(seeds=default_seeds(2))
    _check_against_oracle(corpus, full, oracle)
    cfg = cfg_for("partial")
    partial = CrawlEngine(corpus, cfg).run(
        seeds=default_seeds(2), max_urls=40
    )
    assert partial.docs_written < full.docs_written  # actually interrupted
    resumed = resume_crawl(corpus, cfg)
    assert resumed.seen_digest == full.seen_digest
    assert resumed.seen_count == full.seen_count
    _check_against_oracle(corpus, resumed, oracle)


@pytest.mark.parametrize("tiers", [0, 2], ids=["pull", "pull-tier"])
def test_pull_driver_rows(corpus, oracle, tmp_path, ray_session, tiers):
    """The pull scheduler's phase timers and dispatch counters leave as
    ``driver.*`` rows of the metrics table: every dispatched chunk holds
    at most fetch_batch_size rows, leases exist only under the tier, and
    the phase buckets fit inside the wall time of run()."""
    import time

    from raycrawl.pipelines.scheduler import COUNTS, PHASES, driver_rows

    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        mode="ray",
        num_shards=3,
        fetch_concurrency=4,
        fetch_batch_size=16,
        node_dispatchers=tiers,
    )
    engine = CrawlEngine(corpus, cfg)
    try:
        t0 = time.perf_counter()
        result = engine.run(seeds=default_seeds(2))
        wall_us = (time.perf_counter() - t0) * 1e6
    finally:
        engine.close()
    _check_against_oracle(corpus, result, oracle)
    rows = driver_rows(result.metrics)
    buckets = [f"{p}_us" for p in PHASES]
    assert set(rows) == set(buckets) | set(COUNTS)
    attempts = sum(
        m["value"] for m in result.metrics.to_pylist() if m["name"] == "fetch"
    )
    assert attempts > 0
    assert rows["chunks"] >= -(-attempts // cfg.fetch_batch_size)
    assert (rows["leases"] > 0) == bool(tiers)
    assert rows["waves"] > 0 and rows["sweeps"] > 0
    assert all(rows[b] >= 0 for b in buckets)
    assert rows["start_us"] > 0
    assert sum(rows[b] for b in buckets) <= wall_us


def test_fetcher_injection(corpus, tmp_path):
    """X3 component injection (crawlerFactory.js:168-179; the golden
    tests swap the fetcher, processingTests.js:93-109): any class with
    the TableFetcher interface plugs into the stage."""
    import numpy as np

    class AllMissFetcher:
        def __init__(self, corpus, index):
            pass

        def lookup(self, digests):
            n = len(digests)
            return np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)

        def body(self, idx):  # pragma: no cover - never found
            raise AssertionError

        def lang(self, idx):  # pragma: no cover
            raise AssertionError

        def fetched_at(self, idx):  # pragma: no cover
            raise AssertionError

    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        mode="local",
        num_shards=2,
        fetcher_cls=AllMissFetcher,
    )
    result = CrawlEngine(corpus, cfg).run(seeds=default_seeds(2))
    assert result.docs_written == 0
    # every seed exhausted its retries against the dead network
    assert result.deadlettered == 2


def test_prepare_corpus_single_chunk_large_offsets(corpus):
    """Broadcast-copy regression (the 10M-page OOM): every
    variable-width column must leave prepare_corpus as ONE chunk of a
    large-offset type — a multi-chunk column made each fetch worker
    privately re-combine the whole column — and TableFetcher must
    refuse multi-chunk input rather than silently copying."""
    import pyarrow as pa
    import pytest as _pytest

    from raycrawl.stages.fetch import TableFetcher, prepare_corpus

    prepared = prepare_corpus(corpus)
    for field in prepared.schema:
        col = prepared.column(field.name)
        assert col.num_chunks == 1, field.name
        assert field.type not in (pa.string(), pa.binary()), field.name

    # a deliberately re-chunked html column must be rejected, not copied
    half = prepared.num_rows // 2
    chunked = prepared.set_column(
        prepared.schema.get_field_index("html"),
        "html",
        pa.chunked_array(
            [
                prepared.column("html").chunk(0).slice(0, half),
                prepared.column("html").chunk(0).slice(half),
            ]
        ),
    )
    with _pytest.raises(ValueError, match="multi-chunk"):
        TableFetcher(chunked, {"h64": None, "tail": None, "row": None})


def test_hard_kill_resume_converges_exactly(tmp_path):
    """SIGKILL (not a graceful max_urls stop) a local-mode crawl in a
    subprocess, then resume: docs processed after the last durable
    manifest epoch are SUSPECT (their children's admissions may have
    died in memory) and re-offer with their stored etag — the 304 path
    re-traverses children without duplicating doc rows, so the resumed
    crawl matches the BFS oracle EXACTLY, row counts included. Before
    the suspect-window recovery this scenario measurably lost urls
    (children admitted after the last spool flush whose parents' docs
    were already on disk)."""
    import signal
    import subprocess
    import sys
    import time

    state = str(tmp_path / "state")
    child_src = f"""
import sys
from raycrawl.corpus import default_seeds, make_pages_corpus
from raycrawl.pipelines.crawl import CrawlConfig, CrawlEngine
corpus = make_pages_corpus(num_hosts=12, pages_per_host=800, seed=42)
cfg = CrawlConfig(state_dir={state!r}, mode="local", num_shards=3,
                  epoch_budget=50)
CrawlEngine(corpus, cfg).run(seeds=default_seeds(2))
"""
    p = subprocess.Popen([sys.executable, "-c", child_src])
    manifest = tmp_path / "state" / "manifest.json"
    t0 = time.time()
    while time.time() - t0 < 120 and not manifest.exists():
        time.sleep(0.02)
    time.sleep(0.3)
    p.send_signal(signal.SIGKILL)
    p.wait()
    if p.returncode == 0:  # pragma: no cover - host too fast for the kill
        pytest.skip("crawl finished before the kill landed")
    assert p.returncode == -signal.SIGKILL

    corpus = make_pages_corpus(num_hosts=12, pages_per_host=800, seed=42)
    cfg = CrawlConfig(
        state_dir=state, mode="local", num_shards=3, epoch_budget=50
    )
    result = resume_crawl(corpus, cfg)
    _check_against_oracle(
        corpus, result, bfs_oracle(corpus, default_seeds(2))
    )


def test_config_heartbeat_restores_live_deltas_after_restart(
    tmp_path, ray_session
):
    """A restarted worker re-runs __init__ with its constructor-time
    config, silently reverting live-patched deltas (the documented
    round-3 deviation). The engine now re-pushes the live value at
    every lineage flush (config heartbeat), so by crawl end EVERY
    worker — including one that died and restarted mid-crawl — must
    report the PATCHED track_host_cost, not the constructor value."""
    import os as _os

    import ray

    from raycrawl.stages.fetch import TableFetcher

    marker = str(tmp_path / "killed.marker")

    class Kamikaze(TableFetcher):
        def __init__(self, corpus, index):
            super().__init__(corpus, index)
            self._calls = 0

        def lookup(self, digests):
            self._calls += 1
            if self._calls == 3:
                try:
                    fd = _os.open(marker, _os.O_CREAT | _os.O_EXCL)
                except FileExistsError:
                    pass
                else:
                    _os.close(fd)
                    _os._exit(1)
            return super().lookup(digests)

    corpus = make_pages_corpus(num_hosts=12, pages_per_host=800, seed=42)
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        mode="ray",
        num_shards=3,
        fetch_concurrency=2,
        fetch_batch_size=256,
        fetcher_cls=Kamikaze,
        compute_limit_ms=0.0,  # constructor: host-cost OFF
    )
    engine = CrawlEngine(corpus, cfg)
    # the budget exists ONLY as a live patch (limit huge: ON, never
    # benches, so the crawl result is unaffected)
    engine.patch_config(
        [
            {
                "op": "replace",
                "path": "/fetcher/compute_limit_ms",
                "value": 1e12,
            }
        ]
    )
    engine.run(seeds=default_seeds(2))
    assert _os.path.exists(marker)  # a worker really died and restarted
    # per-caller actor-task ordering: these probes were submitted after
    # the final flush's heartbeat pushes, so they observe them
    states = ray.get(
        [w.host_cost_enabled.remote() for w in engine.workers]
    )
    assert all(states), states
    engine.close()


def test_dispatcher_death_recovers_via_resume(tmp_path, ray_session):
    """A NodeDispatcher is a node-sized failure domain (BASELINE.md
    dispatch-ceiling design): when one dies mid-crawl the run RAISES —
    no silent loss — and checkpoint recovery (resume_crawl) converges
    to the exact BFS oracle, same as any other crash."""
    import threading
    import time as _time

    import ray

    corpus = make_pages_corpus(num_hosts=12, pages_per_host=800, seed=42)
    state = tmp_path / "state"
    cfg = CrawlConfig(
        state_dir=str(state),
        mode="ray",
        num_shards=3,
        fetch_concurrency=4,
        fetch_batch_size=256,
        node_dispatchers=2,
    )
    engine = CrawlEngine(corpus, cfg)

    def assassin():
        # wait for the first durable checkpoint, then kill a dispatcher
        t0 = _time.time()
        manifest = state / "manifest.json"
        while _time.time() - t0 < 60 and not manifest.exists():
            _time.sleep(0.01)
        scheduler = engine.scheduler
        if scheduler is not None and scheduler.dispatchers:
            ray.kill(scheduler.dispatchers[0], no_restart=True)

    killer = threading.Thread(target=assassin)
    killer.start()
    died = False
    try:
        engine.run(seeds=default_seeds(2))
    except Exception:
        died = True
    killer.join()
    engine.close()
    if not died:  # pragma: no cover - host too fast for the kill
        pytest.skip("crawl finished before the dispatcher kill landed")

    result = resume_crawl(corpus, cfg)
    _check_against_oracle(
        corpus, result, bfs_oracle(corpus, default_seeds(2))
    )


def test_shard_death_recovers_via_resume(tmp_path, ray_session):
    """Frontier shards hold seen-filter + pending state in memory; a
    shard death aborts the run (its in-flight RPCs raise — no silent
    loss) and checkpoint recovery must converge exactly: children
    admitted to the dead shard after its last flushed spool are lost
    with it, but their parent docs sit in the post-manifest suspect
    window and re-offer on resume, re-discovering them."""
    import threading
    import time as _time

    import ray

    corpus = make_pages_corpus(num_hosts=12, pages_per_host=800, seed=42)
    state = tmp_path / "state"
    cfg = CrawlConfig(
        state_dir=str(state),
        mode="ray",
        num_shards=3,
        fetch_concurrency=2,
        fetch_batch_size=256,
    )
    engine = CrawlEngine(corpus, cfg)

    def assassin():
        t0 = _time.time()
        manifest = state / "manifest.json"
        while _time.time() - t0 < 60 and not manifest.exists():
            _time.sleep(0.01)
        ray.kill(engine.shards[1], no_restart=True)

    killer = threading.Thread(target=assassin)
    killer.start()
    died = False
    try:
        engine.run(seeds=default_seeds(2))
    except Exception:
        died = True
    killer.join()
    engine.close()
    if not died:  # pragma: no cover - host too fast for the kill
        pytest.skip("crawl finished before the shard kill landed")

    result = resume_crawl(corpus, cfg)
    _check_against_oracle(
        corpus, result, bfs_oracle(corpus, default_seeds(2))
    )


def test_pull_crash_window_resume(corpus, oracle, tmp_path, ray_session):
    """Pull-executor crash artifact: docs exist beyond the manifest's
    last durable cycle while that window's admitted spools are gone
    (exactly what a mid-flight kill leaves after the WAL-ordered
    manifest). Emulated by surgery on a graceful run's state_dir so no
    Ray daemons are orphaned; resume must converge exactly."""
    import json
    import shutil

    state = tmp_path / "state"
    cfg = CrawlConfig(
        state_dir=str(state),
        mode="ray",
        num_shards=3,
        fetch_concurrency=2,
        fetch_batch_size=16,
    )
    CrawlEngine(corpus, cfg).run(seeds=default_seeds(2), max_urls=120)

    doc_epochs = sorted(
        int(d.name.split("=")[1]) for d in (state / "documents").iterdir()
    )
    admitted = sorted(
        int(d.name.split("=")[1]) for d in (state / "admitted").iterdir()
    )
    assert len(admitted) >= 2, "need >=2 flushed cycles to cut one"
    cut = admitted[-2]
    for e in admitted:
        if e > cut:
            shutil.rmtree(state / "admitted" / f"epoch={e}")
    assert any(e > cut for e in doc_epochs), "no suspect docs to recover"
    mpath = state / "manifest.json"
    m = json.loads(mpath.read_text())
    m["last_epoch"] = cut
    m["completed"] = False
    mpath.write_text(json.dumps(m))

    result = resume_crawl(corpus, cfg)
    _check_against_oracle(corpus, result, oracle)


def test_event_doc_crash_resume_recovers_payload_children(tmp_path):
    """ADVICE r3 (medium): a payload-backed (event-delivered) doc in
    the crash-suspect window has no corpus row. Recovery must re-offer
    it WITH its persisted payload (zero-fetch + stored-etag 304) so its
    unflushed children are re-extracted — not re-offer it as a
    fetchable page, which would 404 → deadletter it and orphan the
    children forever."""
    import json as _json
    import shutil
    from glob import glob

    import pyarrow as pa

    from raycrawl.stages.extract import extract_text

    corpus = make_pages_corpus(num_hosts=4, pages_per_host=10, seed=42)
    # a corpus page reachable ONLY through the event payload's link
    iso_url = "http://isolated.example.com/p/0"
    iso_html = b"<html><body><p>isolated</p></body></html>"
    corpus = pa.concat_tables(
        [
            corpus,
            pa.table(
                {
                    "url": pa.array([iso_url], pa.string()),
                    "warc_ts": pa.array(
                        [corpus.column("warc_ts")[0].as_py()],
                        pa.timestamp("us"),
                    ),
                    "html": pa.array([iso_html], pa.binary()),
                    "text": pa.array([extract_text(iso_html)], pa.string()),
                    "lang": pa.array(["en"], pa.string()),
                }
            ),
        ]
    )
    evt_url = "http://events.example.com/hook/1"
    payload = f'<html><body><a href="{iso_url}">i</a></body></html>'
    seeds = default_seeds(2) + [
        {
            "url": evt_url,
            "type": "event_trigger",
            "queue": "events",
            "payload_etag": "1",
            "payload_body": payload,
        }
    ]
    state = tmp_path / "state"
    cfg = CrawlConfig(
        state_dir=str(state), mode="local", num_shards=3, epoch_budget=50
    )
    CrawlEngine(corpus, cfg).run(seeds=seeds)

    # crash emulation: seeds' docs (epoch 0, incl. the event doc) are
    # durable, but NO admitted spool flushed and nothing later ran —
    # the event's child link exists only inside the suspect doc's body
    for d in (state / "admitted").iterdir():
        shutil.rmtree(d)
    for d in (state / "documents").iterdir():
        if int(d.name.split("=")[1]) > 0:
            shutil.rmtree(d)
    mpath = state / "manifest.json"
    m = _json.loads(mpath.read_text())
    m["last_epoch"] = -1
    m["completed"] = False
    mpath.write_text(_json.dumps(m))

    result = resume_crawl(corpus, cfg)

    urls = []
    for f in glob(str(state / "documents" / "epoch=*" / "*.parquet")):
        urls.extend(pq.read_table(f, columns=["url"]).column("url").to_pylist())
    # the event doc 304'd (exactly one stored version, no deadletter)
    assert urls.count(evt_url) == 1
    dead = set(result.deadletters_table().column("url").to_pylist())
    assert evt_url not in dead and iso_url not in dead
    # its orphaned child was re-extracted from the persisted payload
    assert iso_url in urls
    # and the whole crawl converged to the exact reachable set
    reachable, _ = bfs_oracle(corpus, default_seeds(2))
    assert set(urls) == reachable | {evt_url, iso_url}


@pytest.mark.parametrize("tiers", [0, 2], ids=["pull", "pull-tier"])
def test_worker_death_replays_inflight_ranges(
    corpus, oracle, tmp_path, ray_session, tiers
):
    """W3 fault tolerance: a fetch worker that dies mid-crawl (OOM/node
    loss stand-in: os._exit inside the fetcher) restarts via
    max_restarts and its in-flight process_range calls replay via
    max_task_retries. Replay is at-least-once — re-offered children are
    absorbed by the shards' insert-if-absent dedup and re-spooled doc
    rows collapse by url — so the crawled SET, per-url text, and
    deadletter set must all stay exactly the BFS oracle's. The
    pull-tier case routes process_range through a NodeDispatcher: task
    retries are caller-agnostic, so the replay guarantee must compose
    with the lease tier unchanged."""
    import os as _os

    from raycrawl.stages.fetch import TableFetcher

    marker = str(tmp_path / "worker-killed.marker")

    class KamikazeFetcher(TableFetcher):
        """Dies once, process-wide: the first incarnation to reach its
        third batch O_EXCL-creates the marker and exits; every other
        incarnation (and the respawn) sees the marker and lives."""

        def __init__(self, corpus, index):
            super().__init__(corpus, index)
            self._calls = 0

        def lookup(self, digests):
            self._calls += 1
            if self._calls == 3:
                try:
                    fd = _os.open(marker, _os.O_CREAT | _os.O_EXCL)
                except FileExistsError:
                    pass
                else:
                    _os.close(fd)
                    _os._exit(1)
            return super().lookup(digests)

    # 2 workers in every case (the tier case = 2 dispatchers x 1-worker
    # groups): the crawl yields ~30 dispatch chunks of at most 16 rows
    # (most BFS waves are smaller than that), so a wider pool spreads
    # them thinner and can finish before ANY worker reaches the
    # kamikaze's 3rd batch, and the mid-crawl death never happens
    # (observed flaky at 4 workers)
    cfg = CrawlConfig(
        state_dir=str(tmp_path / f"state-{tiers}"),
        mode="ray",
        num_shards=3,
        fetch_concurrency=2,
        fetch_batch_size=16,
        fetcher_cls=KamikazeFetcher,
        node_dispatchers=tiers,
    )
    result = CrawlEngine(corpus, cfg).run(seeds=default_seeds(2))
    assert _os.path.exists(marker)  # a worker really died mid-crawl
    reachable, dangling = oracle
    docs = result.documents_table()
    assert set(docs.column("url").to_pylist()) == reachable
    # at-least-once: a replayed batch may re-spool doc rows it already
    # wrote before dying — every url's text must still be the golden
    # bytes, duplicates included
    golden = {
        rfc3986_normalize(u): t
        for u, t in zip(
            corpus.column("url").to_pylist(),
            corpus.column("text").to_pylist(),
        )
    }
    for url, text in zip(
        docs.column("url").to_pylist(), docs.column("text").to_pylist()
    ):
        assert text == golden[url]
    assert set(result.deadletters_table().column("url").to_pylist()) == dangling
    # trace log (mockInsights analogue): the mid-crawl death left a
    # worker_restart event, bracketed by crawl_start/crawl_stop
    from raycrawl import api

    assert api.trace_log(cfg.state_dir, "worker_restart").num_rows >= 1
    assert api.trace_log(cfg.state_dir, "crawl_start").num_rows == 1
    assert api.trace_log(cfg.state_dir, "crawl_stop").num_rows == 1


def test_offer_checked_drain_contract(corpus, tmp_path, ray_session):
    """The durability half of the at-least-once contract, stage level.
    Child offers are fire-and-forget and buffered across ranges (a
    per-range synchronous ack was measured to serialize every range on
    shard RPC latency — BASELINE.md round 4), so the ack point is the
    engine's CHECKED drain: drain_info flushes + awaits everything and
    returns {pid, admits}; the engine compares pid against the previous
    ack and replays the returned-range window on a mismatch. This pins
    the primitives that replay correctness rests on:

    1. drain_info leaves no buffered tables / un-acked RPCs and its
       admit count equals the rows actually sitting in the shards;
    2. pid is the incarnation stamp (stable within one process);
    3. replaying an already-processed range is offer-idempotent — the
       shards' insert-if-absent bounces every duplicate, so a
       conservative replay can never corrupt the frontier."""
    import time

    import ray

    from raycrawl import wire
    from raycrawl.pipelines.crawl import build_frontier_rows
    from raycrawl.stages.fetch import CrawlWorkerStage, build_fetch_index
    from raycrawl.state.frontier import create_shards

    shards = create_shards(2, state_dir=str(tmp_path / "shards"))
    try:
        stage = CrawlWorkerStage(
            corpus,
            build_fetch_index(corpus),
            shards,
            docs_dir=str(tmp_path / "docs"),
        )
        now = int(time.time() * 1e6)
        frontier = build_frontier_rows(default_seeds(2), base_ts=now)
        ref = ray.put(wire.dump(frontier))
        out = stage.process_range(
            ray.get(ref), 0, frontier.num_rows, epoch=0, now_us=now
        )
        assert out.fetched == frontier.num_rows
        info = stage.drain_info()
        import os

        assert info["pid"] == os.getpid() == stage.pid()
        # post-conditions: nothing buffered, nothing in flight, and the
        # seeds link onward so the range offered children
        assert not stage._offer_buf
        assert stage._pending_offers == []
        assert stage._pending_misc == []
        admits = info["admits"]
        assert admits > 0
        pending = sum(
            sum(c.values()) for c in ray.get([s.counts.remote() for s in shards])
        )
        assert pending == admits  # every admit is already IN a shard
        # replay idempotence: re-running the SAME range (what the engine
        # does for the whole unacked window after a pid mismatch) must
        # bounce every duplicate offer at the shards
        stage.process_range(
            ray.get(ref), 0, frontier.num_rows, epoch=0, now_us=now
        )
        assert stage.drain_info()["admits"] == 0
        pending2 = sum(
            sum(c.values()) for c in ray.get([s.counts.remote() for s in shards])
        )
        assert pending2 == pending
    finally:
        for s in shards:
            ray.kill(s)


@pytest.mark.parametrize("tiers", [0, 1], ids=["pull", "pull-tier"])
def test_worker_death_replays_unacked_offer_window(
    tmp_path, ray_session, tiers
):
    """The loss path the checked drain exists for, DETERMINISTICALLY
    (the tier kill-loop only reproduced it probabilistically via graph
    redundancy): a worker dies AFTER a range's result was delivered but
    BEFORE its buffered child offers reached the shards. Ray's
    transparent task retry never replays a delivered result, so without
    the pid-checked drain those children are silently lost.

    Corpus is a star-of-stars — seed → FAN children → one UNIQUE
    grandchild each — so a lost offer is a permanently missing URL, not
    recoverable through another parent. One worker, two ranges in
    flight (double buffer): range A (first FAN chunk) returns with its
    grandchild offers buffered (< the 2048-row flush threshold), the
    kamikaze kills the process inside range B. B replays transparently
    (in-flight); A's offers must come back via the engine's replay of
    the returned-but-unacked window."""
    import os as _os
    import time

    from raycrawl.stages.fetch import TableFetcher

    FAN = 400
    base = "http://star.example.com"
    urls, htmls = [f"{base}/seed"], []
    child_anchors = "".join(
        f'<a href="{base}/c/{i}">c{i}</a>' for i in range(FAN)
    )
    htmls.append(f"<html><body>{child_anchors}</body></html>".encode())
    for i in range(FAN):
        urls.append(f"{base}/c/{i}")
        htmls.append(
            f'<html><body><a href="{base}/g/{i}">g</a></body></html>'.encode()
        )
    for i in range(FAN):
        urls.append(f"{base}/g/{i}")
        htmls.append(b"<html><body>leaf</body></html>")
    n = len(urls)
    corpus = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(
                [1_600_000_000_000_000 + i for i in range(n)],
                pa.timestamp("us"),
            ),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(["t"] * n, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
        }
    )
    marker = str(tmp_path / f"unacked-killed-{tiers}.marker")

    class KamikazeFetcher(TableFetcher):
        """Dies once process-wide, on its 3rd range: range 1 is the
        seed, range 2 the first FAN chunk (returns + buffers offers),
        range 3 is mid-flight when the process exits."""

        def __init__(self, corpus, index):
            super().__init__(corpus, index)
            self._calls = 0

        def lookup(self, digests):
            self._calls += 1
            if self._calls == 3:
                try:
                    fd = _os.open(marker, _os.O_CREAT | _os.O_EXCL)
                except FileExistsError:
                    pass
                else:
                    _os.close(fd)
                    _os._exit(1)
            return super().lookup(digests)

    cfg = CrawlConfig(
        state_dir=str(tmp_path / f"state-unacked-{tiers}"),
        mode="ray",
        num_shards=3,
        fetch_concurrency=1,
        fetch_batch_size=256,
        fetcher_cls=KamikazeFetcher,
        node_dispatchers=tiers,
    )
    seeds = [{"url": f"{base}/seed", "type": "page", "policy": "default",
              "queue": "normal"}]
    result = CrawlEngine(corpus, cfg).run(seeds=seeds)
    assert _os.path.exists(marker)  # the death really happened
    got = set(result.documents_table().column("url").to_pylist())
    assert got == set(urls)  # every grandchild recovered


def test_pull_politeness_with_spill_same_result(corpus, oracle, tmp_path, ray_session):
    """Shard-side gate × frontier spill: deferred rows re-enter the
    pending runs and may spill under a tiny pending_cap; the crawl must
    still converge to the exact oracle set (gate defers carry future
    not_before through the spill round-trip)."""
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        mode="ray",
        num_shards=3,
        host_rate_per_sec=5,
        fetch_concurrency=2,
        fetch_batch_size=16,
        pending_cap=8,
    )
    result = CrawlEngine(corpus, cfg).run(seeds=default_seeds(2))
    _check_against_oracle(corpus, result, oracle)
    mets = {m["name"]: 0 for m in result.metrics.to_pylist()}
    for m in result.metrics.to_pylist():
        mets[m["name"]] += m["value"]
    assert mets.get("defer", 0) > 0
    assert mets.get("spilled", 0) > 0  # the cap actually forced spill


def _over_allowance(engine, result):
    """(host, processed_at window) -> documents, for every window in
    which a host got more documents than its politeness allowance."""
    epoch_us = int(engine.cfg.epoch_seconds * 1e6)
    docs = result.documents_table()
    per_window: dict = {}
    for url, ts in zip(
        docs.column("url").to_pylist(),
        docs.column("processed_at").to_pylist(),
    ):
        key = (url.split("://")[1].split("/")[0], ts // epoch_us)
        per_window[key] = per_window.get(key, 0) + 1
    return {
        key: n
        for key, n in per_window.items()
        if n > engine.politeness.allowance(key[0])
    }


@pytest.mark.parametrize("mode", ["local", "ray"])
def test_pull_binding_politeness_same_result(
    corpus, oracle, tmp_path, ray_session, mode
):
    """A binding per-host rate limit under both executors: the gate runs
    INSIDE each shard's take() (one local epoch or one pull cycle == one
    logical window, each shard admits its rotating share of the global
    per-host allowance), so the windows stay exact with no driver pass.
    The crawl converges to the exact BFS oracle, actually deferred work,
    and no host's documents in any one ``processed_at`` window exceed
    its allowance."""
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        mode=mode,
        num_shards=3,
        host_rate_per_sec=5,   # binding budget
        fetch_concurrency=2,
        fetch_batch_size=16,
    )
    engine = CrawlEngine(corpus, cfg)
    result = engine.run(seeds=default_seeds(2))
    _check_against_oracle(corpus, result, oracle)
    defer = sum(
        m["value"] for m in result.metrics.to_pylist() if m["name"] == "defer"
    )
    assert defer > 0  # throttling actually deferred work
    over = _over_allowance(engine, result)
    assert not over, over
    engine.close()


def test_pull_chunks_respect_small_fetch_batch_size(
    corpus, oracle, tmp_path, ray_session
):
    """fetch_batch_size caps every pull dispatch chunk, also below the
    executor's 192-row slicing floor: each fetcher lookup (one per
    chunk) sees at most 16 url hashes, and the crawl still matches the
    BFS oracle."""
    from raycrawl.stages.fetch import TableFetcher

    class SmallBatchFetcher(TableFetcher):
        def lookup(self, digests):
            assert len(digests) <= 16, len(digests)
            return super().lookup(digests)

    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        mode="ray",
        num_shards=3,
        fetch_concurrency=2,
        fetch_batch_size=16,
        fetcher_cls=SmallBatchFetcher,
    )
    engine = CrawlEngine(corpus, cfg)
    try:
        result = engine.run(seeds=default_seeds(2))
        _check_against_oracle(corpus, result, oracle)
    finally:
        engine.close()


def test_frontier_spill_same_result(corpus, oracle, tmp_path):
    """Frontier spill: with a tiny per-shard pending cap the coldest
    runs spill to Parquet and reload as the frontier drains; the crawl
    produces the identical seen set / documents / deadletters."""
    _, base = _run(corpus, tmp_path / "a")
    _, spilled = _run(corpus, tmp_path / "b", pending_cap=8)
    _check_against_oracle(corpus, spilled, oracle)
    assert spilled.seen_digest == base.seen_digest
    assert spilled.docs_written == base.docs_written
    # the cap actually forced spill round-trips
    eng_metrics = spilled.metrics.to_pylist()
    spill_rows = [m for m in eng_metrics if m["name"] == "spilled"]
    assert sum(m["value"] for m in spill_rows) > 0


def test_frontier_spill_ray_same_result(corpus, oracle, tmp_path, ray_session):
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        mode="ray",
        num_shards=3,
        fetch_concurrency=2,
        pending_cap=8,
    )
    engine = CrawlEngine(corpus, cfg)
    result = engine.run(seeds=default_seeds(2))
    _check_against_oracle(corpus, result, oracle)
    engine.close()


@pytest.mark.parametrize(
    "engine_mode",
    [
        {"mode": "local"},
        {"mode": "ray", "fetch_concurrency": 2,
         "fetch_batch_size": 16},
    ],
    ids=["local-epoch", "ray-pull"],
)
def test_robots_ingestion_disallow_and_crawl_delay(
    corpus, tmp_path, engine_mode, ray_session
):
    """T7/T8 robots half: robots.txt pages in the corpus are ingested at
    engine construction; Disallow prefixes are never crawled (and the
    pages behind them become unreachable unless reachable otherwise);
    Crawl-delay throttles the host's allowance (deferrals happen).
    Parametrized over both executors: the pull executor's shard-side
    gate must honor the same crawl-delay override allowances, and no
    host's documents in any one ``processed_at`` window may exceed its
    allowance (documents carry the clock of the window that admitted
    them)."""
    from raycrawl.corpus import make_pages_corpus
    from raycrawl.functions.urlnorm import rfc3986_normalize

    robots = {
        "host0.example.com": "User-agent: *\nDisallow: /p/1\n",
        "host1.example.com": "User-agent: *\nCrawl-delay: 0.2\n",
    }
    rcorpus = make_pages_corpus(
        num_hosts=6, pages_per_host=20, seed=42, robots=robots
    )

    def blocked(u):
        c = rfc3986_normalize(u)
        host = c.split("://")[1].split("/")[0]
        path = c[c.index("/", c.index("://") + 3):]
        rules = robots.get(host)
        if not rules:
            return False
        return any(
            path.startswith(line.split(":", 1)[1].strip())
            for line in rules.splitlines()
            if line.lower().startswith("disallow")
        )

    # oracle: BFS that never follows blocked links (seeds exempt)
    pages = {
        rfc3986_normalize(u): h
        for u, h in zip(
            rcorpus.column("url").to_pylist(),
            rcorpus.column("html").to_pylist(),
        )
    }
    frontier = [rfc3986_normalize(s["url"]) for s in default_seeds(2)]
    seen, reachable, dangling = set(frontier), set(), set()
    while frontier:
        nxt = []
        for u in frontier:
            if u not in pages:
                dangling.add(u)
                continue
            reachable.add(u)
            for link in extract_links(pages[u], u):
                c = rfc3986_normalize(link)
                if c not in seen and not blocked(c):
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt

    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        num_shards=3,
        epoch_budget=50,
        respect_robots=True,
        **engine_mode,
    )
    engine = CrawlEngine(rcorpus, cfg)
    assert "host0.example.com" in engine.robots_rules
    assert engine.politeness.robots["host1.example.com"].crawl_delay == 0.2
    result = engine.run(seeds=default_seeds(2))
    got = set(result.documents_table().column("url").to_pylist())
    assert got == reachable
    # disallowed pages really pruned vs the robots-free crawl
    assert any(u.startswith("http://host0.example.com/p/1") for u in
               bfs_oracle(rcorpus, default_seeds(2))[0])
    assert not any(
        u.startswith("http://host0.example.com/p/1") for u in got
    )
    # crawl-delay host actually deferred work
    defer = sum(
        m["value"] for m in result.metrics.to_pylist() if m["name"] == "defer"
    )
    assert defer > 0
    # per-window politeness: documents per (host, processed_at window)
    over = _over_allowance(engine, result)
    assert not over, over


@pytest.mark.parametrize(
    "engine_mode",
    [
        {"mode": "local"},
        {"mode": "ray", "fetch_concurrency": 2,
         "fetch_batch_size": 16},
    ],
    ids=["local-epoch", "ray-pull"],
)
def test_incremental_recrawl_304s_and_upserts(
    corpus, oracle, tmp_path, engine_mode, ray_session
):
    """Incremental re-crawl flow (reference tracker TTL + etag store):
    after a full crawl, modify K corpus bodies and recrawl() the same
    state_dir — exactly K new document versions are written, every
    other reachable page 304s, and latest_documents upserts the changed
    text (D3 last-write-wins). Both executors: the shard-side etag
    stamp and the 304-traversal path are executor-independent."""
    from glob import glob

    import pyarrow as pa

    from raycrawl.api import latest_documents
    from raycrawl.pipelines.crawl import recrawl
    from raycrawl.stages.extract import extract_text

    reachable, dangling = oracle
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "state"),
        num_shards=3,
        epoch_budget=50,
        **engine_mode,
    )
    first = CrawlEngine(corpus, cfg).run(seeds=default_seeds(2))
    assert first.docs_written == len(reachable)

    K = 3
    urls = corpus.column("url").to_pylist()
    htmls = corpus.column("html").to_pylist()
    texts = corpus.column("text").to_pylist()
    canon = [rfc3986_normalize(u) for u in urls]
    mod_idx = [i for i, c in enumerate(canon) if c in reachable][:K]
    for i in mod_idx:
        htmls[i] = htmls[i].replace(b"<body>", b"<body><p>MODIFIED</p>")
        texts[i] = extract_text(htmls[i])
    corpus2 = corpus.set_column(
        corpus.schema.get_field_index("html"),
        "html",
        pa.array(htmls, pa.binary()),
    ).set_column(
        corpus.schema.get_field_index("text"),
        "text",
        pa.array(texts, pa.string()),
    )

    second = recrawl(corpus2, cfg, default_seeds(2))
    # exactly the K changed pages produced new document versions
    assert second.docs_written == K
    unchanged = sum(
        m["value"]
        for m in second.metrics.to_pylist()
        if m["name"] == "unchanged"
    )
    assert unchanged == len(reachable) - K
    # compaction upserts: one row per url, changed rows carry new text
    latest = latest_documents(cfg.state_dir)
    assert latest.num_rows == len(reachable)
    got = dict(
        zip(latest.column("url").to_pylist(), latest.column("text").to_pylist())
    )
    for i in mod_idx:
        assert got[canon[i]] == texts[i]
    # full version history: reachable v1 rows + K v2 rows, nothing lost
    files = glob(str(tmp_path / "state" / "documents" / "epoch=*" / "*.parquet"))
    import pyarrow.parquet as pq_

    total = sum(pq_.read_metadata(f).num_rows for f in files)
    assert total == len(reachable) + K


def test_traversal_policy_shallow_and_depth(corpus, tmp_path):
    """X4 traversal policies: 'shallow' stores only the seeds (no child
    expansion); 'depth:K' truncates each seed's subtree at depth K with
    children inheriting the policy."""
    seeds = [
        {**s, "policy": "shallow"} for s in default_seeds(2)
    ]
    cfg = CrawlConfig(
        state_dir=str(tmp_path / "shallow"), mode="local", num_shards=2
    )
    result = CrawlEngine(corpus, cfg).run(seeds=seeds)
    docs = result.documents_table()
    assert set(docs.column("url").to_pylist()) == {
        rfc3986_normalize(s["url"]) for s in seeds
    }

    # depth-bounded BFS oracle
    K = 2
    pages = {
        rfc3986_normalize(u): h
        for u, h in zip(
            corpus.column("url").to_pylist(),
            corpus.column("html").to_pylist(),
        )
    }
    frontier = [(rfc3986_normalize(s["url"]), 0) for s in default_seeds(2)]
    seen = {u for u, _ in frontier}
    reachable = set()
    while frontier:
        nxt = []
        for u, d in frontier:
            if u not in pages:
                continue
            reachable.add(u)
            if d + 1 > K:
                continue
            for link in extract_links(pages[u], u):
                c = rfc3986_normalize(link)
                if c not in seen:
                    seen.add(c)
                    nxt.append((c, d + 1))
        frontier = nxt

    seeds_k = [{**s, "policy": f"depth:{K}"} for s in default_seeds(2)]
    cfg2 = CrawlConfig(
        state_dir=str(tmp_path / "depthk"), mode="local", num_shards=2
    )
    result2 = CrawlEngine(corpus, cfg2).run(seeds=seeds_k)
    got = set(result2.documents_table().column("url").to_pylist())
    assert got == reachable
    full, _ = bfs_oracle(corpus, default_seeds(2))
    assert len(got) < len(full)  # the bound actually truncated
