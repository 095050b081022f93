import numpy as np
import pyarrow as pa
import pytest

from raycrawl import wire
from raycrawl.pipelines.crawl import build_frontier_rows
from raycrawl.state.frontier import FrontierShardState
from raycrawl.state.politeness import PolitenessPolicy, parse_robots
from raycrawl.state.seenfilter import (
    BloomSeenFilter,
    ExactSeenFilter,
    digest_matrix,
    make_seen_filter,
)


def _digest(i: int) -> bytes:
    import hashlib

    return hashlib.sha1(str(i).encode()).digest()


@pytest.mark.parametrize("cls", [ExactSeenFilter, BloomSeenFilter])
def test_seen_filter_insert_if_absent(cls):
    f = cls()
    d = [_digest(i) for i in range(100)]
    mask = f.add_if_absent(d)
    assert mask.all()
    again = f.add_if_absent(d)
    assert not again.any()
    assert len(f) == 100


@pytest.mark.parametrize("cls", [ExactSeenFilter, BloomSeenFilter])
def test_seen_filter_in_batch_duplicates(cls):
    """Mirror of the reference tracker's concurrency contract: duplicate
    offers admit exactly once (requestTrackerTests.js:359-387)."""
    f = cls()
    batch = [_digest(1), _digest(2), _digest(1), _digest(1), _digest(2)]
    mask = f.add_if_absent(batch)
    assert list(mask) == [True, True, False, False, False]


def test_bloom_no_false_negatives_and_bounded_fp():
    f = BloomSeenFilter(capacity=10_000, fpr=1e-3)
    members = [_digest(i) for i in range(10_000)]
    f.add_if_absent(members)
    assert f.contains(members).all()
    probes = [_digest(i) for i in range(20_000, 40_000)]
    fp = int(f.contains(probes).sum())
    assert fp / len(probes) < 5e-3


def test_seen_digest_order_insensitive():
    a, b = ExactSeenFilter(), ExactSeenFilter()
    d = [_digest(i) for i in range(50)]
    a.add_if_absent(d)
    b.add_if_absent(list(reversed(d)))
    assert a.digest() == b.digest()


def _equivalence_batches():
    """40 seeded batches drawn with replacement from 6,000 keys
    (in-batch duplicates), batch 5 empty."""
    import hashlib

    rng = np.random.default_rng(11)
    keys = [hashlib.sha1(b"k%d" % i).digest() for i in range(6000)]
    out = []
    for b in range(40):
        n = 0 if b == 5 else int(rng.integers(1, 600))
        out.append([keys[j] for j in rng.integers(0, len(keys), n)])
    return out


def _as_list(d):
    return d


def _as_array(d):
    return pa.array(d, pa.binary(20))


def _as_sliced(d):
    pad = b"\xff" * 20
    return pa.array([pad] + d + [pad], pa.binary(20)).slice(1, len(d))


def _as_chunked(d):
    a = _as_sliced(d)
    h = len(d) // 2
    return pa.chunked_array([a.slice(0, h), a.slice(h)], pa.binary(20))


# (len, SHA-1 over the packed admit masks, filter digest) after the
# batches above, pinned from the list-of-bytes implementation with its
# per-row dedup loops. The Bloom filter is sized to saturate (4,915
# admitted of 4,955 distinct keys), so false positives are in the
# masks too.
_PINNED = {
    "bloom": (4915, "5f70eb76b3b5d4fd815c12637ba474abcf344ad0",
              "5f74c09db86deae9aa1ecd64a5da86ea07303b9d"),
    "exact": (4955, "ddf79eec250c877a7723ca80bf5062b1bd6985f9",
              "f0d9ac0d9f64ef88492dfe4f65ca317dd2195b2f"),
}


@pytest.mark.parametrize(
    "form", [_as_list, _as_array, _as_sliced, _as_chunked],
    ids=["list", "array", "sliced", "chunked"],
)
@pytest.mark.parametrize("kind", ["bloom", "exact"])
def test_seen_filter_input_forms_match_pinned(kind, form):
    """Every accepted input form admits the same rows and leaves the
    same filter as the pinned list-of-bytes results."""
    import hashlib

    f = make_seen_filter(kind, capacity=4000, fpr=0.02)
    h = hashlib.sha1()
    for batch in _equivalence_batches():
        digests = form(batch)
        mask = f.add_if_absent(digests)
        assert mask.dtype == bool and len(mask) == len(batch)
        h.update(np.packbits(mask).tobytes() + b"|")
    assert (len(f), h.hexdigest(), f.digest()) == _PINNED[kind]
    probe = form(_equivalence_batches()[7])
    assert f.contains(probe).all()


def test_digest_matrix_views_offset_and_chunks():
    d = [bytes([i]) * 19 + b"\x00" for i in range(5)]
    want = np.frombuffer(b"".join(d), np.uint8).reshape(5, 20)
    for form in (_as_list, _as_array, _as_sliced, _as_chunked):
        assert np.array_equal(digest_matrix(form(d)), want)
    assert digest_matrix(_as_chunked([])).shape == (0, 20)
    assert digest_matrix(pa.chunked_array([], pa.binary(20))).shape == (
        0, 20)


def _rows(urls, queue="normal", depth=0, ts0=1000):
    specs = [{"url": u, "queue": queue} for u in urls]
    t = build_frontier_rows(specs, base_ts=ts0, depth=depth)
    return t


def test_shard_offer_dedup_and_take_order():
    s = FrontierShardState(0, 1)
    t1 = _rows([f"http://a.com/{i}" for i in range(5)])
    assert s.offer(t1) == 5
    assert s.offer(t1) == 0  # bounced
    assert s.metrics["bounce"] == 5
    taken = s.take({"normal": 3}, now_us=10**12)
    assert taken.num_rows == 3
    # priority order: (depth, discovery_ts)
    assert taken.column("url").to_pylist() == [
        "http://a.com/0", "http://a.com/1", "http://a.com/2"
    ]
    assert s.pending_total() == 2


def test_shard_mark_seen_accepts_wire_buffer():
    """Resume replay: keys marked seen, sent as a one-column wire
    buffer or as the column itself, bounce every later offer."""
    t = _rows([f"http://a.com/{i}" for i in range(6)])
    for send in (
        lambda k: wire.dump(k.select(["url_hash"])),
        lambda k: k.column("url_hash"),
    ):
        s = FrontierShardState(0, 1)
        assert s.mark_seen(send(t.slice(2))) == 4
        assert s.offer(t) == 2
        assert s.seen_count() == 6


def test_shard_depth_priority():
    s = FrontierShardState(0, 1)
    s.offer(_rows(["http://a.com/deep"], depth=5, ts0=1))
    s.offer(_rows(["http://a.com/shallow"], depth=1, ts0=2))
    taken = s.take({"normal": 2}, now_us=10**12)
    assert taken.column("url").to_pylist() == [
        "http://a.com/shallow", "http://a.com/deep"
    ]


def test_shard_not_before_deferral():
    s = FrontierShardState(0, 1)
    t = _rows(["http://a.com/x"])
    t = t.set_column(
        t.schema.names.index("not_before"), "not_before",
        pa.array([5000], pa.int64()),
    )
    s.offer(t)
    assert s.take({"normal": 1}, now_us=1000).num_rows == 0
    assert s.pending_total() == 1  # retained
    assert s.min_not_before() == 5000
    assert s.take({"normal": 1}, now_us=6000).num_rows == 1


def test_shard_requeue_skips_dedup():
    s = FrontierShardState(0, 1)
    t = _rows(["http://a.com/x"])
    s.offer(t)
    s.take({"normal": 1}, now_us=10**12)
    s.requeue(t)  # retry of an already-seen url
    assert s.pending_total() == 1


def test_shard_queue_classes():
    s = FrontierShardState(0, 1)
    s.offer(_rows(["http://a.com/n"], queue="normal"))
    s.offer(_rows(["http://a.com/e"], queue="events"))
    assert s.counts()["events"] == 1
    taken = s.take({"events": 1}, now_us=10**12)
    assert taken.column("url").to_pylist() == ["http://a.com/e"]


def test_shard_share_rotation_exact_and_live():
    """The pull gate's per-shard slice of a global allowance: shares sum
    to exactly A every window, and with A < S the rotating residual
    reaches every shard within S windows (a fixed assignment would
    starve rows stuck on zero-share shards)."""
    S = 5
    shards = [FrontierShardState(i, S) for i in range(S)]
    for A in (1, 3, 5, 7, 12):
        for w in range(2 * S):
            assert sum(s._share(A, w) for s in shards) == A
    for s in shards:
        assert any(s._share(1, w) > 0 for w in range(S))


def test_shard_politeness_gate_windows():
    """configure_politeness: at most `allowance` rows of one host leave
    the shard per logical window; overflow defers in place to the next
    window start; the deferred set drains over subsequent windows."""
    s = FrontierShardState(0, 1)
    s.offer(_rows([f"http://a.com/{i}" for i in range(7)]))
    s.configure_politeness(epoch_us=1_000_000, allowance=3)
    assert s.take({"normal": 100}, now_us=0).num_rows == 3
    # same window: deferred rows carry not_before = next window start
    assert s.take({"normal": 100}, now_us=500_000).num_rows == 0
    assert s.take({"normal": 100}, now_us=1_000_000).num_rows == 3
    assert s.take({"normal": 100}, now_us=2_000_000).num_rows == 1
    assert s.metrics["defer"] == 4 + 1
    assert s.pending_total() == 0
    # disabling the gate restores the unbounded fast path
    s.configure_politeness(epoch_us=1_000_000, allowance=None)
    s.offer(_rows([f"http://b.com/{i}" for i in range(5)], ts0=2000))
    assert s.take({"normal": 100}, now_us=0).num_rows == 5


def test_shard_benched_host_defers():
    """set_benched (T6 pull path): a benched host admits nothing until
    its bench_until timestamp; other hosts are unaffected."""
    s = FrontierShardState(0, 1)
    s.offer(_rows(["http://a.com/x", "http://b.com/y"]))
    s.set_benched({"a.com": 5_000_000})
    taken = s.take({"normal": 10}, now_us=0)
    assert taken.column("url").to_pylist() == ["http://b.com/y"]
    assert s.take({"normal": 10}, now_us=1_000_000).num_rows == 0
    late = s.take({"normal": 10}, now_us=6_000_000)
    assert late.column("url").to_pylist() == ["http://a.com/x"]


def test_robots_parse():
    rules = parse_robots(
        "User-agent: *\nDisallow: /private\nCrawl-delay: 2\n\n"
        "User-agent: other\nDisallow: /\n"
    )
    assert not rules.allowed("/private/x")
    assert rules.allowed("/public")
    assert rules.crawl_delay == 2.0
    p = PolitenessPolicy(host_rate_per_sec=10, epoch_seconds=1.0,
                         robots={"a.com": rules})
    assert p.allowance("a.com") == 1  # crawl-delay caps the rate
    assert p.allowance("b.com") == 10


def test_robots_rfc9309_longest_match():
    """RFC 9309 §2.2.2 precedence: the most-octets matching rule wins;
    Allow wins ties; no match -> allowed. §2.2.3 special characters:
    `*` wildcard and `$` end anchor."""
    rules = parse_robots(
        "User-agent: *\n"
        "Allow: /example/page/\n"
        "Disallow: /example/\n"
        "Allow: /folder\n"
        "Disallow: /folder\n"
        "Disallow: /*.gif$\n"
        "Allow: /pub*html\n"
        "Disallow: /pub\n"
    )
    # longest match wins: the Allow is more specific than Disallow
    assert rules.allowed("/example/page/index.html")
    assert not rules.allowed("/example/other")
    # equal-length Allow and Disallow -> Allow wins (RFC tie rule)
    assert rules.allowed("/folder/page")
    # $ anchors at the end; * spans path segments
    assert not rules.allowed("/a/b/pic.gif")
    assert rules.allowed("/a/pic.gif.html")
    # wildcard Allow (9 octets) beats plain Disallow /pub (4)
    assert rules.allowed("/pub/page.html")
    assert not rules.allowed("/pub/data.bin")
    # vectorized matcher agrees with the scalar one
    paths = [
        "/example/page/index.html", "/example/other", "/folder/page",
        "/a/b/pic.gif", "/a/pic.gif.html", "/pub/page.html",
        "/pub/data.bin", "/unmatched",
    ]
    assert list(rules.allowed_many(paths)) == [
        rules.allowed(p) for p in paths
    ]


def test_robots_group_selection():
    """§2.2.1: a group naming the product token exactly shadows the `*`
    group entirely; consecutive User-agent lines share one group."""
    text = (
        "User-agent: googlebot\n"
        "User-agent: raycrawl\n"
        "Disallow: /noray\n"
        "Crawl-delay: 5\n"
        "\n"
        "User-agent: *\n"
        "Disallow: /nobody\n"
    )
    mine = parse_robots(text, agent="raycrawl")
    assert not mine.allowed("/noray/x")
    assert mine.allowed("/nobody/x")  # * group shadowed
    assert mine.crawl_delay == 5.0
    generic = parse_robots(text)  # default agent '*'
    assert generic.allowed("/noray/x")
    assert not generic.allowed("/nobody/x")
    assert generic.crawl_delay is None


def test_shard_routing_consistency():
    """Driver-side shard_of and the vectorized shard_split
    MUST agree — a url_hash has exactly one owning shard."""
    import hashlib

    from raycrawl.functions.urlnorm import shard_of
    from raycrawl.stages.fetch import shard_split

    rows = _rows([f"http://h{i}.com/{i}" for i in range(200)])
    digests = rows.column("url_hash").to_pylist()
    for num_shards in (1, 3, 8):
        split = {}
        for sid, sub in shard_split(rows, num_shards, False):
            for d in sub.column("url_hash").to_pylist():
                split[d] = sid
        for d in digests:
            assert split[d] == shard_of(d, num_shards)


def test_shard_drop_queue_clears_memory_and_spill(tmp_path):
    """D4 flush executes shard-side: pending runs AND spilled rows of
    the flushed class are gone, other classes untouched, and only a
    count is returned (no row materialization)."""
    s = FrontierShardState(
        0, 1, state_dir=str(tmp_path), pending_cap=6
    )
    s.offer(_rows([f"http://a.com/{i}" for i in range(10)], queue="normal"))
    s.offer(_rows(["http://a.com/e1", "http://a.com/e2"], queue="events"))
    assert s.metrics["spilled"] > 0  # cap forced a spill
    before = s.counts()
    assert before["normal"] + before["events"] == 12
    dropped = s.drop_queue("normal")
    assert dropped == before["normal"]
    after = s.counts()
    assert after["normal"] == 0
    assert after["events"] == before["events"]
    # events rows still poppable (spill metadata consistent)
    assert s.take({"events": 10}, now_us=10**12).num_rows == before["events"]
    assert s.take({"normal": 10}, now_us=10**12).num_rows == 0


def test_spilled_hotter_rows_pop_before_colder_memory(tmp_path):
    """Exact global priority across the spill boundary: rows offered
    AFTER a spill with a colder (depth, discovery_ts) key than the
    spilled rows must not be taken ahead of them (ADVICE r2: take()
    previously skipped the unspill whenever in-memory rows covered the
    quota)."""
    s = FrontierShardState(
        0, 1, state_dir=str(tmp_path), pending_cap=4
    )
    # 8 rows at ts 1000..1007 → spill keeps the hottest 2 in memory
    s.offer(_rows([f"http://a.com/{i}" for i in range(8)], ts0=1000))
    assert s.metrics["spilled"] > 0
    # newly discovered, COLDER rows (later ts, same depth)
    s.offer(_rows(["http://b.com/new1", "http://b.com/new2"], ts0=9000))
    taken = s.take({"normal": 4}, now_us=10**12)
    # the 4 hottest rows globally are all a.com (ts 1000-1003),
    # two of which were on disk
    assert taken.column("url").to_pylist() == [
        f"http://a.com/{i}" for i in range(4)
    ]


def test_compute_budget_mirrors_reference_semantics():
    """T6 ComputeLimiter parity (computeLimiter.js:27-77): overage
    charging against a windowed budget, bench at window/4, rolling-min
    baseline."""
    from raycrawl.state.politeness import ComputeBudget

    cb = ComputeBudget(limit_ms=100.0, window_sec=8.0)
    now = 1_000_000
    # first sample sets the baseline: charge = elapsed - baseline = 0
    assert cb.consume("h", 50.0, now) is None
    assert cb.baseline_ms == 50.0
    # a faster request lowers the baseline (rolling min)
    assert cb.consume("h", 10.0, now) is None
    assert cb.baseline_ms == 10.0
    # overage accumulates: two 60ms requests = 100ms overage = at limit
    assert cb.consume("h", 60.0, now) is None
    until = cb.consume("h", 61.0, now)  # 50 + 51 > 100 -> benched
    assert until == now + int(8e6) // 4  # reset at window/4
    assert cb.benched_until("h", now) == until
    assert cb.benched_until("h", until + 1) is None
    # other keys unaffected; window rollover resets usage
    assert cb.consume("other", 50.0, now) is None
    later = now + int(8e6)
    assert cb.consume("h", 60.0, later) is None  # fresh window
