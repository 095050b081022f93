"""Quality oracles for the approximate training-data operators beyond
their DuckDB hash-twins (tests/test_queries_oracle.py): MinHash-LSH
near-dup vs a brute-force oracle, LSH/IVF-ANN recall vs exact cosine,
determinism of the fingerprint/simhash/langid kernels, and the
pre-shuffle row bound of the n-gram top-k partials."""

import numpy as np
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _docs(columns):
    return pq.read_table(f"{SF}/documents.parquet", columns=columns)


def test_shingle_codes_matches_shingles_set_semantics():
    """The vectorized word-shingle kernel must agree with the reference
    set-based kernel on CARDINALITY and pairwise Jaccard (the values
    come from a different hash family, which MinHash is oblivious to)."""
    from raycrawl.functions.dedup import jaccard, shingle_codes, shingles

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy cat",
        "one two",          # shorter than k
        "",                 # empty
        "a a a a a a a a",  # degenerate repeats
        "the quick brown fox jumps over the lazy dog",  # dup of [0]
    ]
    cache: dict = {}
    codes = [shingle_codes(t, k=3, cache=cache) for t in texts]
    sets_ = [shingles(t, k=3) for t in texts]
    for c, s in zip(codes, sets_):
        assert len(c) == len(s)
    import numpy as np

    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            a, b = set(codes[i].tolist()), set(codes[j].tolist())
            jc = (
                1.0 if not a and not b
                else 0.0 if not a or not b
                else len(a & b) / len(a | b)
            )
            assert jc == jaccard(sets_[i], sets_[j])
    # cache-less call agrees with cached call
    assert np.array_equal(codes[0], shingle_codes(texts[0], k=3))


def test_minhash_lsh_matches_bruteforce_oracle(ray_session):
    from raycrawl.functions.dedup import (
        MinHasher,
        est_jaccard,
        shingle_codes_md5,
    )
    from raycrawl.pipelines.textops import minhash_lsh_dupes

    got = minhash_lsh_dupes(SF).to_pandas()
    have = sorted(zip(got["doc_a"], got["doc_b"]))
    assert len(have) == len(set(have))  # no duplicate pairs

    t = _docs(["doc_id", "text"])
    h = MinHasher(num_perms=128, seed=7)
    ids = t.column("doc_id").to_pylist()
    sigs = [
        h.signature(shingle_codes_md5(x, k=3))
        for x in t.column("text").to_pylist()
    ]
    want = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = sigs[i].reshape(16, 8), sigs[j].reshape(16, 8)
            if (a == b).all(axis=1).any() and est_jaccard(sigs[i], sigs[j]) >= 0.5:
                want.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
    assert have == sorted(want)


def test_ngram_jaccard_wide_sample_matches_bruteforce(ray_session):
    """sample > 64 exercises the multi-word probe bitmask (ADVICE r2:
    the single-uint64 mask overflowed there); every (query, doc, rank)
    must match a brute-force exact-Jaccard top-k."""
    import numpy as np

    from raycrawl.functions.dedup import char_trigram_codes
    from raycrawl.pipelines.textops import ngram_jaccard_topk

    sample, k = 70, 3
    got = ngram_jaccard_topk(SF, k=k, sample=sample).to_pandas()
    have = sorted(map(tuple, got[["query_id", "doc_id", "rank"]].values))

    t = _docs(["doc_id", "text"])
    order = sorted(
        range(t.num_rows), key=lambda i: t.column("doc_id")[i].as_py()
    )
    ids = [t.column("doc_id")[i].as_py() for i in order]
    codes = [char_trigram_codes(t.column("text")[i].as_py()) for i in order]
    want = []
    for qi in range(sample):
        scores = []
        for di in range(len(ids)):
            if ids[di] == ids[qi]:
                continue
            inter = len(
                np.intersect1d(codes[qi], codes[di], assume_unique=True)
            )
            union = len(codes[qi]) + len(codes[di]) - inter
            scores.append((inter / union if union else 1.0, ids[di]))
        scores.sort(key=lambda s: (-s[0], s[1]))
        for r, (_, did) in enumerate(scores[:k], 1):
            want.append((ids[qi], did, r))
    assert have == sorted(want)


def test_ngram_jaccard_shuffle_is_topk_bounded(ray_session, monkeypatch):
    """The Score stage keeps only k best per probe per batch (round-3
    verdict item 3), so the rows entering the groupby(query_id) shuffle
    are bounded by blocks x probes x k — NOT n_docs x probes (3.2e11
    rows at 1e10 docs). Captures the dataset at the shuffle boundary
    and counts it; also re-checks the final result is unchanged."""
    import ray.data

    from raycrawl.pipelines.textops import ngram_jaccard_topk

    sample, k = 32, 3
    counted = {}
    orig_groupby = ray.data.Dataset.groupby

    def counting_groupby(self, key):
        if key == "query_id" and "rows" not in counted:
            counted["rows"] = self.count()
            counted["blocks"] = self.materialize().num_blocks()
        return orig_groupby(self, key)

    monkeypatch.setattr(ray.data.Dataset, "groupby", counting_groupby)
    got = ngram_jaccard_topk(SF, k=k, sample=sample).to_pandas()
    n_docs = _docs(["doc_id"]).num_rows
    assert counted["rows"] <= counted["blocks"] * sample * k
    assert counted["rows"] < n_docs * sample  # the unreduced shuffle
    assert len(got) == sample * k


def test_knn_lsh_recall_vs_bruteforce(ray_session):
    from raycrawl.pipelines.textops import knn_cosine, knn_lsh

    exact = knn_cosine(SF).to_pandas()
    approx = knn_lsh(SF).to_pandas()
    exact_set = set(zip(exact["query_id"], exact["neighbor_id"]))
    approx_set = set(zip(approx["query_id"], approx["neighbor_id"]))
    recall = len(exact_set & approx_set) / len(exact_set)
    # 8 planes x 32 tables, multiprobe=2 (the measured frontier point,
    # tools/ann_sweep.py / BASELINE.md): deterministic 0.76 on the
    # suite's 5 queries over the (isotropic, clusterless) embeddings
    # while scanning ~34% of candidates
    assert recall >= 0.7, recall


def test_knn_quantized_recall_and_resharding(ray_session, monkeypatch):
    """int8 quantization quality beyond the twin: top-10 recall vs the
    exact float cosine ranking (measured 0.98 at sf0.001, 1.0 at
    sf0.01 — 64-dim unit vectors lose almost nothing at 1/127
    resolution), plus batching-independence: integer scores tie often,
    so the partial top-k's (score DESC, id ASC) boundary rule is what
    makes selection commute with the merge — pin it by forcing a
    different read fan-out."""
    import pandas as pd

    from raycrawl.pipelines import analytics
    from raycrawl.pipelines.textops import knn_cosine, knn_quantized

    exact = knn_cosine(SF).to_pandas()
    quant = knn_quantized(SF).to_pandas()
    exact_set = set(zip(exact["query_id"], exact["neighbor_id"]))
    quant_set = set(zip(quant["query_id"], quant["neighbor_id"]))
    recall = len(exact_set & quant_set) / len(exact_set)
    assert recall >= 0.9, recall

    def norm(r):
        df = r.to_pandas()
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    base = norm(knn_quantized(SF))
    monkeypatch.setattr(analytics, "_nblocks", lambda sf, t: 3)
    pd.testing.assert_frame_equal(base, norm(knn_quantized(SF)))


def test_embedding_near_dup_lsh_recall_and_precision(ray_session):
    """The LSH-blocked variant is approximate: every pair it returns
    must be a true qualifying pair with the exact sim_bp (precision 1.0
    by construction — pairs are exact-verified), and recall vs the
    exact path must clear a floor at this low tau."""
    from raycrawl.pipelines.textops import (
        embedding_near_dup,
        embedding_near_dup_lsh,
    )

    exact = embedding_near_dup(SF).to_pandas()
    approx = embedding_near_dup_lsh(SF).to_pandas()
    exact_pairs = {
        (a, b): s
        for a, b, s in zip(exact["id_a"], exact["id_b"], exact["sim_bp"])
    }
    approx_pairs = {
        (a, b): s
        for a, b, s in zip(approx["id_a"], approx["id_b"], approx["sim_bp"])
    }
    # precision: every reported pair is real, with the exact score
    for k, s in approx_pairs.items():
        assert k in exact_pairs and exact_pairs[k] == s
    recall = len(approx_pairs) / len(exact_pairs)
    assert recall >= 0.6, recall  # 4 planes x 16 tables at tau=0.35


def test_fingerprints_deterministic():
    from raycrawl.functions.textstats import (
        fingerprint,
        fingerprint_slow,
        fingerprints_batch,
    )

    texts = _docs(["text"]).column("text").to_pylist()[:20]
    assert [fingerprint(t) for t in texts] == [fingerprint(t) for t in texts]
    assert len({fingerprint(t) for t in texts}) > 1
    # vectorized power-dot == scalar Horner oracle, incl. edge cases
    edge = texts + ["", "a", "\x00\xff" * 3, "é" * 5]
    assert [fingerprint(t) for t in edge] == [fingerprint_slow(t) for t in edge]
    assert fingerprints_batch(edge).tolist() == [fingerprint_slow(t) for t in edge]


def test_simhash_near_texts_close():
    from raycrawl.functions.dedup import simhash64

    base = "the quick brown fox jumps over the lazy dog " * 20
    near = base.replace("lazy", "sleepy", 1)
    far = "completely different content about other topics entirely " * 20
    d_near = bin(simhash64(base) ^ simhash64(near)).count("1")
    d_far = bin(simhash64(base) ^ simhash64(far)).count("1")
    assert d_near < d_far


def test_langid_heuristic_sane():
    from raycrawl.functions.textstats import langid

    assert langid("the and of to in is that it was for on") == "en"
    assert langid("") == "und"


def test_langid_batch_matches_scalar():
    """The one-pass bitmask batch kernel must agree with the scalar
    4-pass kernel on every document, including overlap-heavy tie cases
    ('de'/'la'/'es' are stopwords in several languages)."""
    from raycrawl.functions.textstats import langid, langid_batch

    texts = [
        "the and of to in is that it was for on",
        "der die das und ist ein",
        "le la les et est un une",
        "el la los y es un una de en que",
        "de la es",              # all-overlap tie
        "",
        "xyzzy qwerty plugh",    # no stopword hits
    ] + _docs(["text"]).column("text").to_pylist()[:200]
    assert langid_batch(texts) == [langid(t) for t in texts]


def test_knn_ivf_recall_vs_bruteforce(ray_session):
    from raycrawl.pipelines.textops import knn_cosine, knn_ivf

    exact = knn_cosine(SF).to_pandas()
    approx = knn_ivf(SF).to_pandas()
    exact_set = set(zip(exact["query_id"], exact["neighbor_id"]))
    approx_set = set(zip(approx["query_id"], approx["neighbor_id"]))
    recall = len(exact_set & approx_set) / len(exact_set)
    # deterministic (seeded k-means, fixed corpus): measures 0.82 at
    # nprobe 8 of 16 lists (the frontier point, tools/ann_sweep.py —
    # on isotropic data IVF recall tracks the scanned fraction, so
    # this is the knee before degenerating into a full scan)
    assert recall >= 0.7, recall


def test_minhash_hot_bucket_bounded(ray_session, tmp_path):
    """Adversarial LSH bucket: N identical docs put every signature in
    ONE band-0 bucket, so pair scoring degrades to O(N^2) — the
    vectorized chunked kernel must stay within a wall-time bound and
    emit exactly C(N,2) pairs (each from its FIRST matching band only,
    so no duplicates despite all 16 bands colliding)."""
    import time

    import pyarrow as pa

    n = 1500
    text = " ".join(f"word{i % 37}" for i in range(60))
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array([text] * n),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    from raycrawl.pipelines.textops import minhash_lsh_dupes

    t0 = time.time()
    got = minhash_lsh_dupes(str(tmp_path)).to_pandas()
    wall = time.time() - t0
    assert len(got) == n * (n - 1) // 2
    assert (got["est_jaccard"] == 1.0).all()
    assert sorted(zip(got["doc_a"], got["doc_b"])) == [
        (a, b) for a in range(n) for b in range(a + 1, n)
    ]
    # bound: ~1.1M pairs scored via the chunked numpy tensor — seconds,
    # not the minutes the per-pair Python loop would take
    assert wall < 60, f"hot bucket took {wall:.1f}s"


def test_scan_width_bounds_driver_combine():
    """_scan_width must keep the pack_sequences offset combine at or
    under 64k ranges for ANY corpus size, growing in powers of two of
    the base width."""
    from raycrawl.pipelines.textops import _PACK_RANGE, _scan_width

    assert _scan_width(0) == _PACK_RANGE
    assert _scan_width(_PACK_RANGE * (1 << 16) - 1) == _PACK_RANGE
    assert _scan_width(_PACK_RANGE * (1 << 16)) == _PACK_RANGE * 2
    for max_id in (10**7, 10**9, 10**10, 10**12):
        w = _scan_width(max_id)
        assert (max_id + 1) <= w * (1 << 16)          # combine bounded
        assert w % _PACK_RANGE == 0 and (w // _PACK_RANGE) & (w // _PACK_RANGE - 1) == 0


def test_pack_sequences_invariant_to_scan_width(ray_session, monkeypatch):
    """The packing assignment is a pure function of (doc_id order,
    n_tokens, cap) — the scan decomposition width must not leak into
    the result. Run the same corpus at base widths 16 and 4096 and
    require identical bin assignments."""
    import raycrawl.pipelines.textops as t

    outs = []
    for base in (16, 4096):
        monkeypatch.setattr(t, "_PACK_RANGE", base)
        df = t.pack_sequences(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
        outs.append(df)
    assert outs[0].equals(outs[1])


def test_connected_components_chain_and_clique(ray_session):
    """Multi-round propagation: a 12-node path (diameter 11 — needs
    ~11 rounds, so the convergence loop is really exercised; the sf
    corpora's LSH clusters are near-cliques that converge in 2), plus
    a disjoint triangle, plus an isolated pair. Per-key min of the
    returned labels must be the component minimum for every node."""
    import pyarrow as pa
    import ray.data

    from raycrawl.pipelines.textops import _connected_components

    chain = [(i, i + 1) for i in range(100, 111)]
    tri = [(7, 3), (3, 5), (5, 7)]
    pair = [(901, 900)]
    edges = chain + tri + pair
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pa.array([a for a, _ in edges], pa.int64()),
                "doc_b": pa.array([b for _, b in edges], pa.int64()),
            }
        )
    )
    labels = _connected_components(pairs).to_pandas()
    got = labels.groupby("key")["val"].min().to_dict()
    want = {**{i: 100 for i in range(100, 112)},
            **{3: 3, 5: 3, 7: 3}, 900: 900, 901: 900}
    assert got == want


def test_connected_components_diameter_guard(ray_session, monkeypatch):
    """A graph deeper than the round cap must fail loudly, not return
    a partially-propagated labeling."""
    import pyarrow as pa
    import pytest
    import ray.data

    import raycrawl.pipelines.textops as t

    monkeypatch.setattr(t, "_CC_MAX_ROUNDS", 3)
    chain = [(i, i + 1) for i in range(20)]
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pa.array([a for a, _ in chain], pa.int64()),
                "doc_b": pa.array([b for _, b in chain], pa.int64()),
            }
        )
    )
    with pytest.raises(RuntimeError, match="did not converge"):
        t._connected_components(pairs)


def test_connected_components_keeps_block_count(ray_session, monkeypatch):
    """Every propagation round runs on the edge set's block count: a
    10-node path on a 4-block edge set takes ~10 rounds, and a round
    that unions labels with the edges without repartitioning adds the
    edge set's blocks again each time (4 -> 40 blocks, most of them
    empty)."""
    import pyarrow as pa
    import ray.data

    from raycrawl.pipelines.textops import _connected_components

    blocks = []
    materialize = ray.data.Dataset.materialize

    def spy(self):
        out = materialize(self)
        blocks.append(out.num_blocks())
        return out

    monkeypatch.setattr(ray.data.Dataset, "materialize", spy)
    chain = [(i, i + 1) for i in range(9)]
    a, b = np.array(chain).T
    pairs = ray.data.from_arrow(
        [pa.table({"doc_a": a[i::4], "doc_b": b[i::4]}) for i in range(4)]
    )
    labels = _connected_components(pairs).to_pandas()
    assert labels.groupby("key")["val"].min().to_dict() == {
        i: 0 for i in range(10)
    }
    # the edge set, the seed round, then one materialize per round
    assert len(blocks) >= 10
    assert blocks == [4] * len(blocks)


def test_sampled_spans_are_exact_restriction_of_full(ray_session):
    """dup_ngram_spans_sampled must be EXACTLY the full span table
    restricted to grams passing the top-nibble predicate (selection is
    a pure function of the gram hash): same counts on the sampled
    subset, every sampled gram obeys the predicate, and the volume
    lands near the designed 1/8."""
    from raycrawl.pipelines.textops import (
        _SPAN_SAMPLE_BOUND,
        dup_ngram_spans,
        dup_ngram_spans_sampled,
    )

    full = dup_ngram_spans(SF).to_pandas().set_index("gram")
    samp = dup_ngram_spans_sampled(SF).to_pandas()
    assert 0 < len(samp) < len(full)
    assert set(samp["gram"]) <= set(full.index)
    merged = samp.set_index("gram").join(full, rsuffix="_f")
    assert (merged["n_docs"] == merged["n_docs_f"]).all()
    assert (
        merged["n_occurrences"] == merged["n_occurrences_f"]
    ).all()
    allowed = "0123456789abcdef"[:_SPAN_SAMPLE_BOUND]
    assert samp["gram"].str[0].isin(list(allowed)).all()
    # ~1/8 by design; generous band (small-sample binomial)
    ratio = len(samp) / len(full)
    assert 0.04 < ratio < 0.25


def test_hash_selected_operators_stable_under_resharding(
    ray_session, monkeypatch
):
    """stratified_sample_topk and token_quantiles_by_lang both claim
    batching-independence (content-hash rank selection / distinct-value
    compression) — pin it by forcing a different read fan-out and
    asserting byte-identical output."""
    import pandas as pd

    from raycrawl.pipelines import analytics
    from raycrawl.pipelines.textops import (
        importance_sample,
        stratified_sample_topk,
        token_quantiles_by_lang,
    )

    def norm(ds):
        df = ds.to_pandas()
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    base = [
        norm(stratified_sample_topk(SF)),
        norm(token_quantiles_by_lang(SF)),
        norm(importance_sample(SF)),
    ]
    monkeypatch.setattr(analytics, "_nblocks", lambda sf, t: 3)
    resharded = [
        norm(stratified_sample_topk(SF)),
        norm(token_quantiles_by_lang(SF)),
        norm(importance_sample(SF)),
    ]
    for a, b in zip(base, resharded):
        pd.testing.assert_frame_equal(a, b)


def test_bm25_and_kmv_stable_under_resharding(ray_session, monkeypatch):
    """bm25_search_topk (per-batch local top-k + bounded merge) and
    kmv_distinct_users (set-union mergeable sketch) both claim
    batching-independence — pin it by forcing a different read fan-out
    and asserting byte-identical output."""
    import pandas as pd

    from raycrawl.pipelines import analytics
    from raycrawl.pipelines.analytics import kmv_distinct_users
    from raycrawl.pipelines.textops import bm25_search_topk

    def norm(r):
        df = r.to_pandas()
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    base = [norm(bm25_search_topk(SF)), norm(kmv_distinct_users(SF))]
    monkeypatch.setattr(analytics, "_nblocks", lambda sf, t: 3)
    resharded = [norm(bm25_search_topk(SF)), norm(kmv_distinct_users(SF))]
    for a, b in zip(base, resharded):
        pd.testing.assert_frame_equal(a, b)


def test_kmv_estimate_accuracy(ray_session):
    """KMV quality beyond the hash twin: on the exact path
    (distinct < K, here 15 users at sf0.001) the estimate IS the true
    distinct count; on the sketch path (sf0.01, 150 users > K=64) the
    estimate must land within the ~1/sqrt(K-2) relative-error band
    (3 sigma ~ 38%; the measured point is 144/150 = 4%)."""
    import duckdb

    from raycrawl.pipelines.analytics import kmv_distinct_users

    for sf, sketch in [("/root/testdata/sf0.001", False),
                       ("/root/testdata/sf0.01", True)]:
        truth = dict(
            duckdb.sql(
                "SELECT event_type, COUNT(DISTINCT user_id) FROM "
                f"read_parquet('{sf}/events.parquet') GROUP BY 1"
            ).fetchall()
        )
        got = kmv_distinct_users(sf).to_pandas()
        for _, row in got.iterrows():
            true_n = truth[row["event_type"]]
            if sketch:
                assert row["n_kept"] == 64
                assert abs(row["est_distinct"] - true_n) / true_n < 0.38
            else:
                assert row["est_distinct"] == true_n


def test_bm25_score_is_exact_integer_okapi(ray_session):
    """The integer-rewritten per-term score must equal the textbook
    float Okapi BM25 (k1=1.2, b=0.75, Lucene idf) to within the
    documented idf-scaling quantization — i.e. the algebra, not just
    the twin, is right."""
    import math

    from raycrawl.functions.textstats import WORD_REGEX
    from raycrawl.pipelines.textops import (
        _BM25_IDF_SCALE,
        _BM25_TERMS,
        bm25_search_topk,
    )

    t = _docs(["doc_id", "text"])
    texts = dict(zip(t.column("doc_id").to_pylist(),
                     t.column("text").to_pylist()))
    words = {i: WORD_REGEX.findall(x) for i, x in texts.items()}
    n = len(texts)
    total = sum(len(w) for w in words.values())
    avgdl = total / n
    k1, b = 1.2, 0.75
    got = bm25_search_topk(SF).to_pandas()
    assert list(got["rank"]) == list(range(1, len(got) + 1))
    for _, row in got.iterrows():
        w = words[row["doc_id"]]
        dl = len(w)
        float_score = 0.0
        for term in _BM25_TERMS:
            tf = w.count(term)
            if not tf:
                continue
            df = sum(1 for ws in words.values() if term in ws)
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            float_score += (
                idf * tf * (k1 + 1)
                / (tf + k1 * (1 - b + b * dl / avgdl))
            )
        # scaled-int score / SCALE == float score +- quantization
        assert abs(row["score"] / _BM25_IDF_SCALE - float_score) < (
            len(_BM25_TERMS) / _BM25_IDF_SCALE * 10
        )


# Adversarial documents for the word-level queries: empty and
# whitespace-only docs, \v/\f separators, non-separator control and
# unicode-space characters inside words (\x1c, \x85, \xa0, U+2003),
# the distinct words 'a\x00' and 'a', repeated terms, five tf-idf
# score ties in one doc, and an 8-word span shared by docs 11 and 12.
# Consecutive short docs (1-3) would form 8-word windows if a kernel
# let windows cross a doc boundary. 'a' and 'a\x00' do not tie in
# tf-idf score: DuckDB's ORDER BY sorts strings that differ only in
# trailing NULs as equal (its '<' does not), so on such a tie the
# twin's rank order is arbitrary.
EDGE_DOCS = [
    "merge scan table window",
    "merge merge scan foo bar",
    "table window qux",
    "",
    "   ",
    " \v\f\t\n\r ",
    "scan\vfoo\fbar\v\ftable  window\n",
    "a\x00 a a b merge",
    "x\x1cy z\x85w n\xa0m em\u2003space \U0001f642 x\x1cy!!",
    "pp qq rr ss tt",
    "one two three four five six seven eight nine",
    "zero one two three four five six seven eight window, window",
    "ab, cd. ef; " * 4,
]

# every query that tokenizes text into words or regex tokens
TOKENIZER_QUERIES = [
    "text_token_stats", "quality_scores", "term_doc_frequency",
    "doc_commonness", "importance_sample", "tfidf_topk_terms",
    "bm25_search_topk", "dup_ngram_spans", "boilerplate_span_ratio",
]


@pytest.fixture(scope="module")
def edge_sf(tmp_path_factory):
    import pyarrow as pa

    d = tmp_path_factory.mktemp("edge_docs")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(1, len(EDGE_DOCS) + 1), pa.int64()),
                "text": pa.array(EDGE_DOCS, pa.string()),
            }
        ),
        d / "documents.parquet",
        row_group_size=5,  # several read blocks, so partials combine
    )
    return str(d)


@pytest.mark.parametrize("name", TOKENIZER_QUERIES)
def test_tokenizer_queries_match_twins_on_edge_docs(ray_session, edge_sf, name):
    """Each tokenizer query equals its DuckDB twin on EDGE_DOCS. A
    numpy 'U' array of terms drops trailing NULs and merges 'a\x00'
    into 'a', which the twins keep apart."""
    import duckdb
    import pandas as pd

    import raycrawl.pipelines.textops  # noqa: F401  (registers queries)
    from raycrawl.pipelines.analytics import ORACLES, QUERIES

    got = QUERIES[name](edge_sf).to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{edge_sf}/documents.parquet')"
    )
    want = con.sql(ORACLES[name]).df()

    def norm(df):
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    assert len(want) > 0
    pd.testing.assert_frame_equal(norm(got), norm(want), check_dtype=False)
    if name == "term_doc_frequency":
        assert {"a", "a\x00"} <= set(got["term"])
    if name == "bm25_search_topk":
        # N counts ALL documents, the three zero-token ones included
        # (the twin's dl CTE alone would drop them): every doc holding
        # a query term scores, and only those
        assert sorted(got["doc_id"]) == [1, 2, 3, 7, 8, 12]


def test_boilerplate_span_ratio_without_shared_spans(ray_session, tmp_path):
    """No 8-word span is shared by two docs: the duplicated-span set is
    empty, and boilerplate_span_ratio still equals its twin (every doc
    with a window has n_dup_windows = 0)."""
    import duckdb
    import pandas as pd
    import pyarrow as pa

    from raycrawl.pipelines.analytics import ORACLES
    from raycrawl.pipelines.textops import boilerplate_span_ratio

    texts = [
        "one two three four five six seven eight nine",
        "alpha beta gamma delta epsilon zeta eta theta",
        "too short",
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        tmp_path / "documents.parquet",
    )
    got = boilerplate_span_ratio(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    want = con.sql(ORACLES["boilerplate_span_ratio"]).df()

    def norm(df):
        return df[sorted(df.columns)].sort_values("doc_id").reset_index(
            drop=True
        )

    pd.testing.assert_frame_equal(norm(got), norm(want), check_dtype=False)
    assert sorted(got["doc_id"]) == [1, 2]
    assert (got["n_dup_windows"] == 0).all()


# every query whose keyed merges go through _by_key in textops, plus one
# analytics per-key query; link_pagerank runs in the same sweep
KEYED_QUERIES = [
    "text_exact_dedup", "minhash_lsh_dupes", "near_dup_clusters",
    "dedup_keep_best", "embedding_dup_clusters", "term_doc_frequency",
    "dup_ngram_spans", "dedup_first_by_key",
]


def test_keyed_merges_invariant_to_block_count(ray_session, monkeypatch):
    """The keyed merges' output depends on the data only: the same
    frames at 1, 3 and 16 blocks as at the default blocking (the read
    block counts _nblocks and _pool_size set, and the pages' block
    count for link_pagerank). At the default blocking every textops
    merge's blocks also concatenate: none is a schema-less empty
    block."""
    import pandas as pd
    import pyarrow as pa
    import ray

    import raycrawl.pipelines.textops as t
    from raycrawl.pipelines import analytics
    from raycrawl.pipelines.analytics import QUERIES
    from raycrawl.pipelines.linkgraph import _pagerank_dataset

    def norm(ds):
        df = ds.to_pandas()
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    def run(parts=None):
        out = {name: norm(QUERIES[name](SF)) for name in KEYED_QUERIES}
        out["link_pagerank"] = norm(_pagerank_dataset(SF, parts=parts))
        return out

    for name in KEYED_QUERIES[:-1]:
        refs = QUERIES[name](SF).to_arrow_refs()
        pa.concat_tables(ray.get(refs))
    base = run()
    for p in (1, 3, 16):
        monkeypatch.setattr(analytics, "_nblocks", lambda sf, tbl: p)
        monkeypatch.setattr(t, "_pool_size", lambda cap=16: p)
        for name, df in run(parts=p).items():
            pd.testing.assert_frame_equal(df, base[name], obj=f"{name} P={p}")


def _quality_score_ref(text: str) -> float:
    """Scalar reference for textstats.quality_scores_batch."""
    from raycrawl.functions.textstats import PUNCT_REGEX, WORD_REGEX

    n = len(text)
    n_words = len(WORD_REGEX.findall(text))
    if n_words == 0:
        return 0.0
    mean_wl = (n - (n_words - 1)) / n_words
    score = 1.0
    if n < 32 or n > 100_000:
        score *= 0.5
    if mean_wl < 2 or mean_wl > 12:
        score *= 0.5
    if len(PUNCT_REGEX.findall(text)) / n > 0.2:
        score *= 0.5
    return round(score, 4)


def test_arrow_tokenizer_matches_python_regexes():
    """The Arrow kernels equal Python's re per text: _tokens gives
    WORD_REGEX.findall, the count kernels the TOKEN_REGEX/PUNCT_REGEX
    match counts, and quality_scores_batch the scalar reference — over
    every separator of the word class, NUL, and characters that
    Python's str.split treats as space but the class does not."""
    import pyarrow as pa
    from hypothesis import given, settings, strategies as st

    from raycrawl.functions.textstats import (
        PUNCT_REGEX,
        TOKEN_REGEX,
        WORD_REGEX,
        punct_counts_batch,
        quality_scores_batch,
        token_counts_batch,
    )
    from raycrawl.pipelines.textops import _tokens

    alphabet = list(" \t\n\r\v\f\x00\x1c\x85\xa0\u2003\U0001f642aZ09_.,!")
    texts_st = st.lists(
        st.text(alphabet=st.sampled_from(alphabet), max_size=60),
        max_size=8,
    )

    @settings(max_examples=300, deadline=None)
    @given(texts=texts_st)
    def check(texts):
        col = pa.chunked_array([texts[:3], texts[3:]], pa.string())
        words, doc = _tokens(col)
        per_doc = [[] for _ in texts]
        for w, d in zip(words.to_pylist(), doc.tolist()):
            per_doc[d].append(w)
        assert per_doc == [WORD_REGEX.findall(x) for x in texts]
        assert token_counts_batch(col).tolist() == [
            len(TOKEN_REGEX.findall(x)) for x in texts
        ]
        assert punct_counts_batch(col).tolist() == [
            len(PUNCT_REGEX.findall(x)) for x in texts
        ]
        assert quality_scores_batch(col).tolist() == [
            _quality_score_ref(x) for x in texts
        ]

    check()


def test_importance_sample_tilts_toward_rare_vocab(ray_session, tmp_path):
    """The importance weight must BITE: on a fixture of 20 boilerplate
    docs sharing one 4-word template plus one doc of corpus-unique
    words, the rare doc's keep threshold clamps to 2^32 (kept with
    probability 1 regardless of its hash) while the boilerplate docs'
    threshold is T·n/(64·freq_sum) = (84·4)/(64·80) of the hash space
    (~6.6%) — and the pipeline hash-matches the oracle on the same
    fixture."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from raycrawl.pipelines.analytics import ORACLES
    from raycrawl.pipelines.textops import importance_sample

    texts = ["aa bb cc dd"] * 20 + ["ee ff gg hh"]
    docs = pa.table(
        {
            "doc_id": pa.array(list(range(1, 22)), pa.int64()),
            "text": pa.array(texts),
        }
    )
    pq.write_table(docs, tmp_path / "documents.parquet")

    got = importance_sample(str(tmp_path)).to_pandas()

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    want = con.execute(ORACLES["importance_sample"]).df()

    def norm(df):
        df = df[sorted(df.columns)].astype("int64")
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    pd.testing.assert_frame_equal(norm(got), norm(want))

    # rare-vocab doc: freq_sum = n_words -> threshold clamps to 2^32,
    # i.e. kept unconditionally
    rare = got[got.doc_id == 21]
    assert len(rare) == 1 and int(rare.keep_thr.iloc[0]) == 1 << 32
    # boilerplate docs: T=84 tokens, n=4, freq_sum=80 -> exact integer
    # threshold; any that survive carry it, and it is far below clamp
    common_thr = (84 * 4 << 32) // (64 * 80)
    common = got[got.doc_id != 21]
    assert (common.keep_thr == common_thr).all()


def test_dedup_keep_best_quality_beats_min_id(ray_session, tmp_path):
    """The quality tie-break must BITE: when the min-id member of a
    near-dup cluster is the boilerplate copy (punct ratio > 0.2 ->
    quality 0.5) and a higher-id member is clean (quality 1.0), the
    keeper is the HIGHER id — the exact case near_dup_clusters'
    min-id keeper gets wrong. A second cluster with identical texts
    checks the (quality DESC, doc_id ASC) tie-break falls back to
    min id on equal quality."""
    import pyarrow as pa

    base = " ".join(f"tok{i % 23}ab" for i in range(40))  # clean, 1.0
    noisy = base + "!" * int(0.3 * len(base))  # one repeated shingle,
    # Jaccard ~0.99, punct ratio > 0.2 -> quality 0.5
    twin = " ".join(f"zqx{i % 19}cd" for i in range(40))
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
                "text": pa.array([noisy, base, "solo doc here, unique",
                                  twin, twin]),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    from raycrawl.functions.textstats import quality_scores_batch
    from raycrawl.pipelines.textops import dedup_keep_best

    assert list(quality_scores_batch([noisy, base])) == [0.5, 1.0]

    got = (
        dedup_keep_best(str(tmp_path))
        .to_pandas()
        .sort_values("cluster_id")
        .reset_index(drop=True)
    )
    assert list(got["cluster_id"]) == [0, 3]
    # cluster 0: quality wins over id -> doc 1 kept, not min-id doc 0
    assert list(got["keep_doc_id"]) == [1, 3]
    assert list(got["keep_quality"]) == [1.0, 1.0]
    assert list(got["n_members"]) == [2, 2]


def test_embedding_dup_clusters_chain_transitivity(ray_session, tmp_path):
    """A~B and B~C with A NOT~ C (65-degree steps: cos 0.42 >= tau,
    cos 130 deg << tau) must land in ONE cluster — the transitive
    closure pairwise dedup can't see. Six mutually-orthogonal
    singletons stay their own clusters. The DuckDB twin runs on the
    SAME fixture file, pinning oracle-pair validity on a chain the
    driver testdata may not exercise."""
    import math

    import duckdb
    import pandas as pd
    import pyarrow as pa

    th = math.radians(65)
    vecs = []
    for i in range(3):  # chain in axes (6, 7)
        v = [0.0] * 8
        v[6], v[7] = math.cos(i * th), math.sin(i * th)
        vecs.append(v)
    for ax in range(6):  # orthogonal singletons
        v = [0.0] * 8
        v[ax] = 1.0
        vecs.append(v)
    t = pa.table(
        {
            "vec_id": pa.array(range(9), pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float32())),
            "label": pa.array([0] * 9, pa.int32()),
        }
    )
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))

    from raycrawl.pipelines.textops import embedding_dup_clusters

    got = (
        embedding_dup_clusters(str(tmp_path))
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    assert list(got["vec_id"]) == list(range(9))
    assert list(got["cluster_id"]) == [0, 0, 0, 3, 4, 5, 6, 7, 8]

    import __ray_entry__ as e

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{tmp_path}/embeddings.parquet')"
    )
    want = (
        con.execute(e.oracle_sql()["embedding_dup_clusters"])
        .df()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype("int64"), want.astype("int64"), check_dtype=False
    )
