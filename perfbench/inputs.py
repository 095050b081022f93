"""Seeded benchmark inputs, built only from the seed and cached by seed.

The tables have the schema and the make-up of the sf test tables'
``documents`` and ``embeddings``, measured on sf0.1 (see the README):
documents of 10-100 words (median 54) drawn uniformly from a 30-word
vocabulary, 5% near-duplicates that copy another document and append
``dup``, 20 sources; embeddings are independent random unit vectors
with labels that do not depend on the vector. The crawl corpus is
derived from the documents by ``raycrawl.corpus.corpus_from_documents``
with the same seed. The benchmark needs no data outside its own
directory. Generation is never timed.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE = os.path.join(HERE, ".cache")

VOCAB = (
    "spark window merge table column vector stream value data small join "
    "filter big group hash customer sort order slow line part fast row "
    "the agg key query a scan batch"
).split()
LANGS = np.array(["en", "en", "en", "zh", "es", "fr", "de"])
N_SOURCES = 20
DUP_FRAC = 0.05
# sf0.1 has 2,000 64-d vectors; at 0.35 cosine that is a mean degree
# of 4.2 and one giant component. 48 dimensions give the same mean
# degree and a giant component at the benchmark's 600 vectors.
EMB_DIM = 48
EMB_LABELS = 10
NEAR_DUP_BP = 3500  # the near-dup threshold of the queries (cosine 0.35)
# eccentricity of the lowest vec_id in the giant component: label
# propagation takes EMB_ECC + 1 rounds. 7 is the largest radius of the
# giant component over seeds 1-40 (its diameter is 9-12), so every seed
# has such a vector; sf0.1's lowest id sits at eccentricity 10.
EMB_ECC = 7

# the robots rows of the polite workload: (source index, body)
ROBOTS = {
    0: "User-agent: *\nCrawl-delay: 0.02\n",
    1: "User-agent: *\nCrawl-delay: 0.02\n",
    2: "User-agent: *\nDisallow: /doc/1\n",
    3: "User-agent: *\nDisallow: /doc/2\nCrawl-delay: 0.04\n",
}


def make_documents(seed: int, n_docs: int) -> pa.Table:
    """``documents`` table: doc_id, text, lang, source, n_chars.

    The seed shuffles a fixed multiset of document lengths and picks
    which documents are near-duplicates (exactly DUP_FRAC of them, each
    an earlier original plus `` dup``), so every seed has the same
    volume of text and the same number of duplicates."""
    rng = np.random.default_rng([seed, 1])
    lens = rng.permutation(10 + np.arange(n_docs) * 91 // n_docs)
    words = rng.integers(0, len(VOCAB), size=int(lens.sum()))
    vocab = np.array(VOCAB, dtype=object)
    ends = np.cumsum(lens)
    texts = [" ".join(vocab[words[e - n:e]]) for n, e in zip(lens, ends)]
    dups = rng.choice(np.arange(1, n_docs), size=int(n_docs * DUP_FRAC),
                      replace=False)
    is_dup = np.zeros(n_docs, dtype=bool)
    is_dup[dups] = True
    for i in np.sort(dups):
        originals = np.flatnonzero(~is_dup[:i])
        texts[i] = texts[int(rng.choice(originals))] + " dup"
    ids = np.arange(n_docs, dtype=np.int64)
    return pa.table(
        {
            "doc_id": pa.array(ids),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(LANGS[rng.integers(0, len(LANGS), n_docs)]),
            "source": pa.array([f"src{i % N_SOURCES}" for i in ids]),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


def _eccentricities(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eccentricity of every node and the nodes of the largest
    component, by breadth-first search from all nodes at once."""
    n = len(adj)
    step = adj.astype(np.float32)
    reach = np.eye(n, dtype=bool)
    ecc = np.zeros(n, dtype=np.int64)
    for hop in range(1, n):
        grown = reach | ((reach.astype(np.float32) @ step) > 0)
        grew = grown.sum(axis=1) > reach.sum(axis=1)
        if not grew.any():
            break
        ecc[grew] = hop
        reach = grown
    return ecc, reach[np.argmax(reach.sum(axis=1))]


def make_embeddings(seed: int, n_vecs: int) -> pa.Table:
    """``embeddings`` table: vec_id, embedding (EMB_DIM float32), label.

    Independent random unit vectors, as in sf0.1: the near-dup pairs
    are the tail of the random cosine distribution and join almost
    every vector into one component. The seed changes that graph, and
    with it the diameter; so that connected components takes the same
    number of rounds on every seed, vec_id 0 goes to the first vector
    of the giant component whose eccentricity is EMB_ECC (the nearest
    one, if none is)."""
    rng = np.random.default_rng([seed, 2])
    v = rng.standard_normal((n_vecs, EMB_DIM))
    v = (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)
    label = rng.integers(0, EMB_LABELS, size=n_vecs)
    u = v.astype(np.float64)
    adj = np.floor((u @ u.T) * 10000.0 + 0.5) >= NEAR_DUP_BP
    np.fill_diagonal(adj, False)
    ecc, giant = _eccentricities(adj)
    miss = np.where(giant, np.abs(ecc - EMB_ECC), n_vecs)
    first = int(np.argmin(miss))
    v[[0, first]] = v[[first, 0]]
    return pa.table(
        {
            "vec_id": pa.array(np.arange(n_vecs, dtype=np.int64)),
            "embedding": pa.array(list(v), pa.list_(pa.float32())),
            "label": pa.array(label.astype(np.int32)),
        }
    )


def robots_rows(corpus: pa.Table) -> pa.Table:
    """``http://<host>/robots.txt`` pages for the ROBOTS hosts."""
    ts0 = corpus.column("warc_ts")[0]
    hosts = [f"src{i}.example.com" for i in ROBOTS]
    return pa.table(
        {
            "url": pa.array([f"http://{h}/robots.txt" for h in hosts]),
            "warc_ts": pa.array([ts0.as_py()] * len(hosts), pa.timestamp("us")),
            "html": pa.array([b.encode() for b in ROBOTS.values()], pa.binary()),
            "text": pa.array([""] * len(hosts), pa.string()),
            "lang": pa.array(["en"] * len(hosts), pa.string()),
        }
    )


def _cached(path: str, build) -> str:
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp{os.getpid()}"
        pq.write_table(build(), tmp)
        os.replace(tmp, path)
    return path


def sf_dir(seed: int, n_docs: int, n_vecs: int) -> str:
    """A directory holding ``documents.parquet`` and
    ``embeddings.parquet`` for this seed (the layout the queries read)."""
    d = os.path.join(CACHE, f"sf_{seed}_{n_docs}_{n_vecs}")
    _cached(os.path.join(d, "documents.parquet"),
            lambda: make_documents(seed, n_docs))
    _cached(os.path.join(d, "embeddings.parquet"),
            lambda: make_embeddings(seed, n_vecs))
    return d


def pages_corpus(seed: int, n_docs: int, pages_per_doc: int,
                 robots: bool = False) -> str:
    """Path of the pages corpus for this seed (plus robots rows)."""
    from raycrawl.corpus import corpus_from_documents

    name = f"pages_{seed}_{n_docs}x{pages_per_doc}{'_robots' if robots else ''}"
    path = os.path.join(CACHE, name + ".parquet")

    def build() -> pa.Table:
        docs = make_documents(seed, n_docs)
        corpus = corpus_from_documents(
            docs, pages_per_doc=pages_per_doc, seed=seed, processes=1
        )
        if robots:
            corpus = pa.concat_tables([corpus, robots_rows(corpus)])
        return corpus

    return _cached(path, build)
