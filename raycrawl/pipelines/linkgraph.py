"""Link-graph centrality over the crawl corpus (PageRank).

A crawler's scheduling/quality story needs link centrality: the
reference ranks crawl requests only by queue class + FIFO
(/root/reference/providers/queuing/queueSet.js:59-92 pop order), but a
web-scale frontier weights hubs. This module adds fixed-iteration
PageRank over the SAME deterministic corpus link graph the flagship
crawl traverses (corpus_from_documents -> extract_links ->
rfc3986_normalize, the engine's own kernels), as a pure Ray Data
pipeline:

- edge derivation: map_batches over (url, html) pages running the
  engine's extract/canonicalize kernels; urls map to int64 node ids
  against a broadcast SORTED url array (ray.put once, vectorized
  searchsorted probe per batch — the etag_join idiom), which also
  serves as the corpus-membership filter (dangling targets drop, as
  in the crawl's 404/deadletter path);
- out-degree weights: ONE keyed merge on src id (_by_key: all edges
  of a src co-locate, so w = 1/outdeg is a run-length kernel — no
  join operator);
- each iteration: rank rows are keyed LIKE the edge rows (the
  _connected_components union trick, textops.py), so contribution
  routing is one keyed merge with a searchsorted rank lookup inside
  the block; inflow pre-aggregates inside the block (add.reduceat)
  into rows keyed by destination before the second merge sums per
  destination and applies teleport + dangling mass. The dangling
  mass is a per-iteration scalar reduce over the static
  zero-out-degree node set.

Per-iteration shuffle volume is O(edges) + O(nodes); nothing
materializes on the driver except one float per iteration, and every
iteration runs on the edge set's block count. At 10^10 urls the block
count scales with the data (``parts``), the per-task working set is
one block, and the broadcast url array is replaced by the
sharded-corpus membership probe (stages/corpus_shards.py) — the id
mapping is batch-local either way.

Oracle: the flagship sidecar graph (pages.parquet / links.parquet —
same kernels, independently derived driver-side, flagship.py) with
the power iteration UNROLLED as one CTE chain per iteration; ranks
compare as FLOOR(rank * N * 1e4 + 0.5) (basis points of the mean
rank), the repo's standard float-hash cushion: double-sum association
noise is ~1e-12 relative, the cushion 1e-4.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..corpus import corpus_from_documents
from .analytics import _by_key, query
from .flagship import DRIVER_ORACLE_SF, _sidecar_dir

_ALPHA = 0.85  # damping — the SQL twin uses the same literal, and
_TELEPORT = 0.15  # 1-alpha is written as its OWN literal so both sides
# parse the same decimal and convert to the identical double
_ITERS = 5
_PARTS = 32


def _pagerank_unroll_sql(d: str, tv_ctes: str) -> str:
    """Shared power-iteration unroll over the sidecar graph at ``d``:
    r0 = tv; r_{t+1}(v) = 0.15*tv(v) + 0.85*(sum_{u->v}
    r_t(u)/outdeg(u) + dangling_mass_t*tv(v)). ``tv_ctes`` supplies
    the teleport-vector CTE chain ending in
    ``tv(url, t)`` — uniform 1/N for classic PageRank, the seed
    indicator for the personalized variant. links.parquet is the
    distinct non-dangling canonical edge set (flagship sidecar), so
    outdeg and the dangling node set match the engine's
    membership-filtered derivation exactly."""
    parts = [
        f"""
    WITH pages AS (SELECT url FROM read_parquet('{d}/pages.parquet')),
    links AS (SELECT src_url, dst_url FROM read_parquet('{d}/links.parquet')),
    nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS c FROM pages),
    deg AS (SELECT src_url, CAST(COUNT(*) AS DOUBLE) AS dc
            FROM links GROUP BY src_url),
    ew AS (SELECT l.src_url, l.dst_url, 1.0 / deg.dc AS w
           FROM links l JOIN deg ON deg.src_url = l.src_url),
    {tv_ctes},
    r0 AS (SELECT url, t AS r FROM tv)"""
    ]
    for t in range(_ITERS):
        parts.append(
            f""",
    d{t} AS (SELECT COALESCE(SUM(r.r), 0.0) AS m FROM r{t} r
             WHERE r.url NOT IN (SELECT src_url FROM links)),
    i{t} AS (SELECT e.dst_url AS url, SUM(r.r * e.w) AS s
             FROM ew e JOIN r{t} r ON r.url = e.src_url
             GROUP BY e.dst_url),
    r{t + 1} AS (SELECT v.url,
               {_TELEPORT} * v.t
               + {_ALPHA} * (COALESCE(i.s, 0.0) + d{t}.m * v.t) AS r
             FROM tv v LEFT JOIN i{t} i ON i.url = v.url
             CROSS JOIN d{t})"""
        )
    parts.append(
        f"""
    SELECT r.url,
           CAST(FLOOR(r.r * nn.c * 10000 + 0.5) AS BIGINT) AS rank_bp
    FROM r{_ITERS} r CROSS JOIN nn ORDER BY r.url"""
    )
    return "".join(parts)


def _pagerank_oracle_sql(
    sf_dir: str, *, pages_per_doc: int = 2, num_seeds: int = 4
) -> str:
    """Classic-PageRank twin: uniform 1/N teleport vector."""
    d = _sidecar_dir(sf_dir, pages_per_doc, num_seeds)
    return _pagerank_unroll_sql(
        d,
        "tv AS (SELECT p.url, 1.0 / nn.c AS t FROM pages p CROSS JOIN nn)",
    )


def _runs(keys: np.ndarray) -> np.ndarray:
    """Start index of each equal-key run (array sorted by key)."""
    return np.r_[0, np.flatnonzero(keys[1:] != keys[:-1]) + 1]


def _new_rank(
    inflow: np.ndarray, d_mass: float, tv
) -> np.ndarray:
    """The power-iteration update: teleport + damped (inflow +
    dangling mass), both distributed along the teleport vector ``tv``
    (a scalar 1/N for classic PageRank; a per-node array that is
    1/|seeds| on seeds and 0 elsewhere for the personalized variant).
    Module-level so the dangling arithmetic is unit-testable without
    Ray (the testdata corpora have no zero-out-degree page, so the
    e2e oracle only exercises d_mass == 0)."""
    return _TELEPORT * tv + _ALPHA * (inflow + d_mass * tv)


def _corpus_graph_input(sf_dir: str, parts_hint: int | None):
    """Shared setup for the link-graph operators: derive the flagship
    corpus, size the block count (see the blocks^2 note in
    _pagerank_dataset), broadcast the sorted url array (node id =
    sorted rank; doubles as the membership filter), and slice the
    pages into ``parts`` blocks so the extract kernel fans
    out. Returns (corpus, n_nodes, urls_sorted, members_ref,
    pages_ds, parts)."""
    import ray
    import ray.data

    docs = pq.read_table(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    )
    corpus = corpus_from_documents(docs, pages_per_doc=2, seed=42)
    n_nodes = corpus.num_rows
    parts = (
        max(2, min(_PARTS, n_nodes // 1000))
        if parts_hint is None
        else parts_hint
    )
    # '<U' dtype so the per-batch searchsorted probe is a C-level
    # compare, not Python
    urls_sorted = np.sort(
        np.asarray(corpus.column("url").to_pylist(), dtype=str)
    )
    members_ref = ray.put(urls_sorted)
    step = max(1, -(-n_nodes // parts))
    pages_ds = ray.data.from_arrow(
        [
            corpus.select(["url", "html"]).slice(i, step)
            for i in range(0, n_nodes, step)
        ]
    )
    return corpus, n_nodes, urls_sorted, members_ref, pages_ds, parts


def _batch_edge_ids(t: pa.Table, members: np.ndarray):
    """Deduped canonical in-corpus edges of a (url, html) page batch,
    as (src_id, dst_id) int64 arrays — the engine's own
    extract/canonicalize kernels with the sidecar's set semantics
    (per-row dedup == global dedup: every (src, dst) pair originates
    from exactly one page row; non-member targets drop, the crawl's
    404/deadletter path)."""
    from ..functions.urlnorm import rfc3986_normalize
    from ..stages.extract import extract_links

    src_l: list[str] = []
    dst_l: list[str] = []
    for u, h in zip(
        t.column("url").to_pylist(), t.column("html").to_pylist()
    ):
        seen: set[str] = set()
        for link in extract_links(h, u):
            c = rfc3986_normalize(link)
            if c not in seen:
                seen.add(c)
                src_l.append(u)
                dst_l.append(c)
    dst = np.asarray(dst_l, dtype=str)
    src = np.asarray(src_l, dtype=str)
    if not dst.size:
        z = np.zeros(0, np.int64)
        return z, z
    di = np.searchsorted(members, dst)
    dc = np.minimum(di, members.size - 1)
    hit = (di < members.size) & (members[dc] == dst)
    src_id = np.searchsorted(members, src[hit])  # always present
    return src_id.astype(np.int64), dc[hit].astype(np.int64)


# One wide schema for every union stage (ray.data.Dataset.union needs
# aligned schemas — the _connected_components pattern): edge rows carry
# (key=src_id, dst, w), rank/anchor/contrib rows carry
# (key=node_id, rank, dang), everything else padded.
def _wide(
    key: np.ndarray,
    *,
    dst=None,
    w=None,
    rank=None,
    dang=None,
    is_edge: int = 0,
) -> pa.Table:
    n = key.size
    z64 = np.zeros(n, np.int64)
    zf = np.zeros(n, np.float64)
    z8 = np.zeros(n, np.int8)
    return pa.table(
        {
            "key": pa.array(key.astype(np.int64), pa.int64()),
            "dst": pa.array(z64 if dst is None else dst.astype(np.int64)),
            "w": pa.array(zf if w is None else w, pa.float64()),
            "rank": pa.array(zf if rank is None else rank, pa.float64()),
            "dang": pa.array(z8 if dang is None else dang, pa.int8()),
            "is_edge": pa.array(
                np.full(n, is_edge, np.int8), pa.int8()
            ),
        }
    )


def _pagerank_dataset(
    sf_dir: str,
    *,
    parts: int | None = None,
    iters: int = _ITERS,
    personalized: bool = False,
):
    # parts (the pages' block count, which every merge below keeps)
    # is size-derived by default (see _corpus_graph_input): each
    # iteration is a sort-based shuffle whose block-exchange count
    # grows as blocks^2, so tiny graphs must not pay a 32-block tax
    # (85 s -> ~8 s at 1k nodes, 71 s -> ~10 s at 10k); at cluster
    # scale parts rises with the data so per-block memory stays
    # bounded
    import ray

    (
        corpus,
        n_nodes,
        urls_sorted,
        members_ref,
        pages_ds,
        parts,
    ) = _corpus_graph_input(sf_dir, parts)
    inv_n = 1.0 / float(n_nodes)

    if personalized:
        # teleport only to the crawl's seed list (the flagship's own
        # seeds_for_corpus, so this ranks pages by link-proximity to
        # where the crawl actually starts); seed set is tiny — the
        # id array rides in the task closures
        from ..corpus import seeds_for_corpus

        seed_urls = np.asarray(
            sorted(s["url"] for s in seeds_for_corpus(corpus, 4)),
            dtype=str,
        )
        seed_ids = np.sort(np.searchsorted(urls_sorted, seed_urls))
        inv_s = 1.0 / float(seed_ids.size)

        def tv_of(keys: np.ndarray) -> np.ndarray:
            si = np.searchsorted(seed_ids, keys)
            sc = np.minimum(si, seed_ids.size - 1)
            hit = (si < seed_ids.size) & (seed_ids[sc] == keys)
            return np.where(hit, inv_s, 0.0)

    else:

        def tv_of(keys: np.ndarray) -> np.ndarray:
            return np.full(keys.size, inv_n)

    def edges_of(t: pa.Table) -> pa.Table:
        # task pool: setup is one zero-copy plasma get (etag_join idiom)
        src_id, dst_id = _batch_edge_ids(t, ray.get(members_ref))
        return _wide(src_id, dst=dst_id, is_edge=1)

    def weigh(g: pa.Table) -> pa.Table:
        # all edges of a src are in this block: outdeg = run length
        g = g.take(pc.sort_indices(g, sort_keys=[("key", "ascending")]))
        keys = g.column("key").to_numpy()
        starts = _runs(keys)
        lens = np.diff(np.r_[starts, keys.size])
        return _wide(
            keys,
            dst=g.column("dst").to_numpy(),
            w=np.repeat(1.0 / lens, lens),
            is_edge=1,
        )

    edges = _by_key(
        pages_ds.map_batches(edges_of, batch_format="pyarrow"), "key", weigh
    ).materialize()
    nblocks = edges.num_blocks()

    # anchors: one row per node; dang = 1 iff the node never appears
    # as an edge src (zero out-degree), discovered by unioning anchor
    # rows with edge rows keyed alike — one shuffle, computed once
    step = max(1, -(-n_nodes // parts))
    anchor_blocks = []
    for lo in range(0, n_nodes, step):
        ids = np.arange(lo, min(lo + step, n_nodes), dtype=np.int64)
        anchor_blocks.append(_wide(ids))
    anchors0 = ray.data.from_arrow(anchor_blocks)

    def flag_dang(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, sort_keys=[("key", "ascending")]))
        keys = g.column("key").to_numpy()
        is_e = g.column("is_edge").to_numpy().astype(np.int64)
        starts = _runs(keys)
        has_out = np.add.reduceat(is_e, starts) > 0
        run_keys = keys[starts]
        # anchors guarantee every corpus node has a run here; edge srcs
        # are corpus nodes, so run set == node set
        return _wide(run_keys, dang=(~has_out).astype(np.int8))

    anchors = _by_key(anchors0.union(edges), "key", flag_dang).materialize()

    def init_rank(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("rank"),
            "rank",
            pa.array(tv_of(t.column("key").to_numpy()), pa.float64()),
        )

    ranks = anchors.map_batches(
        init_rank, batch_format="pyarrow"
    ).materialize()

    def contrib_part(g: pa.Table) -> pa.Table:
        is_e = g.column("is_edge").to_numpy()
        keys = g.column("key").to_numpy()
        rk = is_e == 0
        rk_keys = keys[rk]
        rk_rank = g.column("rank").to_numpy()[rk]
        order = np.argsort(rk_keys, kind="stable")
        rk_keys = rk_keys[order]
        rk_rank = rk_rank[order]
        em = ~rk
        contrib = rk_rank[np.searchsorted(rk_keys, keys[em])] * (
            g.column("w").to_numpy()[em]
        )
        dst = g.column("dst").to_numpy()[em]
        if not dst.size:  # a block holding only rank rows
            return _wide(np.zeros(0, np.int64))
        # partial-aggregate inflow by dst INSIDE the block before the
        # dst-keyed merge (combiner) — rows out = distinct dsts
        o2 = np.argsort(dst, kind="stable")
        dst, contrib = dst[o2], contrib[o2]
        starts = _runs(dst)
        return _wide(dst[starts], rank=np.add.reduceat(contrib, starts))

    def make_assemble(d_mass: float):
        def assemble(g: pa.Table) -> pa.Table:
            g = g.take(
                pc.sort_indices(g, sort_keys=[("key", "ascending")])
            )
            keys = g.column("key").to_numpy()
            starts = _runs(keys)
            inflow = np.add.reduceat(g.column("rank").to_numpy(), starts)
            dang = np.maximum.reduceat(g.column("dang").to_numpy(), starts)
            run_keys = keys[starts]
            new_rank = _new_rank(inflow, d_mass, tv_of(run_keys))
            return _wide(run_keys, rank=new_rank, dang=dang)

        return assemble

    def dang_partial(t: pa.Table) -> pa.Table:
        s = float(
            np.dot(
                t.column("rank").to_numpy(),
                t.column("dang").to_numpy().astype(np.float64),
            )
        )
        return pa.table({"s": pa.array([s], pa.float64())})

    # the dangling NODE SET is static; when it is empty (out_degree=8
    # corpora in practice) every per-iteration mass reduce would return
    # exactly 0.0, so one setup reduce replaces five executions. The
    # d>0 arithmetic stays live either way (assemble always applies
    # d_mass; tests pin the partial/assemble kernels on a dangling
    # fixture without Ray).
    n_dang = int(anchors.sum("dang") or 0)

    for _ in range(iters):
        d_mass = 0.0
        if n_dang:
            d_mass = float(
                ranks.map_batches(
                    dang_partial, batch_format="pyarrow"
                ).sum("s")
                or 0.0
            )
        # each union is repartitioned back to the edge set's block
        # count, or every iteration would add the blocks of both sides
        contribs = _by_key(
            edges.union(ranks).repartition(nblocks), "key", contrib_part
        )
        ranks = _by_key(
            anchors.union(contribs).repartition(nblocks),
            "key",
            make_assemble(d_mass),
        ).materialize()

    def finish(t: pa.Table) -> pa.Table:
        urls = ray.get(members_ref)
        ids = t.column("key").to_numpy()
        bp = np.floor(
            t.column("rank").to_numpy() * float(n_nodes) * 10000 + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "url": pa.array(urls[ids], pa.string()),
                "rank_bp": pa.array(bp, pa.int64()),
            }
        )

    return ranks.map_batches(finish, batch_format="pyarrow").sort("url")


@query("link_pagerank", _pagerank_oracle_sql(DRIVER_ORACLE_SF))
def link_pagerank(sf_dir: str):
    """Fixed-iteration PageRank over the flagship corpus link graph
    (see module docstring): one row per corpus page with its rank in
    basis points of the mean (sum(rank_bp) ~ N * 1e4 — probability
    mass conservation is asserted in tests). Hash-checked against the
    unrolled power-iteration CTE twin over the independently derived
    sidecar graph."""
    return _pagerank_dataset(sf_dir)


def _indegree_oracle_sql(
    sf_dir: str, *, pages_per_doc: int = 2, num_seeds: int = 4, k: int = 20
) -> str:
    d = _sidecar_dir(sf_dir, pages_per_doc, num_seeds)
    return f"""
    SELECT dst_url AS url, CAST(COUNT(*) AS BIGINT) AS n_inlinks
    FROM read_parquet('{d}/links.parquet')
    GROUP BY dst_url ORDER BY n_inlinks DESC, url LIMIT {k}
    """


_INDEG_K = 20


@query("top_indegree_pages", _indegree_oracle_sql(DRIVER_ORACLE_SF))
def top_indegree_pages(sf_dir: str):
    """Backlink leaderboard: the k pages most linked-to by DISTINCT
    sources (in-degree over the deduped canonical edge set — the same
    edge semantics as PageRank, so this is its cheap screening
    companion: one aggregation instead of five iterations). Per-batch
    per-source dedup + per-batch (dst, n) partials; ONE keyed merge of
    the compressed partials; each block emits only its local top-k,
    so the driver merge is bounded by blocks x k (the knn merge
    class). Ties break (count DESC, url ASC) identically in the
    twin."""
    import ray

    (
        _corpus,
        _n_nodes,
        urls_sorted,
        members_ref,
        pages_ds,
        _parts,
    ) = _corpus_graph_input(sf_dir, None)

    def indeg_partial(t: pa.Table) -> pa.Table:
        members = ray.get(members_ref)
        _, dst_id = _batch_edge_ids(t, members)
        uniq, cnt = np.unique(dst_id, return_counts=True)
        return pa.table(
            {
                "dst_id": pa.array(uniq, pa.int64()),
                "n_inlinks": pa.array(cnt, pa.int64()),
            }
        )

    def local_topk(g: pa.Table) -> pa.Table:
        m = g.group_by("dst_id").aggregate([("n_inlinks", "sum")])
        ids = m.column("dst_id").to_numpy()
        n = m.column("n_inlinks_sum").to_numpy()
        # node id = sorted-url rank, so ordering ids ASC == url ASC:
        # the (count DESC, url ASC) tie-break works on ids directly
        order = np.lexsort((ids, -n))[:_INDEG_K]
        return pa.table(
            {
                "dst_id": pa.array(ids[order], pa.int64()),
                "n_inlinks": pa.array(n[order], pa.int64()),
            }
        )

    parts_df = _by_key(
        pages_ds.map_batches(indeg_partial, batch_format="pyarrow"),
        "dst_id",
        local_topk,
    ).to_pandas()  # bounded: blocks x k rows
    order = np.lexsort(
        (
            parts_df["dst_id"].to_numpy(),
            -parts_df["n_inlinks"].to_numpy(),
        )
    )[:_INDEG_K]
    return pa.table(
        {
            "url": pa.array(
                urls_sorted[parts_df["dst_id"].to_numpy()[order]],
                pa.string(),
            ),
            "n_inlinks": pa.array(
                parts_df["n_inlinks"].to_numpy()[order], pa.int64()
            ),
        }
    )


def _pagerank_seeded_oracle_sql(
    sf_dir: str, *, pages_per_doc: int = 2, num_seeds: int = 4
) -> str:
    """Personalized twin: the shared unroll with the teleport vector
    set to the seed indicator (1/|seeds| on the sidecar seed list, 0
    elsewhere) — it enters r0, the teleport term, and the dangling
    redistribution identically."""
    d = _sidecar_dir(sf_dir, pages_per_doc, num_seeds)
    return _pagerank_unroll_sql(
        d,
        f"""sd AS (SELECT url FROM read_parquet('{d}/seeds.parquet')),
    sc AS (SELECT CAST(COUNT(*) AS DOUBLE) AS c FROM sd),
    tv AS (SELECT p.url,
           CASE WHEN s.url IS NOT NULL THEN 1.0 / sc.c ELSE 0.0 END AS t
           FROM pages p LEFT JOIN sd s ON s.url = p.url CROSS JOIN sc)""",
    )


@query("link_pagerank_seeded", _pagerank_seeded_oracle_sql(DRIVER_ORACLE_SF))
def link_pagerank_seeded(sf_dir: str):
    """Personalized PageRank from the crawl's own seed list: teleport
    (and dangling mass) land only on the seeds, so the score is each
    page's link-proximity to where the crawl starts — the direct
    prioritization signal for frontier scheduling (rank high = worth
    fetching early), where the unpersonalized variant measures global
    hubness. Same distributed machinery as link_pagerank (the teleport
    vector is the only delta); mean-scaled basis points, unreachable
    pages score 0."""
    return _pagerank_dataset(sf_dir, personalized=True)
