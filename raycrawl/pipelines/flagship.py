"""Flagship pipeline: full crawl over a corpus derived from testdata.

``crawl_reachability`` is the engine's end-to-end query: derive a
deterministic pages corpus from the driver ``documents`` table
(corpus_from_documents), crawl it from fixed seeds with the sharded
frontier + politeness + dedup stack, and return the harvested documents
table.

The crawl itself is iterative + stateful, but its OUTPUT is a pure
function of the (deterministic) corpus link graph, so it hash-checks
against a DuckDB twin (round-3 verdict item 1): corpus derivation also
emits a static sidecar — ``pages.parquet`` (url, urn, row_idx, lang,
n_links), ``links.parquet`` (src_url, dst_url; non-dangling canonical
edges), ``seeds.parquet`` — via the SAME extract/canonicalize functions
the engine runs per fetch (unit-tested independently:
tests/test_extract_corpus.py, tests/test_urlnorm.py), and the oracle is
a recursive-CTE BFS over that sidecar: reachable set, depth = min BFS
level, version counts for the incremental re-crawl. The engine's
frontier/dedup/politeness/iteration machinery is exactly what the twin
does NOT share, which is what makes the hash match meaningful.
Reference traversal semantics: /root/reference/test/unit/
processingTests.js:13-46.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile

import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..corpus import corpus_from_documents, seeds_for_corpus
from .analytics import query
from .crawl import CrawlConfig, CrawlEngine

# the driver compares queries() vs oracle_sql() at this sf; the
# registered oracle strings bake in this sf's sidecar path (the
# per-sf generator below serves the test harness at other scales)
DRIVER_ORACLE_SF = "/root/testdata/sf0.01"

_SIDECAR_VERSION = "v2"  # bump when sidecar derivation changes


def _sidecar_dir(sf_dir: str, pages_per_doc: int, num_seeds: int) -> str:
    # key on the INPUT CONTENT (documents.parquet size+mtime), not just
    # the path: regenerated testdata must not reuse a stale sidecar
    docs = f"{os.path.realpath(sf_dir)}/documents.parquet"
    try:
        st = os.stat(docs)
        stamp = f"{st.st_size}:{st.st_mtime_ns}"
    except OSError:
        stamp = "absent"
    key = hashlib.sha1(
        f"{docs}|{stamp}|ppd={pages_per_doc}"
        f"|seeds={num_seeds}|{_SIDECAR_VERSION}".encode()
    ).hexdigest()[:16]
    return f"/tmp/raycrawl_oracle_{key}"


def ensure_oracle_sidecars(
    sf_dir: str, *, pages_per_doc: int = 2, num_seeds: int = 4
) -> str:
    """Write the flagship-crawl oracle sidecar for ``sf_dir`` (idempotent,
    content-keyed path under /tmp). Derivation is deterministic, so an
    existing sidecar is reused as-is."""
    import pyarrow as pa

    d = _sidecar_dir(sf_dir, pages_per_doc, num_seeds)
    marker = os.path.join(d, "_OK")
    if os.path.exists(marker):
        return d

    from ..functions.urlnorm import rfc3986_normalize
    from ..stages.extract import extract_links
    from ..stages.visitor import page_urn

    docs = pq.read_table(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    )
    corpus = corpus_from_documents(
        docs, pages_per_doc=pages_per_doc, seed=42
    )
    urls = corpus.column("url").to_pylist()
    htmls = corpus.column("html").to_pylist()
    langs = corpus.column("lang").to_pylist()
    url_set = set(urls)  # corpus urls are canonical fixed points

    n_links: list[int] = []
    edges: set[tuple[str, str]] = set()
    dangling: set[tuple[str, str]] = set()  # 404 -> retry -> deadletter
    for i, (u, h) in enumerate(zip(urls, htmls)):
        links = extract_links(h, u)  # the engine's own kernel
        n_links.append(len(links))
        for link in links:
            c = rfc3986_normalize(link)
            if c in url_set:  # dangling links 404 -> never expand
                edges.add((u, c))
            else:
                dangling.add((u, c))

    os.makedirs(d, exist_ok=True)

    # Concurrent writers are harmless — derivation is deterministic, so
    # replaced files are byte-identical — but each writer must stage
    # under its OWN tmp name: a shared tmp path would let writer B's
    # O_TRUNC land mid-way through writer A's write and A's os.replace
    # then install the interleaved file under the _OK marker.
    def _write(name: str, table: pa.Table) -> None:
        tmp = os.path.join(d, f".{name}.{os.getpid()}.tmp")
        pq.write_table(table, tmp)
        os.replace(tmp, os.path.join(d, name))

    _write(
        "pages.parquet",
        pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "urn": pa.array(
                    [page_urn(u) for u in urls], pa.string()
                ),
                "row_idx": pa.array(range(len(urls)), pa.int64()),
                "lang": pa.array(langs, pa.string()),
                "n_links": pa.array(n_links, pa.int64()),
            }
        ),
    )
    src, dst = zip(*sorted(edges)) if edges else ((), ())
    _write(
        "links.parquet",
        pa.table(
            {
                "src_url": pa.array(list(src), pa.string()),
                "dst_url": pa.array(list(dst), pa.string()),
            }
        ),
    )
    dsrc, ddst = zip(*sorted(dangling)) if dangling else ((), ())
    _write(
        "dangling.parquet",
        pa.table(
            {
                "src_url": pa.array(list(dsrc), pa.string()),
                "dst_url": pa.array(list(ddst), pa.string()),
            }
        ),
    )
    _write(
        "seeds.parquet",
        pa.table(
            {
                "url": pa.array(
                    [s["url"] for s in seeds_for_corpus(corpus, num_seeds)],
                    pa.string(),
                )
            }
        ),
    )
    tmp_marker = f"{marker}.{os.getpid()}.tmp"
    with open(tmp_marker, "w") as f:
        f.write(_SIDECAR_VERSION)
    os.replace(tmp_marker, marker)
    return d


# Depth cap for the recursive CTE: DuckDB's UNION-recursive iteration
# only terminates if each round's (url, depth) rows eventually stop
# being new, and cycles mint fresh (url, depth+len(cycle)*k) rows
# forever without a cap. 64 is far above any BFS eccentricity of these
# corpora (sf0.01 diameter ~6; asserted well below the cap in
# tests/test_queries_oracle.py) and bounds worst-case row count at
# pages x 64.
_BFS_DEPTH_CAP = 64


def _reach_cte(d: str) -> str:
    return f"""
    WITH RECURSIVE links AS (
      SELECT src_url, dst_url FROM read_parquet('{d}/links.parquet')
    ),
    pages AS (
      SELECT * FROM read_parquet('{d}/pages.parquet')
    ),
    reach(url, depth) AS (
      SELECT url, CAST(0 AS BIGINT) AS depth
      FROM read_parquet('{d}/seeds.parquet')
      UNION
      SELECT l.dst_url, r.depth + 1
      FROM reach r JOIN links l ON l.src_url = r.url
      WHERE r.depth < {_BFS_DEPTH_CAP}
    ),
    lev AS (
      SELECT url, MIN(depth) AS depth FROM reach GROUP BY url
    )"""


def flagship_oracle_sql(
    sf_dir: str, *, pages_per_doc: int = 2, num_seeds: int = 4
) -> str:
    """DuckDB twin of crawl_reachability over the sidecar graph: BFS
    from the seeds, depth = min level, one row per reachable page."""
    d = _sidecar_dir(sf_dir, pages_per_doc, num_seeds)
    return f"""{_reach_cte(d)}
    SELECT p.urn, p.url, lev.depth, p.n_links, p.lang
    FROM lev JOIN pages p USING (url)
    ORDER BY p.url
    """


def recrawl_oracle_sql(
    sf_dir: str, *, k: int = 5, pages_per_doc: int = 2, num_seeds: int = 4
) -> str:
    """DuckDB twin of recrawl_incremental: a reachable page stores 2
    versions iff it is one of the first ``k`` corpus rows (their bodies
    are modified between the two crawls -> etag mismatch -> upsert);
    every other reachable page 304s against its stored etag."""
    d = _sidecar_dir(sf_dir, pages_per_doc, num_seeds)
    return f"""{_reach_cte(d)}
    SELECT p.url,
           CAST(CASE WHEN p.row_idx < {k} THEN 2 ELSE 1 END AS BIGINT)
             AS versions
    FROM lev JOIN pages p USING (url)
    ORDER BY p.url
    """


def metrics_series_oracle_sql(
    sf_dir: str, *, pages_per_doc: int = 2, num_seeds: int = 4,
    max_attempts: int = 3,
) -> str:
    """DuckDB twin of metrics_series_rollup: every per-second counter's
    TOTAL is a pure function of the sidecar graph — done = reachable
    pages (each fetched exactly once past the seen filter), deadletter
    = distinct dangling urls linked from reachable pages (each admitted
    once, 404s, exhausts retries), abandon = max_attempts failures per
    dangling url, fetch = every processed attempt (done + abandon).
    The SECONDS are wall-clock (not oracle-able); their sums are."""
    d = _sidecar_dir(sf_dir, pages_per_doc, num_seeds)
    return f"""{_reach_cte(d)},
    r AS (SELECT COUNT(*) AS n FROM lev),
    dg AS (
      SELECT COUNT(DISTINCT g.dst_url) AS n
      FROM read_parquet('{d}/dangling.parquet') g
      WHERE g.src_url IN (SELECT url FROM lev)
    )
    SELECT name, total FROM (
      SELECT 'abandon' AS name,
             CAST({max_attempts} * dg.n AS BIGINT) AS total
        FROM dg
      UNION ALL
      SELECT 'deadletter', CAST(dg.n AS BIGINT) FROM dg
      UNION ALL
      SELECT 'done', CAST(r.n AS BIGINT) FROM r
      UNION ALL
      SELECT 'fetch', CAST(r.n + {max_attempts} * dg.n AS BIGINT)
        FROM r, dg
    ) ORDER BY name
    """


def run_crawl(
    sf_dir: str,
    *,
    pages_per_doc: int = 2,
    num_shards: int = 4,
    fetch_concurrency: int = 4,
    fetch_batch_size: int = 1024,
    epoch_budget: int = 20_000,
    mode: str = "ray",
    seen_filter: str = "exact",
    keep_state: bool = False,
):
    docs = pq.read_table(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    )
    corpus = corpus_from_documents(docs, pages_per_doc=pages_per_doc, seed=42)
    state_dir = tempfile.mkdtemp(prefix="raycrawl_flagship_")
    cfg = CrawlConfig(
        state_dir=state_dir,
        mode=mode,
        num_shards=num_shards,
        epoch_budget=epoch_budget,
        fetch_concurrency=fetch_concurrency,
        fetch_batch_size=fetch_batch_size,
        seen_filter=seen_filter,
        seen_capacity=max(100_000, corpus.num_rows * 2),
    )
    engine = CrawlEngine(corpus, cfg)
    result = engine.run(seeds=seeds_for_corpus(corpus, 4))
    table = result.documents_table()
    if not keep_state:
        shutil.rmtree(state_dir, ignore_errors=True)
    return result, table


@query("crawl_reachability", flagship_oracle_sql(DRIVER_ORACLE_SF))
def crawl_reachability(sf_dir: str):
    # sidecar materialization is the ORACLE's concern (oracle_sql() /
    # the test fixture call ensure_oracle_sidecars); doing it here
    # would bill a full corpus+link derivation to the timed query
    _, table = run_crawl(sf_dir)
    out = table.select(["urn", "url", "depth", "n_links", "lang"])
    return out.take(pc.sort_indices(out, sort_keys=[("url", "ascending")]))


@query("metrics_series_rollup", metrics_series_oracle_sql(DRIVER_ORACLE_SF))
def metrics_series_rollup(sf_dir: str):
    """A5/A6 per-second metrics surfaced through the api: crawl, then
    read each counter's 'sec:' time series via ``api.metrics_series``
    (the status-endpoint analogue, routes/status.js:10-20) and return
    its total — hash-checked against the sidecar-graph twin. The
    series SHAPE (binning, [t0,t1] windowing, monotonic seconds) is
    pinned in tests/test_api.py::test_metrics_series_window."""
    import pyarrow as pa

    from ..api import metrics_series

    result, _ = run_crawl(sf_dir, keep_state=True)
    try:
        names, totals = [], []
        for name in ("abandon", "deadletter", "done", "fetch"):
            series = metrics_series(result.state_dir, name)
            names.append(name)
            totals.append(
                int(pc.sum(series.column("value")).as_py() or 0)
            )
        return pa.table(
            {
                "name": pa.array(names, pa.string()),
                "total": pa.array(totals, pa.int64()),
            }
        )
    finally:
        shutil.rmtree(result.state_dir, ignore_errors=True)


@query("recrawl_incremental", recrawl_oracle_sql(DRIVER_ORACLE_SF))
def recrawl_incremental(sf_dir: str, k: int = 5):
    """Incremental re-crawl end-to-end (reference tracker TTL + etag
    store): crawl a derived corpus, deterministically modify the first
    ``k`` page bodies, ``recrawl()`` the same state_dir — unchanged
    pages 304 against their stored etags, changed pages write a second
    version. Returns one row per harvested url with its stored version
    count (2 for modified+reachable pages, 1 otherwise), sorted by url.
    Hash-checked against recrawl_oracle_sql's recursive-CTE twin
    (reachable ∩ first-k-rows → 2 versions, else 1); the executor-level
    exact-count oracle remains tests/test_crawl_pages.py::
    test_incremental_recrawl_304s_and_upserts."""
    from glob import glob

    import pyarrow as pa

    from ..stages.extract import extract_text
    from .crawl import recrawl

    docs = pq.read_table(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    )
    corpus = corpus_from_documents(docs, pages_per_doc=2, seed=42)
    state_dir = tempfile.mkdtemp(prefix="raycrawl_recrawl_")
    try:
        cfg = CrawlConfig(
            state_dir=state_dir,
            mode="ray",
            num_shards=4,
            fetch_concurrency=4,
            fetch_batch_size=1024,
            seen_capacity=max(100_000, corpus.num_rows * 2),
        )
        seeds = seeds_for_corpus(corpus, 4)
        CrawlEngine(corpus, cfg).run(seeds=seeds)

        htmls = corpus.column("html").to_pylist()
        texts = corpus.column("text").to_pylist()
        for i in range(min(k, len(htmls))):
            htmls[i] = htmls[i].replace(b"<body>", b"<body><p>v2</p>")
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
        recrawl(corpus2, cfg, seeds)

        files = glob(os.path.join(state_dir, "documents", "epoch=*", "*.parquet"))
        all_docs = pa.concat_tables(
            pq.read_table(f, columns=["url"]) for f in files
        )
        import pyarrow.compute as _pc

        counts = all_docs.group_by("url").aggregate([([], "count_all")])
        counts = counts.rename_columns(["url", "versions"])
        return counts.take(
            _pc.sort_indices(counts, sort_keys=[("url", "ascending")])
        )
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
