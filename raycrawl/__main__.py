"""Job entrypoint: ``python -m raycrawl <crawl|resume|status> ...``.

The deployment surface the north rule names — ``ray job submit --
python -m raycrawl crawl --corpus ... --state-dir ...`` — and the
analogue of the reference's service entry (``bin/www.js`` +
``app.js``: boot the crawler service against configured providers).
This is a CLI ENTRY POINT, so it owns the Ray session (the library
never calls ``ray.init``): inside a submitted job ``RAY_ADDRESS`` is
set by the job runtime and we attach to the running cluster; run
standalone it starts a local one. Everything else — sizing policy,
config knobs, resume — is the same engine the bench drives.

Sizing defaults mirror bench.py's policy, derived from the CLUSTER's
CPU count (``ray.cluster_resources()``), not the local node: ~1/8 of
cores reserved for frontier shards + driver, one of headroom, the
rest fetch workers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _init_ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "auto"),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    return ray


def _corpus_arg(args) -> "object":
    """Resolve --corpus (pages parquet file/dir, returned as the PATH so
    a >memory corpus never materializes on the driver) or --docs (a
    documents table the deterministic corpus derives from)."""
    if args.corpus:
        return args.corpus
    import pyarrow.parquet as pq

    from .corpus import corpus_from_documents

    docs = pq.read_table(
        args.docs, columns=["doc_id", "text", "lang", "source"]
    )
    return corpus_from_documents(
        docs, pages_per_doc=args.pages_per_doc, seed=42
    )


def _seed_list(corpus, num_seeds: int, seeds_file: str | None) -> list:
    """Seed specs: an explicit URL file wins; otherwise sample every
    n/num_seeds-th page. For a path corpus the sample reads ONLY the
    url column, file by file (strided within each file) — at real
    frontier scale pass --seeds-file instead of sampling the corpus."""
    if seeds_file:
        with open(seeds_file) as f:
            urls = [ln.strip() for ln in f if ln.strip()]
        return [
            {"url": u, "type": "page", "policy": "default",
             "queue": "normal"}
            for u in urls
        ]
    import pyarrow as pa

    if isinstance(corpus, pa.Table):
        from .corpus import seeds_for_corpus

        return seeds_for_corpus(corpus, num_seeds)
    import pyarrow.parquet as pq

    from glob import glob

    files = (
        sorted(glob(os.path.join(corpus, "*.parquet")))
        if os.path.isdir(corpus)
        else [corpus]
    )
    counts = [pq.ParquetFile(f).metadata.num_rows for f in files]
    total = sum(counts)
    step = max(1, total // max(1, num_seeds))
    urls: list[str] = []
    base = 0
    for f, n in zip(files, counts):
        # global indices base..base+n step-strided, localized to f
        first = ((base + step - 1) // step) * step
        local = list(range(first - base, n, step))
        if local:
            col = pq.read_table(f, columns=["url"]).column("url")
            urls.extend(
                col.take(pa.array(local, pa.int64())).to_pylist()
            )
        base += n
    return [
        {"url": u, "type": "page", "policy": "default", "queue": "normal"}
        for u in urls[: max(1, num_seeds)]
    ]


def _build_config(args, n_cpus: int):
    from .pipelines.crawl import CrawlConfig

    shards = args.shards or max(4, n_cpus // 4)
    reserve = (
        args.reserve_cores
        if args.reserve_cores is not None
        else max(1, n_cpus // 8)
    )
    workers = args.workers or max(2, n_cpus - reserve - 1)
    if args.align and shards & (shards - 1):
        shards = 1 << (shards.bit_length() - 1)
    return CrawlConfig(
        state_dir=args.state_dir,
        mode="ray",
        num_shards=shards,
        fetch_concurrency=workers,
        fetch_batch_size=args.batch_size,
        reserve_cores=reserve,
        node_dispatchers=args.node_dispatchers,
        seen_filter=args.seen_filter,
        seen_capacity=args.seen_capacity,
        pending_cap=args.pending_cap,
        host_rate_per_sec=args.host_rate,
        respect_robots=args.respect_robots,
        align_corpus_ranges=args.align,
        **({"corpus_max_resident": None} if args.align else {}),
    )


def _emit(result, wall: float, cfg) -> None:
    crawled = result.docs_written + result.deadlettered
    print(
        json.dumps(
            {
                "state_dir": result.state_dir,
                "docs_written": result.docs_written,
                "deadlettered": result.deadlettered,
                "failed": result.failed,
                "seen_count": result.seen_count,
                "seen_digest": result.seen_digest,
                "wall_sec": round(wall, 3),
                "urls_per_sec": round(crawled / wall, 1) if wall else None,
                "workers": cfg.fetch_concurrency,
                "shards": cfg.num_shards,
            }
        ),
        flush=True,
    )


def cmd_crawl(args) -> int:
    import time

    ray = _init_ray()
    n_cpus = int(ray.cluster_resources().get("CPU", 8))
    corpus = _corpus_arg(args)
    cfg = _build_config(args, n_cpus)
    os.makedirs(args.state_dir, exist_ok=True)
    seeds = _seed_list(corpus, args.num_seeds, args.seeds_file)
    from .pipelines.crawl import CrawlEngine

    engine = CrawlEngine(corpus, cfg)
    t0 = time.perf_counter()
    result = engine.run(seeds=seeds)
    wall = time.perf_counter() - t0
    engine.close()
    _emit(result, wall, cfg)
    return 0


def cmd_resume(args) -> int:
    import time

    ray = _init_ray()
    n_cpus = int(ray.cluster_resources().get("CPU", 8))
    corpus = _corpus_arg(args)
    cfg = _build_config(args, n_cpus)
    from .pipelines.crawl import resume_crawl

    t0 = time.perf_counter()
    result = resume_crawl(corpus, cfg)
    wall = time.perf_counter() - t0
    _emit(result, wall, cfg)
    return 0


def cmd_status(args) -> int:
    # pure state-dir reads — no Ray session, works while a crawl runs
    from . import api

    out = {
        "state_dir": args.state_dir,
        "docs": api.doc_count(args.state_dir),
        "deadletters": api.deadletter_count(args.state_dir),
    }
    trace = api.trace_log(args.state_dir)
    out["trace_tail"] = trace.slice(
        max(0, trace.num_rows - args.trace_tail)
    ).to_pylist()
    print(json.dumps(out, default=str), flush=True)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--corpus", help="pages parquet file or directory")
    src.add_argument(
        "--docs", help="documents parquet to derive a corpus from"
    )
    p.add_argument("--pages-per-doc", type=int, default=2)
    p.add_argument("--state-dir", required=True)
    p.add_argument("--num-seeds", type=int, default=64)
    p.add_argument("--seeds-file")
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--shards", type=int, default=0)
    p.add_argument("--reserve-cores", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=4096)
    p.add_argument("--node-dispatchers", type=int, default=0)
    p.add_argument(
        "--seen-filter", choices=["bloom", "exact"], default="bloom"
    )
    p.add_argument("--seen-capacity", type=int, default=1_000_000)
    p.add_argument("--pending-cap", type=int, default=None)
    p.add_argument("--host-rate", type=float, default=1e9)
    p.add_argument("--respect-robots", action="store_true")
    p.add_argument(
        "--align",
        action="store_true",
        help="hard corpus residency (range-aligned routing + affinity)",
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="raycrawl")
    sub = ap.add_subparsers(dest="cmd", required=True)
    pc = sub.add_parser("crawl", help="run a crawl to completion")
    _add_common(pc)
    pr = sub.add_parser(
        "resume", help="resume an interrupted crawl from its state dir"
    )
    _add_common(pr)
    ps = sub.add_parser("status", help="inspect a crawl's state dir")
    ps.add_argument("--state-dir", required=True)
    ps.add_argument("--trace-tail", type=int, default=10)
    args = ap.parse_args(argv)
    try:
        if args.cmd == "crawl":
            return cmd_crawl(args)
        if args.cmd == "resume":
            return cmd_resume(args)
        return cmd_status(args)
    finally:
        if args.cmd in ("crawl", "resume"):
            import ray

            if ray.is_initialized():
                ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
