"""One run of one benchmark workload, in a process of its own.

``run.py`` starts this module as the leader of a new process group with
the checkout on ``PYTHONPATH`` and reads the JSON it writes to
``--out``. The child makes its inputs from the seed (untimed), starts a
local Ray session, runs whole rounds of the workload's operations until
``--seconds`` of timed work have passed, checks every output against
the computations in ``oracle.py`` and writes ``{correct, attempted,
failed, metrics}``.

Throughput is work items per wall second of the timed calls alone
(``CrawlEngine.run`` or one pass of the queries), so that overlap and
idle workers show. Set-up is CPU seconds of the whole process group
(this process, Ray's raylet and GCS, and every worker and actor), read
from ``/proc``. Readback and the other clock of each are per-layer
metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import shutil
import statistics
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import inputs
import layers
import oracle

WORKLOADS = ("crawl", "polite", "dedup_ops")

SIZES = {
    # crawl_docs x pages_per_doc pages on 20 hosts; polite_cap is the
    # per-shard pending_cap that forces the frontier spill
    "full": dict(crawl_docs=1000, pages_per_doc=20, polite_cap=800,
                 dedup_docs=1000, dedup_vecs=600),
    # the smoke test's scale
    "tiny": dict(crawl_docs=60, pages_per_doc=5, polite_cap=40,
                 dedup_docs=200, dedup_vecs=48),
}
# Two fetch workers (= Ray CPUs) and two frontier shards on any host:
# the floor at which one worker's result transfer overlaps the other's
# compute, and a fixed decomposition of the work.
WORKERS = 2
SHARDS = 2
NUM_SEEDS = 64
POLITE_RATE = 200.0        # host_rate_per_sec
EPOCH_S = 1.0
READBACKS = 3              # readbacks per round (median reported)
# fewest crawls a crawl or polite run makes: set-up is sampled once a
# crawl, and a session's first engine gets its actors on the worker
# processes ray.init prestarted while later ones spawn their own
CRAWL_ROUNDS = 2

QUERIES = (
    "near_dup_clusters", "dedup_keep_best", "embedding_dup_clusters",
    "term_doc_frequency", "bm25_search_topk", "tfidf_topk_terms",
    "importance_sample",
)
TWINNED = ("term_doc_frequency", "bm25_search_topk", "tfidf_topk_terms",
           "importance_sample")
NEAR_DUP_BP = 3500         # the embedding near-dup threshold (cosine 0.35)

END_TO_END = {
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
}
PER_LAYER = {
    "cpu.items_per_s": "1/s", "cpu.readback_s": "s",
    "wall.setup_s": "s", "wall.readback_s": "s",
    "crawl.run_s": "s", "crawl.sched_cpu_s": "s", "crawl.cycles": "count",
    "fetch.busy_s": "s", "fetch.idle_s": "s", "fetch.us_per_url": "us",
    "fetch.chunks": "count", "fetch.attempts": "count", "fetch.done": "count",
    "ray.deserialize_s": "s", "ray.store_outputs_s": "s",
    "frontier.take_s": "s", "frontier.offer_s": "s",
    "frontier.requeue_s": "s", "frontier.flush_s": "s",
    "frontier.calls": "count", "frontier.shard_skew": "ratio",
    "frontier.offered_rows": "count", "frontier.admitted_rows": "count",
    "frontier.defer_rows": "count", "frontier.spilled_rows": "count",
    "frontier.unspilled_rows": "count",
    "politeness.worst_ratio": "ratio", "politeness.worst_window_ratio": "ratio",
    "seenfilter.admit_ratio": "ratio", "seenfilter.us_per_key": "us",
    "seenfilter.lost_urls": "count",
    "crawl.local_us_per_url": "us", "fetch.lookup_us_per_url": "us",
    "extract.us_per_page": "us", "visitor.us_per_page": "us",
    "urlnorm.us_per_link": "us", "frontier.offer_us_per_row": "us",
    "frontier.take_us_per_row": "us", "fetch.sink_write_s": "s",
    "frontier.parquet_write_s": "s", "fetch.loop_us_per_url": "us",
    "api.doc_files": "count",
    **{
        f"textops.{q}.{k}": u
        for q in QUERIES
        for k, u in (("cpu_s", "s"), ("s", "s"), ("executions", "count"),
                     ("shuffle_s", "s"), ("map_s", "s"),
                     ("blocks_out", "count"), ("empty_blocks", "count"))
    },
    "trace.overhead_s": "s",
}

_TICK = os.sysconf("SC_CLK_TCK")


def group_cpu_s() -> float:
    """CPU seconds (user + system, own and reaped children) of every
    process in this process group. Time a process waits for a core is
    not in it."""
    me = os.getpgrp()
    total = 0
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == me:
            total += sum(int(x) for x in fields[11:15])
    return total / _TICK


def settle(quiet: float = 0.15, step: float = 0.25, limit: float = 15.0) -> None:
    """Wait until the process group uses under ``quiet`` of a core
    (Ray starts and stops worker processes in the background after the
    call that caused it returns), so that CPU lands in the window of
    the operation that caused it."""
    deadline = time.monotonic() + limit
    last = group_cpu_s()
    while time.monotonic() < deadline:
        time.sleep(step)
        now = group_cpu_s()
        if now - last < quiet * step:
            return
        last = now


class Meter:
    """Wall and process-group CPU seconds of a ``with`` block. With
    ``settled``, the CPU window stays open until the group is quiet
    (``settle``), so it takes in the background work the block caused;
    the wall time stops with the block."""

    def __init__(self, settled: bool = False) -> None:
        self.cpu = self.wall = 0.0
        self.settled = settled
        self.end_us = 0.0

    def __enter__(self) -> "Meter":
        self.cpu -= group_cpu_s()
        self.wall -= time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall += time.perf_counter()
        self.end_us = time.time() * 1e6
        if self.settled:
            settle()
        self.cpu += group_cpu_s()

    def add(self, other: "Meter") -> None:
        self.cpu += other.cpu
        self.wall += other.wall


class Run:
    """Samples and counters of one run."""

    def __init__(self, seconds: float, trace: bool, size: dict) -> None:
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.once = Meter()      # ray.init and imports, paid once a run
        self.setup: list[Meter] = []
        self.work: list[Meter] = []
        self.items: list[int] = []
        self.readback_cpu: list[float] = []
        self.readback_wall: list[float] = []
        self.layer: dict[str, float] = {}

    def more(self, min_rounds: int = 1) -> bool:
        """Another whole round? Until ``seconds`` of timed work and at
        least ``min_rounds`` rounds."""
        return (len(self.work) < min_rounds
                or sum(m.wall for m in self.work) < self.seconds)

    def readback(self, fn):
        cpu, t = time.process_time(), time.perf_counter()
        out = fn()
        self.readback_wall.append(time.perf_counter() - t)
        self.readback_cpu.append(time.process_time() - cpu)
        self.attempted += 1
        return out

    def metrics(self) -> dict:
        """Medians over the run's rounds and readbacks."""
        med = statistics.median
        setup = self.setup
        values = {
            "items_per_s": med(n / w.wall for n, w in zip(self.items, self.work)),
            "setup_s": self.once.cpu + (med(s.cpu for s in setup) if setup else 0.0),
        }
        print(f"end to end {values}", file=sys.stderr)
        if not self.trace:
            return {k: {"value": v, "unit": END_TO_END[k]}
                    for k, v in values.items()}
        self.layer.update({
            "cpu.items_per_s": med(n / w.cpu for n, w in zip(self.items, self.work)),
            "cpu.readback_s": med(self.readback_cpu),
            "wall.setup_s": self.once.wall + (med(s.wall for s in setup) if setup else 0.0),
            "wall.readback_s": med(self.readback_wall),
        })
        return {k: {"value": float(self.layer.get(k, 0.0)), "unit": u}
                for k, u in PER_LAYER.items()}


# -- crawl and polite --------------------------------------------------------


def _robots(field: str) -> dict[str, list[str]]:
    """``{host: [values]}`` of one robots.txt field of inputs.ROBOTS."""
    out: dict[str, list[str]] = {}
    for i, body in inputs.ROBOTS.items():
        for line in body.splitlines():
            if line.lower().startswith(field + ":"):
                out.setdefault(f"src{i}.example.com", []).append(
                    line.split(":", 1)[1].strip())
    return out


def allowances() -> tuple[dict[str, int], int]:
    """Per-host window allowance from the config the benchmark sets:
    max(1, int(min(rate, 1/crawl_delay) * epoch_seconds))."""
    over = {h: max(1, int(min(POLITE_RATE, 1 / float(v[0])) * EPOCH_S))
            for h, v in _robots("crawl-delay").items()}
    return over, max(1, int(POLITE_RATE * EPOCH_S))


def _crawl_config(polite: bool, state_dir: str, n_pages: int, local: bool,
                  pending_cap: int):
    from raycrawl.pipelines.crawl import CrawlConfig

    kw = dict(state_dir=state_dir, num_shards=SHARDS,
              fetch_concurrency=WORKERS,
              epoch_budget=max(100_000, n_pages),
              mode="local" if local else "ray")
    # the continuous pull executor, for as long as the config still
    # offers a choice of Ray executor
    if not local and "ray_exec" in {f.name for f in dataclasses.fields(CrawlConfig)}:
        kw["ray_exec"] = "pull"
    if polite:
        kw.update(seen_filter="exact", host_rate_per_sec=POLITE_RATE,
                  epoch_seconds=EPOCH_S, respect_robots=True,
                  pending_cap=pending_cap)
    else:
        # sized for the pages it will hold, so false positives happen
        kw.update(seen_filter="bloom",
                  seen_capacity=-(-n_pages * 5 // (4 * SHARDS)))
    return CrawlConfig(**kw)


def _parquet_files(state_dir: str, sub: str) -> list[str]:
    return sorted(glob.glob(os.path.join(state_dir, sub, "**", "*.parquet"),
                            recursive=True))


def _read(state_dir: str, sub: str, cols: list[str]) -> pa.Table | None:
    files = _parquet_files(state_dir, sub)
    if not files:
        return None
    return pa.concat_tables(pq.read_table(f, columns=cols) for f in files)


class Expected:
    """What a crawl of this corpus must produce, computed without the
    program: the seeds, the BFS closure and the corpus text per URL."""

    def __init__(self, corpus_path: str, polite: bool) -> None:
        ref = pq.read_table(corpus_path, columns=["url", "html", "text"])
        urls = ref.column("url").to_pylist()
        pages = [i for i, u in enumerate(urls) if not u.endswith("/robots.txt")]
        self.disallow = (
            {h: tuple(v) for h, v in _robots("disallow").items()}
            if polite else None)
        step = max(1, len(pages) // (NUM_SEEDS * 2))
        self.seeds = [
            urls[i] for i in pages[::step]
            if self.disallow is None
            or oracle.robots_allows(self.disallow, oracle.normalize(urls[i]))
        ][:NUM_SEEDS]
        self.reach = oracle.closure(
            urls, ref.column("html").to_pylist(), self.seeds, self.disallow)
        texts = ref.column("text").to_pylist()
        self.text = {oracle.normalize(urls[i]): texts[i] for i in pages}
        self.n_pages = len(urls)


def check_crawl_output(state: str, res, exp: Expected, cfg, polite: bool,
                       latest_rows: int) -> tuple[list[str], int, tuple]:
    """Errors, closure URLs lost and the worst politeness ratios
    (cumulative, single window)."""
    docs = _read(state, "documents", ["url", "text", "processed_at"])
    dead = _read(state, "deadletters", ["url"])
    doc_urls = docs.column("url").to_pylist() if docs else []
    dead_urls = dead.column("url").to_pylist() if dead else []
    errs, lost = oracle.check_crawl(
        doc_urls, docs.column("text").to_pylist() if docs else [], dead_urls,
        exp.reach, exp.text, exact=polite,
        max_lost=0 if polite else int(3 * cfg.seen_fpr * len(exp.reach)) + 5)
    if latest_rows != len(set(doc_urls)):
        errs.append(f"latest_documents has {latest_rows} rows for "
                    f"{len(set(doc_urls))} documents")
    if (res.docs_written, res.deadlettered) != (len(doc_urls), len(dead_urls)):
        errs.append("CrawlResult counts differ from the written output")
    worst = (0.0, 0.0)
    if polite and docs:
        over, default = allowances()
        perr, *worst = oracle.check_politeness(
            doc_urls, docs.column("processed_at").to_numpy(),
            cfg.base_ts_us, int(EPOCH_S * 1e6), over, default)
        errs += perr
    return errs, lost, worst


def run_crawl(run: Run, seed: int, polite: bool, state_root: str) -> None:
    size = run.size
    corpus_path = inputs.pages_corpus(seed, size["crawl_docs"],
                                      size["pages_per_doc"], robots=polite)
    exp = Expected(corpus_path, polite)
    seed_specs = [{"url": u} for u in exp.seeds]
    with run.once:
        import ray

        from raycrawl import api
        from raycrawl.pipelines.crawl import CrawlEngine

    while run.more(CRAWL_ROUNDS):
        state = os.path.join(state_root, f"round{len(run.work)}")
        settle()
        with Meter(settled=True) as setup:
            table = pq.read_table(corpus_path)
            cfg = _crawl_config(polite, state, exp.n_pages, local=False,
                                pending_cap=size["polite_cap"])
            engine = CrawlEngine(table, cfg)
        run.setup.append(setup)
        driver_cpu, t0_us = time.process_time(), time.time() * 1e6
        with Meter(settled=True) as work:
            res = engine.run(seeds=seed_specs)
        driver_cpu = time.process_time() - driver_cpu
        t1_us = work.end_us
        run.attempted += 1
        run.work.append(work)
        run.items.append(res.docs_written + res.deadlettered)
        print(f"round {len(run.work)}: {run.items[-1]} urls, "
              f"{work.wall:.3f}s wall, {work.cpu:.3f}s cpu; "
              f"setup {setup.wall:.3f}s wall, {setup.cpu:.3f}s cpu",
              file=sys.stderr)
        first = len(run.work) == 1
        if run.trace and first:
            _pull_layers(run, ray.timeline, res, len(engine.workers),
                         t0_us, t1_us, work.wall, driver_cpu)
        engine.close()
        del engine, table
        for _ in range(READBACKS):
            latest = run.readback(lambda: api.latest_documents(state))
        print(f"  readback {statistics.median(run.readback_cpu[-READBACKS:]):.4f}s "
              f"cpu, {statistics.median(run.readback_wall[-READBACKS:]):.4f}s wall "
              f"over {len(_parquet_files(state, 'documents'))} files",
              file=sys.stderr)
        errs, lost, worst = check_crawl_output(
            state, res, exp, cfg, polite, latest.num_rows)
        run.errors += errs
        if first:
            run.layer["seenfilter.lost_urls"] = lost
            (run.layer["politeness.worst_ratio"],
             run.layer["politeness.worst_window_ratio"]) = worst
            run.layer["api.doc_files"] = len(_parquet_files(state, "documents"))
        shutil.rmtree(state, ignore_errors=True)

    if run.trace:
        _local_layers(run, corpus_path, seed_specs, polite, state_root,
                      exp.n_pages)


def _pull_layers(run: Run, timeline, res, workers: int,
                 t0_us: float, t1_us: float, wall: float,
                 driver_cpu: float) -> None:
    """Per-layer numbers of one pull-executor crawl: Ray's task
    timeline (read by calling ``timeline``, inside the overhead
    window) grouped by actor method, and the crawl's own counters."""
    t = time.perf_counter()
    run.layer.update(layers.timeline_layers(timeline(), t0_us, t1_us, workers))
    counts: dict[str, float] = {}
    for row in res.metrics.to_pylist():
        counts[row["name"]] = counts.get(row["name"], 0) + row["value"]
    attempts, offered = counts.get("fetch", 0), counts.get("offered", 0)
    run.layer.update({
        "crawl.run_s": wall,
        "crawl.sched_cpu_s": driver_cpu,
        "crawl.cycles": res.epochs,
        "fetch.attempts": attempts,
        "fetch.done": counts.get("done", 0),
        "fetch.us_per_url": (
            run.layer["fetch.busy_s"] / attempts * 1e6 if attempts else 0.0),
        "frontier.offered_rows": offered,
        "frontier.admitted_rows": counts.get("push", 0),
        "frontier.defer_rows": counts.get("defer", 0),
        "frontier.spilled_rows": counts.get("spilled", 0),
        "frontier.unspilled_rows": counts.get("unspilled", 0),
        "seenfilter.admit_ratio": (
            counts.get("push", 0) / offered if offered else 0.0),
    })
    run.layer["trace.overhead_s"] = time.perf_counter() - t


def _local_layers(run: Run, corpus_path: str, seed_specs: list[dict],
                  polite: bool, state_root: str, n_pages: int) -> None:
    """The same crawl through mode='local' twice, plain and with the
    kernels wrapped: the single-threaded baseline and its breakdown."""
    from raycrawl.pipelines.crawl import CrawlEngine

    table = pq.read_table(corpus_path)
    walls = []
    spans = layers.KernelSpans()
    for traced in (False, True):
        state = os.path.join(state_root, f"local{int(traced)}")
        engine = CrawlEngine(table, _crawl_config(
            polite, state, n_pages, local=True,
            pending_cap=run.size["polite_cap"]))
        if traced:
            spans.install()
        try:
            t = time.perf_counter()
            res = engine.run(seeds=seed_specs)
            walls.append(time.perf_counter() - t)
        finally:
            spans.uninstall()
        shutil.rmtree(state, ignore_errors=True)
    n = max(1, res.docs_written + res.deadlettered)
    run.layer.update({
        "crawl.local_us_per_url": walls[0] / n * 1e6,
        "fetch.lookup_us_per_url":
            (spans.time["lookup"] + spans.time["bodies"]) / n * 1e6,
        "extract.us_per_page": spans.per_item_us("extract"),
        "visitor.us_per_page": spans.per_item_us("visitor"),
        "urlnorm.us_per_link": spans.per_item_us("urlnorm"),
        "frontier.offer_us_per_row": spans.per_item_us("offer"),
        "frontier.take_us_per_row": spans.per_item_us("take"),
        "seenfilter.us_per_key": spans.per_item_us("seen"),
        "fetch.sink_write_s": spans.time["sink_write"],
        "frontier.parquet_write_s": spans.time["parquet_write"],
        "fetch.loop_us_per_url": max(0.0, walls[1] - spans.covered) / n * 1e6,
    })
    run.layer["trace.overhead_s"] += walls[1] - walls[0]


# -- dedup_ops ---------------------------------------------------------------


def _frame(result):
    import ray.data

    if isinstance(result, (ray.data.Dataset, pa.Table)):
        return result.to_pandas()
    return result


def check_queries(sf: str, frames: dict, oracles: dict) -> list[str]:
    """Twins through DuckDB, numpy components and cluster properties."""
    import duckdb

    errs: list[str] = []
    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{os.path.join(sf, t + '.parquet')}')")
    for q in TWINNED:
        errs += [f"{q}: {e}" for e in
                 oracle.frames_equal(frames[q], con.execute(oracles[q]).df())]
    doc_ids = pq.read_table(os.path.join(sf, "documents.parquet"),
                            columns=["doc_id"]).column("doc_id").to_numpy()
    nd = frames["near_dup_clusters"]
    errs += [f"near_dup_clusters: {e}" for e in oracle.check_labels(
        doc_ids, nd["doc_id"].to_numpy(), nd["cluster_id"].to_numpy())]
    quality = dict(con.execute(
        f"SELECT doc_id, quality FROM ({oracles['quality_scores']})").fetchall())
    kb = frames["dedup_keep_best"]
    errs += [f"dedup_keep_best: {e}" for e in oracle.check_keep_best(
        dict(zip(nd["doc_id"].tolist(), nd["cluster_id"].tolist())), quality,
        kb["cluster_id"].to_numpy(), kb["keep_doc_id"].to_numpy(),
        kb["keep_quality"].to_numpy(), kb["n_members"].to_numpy())]
    emb = pq.read_table(os.path.join(sf, "embeddings.parquet"))
    ids = emb.column("vec_id").to_numpy()
    vecs = np.stack(emb.column("embedding").to_numpy(zero_copy_only=False))
    a, b = oracle.cosine_pairs(ids, vecs, NEAR_DUP_BP)
    ec = frames["embedding_dup_clusters"]
    errs += [f"embedding_dup_clusters: {e}" for e in oracle.check_labels(
        ids, ec["vec_id"].to_numpy(), ec["cluster_id"].to_numpy(),
        oracle.components(ids, a, b))]
    return errs


def run_dedup(run: Run, seed: int) -> None:
    sf = inputs.sf_dir(seed, run.size["dedup_docs"], run.size["dedup_vecs"])
    with run.once:
        import ray
        import ray.data

        import __ray_entry__

        counter = layers.ExecutionCounter()
        counter.install()
        registry = __ray_entry__.queries()
    # untimed warm-up: starts the Ray Data worker processes and imports
    # the query modules in them
    registry["term_doc_frequency"](sf).materialize()

    first: dict | None = None
    cpu: dict[str, list[float]] = {q: [] for q in QUERIES}
    wall: dict[str, list[float]] = {q: [] for q in QUERIES}
    while run.more():
        results = {}
        suite = Meter()
        settle()
        for q in QUERIES:
            n0 = counter.count
            with Meter(settled=True) as m:
                r = registry[q](sf)
                if isinstance(r, ray.data.Dataset):
                    r = r.materialize()
            run.attempted += 1
            print(f"  {q}: {m.wall:.3f}s wall, {m.cpu:.3f}s cpu",
                  file=sys.stderr)
            cpu[q].append(m.cpu)
            wall[q].append(m.wall)
            suite.add(m)
            results[q] = r
            if run.trace and first is None:
                _query_layers(run, q, r, counter.count - n0)
        run.work.append(suite)
        run.items.append(run.size["dedup_docs"])
        print(f"round {len(run.work)}: suite {suite.wall:.3f}s wall, "
              f"{suite.cpu:.3f}s cpu", file=sys.stderr)
        # one export per Dataset result: fails with ArrowInvalid while
        # map_groups partitions come back as zero-column blocks
        for r in results.values():
            if isinstance(r, ray.data.Dataset):
                run.attempted += 1
                try:
                    pa.concat_tables(ray.get(r.to_arrow_refs()))
                except pa.ArrowInvalid:
                    run.failed += 1
        for _ in range(READBACKS):
            frames = run.readback(
                lambda: {q: _frame(r) for q, r in results.items()})
        if first is None:
            run.errors += check_queries(sf, frames, __ray_entry__.oracle_sql())
            first = frames
        else:
            for q in QUERIES:
                run.errors += [f"{q} (repeat): {e}" for e in
                               oracle.frames_equal(frames[q], first[q])]
        del results
    for q in QUERIES:
        run.layer[f"textops.{q}.cpu_s"] = statistics.median(cpu[q])
        run.layer[f"textops.{q}.s"] = statistics.median(wall[q])


def _query_layers(run: Run, q: str, result, executions: int) -> None:
    """Ray Data executions a query started, its operators' summed
    shuffle and map spans, and its output blocks (empty = no columns)."""
    import ray
    import ray.data

    t = time.perf_counter()
    run.layer[f"textops.{q}.executions"] = executions
    if isinstance(result, ray.data.Dataset):
        shuffle, mapped = layers.stats_times(result.stats())
        blocks = ray.get(result.to_arrow_refs())
        run.layer.update({
            f"textops.{q}.shuffle_s": shuffle,
            f"textops.{q}.map_s": mapped,
            f"textops.{q}.blocks_out": len(blocks),
            f"textops.{q}.empty_blocks": sum(
                1 for b in blocks if b.num_columns == 0),
        })
    run.layer["trace.overhead_s"] = (
        run.layer.get("trace.overhead_s", 0.0) + time.perf_counter() - t)


# -- entry -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--ray-temp", required=True)
    ap.add_argument("--scale", choices=SIZES, default="full")
    a = ap.parse_args(argv)

    size = SIZES[a.scale]
    run = Run(a.seconds, bool(a.trace), size)
    os.makedirs(a.work_dir, exist_ok=True)
    # inputs first, untimed
    if a.workload == "dedup_ops":
        inputs.sf_dir(a.seed, size["dedup_docs"], size["dedup_vecs"])
    else:
        inputs.pages_corpus(a.seed, size["crawl_docs"], size["pages_per_doc"],
                            robots=a.workload == "polite")
    with run.once:
        import ray

        ray.init(address="local", num_cpus=WORKERS, include_dashboard=False,
                 logging_level="ERROR", object_store_memory=512 * 2**20,
                 _temp_dir=a.ray_temp)
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        settle()
    try:
        if a.workload == "dedup_ops":
            run_dedup(run, a.seed)
        else:
            run_crawl(run, a.seed, a.workload == "polite", a.work_dir)
    finally:
        ray.shutdown()

    for e in run.errors:
        print("CHECK FAILED:", e, file=sys.stderr)
    with open(a.out, "w") as f:
        json.dump({"correct": not run.errors, "attempted": run.attempted,
                   "failed": run.failed, "metrics": run.metrics()}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
