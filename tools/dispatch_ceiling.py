#!/usr/bin/env python
"""Measure the pull executor's single-driver dispatch ceiling.

The continuous (pull) executor funnels every chunk through one driver
loop (`PullScheduler` in `raycrawl/pipelines/scheduler.py`): take-wave
refill, per-chunk dispatch, completion sweep, batch-stats absorb. On
the 32-CPU host that loop serves ~27 workers; a fixed multi-node
cluster has hundreds. This tool measures what the loop actually costs
per chunk and extrapolates the worker count at which the driver
saturates (utilization -> 1.0, workers start idling on dispatch
latency).

Protocol: run the bench-shaped crawl at two worker-pool sizes in one
Ray session, recording for each
  - wall time and chunks dispatched (the crawl's `driver.*` metric
    rows, read with `scheduler.driver_rows`; exact),
  - the driver-loop time budget (every bucket except `wait`, which is
    blocked-on-completion idle),
  - the driver PROCESS CPU time (getrusage, all threads — includes the
    Ray core worker's plasma/RPC threads that `fetch_local` and
    `ray.get` drive, which the loop buckets cannot see).

Extrapolation: chunk arrival rate scales ~linearly with workers (each
worker completes chunks at a roughly constant rate), so the driver
saturates at  W* = workers / driver_utilization.  Both the loop-bucket
and the process-CPU utilizations are reported; the process-CPU number
is the honest (lower) ceiling. Results land in BASELINE.md's
"dispatch ceiling" section.

Usage:  python tools/dispatch_ceiling.py   (env: RAY_GRAFT_CPUS, GRAFT_SF_DIR)
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import bench  # noqa: E402  (repo-root bench.py: corpus + sizing policy)


def _rusage() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def measure(workers: int, corpus, num_shards: int, reserve: int) -> dict:
    import shutil

    from raycrawl.corpus import seeds_for_corpus
    from raycrawl.pipelines.crawl import CrawlConfig, CrawlEngine
    from raycrawl.pipelines.scheduler import PHASES, driver_rows

    # RAYCRAWL_DISPATCHERS=N measures the tiered mode (NodeDispatcher
    # leases): driver cost per work unit should drop by ~group size.
    # RAYCRAWL_CHUNK measures scale path #1 (chunk size scales with the
    # pool): driver cost is per-chunk, so 4x chunks should raise the
    # ceiling ~4x at identical per-URL cost.
    dispatchers = int(os.environ.get("RAYCRAWL_DISPATCHERS", "0"))
    chunk = int(os.environ.get("RAYCRAWL_CHUNK", "4096"))
    seeds = seeds_for_corpus(corpus, max(64, corpus.num_rows // 50))
    state = tempfile.mkdtemp(prefix=f"raycrawl_ceiling_w{workers}_")
    cfg = CrawlConfig(
        state_dir=state,
        mode="ray",
        num_shards=num_shards,
        fetch_concurrency=workers,
        fetch_batch_size=chunk,
        reserve_cores=reserve,
        seen_filter="bloom",
        seen_capacity=max(1_000_000, corpus.num_rows * 4 // num_shards),
        node_dispatchers=dispatchers,
    )
    engine = CrawlEngine(corpus, cfg)
    cpu0, t0 = _rusage(), time.perf_counter()
    result = engine.run(seeds=seeds)
    wall, cpu = time.perf_counter() - t0, _rusage() - cpu0
    rows = driver_rows(result.metrics)
    engine.close()
    shutil.rmtree(state, ignore_errors=True)

    tm = {p: rows[f"{p}_us"] / 1e6 for p in PHASES}
    chunks = rows["chunks"]
    # fixed (once-per-crawl) phases don't scale with chunk rate: seeding,
    # start-up and the final drain/flush. Everything else in the loop is
    # work the driver repeats per chunk/cycle and is what saturates first.
    once = ("seed", "start", "final")
    fixed = sum(tm[p] for p in once)
    loop_busy = sum(
        v for k, v in tm.items() if k != "wait" and k not in once
    )
    steady_wall = max(1e-9, wall - fixed)
    cpu_steady = max(0.0, cpu - fixed)  # fixed phases are ~CPU-bound too
    # one driver RPC per lease under the tier, per chunk when flat
    rpcs = rows["leases"] if dispatchers else chunks
    return {
        "workers": workers,
        "node_dispatchers": dispatchers,
        "chunk_size": chunk,
        "wall_sec": round(wall, 3),
        "urls": result.docs_written + result.deadlettered,
        "chunks": chunks,
        "driver_rpcs": rpcs,
        "proc_cpu_ms_per_rpc": round(1e3 * cpu_steady / max(1, rpcs), 3),
        "sweeps": rows["sweeps"],
        "chunks_per_sec": round(chunks / steady_wall, 1),
        "per_worker_chunks_per_sec": round(
            chunks / steady_wall / workers, 3
        ),
        "fixed_sec": round(fixed, 3),
        "driver_loop_busy_sec": round(loop_busy, 3),
        "driver_proc_cpu_sec": round(cpu, 3),
        "loop_busy_ms_per_chunk": round(1e3 * loop_busy / chunks, 3),
        "proc_cpu_ms_per_chunk": round(1e3 * cpu_steady / chunks, 3),
        "loop_utilization": round(loop_busy / steady_wall, 3),
        "proc_cpu_utilization": round(cpu_steady / steady_wall, 3),
        "ceiling_workers_loop": int(
            workers / max(1e-9, loop_busy / steady_wall)
        ),
        "ceiling_workers_proc_cpu": int(
            workers / max(1e-9, cpu_steady / steady_wall)
        ),
        "driver_rows": rows,
    }


def main() -> None:
    import pyarrow.parquet as pq
    import ray
    from ray.data import DataContext

    corpus_file = bench.ensure_corpus()  # before ray.init (fork safety)
    try:
        os.sched_setaffinity(0, range(bench.NUM_CPUS))
    except (AttributeError, OSError):  # pragma: no cover
        pass
    ray.init(
        address="local",
        num_cpus=bench.NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    DataContext.get_current().enable_progress_bars = False
    corpus = pq.read_table(corpus_file)

    num_shards = max(4, bench.NUM_CPUS // 4)
    reserve = max(1, bench.NUM_CPUS // 8)
    full = max(2, bench.NUM_CPUS - reserve - 1)
    half = max(2, full // 2)

    runs = [measure(w, corpus, num_shards, reserve) for w in (half, full)]
    # warm-up effects land on the first run; repeat it and keep the better
    runs[0] = min(
        (runs[0], measure(half, corpus, num_shards, reserve)),
        key=lambda r: r["wall_sec"],
    )
    out = {
        "metric": "dispatch_ceiling",
        "num_cpus": bench.NUM_CPUS,
        "pages": corpus.num_rows,
        "runs": runs,
        # linearity check: per-chunk driver cost should be ~flat across
        # pool sizes if the extrapolation model holds
        "proc_cpu_ms_per_chunk_ratio": round(
            runs[1]["proc_cpu_ms_per_chunk"]
            / max(1e-9, runs[0]["proc_cpu_ms_per_chunk"]),
            3,
        ),
    }
    ray.shutdown()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
