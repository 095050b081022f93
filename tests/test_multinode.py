"""Round-4 verdict item 4: run the crawl on a SIMULATED two-node Ray
cluster (ray.cluster_utils.Cluster — two raylets/object stores in one
box) with the dispatch tier active, so shard placement, corpus-shard
resolution, offer routing, and spill paths cross an actual node
boundary (real object transfer, not just same-plasma mmaps). The crawl
must land actors on BOTH nodes and produce the exact local-mode digest.

Runs in a subprocess: the session-scoped ray fixture owns this
process's Ray, and a Cluster needs its own GCS.
"""

import json
import subprocess
import sys

import pytest

_CHILD = r"""
import json, sys, tempfile
from ray.cluster_utils import Cluster
import ray

cluster = Cluster(
    initialize_head=True,
    head_node_args={"num_cpus": 5, "include_dashboard": False},
)
cluster.add_node(num_cpus=5)
ray.init(address=cluster.address, logging_level="ERROR")

from raycrawl.corpus import default_seeds, make_pages_corpus
from raycrawl.pipelines.crawl import CrawlConfig, CrawlEngine

corpus = make_pages_corpus(num_hosts=8, pages_per_host=60, seed=21)
cfg = CrawlConfig(
    state_dir=tempfile.mkdtemp(prefix="mnode_", dir="/tmp"),
    mode="ray",
    num_shards=4,
    fetch_concurrency=6,       # 6 one-CPU workers cannot fit on one
    fetch_batch_size=64,       # 5-CPU node -> forced cross-node spread
    node_dispatchers=2,        # one dispatch tier group per node
    corpus_shards=4,           # sharded corpus objects cross the wire
    corpus_max_resident=2,
    pending_cap=200,           # exercise shard spill on the cluster too
)
engine = CrawlEngine(corpus, cfg)

# GCS actor table directly (the dashboard HTTP state API is off)
import ray._private.state as _state
worker_nodes = {
    a["Address"]["NodeID"]
    for a in _state.actors().values()
    if a.get("ActorClassName") == "CrawlWorkerStage"
    and a.get("State") == "ALIVE"
}

result = engine.run(seeds=default_seeds(2))
print(json.dumps({
    "docs": result.docs_written,
    "seen": result.seen_count,
    "digest": result.seen_digest,
    "worker_nodes": len(worker_nodes),
}))
engine.close()
ray.shutdown()
cluster.shutdown()
"""


def test_crawl_parity_on_two_node_cluster(tmp_path):
    from raycrawl.corpus import default_seeds, make_pages_corpus
    from raycrawl.pipelines.crawl import CrawlConfig, CrawlEngine

    corpus = make_pages_corpus(num_hosts=8, pages_per_host=60, seed=21)
    local = CrawlEngine(
        corpus,
        CrawlConfig(
            state_dir=str(tmp_path / "local"), mode="local", num_shards=4
        ),
    ).run(seeds=default_seeds(2))

    p = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True,
        text=True,
        timeout=360,
    )
    assert p.returncode == 0, p.stderr[-3000:]
    got = json.loads(p.stdout.strip().splitlines()[-1])
    assert got["worker_nodes"] == 2, got  # actors actually spread
    assert (got["docs"], got["seen"], got["digest"]) == (
        local.docs_written,
        local.seen_count,
        local.seen_digest,
    )
