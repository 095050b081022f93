"""`python -m raycrawl` job entrypoint (the `ray job submit` surface).

Each test runs the CLI in a subprocess with its own local Ray session
(RAY_ADDRESS=local), exactly how a submitted job's driver script runs
— independent of the pytest session's Ray."""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF = "/root/testdata/sf0.001"


def _run(args: list[str], timeout: int = 300) -> str:
    env = dict(os.environ, RAY_ADDRESS="local")
    out = subprocess.run(
        [sys.executable, "-m", "raycrawl", *args],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return out.stdout.strip().splitlines()[-1]


@pytest.fixture(scope="module")
def crawl_state(tmp_path_factory):
    state = str(tmp_path_factory.mktemp("cli_state"))
    line = _run(
        [
            "crawl",
            "--docs", f"{SF}/documents.parquet",
            "--pages-per-doc", "1",
            "--state-dir", state,
            "--num-seeds", "4",
            "--workers", "2",
            "--shards", "4",
            "--seen-filter", "exact",
        ]
    )
    return state, json.loads(line)


def test_cli_crawl_matches_flagship(crawl_state):
    # same corpus derivation + seeds as entry(): identical output size
    _, res = crawl_state
    assert res["docs_written"] == 483
    assert res["seen_count"] > 0 and res["urls_per_sec"] > 0


def test_cli_status_reads_state_dir(crawl_state):
    state, res = crawl_state
    out = json.loads(_run(["status", "--state-dir", state]))
    assert out["docs"] == res["docs_written"]
    assert out["deadletters"] == res["deadlettered"]
    events = [t["event"] for t in out["trace_tail"]]
    assert "crawl_stop" in events


def test_cli_resume_reproduces_seen_digest(crawl_state):
    # resume on COMPLETED state: zero new docs, identical URL-seen set
    state, res = crawl_state
    line = _run(
        [
            "resume",
            "--docs", f"{SF}/documents.parquet",
            "--pages-per-doc", "1",
            "--state-dir", state,
            "--workers", "2",
            "--shards", "4",
            "--seen-filter", "exact",
        ]
    )
    out = json.loads(line)
    assert out["seen_digest"] == res["seen_digest"]
    assert out["docs_written"] == 0


def test_cli_path_corpus_and_seeds_file(tmp_path):
    # corpus as a parquet PATH + explicit seeds file: the >memory shape
    from raycrawl.corpus import corpus_from_documents

    docs = pq.read_table(
        f"{SF}/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    )
    corpus = corpus_from_documents(docs, pages_per_doc=1, seed=42)
    cpath = str(tmp_path / "pages.parquet")
    pq.write_table(corpus, cpath)
    seeds = corpus.column("url").slice(0, 4).to_pylist()
    sfile = tmp_path / "seeds.txt"
    sfile.write_text("\n".join(seeds) + "\n")
    state = str(tmp_path / "state")
    line = _run(
        [
            "crawl",
            "--corpus", cpath,
            "--state-dir", state,
            "--seeds-file", str(sfile),
            "--workers", "2",
            "--shards", "4",
            "--seen-filter", "exact",
        ]
    )
    out = json.loads(line)
    assert out["docs_written"] > 0
