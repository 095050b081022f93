"""Tests of the benchmark itself: each output check rejects a corrupted
output, the independent URL normalizer agrees with the corpus' URL
variants, and a tiny-scale run of every workload passes end to end.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracle  # noqa: E402


def test_normalize_variants():
    want = "http://src3.example.com/doc/12/4"
    for url in (
        want,
        "HTTP://SRC3.EXAMPLE.COM/doc/12/4",
        "http://src3.example.com:80/doc/12/4",
        "http://src3.example.com/./doc/../doc/12/4",
        "http://src3.example.com/doc/12/%34",
        "http://src3.example.com/doc/12/4#frag",
    ):
        assert oracle.normalize(url) == want, url
    # reserved characters stay escaped, in upper case
    assert oracle.normalize("http://h.example.com/a%2fb") == "http://h.example.com/a%2Fb"


def _graph():
    urls = [f"http://h.example.com/p/{i}" for i in range(5)]
    links = {0: [1, 2], 1: [3], 2: ["missing"], 3: [], 4: [0]}
    htmls = []
    for i in range(5):
        hrefs = "".join(
            f'<a href="http://H.example.com/p/{j}">x</a>' if j != "missing"
            else '<a href="http://h.example.com/gone">x</a>'
            for j in links[i])
        htmls.append(f"<html><body>{hrefs}</body></html>".encode())
    texts = {u: f"text {i}" for i, u in enumerate(urls)}
    return urls, htmls, texts


def test_closure_and_robots():
    urls, htmls, _ = _graph()
    reach = oracle.closure(urls, htmls, [urls[0]])
    assert reach == {urls[0], urls[1], urls[2], urls[3], "http://h.example.com/gone"}
    pruned = oracle.closure(urls, htmls, [urls[0]], {"h.example.com": ("/p/1",)})
    assert urls[1] not in pruned and urls[3] not in pruned


def _good_crawl():
    urls, htmls, texts = _graph()
    reach = oracle.closure(urls, htmls, [urls[0]])
    docs = sorted(u for u in reach if u in texts)
    return reach, texts, docs, [texts[u] for u in docs], ["http://h.example.com/gone"]


def test_crawl_check_accepts_correct_output():
    reach, texts, docs, dtexts, dead = _good_crawl()
    errs, lost = oracle.check_crawl(docs, dtexts, dead, reach, texts, exact=True)
    assert errs == [] and lost == 0


def test_crawl_check_rejects_dropped_url():
    reach, texts, docs, dtexts, dead = _good_crawl()
    errs, lost = oracle.check_crawl(docs[1:], dtexts[1:], dead, reach, texts, exact=True)
    assert errs and lost == 1
    # the Bloom mode tolerates a loss only within its bound
    errs, _ = oracle.check_crawl(docs[1:], dtexts[1:], dead, reach, texts,
                                 exact=False, max_lost=0)
    assert errs
    errs, _ = oracle.check_crawl(docs[1:], dtexts[1:], dead, reach, texts,
                                 exact=False, max_lost=1)
    assert errs == []


def test_crawl_check_rejects_duplicate_and_changed_text():
    reach, texts, docs, dtexts, dead = _good_crawl()
    errs, _ = oracle.check_crawl(docs + docs[:1], dtexts + dtexts[:1], dead,
                                 reach, texts, exact=True)
    assert any("twice" in e for e in errs)
    bad = list(dtexts)
    bad[0] += " "
    errs, _ = oracle.check_crawl(docs, bad, dead, reach, texts, exact=True)
    assert any("text" in e for e in errs)
    errs, _ = oracle.check_crawl(docs, dtexts, [], reach, texts, exact=True)
    assert any("deadletters" in e for e in errs)


def test_politeness_check():
    epoch = 1_000_000
    start = 5 * epoch
    urls = ["http://a.example.com/x"] * 4 + ["http://b.example.com/y"] * 2
    # a: 2 per window in windows 0 and 1; b: 2 in window 0 (allowance 2)
    stamps = np.array([0, 0, 1, 1, 0, 0]) * epoch + start
    errs, worst, _ = oracle.check_politeness(urls, stamps, start, epoch, {}, 2)
    assert errs == [] and worst == 1.0
    # one allowance exceeded: a third document of host a in window 0
    stamps = np.array([0, 0, 0, 1, 0, 0]) * epoch + start
    errs, worst, _ = oracle.check_politeness(urls, stamps, start, epoch, {}, 2)
    assert errs and worst > 1.0
    # a per-host override (crawl-delay host) binds tighter
    stamps = np.array([0, 0, 1, 1, 0, 0]) * epoch + start
    errs, *_ = oracle.check_politeness(urls, stamps, start, epoch,
                                      {"a.example.com": 1}, 2)
    assert errs
    # cumulative: a burst after a quiet window is within the allowance
    stamps = np.array([1, 1, 1, 1, 0, 0]) * epoch + start
    errs, *_ = oracle.check_politeness(urls, stamps, start, epoch, {}, 2)
    assert errs == []


def test_label_checks():
    ids = np.arange(6)
    a, b = np.array([0, 1, 4]), np.array([1, 2, 5])
    want = oracle.components(ids, a, b)
    assert want == {0: 0, 1: 0, 2: 0, 3: 3, 4: 4, 5: 4}
    labels = np.array([want[i] for i in ids])
    assert oracle.check_labels(ids, ids, labels, want) == []
    perturbed = labels.copy()
    perturbed[2] = 1  # one label moved to a non-minimum member
    assert oracle.check_labels(ids, ids, perturbed, want)
    assert oracle.check_labels(ids, ids, perturbed)  # property check alone
    # a dropped id is not a partition of every id
    assert oracle.check_labels(ids, ids[1:], labels[1:])


def test_cosine_pairs_threshold():
    v = np.array([[1.0, 0.0], [0.35, np.sqrt(1 - 0.35**2)], [0.0, 1.0]])
    a, b = oracle.cosine_pairs(np.array([10, 11, 12]), v, 3500)
    assert sorted(zip(a.tolist(), b.tolist())) == [(10, 11), (11, 12)]


def test_keep_best_check():
    labels = {0: 0, 1: 0, 2: 0, 3: 3, 4: 4, 5: 4}
    quality = {0: 0.5, 1: 0.9, 2: 0.9, 3: 0.1, 4: 0.2, 5: 0.1}
    good = (np.array([0, 4]), np.array([1, 4]), np.array([0.9, 0.2]), np.array([3, 2]))
    assert oracle.check_keep_best(labels, quality, *good) == []
    # tie on quality goes to the smaller id: keeping 2 is wrong
    bad = (np.array([0, 4]), np.array([2, 4]), np.array([0.9, 0.2]), np.array([3, 2]))
    assert oracle.check_keep_best(labels, quality, *bad)
    # a missing cluster is wrong too
    assert oracle.check_keep_best(labels, quality, *(x[:1] for x in good))


def test_embeddings_pin_the_lowest_id():
    import inputs
    for seed in (1, 2):
        t = inputs.make_embeddings(seed, 600)
        v = np.stack(t.column("embedding").to_numpy(zero_copy_only=False))
        a, b = oracle.cosine_pairs(t.column("vec_id").to_numpy(), v,
                                   inputs.NEAR_DUP_BP)
        # sf0.1's edge density: mean degree about 4
        assert 3.5 < 2 * len(a) / len(v) < 4.8
        adj = np.zeros((len(v), len(v)), dtype=bool)
        adj[a, b] = adj[b, a] = True
        ecc, giant = inputs._eccentricities(adj)
        assert giant[0] and ecc[0] == inputs.EMB_ECC
        assert giant.sum() > 0.9 * len(v)


def test_stale_run_is_cleaned(tmp_path):
    import run
    procs = {
        token: subprocess.Popen(["sleep", "60"], process_group=0,
                                env=dict(os.environ, **{run.RUN_TOKEN: token}))
        for token in ("stale", "other")
    }
    ray_dir = tmp_path / "ray"
    ray_dir.mkdir()
    record = tmp_path / "run.json"

    def clean(pgid: int) -> None:
        record.write_text(json.dumps(
            {"pgid": pgid, "token": "stale", "ray_temp": str(ray_dir)}))
        run._clean_stale(str(record))

    try:
        # a group whose members lack the recorded token is spared
        clean(procs["other"].pid)
        assert procs["other"].poll() is None
        clean(procs["stale"].pid)
        assert procs["stale"].wait(timeout=30) != 0
        assert procs["other"].poll() is None
        assert not ray_dir.exists()
    finally:
        for p in procs.values():
            p.kill()
            p.wait()


@pytest.mark.parametrize("workload", ["crawl", "polite", "dedup_ops"])
def test_tiny_run(workload, tmp_path):
    p = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0", "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=240)
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert res["correct"] is True
    assert res["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {m["name"] for m in spec["end_to_end"]}
    assert set(res["metrics"]) == names
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_refuses_without_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (tmp_path / "perfbench" / name).write_bytes(
                open(os.path.join(BENCH, name), "rb").read())
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    assert p.returncode != 0 and p.stdout.strip() == ""
