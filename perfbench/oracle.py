"""Output checks computed apart from the program.

Nothing here imports ``raycrawl``: links are parsed with this module's
own regex and URLs normalized with its own code, so a fault in the
program's parser or canonicalizer cannot hide itself by also being in
the check. Every check returns a list of error strings (empty = pass),
so the tests can feed it corrupted outputs and expect a rejection.
"""

from __future__ import annotations

import re
from collections import defaultdict, deque

import numpy as np

_HREF = re.compile(rb'<a\s+href="([^"]*)"', re.IGNORECASE)
_URL = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*)://([^/?#]*)([^?#]*)(\?[^#]*)?")
_PCT = re.compile(r"%([0-9A-Fa-f]{2})")
_UNRESERVED = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)
_CANONICAL = re.compile(r"^http://[a-z0-9.-]+(/[A-Za-z0-9_~-][A-Za-z0-9_~/-]*)?$")


def _pct(m: re.Match) -> str:
    ch = chr(int(m.group(1), 16))
    return ch if ch in _UNRESERVED else "%" + m.group(1).upper()


def _dot_segments(path: str) -> str:
    out: list[str] = []
    segs = path.split("/")[1:] if path.startswith("/") else path.split("/")
    for i, seg in enumerate(segs):
        last = i == len(segs) - 1
        if seg in (".", ".."):
            if seg == ".." and out:
                out.pop()
            if last:
                out.append("")
        else:
            out.append(seg)
    return "/" + "/".join(out)


def normalize(url: str) -> str:
    """Lower-case scheme and host, drop a default port, decode
    unreserved %XX, resolve dot segments, drop the fragment."""
    if _CANONICAL.match(url) and "/." not in url:
        return url
    m = _URL.match(url.strip())
    if m is None:
        return url
    scheme = m.group(1).lower()
    host = m.group(2).lower()
    default = {"http": ":80", "https": ":443"}.get(scheme)
    if default and host.endswith(default):
        host = host[: -len(default)]
    path = _dot_segments(_PCT.sub(_pct, m.group(3) or "/"))
    query = _PCT.sub(_pct, m.group(4) or "")
    return f"{scheme}://{host}{path}{query}"


def host_of(url: str) -> str:
    return url.split("://", 1)[1].split("/", 1)[0]


def path_of(url: str) -> str:
    rest = url.split("://", 1)[1]
    i = rest.find("/")
    return rest[i:] if i >= 0 else "/"


def robots_allows(disallow: dict[str, tuple[str, ...]], url: str) -> bool:
    """Prefix-match Disallow rules per host (no Allow rules are used)."""
    prefixes = disallow.get(host_of(url))
    if not prefixes:
        return True
    p = path_of(url)
    return not any(p.startswith(x) for x in prefixes)


def closure(urls: list[str], htmls: list[bytes], seeds: list[str],
            disallow: dict[str, tuple[str, ...]] | None = None) -> set[str]:
    """BFS closure from ``seeds`` over the corpus' ``<a href>`` links,
    in canonical form. URLs outside the corpus are in the closure (they
    dead-letter) but have no out-links. With ``disallow``, a URL the
    robots rules forbid (seeds included) is never entered."""
    body = {normalize(u): h for u, h in zip(urls, htmls)}
    ok = (lambda u: True) if not disallow else (
        lambda u: robots_allows(disallow, u))
    seen: set[str] = set()
    todo: deque[str] = deque()
    for s in seeds:
        u = normalize(s)
        if u not in seen and ok(u):
            seen.add(u)
            todo.append(u)
    while todo:
        h = body.get(todo.popleft())
        if h is None:
            continue
        for raw in _HREF.findall(h):
            u = normalize(raw.decode("utf-8"))
            if u not in seen and ok(u):
                seen.add(u)
                todo.append(u)
    return seen


def check_crawl(doc_urls: list[str], doc_texts: list[str],
                dead_urls: list[str], reach: set[str],
                corpus_text: dict[str, str], *, exact: bool,
                max_lost: int = 0) -> tuple[list[str], int]:
    """Check one crawl's documents and deadletters against the closure.

    Exact filter: documents == closure ∩ corpus, deadletters == closure
    − corpus. Bloom filter: both are subsets and the URLs missing from
    the closure (``lost``, returned) are at most ``max_lost``."""
    errs: list[str] = []
    docs = set(doc_urls)
    if len(docs) != len(doc_urls):
        errs.append(f"{len(doc_urls) - len(docs)} URLs written twice")
    dead = set(dead_urls)
    want_docs = {u for u in reach if u in corpus_text}
    want_dead = reach - want_docs
    if exact:
        if docs != want_docs:
            errs.append(
                f"documents differ from closure∩corpus: "
                f"{len(docs - want_docs)} extra, {len(want_docs - docs)} missing")
        if dead != want_dead:
            errs.append(
                f"deadletters differ from closure−corpus: "
                f"{len(dead - want_dead)} extra, {len(want_dead - dead)} missing")
    else:
        if not docs <= want_docs:
            errs.append(f"{len(docs - want_docs)} documents outside closure∩corpus")
        if not dead <= want_dead:
            errs.append(f"{len(dead - want_dead)} deadletters outside closure−corpus")
    lost = len(reach - docs - dead)
    if lost > max_lost:
        errs.append(f"{lost} closure URLs never crawled (allowed {max_lost})")
    bad = sum(1 for u, t in zip(doc_urls, doc_texts) if corpus_text.get(u) != t)
    if bad:
        errs.append(f"{bad} documents whose text differs from the corpus")
    return errs, lost


def check_politeness(doc_urls: list[str], stamps_us: np.ndarray,
                     start_us: int, epoch_us: int,
                     allowance: dict[str, int], default: int
                     ) -> tuple[list[str], float, float]:
    """Cumulative per-host politeness: for every host and window ``w``,
    the documents stamped in windows ``0..w`` (window 0 starts at the
    crawl clock's origin ``start_us``) number at most
    ``allowance(host) * (w + 1)``. Returns errors, the worst ratio of
    cumulative count to bound, and the worst ratio of one window's
    count to the allowance (above 1 when stamps run late)."""
    by_host: dict[str, list[int]] = defaultdict(list)
    win = (np.asarray(stamps_us, dtype=np.int64) - start_us) // epoch_us
    for u, w in zip(doc_urls, win.tolist()):
        by_host[host_of(u)].append(w)
    errs: list[str] = []
    worst = window = 0.0
    for host, ws in by_host.items():
        if min(ws) < 0:
            errs.append(f"{host}: document stamped before the crawl clock")
            continue
        counts = np.bincount(np.asarray(ws))
        cum = np.cumsum(counts)
        allow = allowance.get(host, default)
        window = max(window, float(counts.max() / allow))
        bound = allow * (np.arange(len(cum)) + 1)
        ratio = float((cum / bound).max())
        worst = max(worst, ratio)
        if ratio > 1.0:
            w = int(np.argmax(cum > bound))
            errs.append(f"{host}: {int(cum[w])} documents by window {w}, "
                        f"allowance {int(bound[w])}")
    return errs, worst, window


def components(ids: np.ndarray, pairs_a: np.ndarray, pairs_b: np.ndarray
               ) -> dict[int, int]:
    """Union-find over the pairs; every id labelled with its
    component's minimum id."""
    parent = {int(i): int(i) for i in ids}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(pairs_a.tolist(), pairs_b.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {i: find(i) for i in parent}


def cosine_pairs(ids: np.ndarray, vecs: np.ndarray, min_bp: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """All pairs a<b whose float64 cosine, in basis points rounded half
    up, is at least ``min_bp``."""
    v = np.asarray(vecs, dtype=np.float64)
    n = np.linalg.norm(v, axis=1, keepdims=True)
    n[n == 0] = 1.0
    v = v / n
    bp = np.floor((v @ v.T) * 10000.0 + 0.5)
    a, b = np.nonzero(np.triu(bp >= min_bp, k=1))
    return ids[a], ids[b]


def check_labels(ids: np.ndarray, got_ids: np.ndarray, got_labels: np.ndarray,
                 want: dict[int, int] | None = None) -> list[str]:
    """Cluster labels: a partition of every id; labels idempotent (a
    label's own label is itself) and equal to the minimum member; equal
    to ``want`` when given."""
    errs: list[str] = []
    got_ids = np.asarray(got_ids)
    got_labels = np.asarray(got_labels)
    if len(got_ids) != len(set(got_ids.tolist())):
        errs.append("an id is labelled more than once")
    if set(got_ids.tolist()) != set(np.asarray(ids).tolist()):
        errs.append("labelled ids differ from the input ids")
    lab = dict(zip(got_ids.tolist(), got_labels.tolist()))
    if any(lab.get(v) != v for v in set(lab.values())):
        errs.append("labels are not idempotent")
    members: dict[int, int] = {}
    for i, c in lab.items():
        members[c] = min(members.get(c, i), i)
    if any(members[c] != c for c in members):
        errs.append("a label is not its cluster's minimum member")
    if want is not None and lab != want:
        diff = sum(1 for i in want if lab.get(i) != want[i])
        errs.append(f"{diff} labels differ from the union-find components")
    return errs


def check_keep_best(labels: dict[int, int], quality: dict[int, float],
                    cluster_ids: np.ndarray, keep_ids: np.ndarray,
                    keep_quality: np.ndarray, n_members: np.ndarray
                    ) -> list[str]:
    """One keeper per multi-member cluster: the member with the best
    quality, ties to the minimum id, with the cluster's size."""
    errs: list[str] = []
    groups: dict[int, list[int]] = defaultdict(list)
    for i, c in labels.items():
        groups[c].append(i)
    want = {}
    for c, ms in groups.items():
        if len(ms) > 1:
            best = min(ms, key=lambda i: (-quality[i], i))
            want[c] = (best, quality[best], len(ms))
    got = {}
    for c, k, q, n in zip(cluster_ids.tolist(), keep_ids.tolist(),
                          keep_quality.tolist(), n_members.tolist()):
        if c in got:
            errs.append(f"cluster {c} has more than one keeper")
        got[c] = (k, q, n)
    if set(got) != set(want):
        errs.append(f"keeper clusters differ: {len(set(got) ^ set(want))}")
    bad = [c for c in want if c in got and (
        got[c][0] != want[c][0] or got[c][2] != want[c][2]
        or abs(got[c][1] - want[c][1]) > 1e-9)]
    if bad:
        errs.append(f"{len(bad)} clusters keep the wrong member")
    return errs


def frames_equal(got, want) -> list[str]:
    """Order-insensitive equality of two pandas frames."""
    import pandas as pd

    if sorted(got.columns) != sorted(want.columns):
        return [f"columns {sorted(got.columns)} != {sorted(want.columns)}"]
    cols = sorted(got.columns)
    g = got[cols].sort_values(cols).reset_index(drop=True)
    w = want[cols].sort_values(cols).reset_index(drop=True)
    if len(g) != len(w):
        return [f"{len(g)} rows, twin has {len(w)}"]
    try:
        pd.testing.assert_frame_equal(g, w, check_dtype=False)
    except AssertionError as e:
        return [str(e).splitlines()[0][:200]]
    return []
